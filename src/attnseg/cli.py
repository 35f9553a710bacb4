"""Command-line pipeline orchestration.

Subcommands cover every stage: synthetic corpus generation, MFCC
extraction, AUD training/decoding, aligner training, forced decoding,
segmentation, baselines, evaluation, heatmap export, and `pipeline`, which
runs the text stages in turn. Every artifact gets a sidecar manifest
(inputs, effective config, seed) sufficient to re-run its producing stage
bit-identically.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
`main` maps each of the three classes in `attnseg.errors` to its code once:
`ConfigError` (or a bad command line) to 2, `DataError` (or an `OSError`) to
3 and `NumericalError` to 4.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass

from . import aligner as al
from . import aud as aud_mod
from . import baselines as bl
from . import corpus as cp
from . import metrics as mt
from . import segmenter as sg
from .errors import ConfigError, DataError, NumericalError

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4

DEV_FRACTION = 0.1  # the share of the corpus that `train-aligner` holds out for early stopping


# ---------------------------------------------------------------------------
# Synthetic corpus generation

@dataclass
class SynthConfig:
    lexicon_size: int = 20
    word_len_min: int = 2
    word_len_max: int = 5
    sent_len_min: int = 2
    sent_len_max: int = 6
    corpus_size: int = 500
    alphabet_size: int = 12
    sub_rate: float = 0.0
    del_rate: float = 0.0
    ins_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.lexicon_size, self.corpus_size, self.word_len_min,
               self.sent_len_min, self.alphabet_size) < 1:
            raise ConfigError("synthetic corpus sizes must be >= 1")
        if self.word_len_max < self.word_len_min or self.sent_len_max < self.sent_len_min:
            raise ConfigError("inconsistent length ranges")
        if self.alphabet_size > 26:
            raise ConfigError("alphabet limited to 26 single-character symbols")
        for r in (self.sub_rate, self.del_rate, self.ins_rate):
            if not 0.0 <= r < 1.0:
                raise ConfigError("noise rates must be in [0, 1)")
        # synth_corpus draws until it has lexicon_size distinct UL words; count
        # them only until there are that many, so long words cost nothing
        if self.alphabet_size == 1:
            words = self.word_len_max - self.word_len_min + 1
        else:
            words, n = 0, self.word_len_min
            while words < self.lexicon_size and n <= self.word_len_max:
                # a ** n exceeds lexicon_size once n reaches its bit length
                words += self.alphabet_size ** min(n, self.lexicon_size.bit_length())
                n += 1
        if words < self.lexicon_size:
            raise ConfigError("lexicon_size %d exceeds the %d distinct UL words of %d symbols"
                              " and lengths %d-%d" % (self.lexicon_size, words, self.alphabet_size,
                                                      self.word_len_min, self.word_len_max))


def _noisy_word(word: tuple[str, ...], alphabet: list[str], cfg: SynthConfig,
                rng: random.Random) -> tuple[str, ...]:
    out = []
    for s in word:
        if cfg.del_rate and rng.random() < cfg.del_rate and len(word) > 1:
            pass  # deletion; guarded below against emptying the word
        else:
            if cfg.sub_rate and rng.random() < cfg.sub_rate:
                s = rng.choice([a for a in alphabet if a != s])
            out.append(s)
        if cfg.ins_rate and rng.random() < cfg.ins_rate:
            out.append(rng.choice(alphabet))
    if not out:
        out = [rng.choice(alphabet)]
    return tuple(out)


def synth_corpus(cfg: SynthConfig,
                 gold: dict[str, cp.Segmentation] | None = None) -> cp.ParallelCorpus:
    """Toy parallel corpus: random UL lexicon paired 1:1 with WRL words.

    The UL side is emitted unsegmented; `gold`, when given, receives each
    utterance's word segmentation under its id. An optional per-symbol
    noise channel (substitution/deletion/insertion) emulates AUD errors.
    Deterministic for a fixed seed.
    """
    rng = random.Random(cfg.seed)
    alphabet = [chr(ord("a") + i) for i in range(cfg.alphabet_size)]
    wrl_letters = "abcdefghijklmnopqrstuvwxyz"
    lexicon: list[tuple[tuple[str, ...], str]] = []
    seen_ul, seen_wrl = set(), set()
    while len(lexicon) < cfg.lexicon_size:
        n = rng.randint(cfg.word_len_min, cfg.word_len_max)
        ul = tuple(rng.choice(alphabet) for _ in range(n))
        wrl = "".join(rng.choice(wrl_letters) for _ in range(rng.randint(3, 7)))
        if ul in seen_ul or wrl in seen_wrl:
            continue
        seen_ul.add(ul)
        seen_wrl.add(wrl)
        lexicon.append((ul, wrl))
    utterances = []
    for i in range(cfg.corpus_size):
        k = rng.randint(cfg.sent_len_min, cfg.sent_len_max)
        picks = [lexicon[rng.randrange(len(lexicon))] for _ in range(k)]
        ul_words = [_noisy_word(ul, alphabet, cfg, rng) for ul, _ in picks]
        utt_id = "utt%05d" % (i + 1)
        utterances.append(cp.ParallelUtterance(utt_id, tuple(s for w in ul_words for s in w),
                                               tuple(w for _, w in picks)))
        if gold is not None:
            gold[utt_id] = cp.Segmentation.from_words(ul_words)
    ul_vocab, wrl_vocab = cp.build_vocabularies(utterances)
    return cp.ParallelCorpus(tuple(utterances), ul_vocab, wrl_vocab)


def write_synth_corpus(corpus: cp.ParallelCorpus, gold: dict[str, cp.Segmentation],
                       out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "ul": os.path.join(out_dir, "ul.txt"),
        "wrl": os.path.join(out_dir, "wrl.txt"),
        "gold": os.path.join(out_dir, "gold.txt"),
    }
    cp.write_corpus(corpus, paths["ul"], paths["wrl"])
    cp.write_segmentations(corpus, gold, paths["gold"])
    return paths


# ---------------------------------------------------------------------------
# Heatmap export

def plot_attention(matrix: al.AttentionMatrix, utt: cp.ParallelUtterance | None,
                   out_path: str) -> None:
    """Textual PGM heatmap, one pixel per cell, darker = higher weight.

    Pixel intensity is the affine map 255 - round(255 * alpha). A
    sidecar .txt holds the exact weights with token labels.
    """
    w = matrix.weights
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("P2\n%d %d\n255\n" % (w.shape[1], w.shape[0]))
        for row in w:
            f.write(" ".join(str(255 - int(round(255 * v))) for v in row) + "\n")
    with open(out_path + ".txt", "w", encoding="utf-8") as f:
        if utt is not None:
            f.write("# rows: %s\n" % " ".join(utt.ul_symbols))
            f.write("# cols: %s\n" % " ".join(utt.wrl_words))
        for row in w:
            f.write(" ".join("%.6f" % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# Manifests

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, obj, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=sort_keys)
        f.write("\n")


# The BLAS thread settings: a float64 sum that BLAS splits over threads can
# round differently with their number, so `aud.npz` is reproduced bit for bit
# only under the same settings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(artifact: str, stage: str, inputs: list[str], config: dict,
                   outputs: list[str], input_hashes: dict[str, str] | None = None) -> None:
    """`input_hashes`: the sha256 of further inputs, hashed as the stage read them.
    `threads` records the BLAS thread variables (null where unset) and the CPUs the
    process may run on; `config_hash` covers the config alone."""
    cfg_json = json.dumps(config, sort_keys=True)
    _write_json(artifact + ".manifest.json", {
        "stage": stage,
        "inputs": {**{p: _sha256(p) for p in inputs}, **(input_hashes or {})},
        "config": config,
        "config_hash": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "outputs": {p: _sha256(p) for p in outputs},
        "threads": {**{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                    "cpus": len(os.sched_getaffinity(0))},
    }, sort_keys=True)


# ---------------------------------------------------------------------------
# Aligner checkpoint sidecar (config echo + vocabularies)

def save_aligner_bundle(ckpt_path: str, model: al.AlignerModel) -> None:
    al.save_model(ckpt_path, model)
    sidecar = {
        "config": dataclasses.asdict(model.config),
        "wrl_tokens": model.wrl_vocab.tokens(),
        "ul_tokens": model.ul_vocab.tokens(),
    }
    _write_json(ckpt_path + ".json", sidecar)


def load_aligner_bundle(ckpt_path: str) -> al.AlignerModel:
    sidecar_path = ckpt_path + ".json"
    with open(sidecar_path, encoding="utf-8") as f:
        try:
            sidecar = json.load(f)
            config, wrl_tokens, ul_tokens = (
                sidecar[k] for k in ("config", "wrl_tokens", "ul_tokens"))
            if not isinstance(config, dict):
                raise TypeError("config is not an object")
            for name, tokens in (("wrl_tokens", wrl_tokens), ("ul_tokens", ul_tokens)):
                if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
                    raise TypeError("%s is not a list of strings" % name)
        except (ValueError, KeyError, TypeError) as e:
            raise DataError("%s: not an aligner sidecar (%s: %s)"
                            % (sidecar_path, type(e).__name__, e)) from None
    try:  # a bad setting, or one the parameters in the .npz do not fit
        config = _coerce(al.AlignerConfig, config, strings=False)
        return al.load_model(ckpt_path, config,
                             cp.Vocabulary(wrl_tokens), cp.Vocabulary(ul_tokens))
    except ConfigError as e:
        raise DataError("%s: %s" % (sidecar_path, e)) from None


# ---------------------------------------------------------------------------
# Configs from outside: INI sections, command-line flags and checkpoint sidecars.
# Each config value is declared once, as a dataclass field; the INI key is the
# field name and so, with `-` for `_`, is the flag (bar FLAG_SPELLINGS).

FLAG_SPELLINGS = {"corpus_size": "--size", "num_units": "--units",
                  "states_per_unit": "--states", "mix_components": "--mix"}
_TYPES = {"int": int, "float": float, "str": str}


def _field_value(key: str, annotation: str, raw, strings: bool):
    """`raw` as the type its field is annotated with (`int`, `float` or `str`); a
    value that does not fit is a config error."""
    kind = _TYPES[annotation]
    if not strings:  # JSON: an integer may stand for a float, but a boolean is no number
        if type(raw) is kind:
            return raw
        if kind is float and type(raw) is int:
            return float(raw)
        raise ConfigError("%s = %s is not of type %s" % (key, json.dumps(raw), annotation))
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError("%s = %r is not a number" % (key, raw)) from None


def _coerce(cls, values: dict, strings: bool = True):
    """Build config dataclass `cls` from outside values, checked by field annotation.

    `strings`: INI or argv text, parsed; otherwise JSON values, which must
    already have the field's type.
    """
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in values.items():
        if key not in fields:
            raise ConfigError("unknown config key %r for %s" % (key, cls.__name__))
        kwargs[key] = _field_value(key, fields[key], raw, strings)
    return cls(**kwargs)


def _config_flags(parser: argparse.ArgumentParser, names: str) -> None:
    """One flag per named config field; a flag left out keeps the field's default."""
    for name in names.split():
        parser.add_argument(FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-")),
                            dest="config." + name, metavar=name.upper(),
                            default=argparse.SUPPRESS)


def _flag_values(args) -> dict[str, str]:
    """The config fields given as flags, as strings for `_coerce`."""
    return {k[len("config."):]: v for k, v in vars(args).items() if k.startswith("config.")}


@dataclass
class PipelineConfig:
    runs: int = 5
    out_dir: str = "pipeline_out"

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")


def load_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(" ".join(str(e).split())) from None
    if not read:
        raise ConfigError("config file %s not found" % path)
    return sections


def pipeline_configs(path: str, flags: dict[str, str]):
    """(pipeline, synth, aligner, dpseg or None) configs from an INI file, each
    checked, then its sections as read.

    Sections: [pipeline], [synth], [aligner] and, to run the dpseg
    baseline, [dpseg]. `flags` override [pipeline] keys.
    """
    sections = load_config_file(path)
    unknown = sorted(set(sections) - {"pipeline", "synth", "aligner", "dpseg"})
    if unknown:
        raise ConfigError("unknown config section(s) %s in %s" % (", ".join(unknown), path))
    return (_coerce(PipelineConfig, {**sections.get("pipeline", {}), **flags}),
            _coerce(SynthConfig, sections.get("synth", {})),
            _coerce(al.AlignerConfig, sections.get("aligner", {})),
            _coerce(bl.DpsegConfig, sections["dpseg"]) if "dpseg" in sections else None,
            sections)


# ---------------------------------------------------------------------------
# Subcommand implementations

def cmd_synth(args) -> int:
    cfg = _coerce(SynthConfig, _flag_values(args))
    gold: dict[str, cp.Segmentation] = {}
    corpus = synth_corpus(cfg, gold)
    paths = write_synth_corpus(corpus, gold, args.out_dir)
    write_manifest(paths["ul"], "synth", [], dataclasses.asdict(cfg), list(paths.values()))
    print("wrote %d utterances to %s" % (len(corpus), args.out_dir))
    return EXIT_OK


def cmd_mfcc(args) -> int:
    feats, id_lines, wav_hashes = [], {}, {}
    with cp.open_text(args.wav_list) as f:
        entries = [(k, line.split()) for k, line in enumerate(f, 1) if line.strip()]
    if not entries:
        raise DataError("%s: no `id wav-path` lines" % args.wav_list)
    for k, fields in entries:
        if len(fields) != 2:
            raise DataError("%s:%d: expected `id wav-path`" % (args.wav_list, k))
        if fields[0] in id_lines:  # the archive keeps one matrix per id
            raise DataError("%s:%d: id %r already on line %d"
                            % (args.wav_list, k, fields[0], id_lines[fields[0]]))
        id_lines[fields[0]] = k
        digest = hashlib.sha256()  # of the bytes decoded, so each file is read once
        signal, rate = aud_mod.read_wav(fields[1], digest)
        wav_hashes[fields[1]] = digest.hexdigest()
        feats.append(aud_mod.extract_mfcc(signal, rate, utt_id=fields[0]))
    aud_mod.save_features(args.out, feats)
    write_manifest(args.out, "mfcc", [args.wav_list], {}, [args.out], wav_hashes)
    print("extracted features for %d utterances" % len(feats))
    return EXIT_OK


def cmd_aud_train(args) -> int:
    cfg = _coerce(aud_mod.AudConfig, _flag_values(args))
    feats = aud_mod.load_features(args.features)
    model, log = aud_mod.train_phone_loop(feats, cfg)
    aud_mod.save_aud_model(args.out, model)
    _write_json(args.out + ".log.json", {"active_units": model.num_units, "iterations": log})
    write_manifest(args.out, "aud-train", [args.features],
                   dataclasses.asdict(cfg), [args.out])
    if not args.quiet:
        print("trained phone loop: %d active units, final objective %.4f"
              % (model.num_units, log[-1]["objective"]))
    return EXIT_OK


def cmd_aud_decode(args) -> int:
    model = aud_mod.load_aud_model(args.model)
    feats = aud_mod.load_features(args.features)
    sequences = aud_mod.decode_corpus(model, feats)
    aud_mod.write_timed_units(args.out, sequences)
    write_manifest(args.out, "aud-decode", [args.model, args.features], {}, [args.out])
    print("decoded %d utterances" % len(sequences))
    return EXIT_OK


def cmd_train_aligner(args) -> int:
    config = _coerce(al.AlignerConfig, _flag_values(args))
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    train, dev = cp.split_train_dev(corpus, DEV_FRACTION, args.split_seed)
    model, log = al.train(train, dev, config)
    save_aligner_bundle(args.out, model)
    _write_json(args.out + ".log.json", {"best_epoch": log.best_epoch,
                                         "best_dev_loss": log.best_dev_loss,
                                         "epochs": log.epochs})
    write_manifest(args.out, "train-aligner", [args.ul, args.wrl],
                   {**dataclasses.asdict(config), "split_seed": args.split_seed},
                   [args.out, args.out + ".json"])
    if not args.quiet:
        print("best dev loss %.4f at epoch %d" % (log.best_dev_loss, log.best_epoch))
    return EXIT_OK


def cmd_force_align(args) -> int:
    model = load_aligner_bundle(args.model)
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    try:
        matrices = al.forced_decode_corpus(model, corpus)
    except DataError as e:  # a UL symbol the model never saw, on the line it names
        raise DataError("%s: %s" % (args.ul, e)) from None
    al.write_attention_matrices(args.out, matrices)
    write_manifest(args.out, "force-align", [args.model, args.ul, args.wrl], {}, [args.out])
    print("extracted %d attention matrices" % len(matrices))
    return EXIT_OK


def _check_fit(path: str, m: al.AttentionMatrix, utt: cp.ParallelUtterance,
               ul_path: str, wrl_path: str) -> None:
    """DataError, naming `path` and the utterance, unless `m`, read from `path`, has
    one row per UL symbol and one column per WRL word of `utt`."""
    for count, have, want, side, corpus_path in (
            ("row", m.num_symbols, len(utt.ul_symbols), "UL symbols", ul_path),
            ("column", m.num_words, len(utt.wrl_words), "WRL words", wrl_path)):
        if have != want:
            raise DataError("%s: %s has a %s count of %d, but %d %s in %s"
                            % (path, utt.id, count, have, want, side, corpus_path))


def _checked_run(path: str, run: dict[str, al.AttentionMatrix],
                 utts: dict[str, cp.ParallelUtterance], ul_path: str,
                 wrl_path: str) -> dict[str, al.AttentionMatrix]:
    """`run`, read from `path`, if it holds the corpus's utterances `utts` by id,
    each matrix of the size that `_check_fit` asks."""
    unmatched = run.keys() ^ utts.keys()
    if unmatched:
        odd = min(unmatched)
        raise DataError("utterance %r is in %s but not in %s"
                        % (odd, *((path, ul_path) if odd in run else (ul_path, path))))
    for utt_id, m in run.items():
        _check_fit(path, m, utts[utt_id], ul_path, wrl_path)
    return run


def cmd_segment(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    utts = {u.id: u for u in corpus}
    # each run is checked, then added into the mean as it is read: before anything is
    # written, and with one run in memory at a time
    mean = sg.average_runs(_checked_run(p, al.read_attention_matrices(p), utts, args.ul,
                                        args.wrl) for p in args.matrices)
    segs = sg.segment_corpus([mean], smooth=not args.no_smooth)
    cp.write_segmentations(corpus, segs, args.out)
    write_manifest(args.out, "segment", list(args.matrices) + [args.ul, args.wrl],
                   {"smooth": not args.no_smooth, "runs": len(args.matrices)}, [args.out])
    print("segmented %d utterances" % len(segs))
    return EXIT_OK


def cmd_baseline_proportional(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    segs = bl.proportional_segment_corpus(corpus)
    cp.write_segmentations(corpus, segs, args.out)
    write_manifest(args.out, "baseline-proportional", [args.ul, args.wrl], {}, [args.out])
    return EXIT_OK


def cmd_baseline_dpseg(args) -> int:
    cfg = _coerce(bl.DpsegConfig, _flag_values(args))
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    log: list[dict] = []
    segs = bl.dpseg_segment_corpus(corpus, cfg, log)
    cp.write_segmentations(corpus, segs, args.out)
    _write_json(args.out + ".log.json", {"sweeps": log})
    write_manifest(args.out, "baseline-dpseg", [args.ul, args.wrl],
                   dataclasses.asdict(cfg), [args.out])
    return EXIT_OK


def cmd_evaluate(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    gold = cp.load_gold_segmentation(corpus, args.gold)
    hyp = cp.load_gold_segmentation(corpus, args.hyp)
    report = mt.evaluate(hyp, gold, corpus)
    mt.write_report(report, args.out, args.out + ".json")
    write_manifest(args.out, "evaluate", [args.ul, args.wrl, args.gold, args.hyp],
                   {}, [args.out, args.out + ".json"])
    print("boundary F %.4f  token F %.4f  type F %.4f"
          % (report.boundary.fscore, report.token.fscore, report.type.fscore))
    return EXIT_OK


def cmd_plot(args) -> int:
    if (args.ul is None) != (args.wrl is None):  # the labels need both sides of the corpus
        raise ConfigError("--ul and --wrl go together: give both, or neither")
    matrices = al.read_attention_matrices(args.matrices)
    if args.utt not in matrices:
        raise DataError("utterance %r not in %s" % (args.utt, args.matrices))
    utt, inputs = None, [args.matrices]
    if args.ul is not None:
        utts = {u.id: u for u in cp.load_parallel_corpus(args.ul, args.wrl)}
        if args.utt not in utts:
            raise DataError("utterance %r is in %s but not in %s and %s"
                            % (args.utt, args.matrices, args.ul, args.wrl))
        utt = utts[args.utt]
        _check_fit(args.matrices, matrices[args.utt], utt, args.ul, args.wrl)
        inputs += [args.ul, args.wrl]
    plot_attention(matrices[args.utt], utt, args.out)
    write_manifest(args.out, "plot", inputs, {"utt": args.utt}, [args.out, args.out + ".txt"])
    return EXIT_OK


def _run_stage(argv: list[str], ini_section: dict[str, str] | None = None) -> None:
    """Run `attnseg <argv>` without its printout. The keys of an INI section that
    `pipeline_configs` has checked act as the config flags that argv leaves out."""
    args = build_parser().parse_args(argv)
    for key, value in (ini_section or {}).items():
        vars(args).setdefault("config." + key, value)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        args.func(args)


def cmd_pipeline(args) -> int:
    """Full toy pipeline from an INI config, run as the stage commands: synth ->
    per run, train-aligner and force-align -> segment -> baselines -> evaluate."""
    pipe_cfg, synth_cfg, aligner_cfg, _, sections = pipeline_configs(
        args.config, _flag_values(args))
    out = functools.partial(os.path.join, pipe_cfg.out_dir)
    corpus = ["--ul", out("ul.txt"), "--wrl", out("wrl.txt")]
    _run_stage(["synth", "--out-dir", pipe_cfg.out_dir], sections.get("synth"))
    matrices = [out("attention_run%d.txt" % run) for run in range(pipe_cfg.runs)]
    for run, matrices_path in enumerate(matrices):
        # split and seed change per run, as in the multi-run averaging protocol
        model = out("model_run%d.npz" % run)
        _run_stage(["train-aligner", *corpus, "--out", model,
                    "--seed", str(aligner_cfg.seed + run),
                    "--split-seed", str(synth_cfg.seed + run)], sections.get("aligner"))
        _run_stage(["force-align", "--model", model, *corpus, "--out", matrices_path])
    systems = {"attentional": out("segmentation.txt"), "proportional": out("proportional.txt")}
    _run_stage(["segment", "--matrices", *matrices, *corpus, "--out", systems["attentional"]])
    _run_stage(["baseline-proportional", *corpus, "--out", systems["proportional"]])
    if "dpseg" in sections:
        systems["dpseg"] = out("dpseg.txt")
        _run_stage(["baseline-dpseg", *corpus, "--out", systems["dpseg"]], sections["dpseg"])
    for name, hyp in systems.items():
        report = out("eval_%s.txt" % name)
        _run_stage(["evaluate", *corpus, "--gold", out("gold.txt"), "--hyp", hyp, "--out", report])
        with open(report + ".json", encoding="utf-8") as f:
            print("%s: boundary F %.4f" % (name, json.load(f)["boundary_fscore"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

def _path_flags(parser: argparse.ArgumentParser, flags: str) -> None:
    """One required flag per name, each taking a file path."""
    for flag in flags.split():
        parser.add_argument(flag, required=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="attnseg",
                                description="attentional word segmentation pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic parallel corpus")
    s.add_argument("--out-dir", required=True)
    _config_flags(s, "lexicon_size word_len_min word_len_max sent_len_min sent_len_max "
                     "corpus_size alphabet_size sub_rate del_rate ins_rate seed")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("mfcc", help="extract MFCC+delta+delta-delta features")
    s.add_argument("--wav-list", required=True, help="file with `id wav-path` lines")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_mfcc)

    s = sub.add_parser("aud-train", help="train the phone-loop AUD model")
    _path_flags(s, "--features --out")
    _config_flags(s, "num_units states_per_unit mix_components gamma iterations seed")
    s.add_argument("--quiet", action="store_true", help="do not print the summary line")
    s.set_defaults(func=cmd_aud_train)

    s = sub.add_parser("aud-decode", help="Viterbi-decode features to timed units")
    _path_flags(s, "--model --features --out")
    s.set_defaults(func=cmd_aud_decode)

    s = sub.add_parser("train-aligner", help="train the attentional aligner")
    _path_flags(s, "--ul --wrl --out")
    _config_flags(s, "cell_size temperature dropout batch_size learning_rate max_epochs "
                     "patience seed")
    s.add_argument("--split-seed", type=int, default=0)
    s.add_argument("--quiet", action="store_true", help="do not print the summary line")
    s.set_defaults(func=cmd_train_aligner)

    s = sub.add_parser("force-align", help="extract attention matrices")
    _path_flags(s, "--model --ul --wrl --out")
    s.set_defaults(func=cmd_force_align)

    s = sub.add_parser("segment", help="attention matrices to segmentation")
    s.add_argument("--matrices", nargs="+", required=True)
    _path_flags(s, "--ul --wrl --out")
    s.add_argument("--no-smooth", action="store_true")
    s.set_defaults(func=cmd_segment)

    s = sub.add_parser("baseline-proportional", help="diagonal projection baseline")
    _path_flags(s, "--ul --wrl --out")
    s.set_defaults(func=cmd_baseline_proportional)

    s = sub.add_parser("baseline-dpseg", help="Bayesian nonparametric baseline")
    _path_flags(s, "--ul --wrl --out")
    _config_flags(s, "order alpha0 alpha1 p_boundary iterations seed")
    s.set_defaults(func=cmd_baseline_dpseg)

    s = sub.add_parser("evaluate", help="score a segmentation against gold")
    _path_flags(s, "--ul --wrl --gold --hyp --out")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("plot", help="export an attention heatmap (textual PGM)")
    _path_flags(s, "--matrices --out")
    s.add_argument("--utt", required=True)
    s.add_argument("--ul")
    s.add_argument("--wrl")
    s.set_defaults(func=cmd_plot)

    s = sub.add_parser("pipeline", help="run the full toy pipeline from a config file")
    s.add_argument("--config", required=True)
    _config_flags(s, "out_dir")
    s.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
