"""Command-line pipeline orchestration.

Subcommands cover every stage: synthetic corpus generation, MFCC
extraction, AUD training/decoding, aligner training, forced decoding,
segmentation, baselines, evaluation and heatmap export. Every artifact
gets a sidecar manifest (inputs, effective config, seed) sufficient to
re-run its producing stage bit-identically.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import aligner as al
from . import aud as aud_mod
from . import baselines as bl
from . import corpus as cp
from . import metrics as mt
from . import numerics as nm
from . import segmenter as sg

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


class ConfigError(ValueError):
    pass


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


def synth_corpus(cfg: SynthConfig) -> cp.ParallelCorpus:
    """Toy parallel corpus: random UL lexicon paired 1:1 with WRL words.

    The UL side is emitted unsegmented with gold boundaries kept; an
    optional per-symbol noise channel (substitution/deletion/insertion)
    emulates AUD errors. Deterministic for a fixed seed.
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
        utterances.append(
            cp.ParallelUtterance(
                id="utt%05d" % (i + 1),
                ul_symbols=tuple(s for w in ul_words for s in w),
                wrl_words=tuple(w for _, w in picks),
                gold_boundaries=cp.Segmentation.from_words(ul_words),
            )
        )
    ul_vocab, wrl_vocab = cp.build_vocabularies(utterances)
    return cp.ParallelCorpus(tuple(utterances), ul_vocab, wrl_vocab)


def write_synth_corpus(corpus: cp.ParallelCorpus, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "ul": os.path.join(out_dir, "ul.txt"),
        "wrl": os.path.join(out_dir, "wrl.txt"),
        "gold": os.path.join(out_dir, "gold.txt"),
    }
    cp.write_corpus(corpus, paths["ul"], paths["wrl"])
    gold = {u.id: u.gold_boundaries for u in corpus}
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


def read_pgm(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        tokens = []
        for line in f:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if tokens[0] != "P2":
        raise ConfigError("%s: not a textual PGM" % path)
    w, h, _maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    vals = np.array([int(t) for t in tokens[4:]])
    return vals.reshape(h, w)


# ---------------------------------------------------------------------------
# Manifests

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(artifact: str, stage: str, inputs: list[str], config: dict,
                   outputs: list[str]) -> None:
    cfg_json = json.dumps(config, sort_keys=True)
    manifest = {
        "stage": stage,
        "inputs": {p: _sha256(p) for p in inputs if os.path.exists(p)},
        "config": config,
        "config_hash": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "outputs": {p: _sha256(p) for p in outputs if os.path.exists(p)},
    }
    with open(artifact + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Aligner checkpoint sidecar (config echo + vocabularies)

def save_aligner_bundle(ckpt_path: str, model: al.AlignerModel) -> None:
    al.save_model(ckpt_path, model)
    sidecar = {
        "config": dataclasses.asdict(model.config),
        "wrl_tokens": model.wrl_vocab.tokens(),
        "ul_tokens": model.ul_vocab.tokens(),
    }
    with open(ckpt_path + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def load_aligner_bundle(ckpt_path: str) -> al.AlignerModel:
    sidecar_path = ckpt_path + ".json"
    with open(sidecar_path, encoding="utf-8") as f:
        try:
            sidecar = json.load(f)
            config, wrl_tokens, ul_tokens = (
                sidecar[k] for k in ("config", "wrl_tokens", "ul_tokens"))
        except (ValueError, KeyError, TypeError) as e:
            raise cp.CorpusError("%s: not an aligner sidecar (%s: %s)"
                                 % (sidecar_path, type(e).__name__, e)) from None
    unknown = set(config) - {f.name for f in dataclasses.fields(al.AlignerConfig)}
    if unknown:
        raise cp.CorpusError("%s: unknown config key(s) %s"
                             % (sidecar_path, ", ".join(sorted(unknown))))
    try:  # a bad setting, or one the parameters in the .npz do not fit
        config = al.AlignerConfig(**config)
        return al.load_model(ckpt_path, config,
                             cp.Vocabulary(wrl_tokens), cp.Vocabulary(ul_tokens))
    except al.AlignerError as e:
        raise cp.CorpusError("%s: %s" % (sidecar_path, e)) from None
    except ValueError as e:  # the .npz itself is not a readable checkpoint
        raise cp.CorpusError(str(e)) from None


# ---------------------------------------------------------------------------
# Segmentation file parsing (hypothesis side)

def load_hyp_segmentations(corpus: cp.ParallelCorpus, path: str,
                           delimiter: str | None = None) -> dict[str, cp.Segmentation]:
    seg_corpus = cp.load_gold_segmentation(corpus, path, delimiter=delimiter)
    return {u.id: u.gold_boundaries for u in seg_corpus}


# ---------------------------------------------------------------------------
# Config files (flat INI, every CLI flag overrides its config key)

def load_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError(" ".join(str(e).split())) from None
    if not read:
        raise ConfigError("config file %s not found" % path)
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def _number(kind, key: str, raw: str):
    """int(raw) or float(raw); a value that is not a number is a config error."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError("%s = %r is not a number" % (key, raw)) from None


def _coerce(cls, section: dict[str, str]):
    """Build a dataclass config from string values in an INI section."""
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, raw in section.items():
        if key not in fields:
            raise ConfigError("unknown config key %r for %s" % (key, cls.__name__))
        ftype = fields[key].type
        if ftype in ("int", int, "Optional[int]"):
            kwargs[key] = _number(int, key, raw)
        elif ftype in ("float", float):
            kwargs[key] = _number(float, key, raw)
        elif ftype in ("bool", bool):
            try:
                kwargs[key] = configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
            except KeyError:
                raise ConfigError("%s = %r is not a boolean" % (key, raw)) from None
        else:
            kwargs[key] = raw
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Subcommand implementations

def cmd_synth(args) -> int:
    cfg = SynthConfig(
        lexicon_size=args.lexicon_size, word_len_min=args.word_len_min,
        word_len_max=args.word_len_max, sent_len_min=args.sent_len_min,
        sent_len_max=args.sent_len_max, corpus_size=args.size,
        alphabet_size=args.alphabet_size, sub_rate=args.sub_rate,
        del_rate=args.del_rate, ins_rate=args.ins_rate, seed=args.seed,
    )
    corpus = synth_corpus(cfg)
    paths = write_synth_corpus(corpus, args.out_dir)
    write_manifest(paths["ul"], "synth", [], dataclasses.asdict(cfg), list(paths.values()))
    print("wrote %d utterances to %s" % (len(corpus), args.out_dir))
    return EXIT_OK


def cmd_mfcc(args) -> int:
    feats = []
    with open(args.wav_list, encoding="utf-8") as f:
        entries = [line.split() for line in f if line.strip()]
    for utt_id, path in entries:
        signal, rate = aud_mod.read_wav(path)
        feats.append(aud_mod.extract_mfcc(signal, rate, utt_id=utt_id))
    aud_mod.save_features(args.out, feats)
    write_manifest(args.out, "mfcc", [args.wav_list], {}, [args.out])
    print("extracted features for %d utterances" % len(feats))
    return EXIT_OK


def cmd_aud_train(args) -> int:
    feats = aud_mod.load_features(args.features)
    cfg = aud_mod.AudConfig(num_units=args.units, states_per_unit=args.states,
                            mix_components=args.mix, gamma=args.gamma,
                            iterations=args.iterations, seed=args.seed)
    model, objectives = aud_mod.train_phone_loop(feats, cfg, quiet=args.quiet)
    aud_mod.save_aud_model(args.out, model)
    write_manifest(args.out, "aud-train", [args.features],
                   dataclasses.asdict(cfg), [args.out])
    print("trained phone loop: %d active units, final objective %.4f"
          % (model.num_units, objectives[-1]))
    return EXIT_OK


def cmd_aud_decode(args) -> int:
    model = aud_mod.load_aud_model(args.model)
    feats = aud_mod.load_features(args.features)
    sequences = [aud_mod.decode_units(model, f) for f in feats]
    aud_mod.write_timed_units(args.out, sequences)
    write_manifest(args.out, "aud-decode", [args.model, args.features], {}, [args.out])
    print("decoded %d utterances" % len(sequences))
    return EXIT_OK


def _aligner_config_from_args(args) -> al.AlignerConfig:
    return al.AlignerConfig(
        cell_size=args.cell_size, temperature=args.temperature,
        dropout=args.dropout, batch_size=args.batch_size,
        learning_rate=args.learning_rate, max_epochs=args.max_epochs,
        patience=args.patience, seed=args.seed,
    )


def cmd_train_aligner(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    config = _aligner_config_from_args(args)
    train, dev = cp.split_train_dev(corpus, args.dev_fraction, args.split_seed)
    model, log = al.train(train, dev, config, quiet=args.quiet)
    save_aligner_bundle(args.out, model)
    with open(args.out + ".log.json", "w", encoding="utf-8") as f:
        json.dump({"best_epoch": log.best_epoch, "best_dev_loss": log.best_dev_loss,
                   "epochs": log.epochs}, f, indent=2)
        f.write("\n")
    cfg = dataclasses.asdict(config)
    cfg.update({"dev_fraction": args.dev_fraction, "split_seed": args.split_seed})
    write_manifest(args.out, "train-aligner", [args.ul, args.wrl], cfg,
                   [args.out, args.out + ".json"])
    print("best dev loss %.4f at epoch %d" % (log.best_dev_loss, log.best_epoch))
    return EXIT_OK


def cmd_force_align(args) -> int:
    model = load_aligner_bundle(args.model)
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    matrices = al.forced_decode_corpus(model, corpus)
    al.write_attention_matrices(args.out, matrices)
    write_manifest(args.out, "force-align", [args.model, args.ul, args.wrl], {}, [args.out])
    print("extracted %d attention matrices" % len(matrices))
    return EXIT_OK


def cmd_segment(args) -> int:
    runs = [al.read_attention_matrices(p) for p in args.matrices]
    segs = sg.segment_corpus(runs, smooth=not args.no_smooth)
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    cp.write_segmentations(corpus, segs, args.out, delimiter=args.delimiter or None)
    sidecar = {utt_id: sorted(s.boundaries) for utt_id, s in segs.items()}
    with open(args.out + ".boundaries.json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    write_manifest(args.out, "segment", list(args.matrices) + [args.ul, args.wrl],
                   {"smooth": not args.no_smooth, "runs": len(runs)}, [args.out])
    print("segmented %d utterances" % len(segs))
    return EXIT_OK


def cmd_baseline_proportional(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    segs = bl.proportional_segment_corpus(corpus)
    cp.write_segmentations(corpus, segs, args.out, delimiter=args.delimiter or None)
    write_manifest(args.out, "baseline-proportional", [args.ul, args.wrl], {}, [args.out])
    return EXIT_OK


def cmd_baseline_dpseg(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    cfg = bl.DpsegConfig(order=args.order, alpha0=args.alpha0, alpha1=args.alpha1,
                         p_boundary=args.p_boundary, iterations=args.iterations,
                         sample_average=args.sample_average, seed=args.seed)
    segs = bl.dpseg_segment_corpus(corpus, cfg)
    cp.write_segmentations(corpus, segs, args.out, delimiter=args.delimiter or None)
    write_manifest(args.out, "baseline-dpseg", [args.ul, args.wrl],
                   dataclasses.asdict(cfg), [args.out])
    return EXIT_OK


def cmd_evaluate(args) -> int:
    corpus = cp.load_parallel_corpus(args.ul, args.wrl)
    if not os.path.exists(args.gold):
        raise cp.CorpusError("gold file %s does not exist" % args.gold)
    corpus = cp.load_gold_segmentation(corpus, args.gold, delimiter=args.delimiter or None)
    hyp = load_hyp_segmentations(
        cp.ParallelCorpus(corpus.utterances, corpus.ul_vocab, corpus.wrl_vocab),
        args.hyp, delimiter=args.delimiter or None)
    gold = mt.gold_segmentations(corpus)
    report = mt.evaluate(hyp, gold, corpus)
    mt.write_report(report, args.out, args.out + ".json")
    write_manifest(args.out, "evaluate", [args.ul, args.wrl, args.gold, args.hyp],
                   {}, [args.out, args.out + ".json"])
    print("boundary F %.4f  token F %.4f  type F %.4f"
          % (report.boundary.fscore, report.token.fscore, report.type.fscore))
    return EXIT_OK


def cmd_plot(args) -> int:
    matrices = al.read_attention_matrices(args.matrices)
    if args.utt not in matrices:
        raise cp.CorpusError("utterance %r not in %s" % (args.utt, args.matrices))
    utt = None
    if args.ul and args.wrl:
        corpus = cp.load_parallel_corpus(args.ul, args.wrl)
        utt = corpus.by_id(args.utt)
    plot_attention(matrices[args.utt], utt, args.out)
    write_manifest(args.out, "plot", [args.matrices], {"utt": args.utt}, [args.out])
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """Full toy pipeline from an INI config: synth -> k trainings -> average
    -> segment -> baselines -> evaluate."""
    sections = load_config_file(args.config)
    out_dir = sections.get("pipeline", {}).get("out_dir", args.out_dir or "pipeline_out")
    runs = _number(int, "runs", sections.get("pipeline", {}).get("runs", "5"))
    synth_cfg = _coerce(SynthConfig, sections.get("synth", {}))
    aligner_cfg = _coerce(al.AlignerConfig, sections.get("aligner", {}))
    dp_cfg = _coerce(bl.DpsegConfig, sections["dpseg"]) if "dpseg" in sections else None
    os.makedirs(out_dir, exist_ok=True)

    corpus = synth_corpus(synth_cfg)
    paths = write_synth_corpus(corpus, out_dir)
    write_manifest(paths["ul"], "synth", [], dataclasses.asdict(synth_cfg),
                   list(paths.values()))

    corpus = cp.load_parallel_corpus(paths["ul"], paths["wrl"])
    corpus = cp.load_gold_segmentation(corpus, paths["gold"])
    matrices_paths = []
    for run in range(runs):
        # split resampling across runs, as in the multi-run averaging protocol
        train, dev = cp.split_train_dev(corpus, 0.1, seed=synth_cfg.seed + run)
        run_cfg = dataclasses.replace(aligner_cfg, seed=aligner_cfg.seed + run)
        model, _log = al.train(train, dev, run_cfg, quiet=True)
        matrices = al.forced_decode_corpus(model, corpus)
        mpath = os.path.join(out_dir, "attention_run%d.txt" % run)
        al.write_attention_matrices(mpath, matrices)
        write_manifest(mpath, "force-align", [paths["ul"], paths["wrl"]],
                       dataclasses.asdict(run_cfg), [mpath])
        matrices_paths.append(mpath)

    run_maps = [al.read_attention_matrices(p) for p in matrices_paths]
    segs = sg.segment_corpus(run_maps, smooth=True)
    seg_path = os.path.join(out_dir, "segmentation.txt")
    cp.write_segmentations(corpus, segs, seg_path)
    write_manifest(seg_path, "segment", matrices_paths, {"smooth": True}, [seg_path])

    gold = mt.gold_segmentations(corpus)
    results = {"attentional": mt.evaluate(segs, gold, corpus)}
    results["proportional"] = mt.evaluate(
        bl.proportional_segment_corpus(corpus), gold, corpus)
    if dp_cfg is not None:
        results["dpseg"] = mt.evaluate(
            bl.dpseg_segment_corpus(corpus, dp_cfg), gold, corpus)
    for name, report in results.items():
        rpath = os.path.join(out_dir, "eval_%s.txt" % name)
        mt.write_report(report, rpath, rpath + ".json")
        print("%s: boundary F %.4f" % (name, report.boundary.fscore))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="attnseg",
                                description="attentional word segmentation pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic parallel corpus")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--lexicon-size", type=int, default=20)
    s.add_argument("--word-len-min", type=int, default=2)
    s.add_argument("--word-len-max", type=int, default=5)
    s.add_argument("--sent-len-min", type=int, default=2)
    s.add_argument("--sent-len-max", type=int, default=6)
    s.add_argument("--size", type=int, default=500)
    s.add_argument("--alphabet-size", type=int, default=12)
    s.add_argument("--sub-rate", type=float, default=0.0)
    s.add_argument("--del-rate", type=float, default=0.0)
    s.add_argument("--ins-rate", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("mfcc", help="extract MFCC+delta+delta-delta features")
    s.add_argument("--wav-list", required=True, help="file with `id wav-path` lines")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_mfcc)

    s = sub.add_parser("aud-train", help="train the phone-loop AUD model")
    s.add_argument("--features", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--units", type=int, default=100)
    s.add_argument("--states", type=int, default=3)
    s.add_argument("--mix", type=int, default=2)
    s.add_argument("--gamma", type=float, default=0.5)
    s.add_argument("--iterations", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=cmd_aud_train)

    s = sub.add_parser("aud-decode", help="Viterbi-decode features to timed units")
    s.add_argument("--model", required=True)
    s.add_argument("--features", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_aud_decode)

    s = sub.add_parser("train-aligner", help="train the attentional aligner")
    s.add_argument("--ul", required=True)
    s.add_argument("--wrl", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--cell-size", type=int, default=64)
    s.add_argument("--temperature", type=float, default=10.0)
    s.add_argument("--dropout", type=float, default=0.5)
    s.add_argument("--batch-size", type=int, default=32)
    s.add_argument("--learning-rate", type=float, default=0.001)
    s.add_argument("--max-epochs", type=int, default=200)
    s.add_argument("--patience", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dev-fraction", type=float, default=0.1)
    s.add_argument("--split-seed", type=int, default=0)
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=cmd_train_aligner)

    s = sub.add_parser("force-align", help="extract attention matrices")
    s.add_argument("--model", required=True)
    s.add_argument("--ul", required=True)
    s.add_argument("--wrl", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_force_align)

    s = sub.add_parser("segment", help="attention matrices to segmentation")
    s.add_argument("--matrices", nargs="+", required=True)
    s.add_argument("--ul", required=True)
    s.add_argument("--wrl", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--no-smooth", action="store_true")
    s.add_argument("--delimiter", default="")
    s.set_defaults(func=cmd_segment)

    s = sub.add_parser("baseline-proportional", help="diagonal projection baseline")
    s.add_argument("--ul", required=True)
    s.add_argument("--wrl", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--delimiter", default="")
    s.set_defaults(func=cmd_baseline_proportional)

    s = sub.add_parser("baseline-dpseg", help="Bayesian nonparametric baseline")
    s.add_argument("--ul", required=True)
    s.add_argument("--wrl", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--order", choices=["unigram", "bigram"], default="bigram")
    s.add_argument("--alpha0", type=float, default=100.0)
    s.add_argument("--alpha1", type=float, default=3000.0)
    s.add_argument("--p-boundary", type=float, default=0.5)
    s.add_argument("--iterations", type=int, default=1000)
    s.add_argument("--sample-average", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--delimiter", default="")
    s.set_defaults(func=cmd_baseline_dpseg)

    s = sub.add_parser("evaluate", help="score a segmentation against gold")
    s.add_argument("--ul", required=True)
    s.add_argument("--wrl", required=True)
    s.add_argument("--gold", required=True)
    s.add_argument("--hyp", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--delimiter", default="")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("plot", help="export an attention heatmap (textual PGM)")
    s.add_argument("--matrices", required=True)
    s.add_argument("--utt", required=True)
    s.add_argument("--ul")
    s.add_argument("--wrl")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_plot)

    s = sub.add_parser("pipeline", help="run the full toy pipeline from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out-dir")
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
    except (ConfigError, bl.BaselineError, al.AlignerConfigError) as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except (cp.CorpusError, mt.MetricsError, sg.SegmenterError, aud_mod.AudError,
            OSError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except (nm.NumericsError, al.AlignerError) as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
