"""The three workloads: set-up, timed stages, output checks and quality figures.

Every stage is one `attnseg` subcommand, called in-process through
`attnseg.cli.main` with the arguments a user would type. Paths are
relative to the checkout root, so manifests read the same on any machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from attnseg import cli

import checks
import gen

TOY_EPOCHS = 8               # --max-epochs = --patience: early stopping never cuts the work
TOY_LEARNING_RATE = "0.02"   # 8 epochs at this rate: boundary F ≈0.43 on seeds 1-10 and 31-40
PAPER_LEARNING_RATE = "0.01"
PAPER_TRAIN_SENTENCES = 200  # set-up trains on this prefix of the corpus, for one epoch
DPSEG_SWEEPS = 2
AUD_ITERATIONS = 2


def run_cli(args: list[str]) -> tuple[int, float]:
    """One subcommand, as `attnseg <args>`; returns (exit code, seconds).

    An exception the CLI does not handle counts as exit code 1, which is
    what the `attnseg` script would exit with, and its traceback goes to stderr.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(args)
        except Exception:
            traceback.print_exc()
            code = 1
        return code, time.perf_counter() - t0


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def file_hashes(paths: list[str]) -> dict[str, str]:
    return {p: checks.sha256(p) for p in paths if os.path.exists(p)}


@dataclass
class Stage:
    args: list[str]
    outputs: list[str]       # files the stage's manifest must list
    utts: list[str]          # utterance ids the stage works on
    check: Optional[Callable[[], dict[str, str]]] = None   # per-utterance: {id: reason}

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def artifact(self) -> str:
        return self.args[self.args.index("--out") + 1]


@dataclass
class Inputs:
    files: list[str]                  # every file set-up wrote, hashed for determinism
    utts: list[checks.Utterance] = field(default_factory=list)
    paths: dict[str, str] = field(default_factory=dict)
    truth: dict[str, list[str]] = field(default_factory=dict)


def _synth(params: dict, synth_seed: int, out_dir: str) -> dict[str, str]:
    code, _ = run_cli(gen.synth_args(params, synth_seed, out_dir))
    if code != 0:
        raise RuntimeError("synth exited with %d" % code)
    return {k: "%s/%s.txt" % (out_dir, k) for k in ("ul", "wrl", "gold")}


def _report_f(path: str) -> float:
    with open(path + ".json", encoding="utf-8") as f:
        return json.load(f)["boundary_fscore"]


def _corpus_args(p: dict) -> list[str]:
    return ["--ul", p["ul"], "--wrl", p["wrl"]]


def _evaluate(p: dict, hyp: str, out: str, ids: list[str]) -> Stage:
    return Stage(["evaluate"] + _corpus_args(p) + ["--gold", p["gold"], "--hyp", hyp,
                                                   "--out", out], [out, out + ".json"], ids)


def _segmentation_stages(inp: Inputs, out: str, extra: list[tuple[str, list[str]]]
                         ) -> list[Stage]:
    """segment, baselines and one evaluate per hypothesis, after force-align."""
    p, utts = inp.paths, inp.utts
    ids = [u.id for u in utts]
    hyps = [("attn", ["segment", "--matrices", out + "/matrices.txt"] + _corpus_args(p)),
            ("prop", ["baseline-proportional"] + _corpus_args(p))] + extra
    stages = []
    for name, args in hyps:
        seg = "%s/%s.txt" % (out, name)
        stages.append(Stage(args + ["--out", seg], [seg], ids,
                            lambda seg=seg: checks.check_segmentation(seg, utts)))
    stages += [_evaluate(p, "%s/%s.txt" % (out, name), "%s/eval_%s.txt" % (out, name), ids)
               for name, _ in hyps]
    return stages


def _force_align(inp: Inputs, model: str, out: str) -> Stage:
    attn = out + "/matrices.txt"
    return Stage(["force-align", "--model", model] + _corpus_args(inp.paths) + ["--out", attn],
                 [attn], [u.id for u in inp.utts],
                 lambda: checks.check_attention(attn, inp.utts))


class ToyTrain:
    name = "toy-train"
    headline = "boundary_f"

    def synth_seed(self, seed: int) -> int:
        return gen.pick_synth_seed(gen.TOY_SYNTH, seed)

    def setup(self, work: str, synth_seed: int) -> Inputs:
        p = _synth(gen.TOY_SYNTH, synth_seed, work)
        return Inputs(list(p.values()), checks.read_corpus(p["ul"], p["wrl"]), p)

    def stages(self, inp: Inputs, out: str) -> list[Stage]:
        model = out + "/model.npz"
        epochs = str(TOY_EPOCHS)
        train = Stage(["train-aligner"] + _corpus_args(inp.paths)
                      + ["--out", model, "--max-epochs", epochs, "--patience", epochs,
                         "--learning-rate", TOY_LEARNING_RATE, "--quiet"],
                      [model, model + ".json"], [u.id for u in inp.utts])
        return [train, _force_align(inp, model, out)] + _segmentation_stages(inp, out, [])

    def quality(self, inp: Inputs, out: str) -> dict[str, float]:
        with open(out + "/model.npz.log.json", encoding="utf-8") as f:
            dev_nll = json.load(f)["best_dev_loss"]
        return {"boundary_f": _report_f(out + "/eval_attn.txt"),
                "proportional_f": _report_f(out + "/eval_prop.txt"),
                "dev_nll": dev_nll}


class PaperSegment:
    name = "paper-segment"
    headline = "dpseg_boundary_f"

    def synth_seed(self, seed: int) -> int:
        return gen.pick_synth_seed(gen.PAPER_SYNTH, seed)

    def setup(self, work: str, synth_seed: int) -> Inputs:
        p = _synth(gen.PAPER_SYNTH, synth_seed, work)
        utts = checks.read_corpus(p["ul"], p["wrl"])
        # the training prefix must cover every UL symbol, or force-align cannot read the rest
        symbols = {s for u in utts for s in u.symbols}
        n = PAPER_TRAIN_SENTENCES
        while {s for u in utts[:n] for s in u.symbols} != symbols:
            n += 50
        p["train_ul"], p["train_wrl"] = work + "/train_ul.txt", work + "/train_wrl.txt"
        with open(p["train_ul"], "w", encoding="utf-8") as f:
            f.writelines(" ".join(u.symbols) + "\n" for u in utts[:n])
        with open(p["train_wrl"], "w", encoding="utf-8") as f:
            f.writelines(" ".join(u.words) + "\n" for u in utts[:n])
        p["model"] = work + "/model.npz"
        code, _ = run_cli(["train-aligner", "--ul", p["train_ul"], "--wrl", p["train_wrl"],
                           "--out", p["model"], "--max-epochs", "1", "--patience", "1",
                           "--learning-rate", PAPER_LEARNING_RATE, "--quiet"])
        if code != 0:
            raise RuntimeError("set-up train-aligner exited with %d" % code)
        return Inputs(list(p.values()) + [p["model"] + ".json"], utts, p)

    def stages(self, inp: Inputs, out: str) -> list[Stage]:
        dpseg = ["baseline-dpseg"] + _corpus_args(inp.paths) + [
            "--iterations", str(DPSEG_SWEEPS)]
        return [_force_align(inp, inp.paths["model"], out)] + _segmentation_stages(
            inp, out, [("dpseg", dpseg)])

    def quality(self, inp: Inputs, out: str) -> dict[str, float]:
        return {"dpseg_boundary_f": _report_f(out + "/eval_dpseg.txt"),
                "boundary_f": _report_f(out + "/eval_attn.txt"),
                "proportional_f": _report_f(out + "/eval_prop.txt")}


class SpeechAud:
    name = "speech-aud"
    headline = "unit_nmi"

    def synth_seed(self, seed: int) -> int:
        return seed   # the renderer cuts the corpus to a fixed length itself

    def setup(self, work: str, synth_seed: int) -> Inputs:
        p = _synth(gen.SPEECH_SYNTH, synth_seed, work)
        p["wavs"], truth = gen.write_speech(p["ul"], work, synth_seed)
        wav_files = ["%s/%s.wav" % (work, utt_id) for utt_id in truth]
        return Inputs(list(p.values()) + wav_files, paths=p, truth=truth)

    def stages(self, inp: Inputs, out: str) -> list[Stage]:
        feats, model, units = out + "/feats.npz", out + "/aud.npz", out + "/units.txt"
        ids = list(inp.truth)
        frames = {utt_id: len(labels) for utt_id, labels in inp.truth.items()}
        return [
            Stage(["mfcc", "--wav-list", inp.paths["wavs"], "--out", feats], [feats], ids,
                  lambda: checks.check_features(feats, frames)),
            Stage(["aud-train", "--features", feats, "--out", model,
                   "--iterations", str(AUD_ITERATIONS), "--quiet"], [model], ids),
            Stage(["aud-decode", "--model", model, "--features", feats, "--out", units],
                  [units], ids,
                  lambda: checks.check_units(units, frames, gen.FRAME_STEP / gen.RATE)),
        ]

    def quality(self, inp: Inputs, out: str) -> dict[str, float]:
        units = checks.read_units(out + "/units.txt")
        step = gen.FRAME_STEP / gen.RATE
        truth, hyp = [], []
        for utt_id, labels in inp.truth.items():
            frame_units = [lab for lab, s, e in units.get(utt_id, [])
                           for _ in range(round((e - s) / step))]
            n = min(len(labels), len(frame_units))
            truth += labels[:n]
            hyp += frame_units[:n]
        with np.load(out + "/aud.npz") as z:
            active = int(np.isfinite(z["log_pi"]).sum())
        return {"unit_nmi": normalized_mutual_information(truth, hyp),
                "active_units": float(active)}


def normalized_mutual_information(a: list, b: list) -> float:
    """NMI with arithmetic-mean normalisation, as the AUD acceptance test computes it."""
    n = len(a)
    if n == 0:
        return 0.0
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    mi = sum(c / n * math.log(c * n / (ca[x] * cb[y])) for (x, y), c in cab.items())
    denom = (ha + hb) / 2
    return mi / denom if denom > 0 else 0.0


WORKLOADS = {w.name: w for w in (ToyTrain(), PaperSegment(), SpeechAud())}


@dataclass
class PassResult:
    wall_s: float
    quality: dict[str, float]
    hashes: dict[str, str]


def run_pass(workload, inp: Inputs, out: str, tally: checks.Tally) -> PassResult:
    """Run the timed stages in order, then check their outputs (untimed)."""
    fresh_dir(out)
    stages = workload.stages(inp, out)
    codes, times = [], []
    for stage in stages:
        code, seconds = run_cli(stage.args)
        codes.append(code)
        times.append(seconds)
    for stage, code in zip(stages, codes):
        bad = checks.check_stage(code, stage.artifact, stage.outputs, stage.utts)
        if not bad and stage.check is not None:
            bad = stage.check()
        tally.add(stage.command, stage.utts, bad)
    try:
        quality = workload.quality(inp, out)
    except (OSError, ValueError, KeyError) as e:
        tally.errors.append("quality figures unreadable: %s" % e)
        quality = {}
    hashes = file_hashes([p for s in stages for p in s.outputs])
    return PassResult(sum(times), quality, hashes)
