"""Output checks, counted per utterance.

Each check takes a stage's artifact and the utterances the stage was
given, and returns the ids whose output is wrong. The checks parse the
files themselves and never call the program's readers, so a reader that
accepts a bad file cannot hide it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

ROW_TOL = 1e-6
TIME_TOL = 1e-6


@dataclass
class Utterance:
    id: str
    symbols: tuple[str, ...]
    words: tuple[str, ...]


def read_corpus(ul_path: str, wrl_path: str) -> list[Utterance]:
    """Utterances of a UL/WRL file pair, numbered by line as the program numbers them."""
    with open(ul_path, encoding="utf-8") as f:
        ul = [l.split() for l in f.read().splitlines() if l.strip()]
    with open(wrl_path, encoding="utf-8") as f:
        wrl = [l.split() for l in f.read().splitlines() if l.strip()]
    if len(ul) != len(wrl):
        raise ValueError("%s and %s differ in length" % (ul_path, wrl_path))
    return [Utterance("utt%05d" % i, tuple(s), tuple(w))
            for i, (s, w) in enumerate(zip(ul, wrl), start=1)]


@dataclass
class Tally:
    """Utterances attempted and failed over every checked stage."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # examples of failed utterances
    errors: list[str] = field(default_factory=list)    # failures of the run as a whole

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def add(self, stage: str, ids: list[str], bad: dict[str, str]) -> None:
        self.attempted += len(ids)
        self.failed += len(bad)
        for utt_id in sorted(bad)[:3]:
            self.problems.append("%s %s: %s" % (stage, utt_id, bad[utt_id]))


def _all(ids: list[str], why: str) -> dict[str, str]:
    return {i: why for i in ids}


def check_stage(exit_code: int, artifact: str, outputs: list[str],
                ids: list[str]) -> dict[str, str]:
    """A stage fails every utterance if it exits non-zero or its manifest is wrong."""
    if exit_code != 0:
        return _all(ids, "exit code %d" % exit_code)
    why = check_manifest(artifact, outputs)
    return _all(ids, why) if why else {}


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_manifest(artifact: str, outputs: list[str]) -> str | None:
    """None if `<artifact>.manifest.json` lists every output with its current hash."""
    try:
        with open(artifact + ".manifest.json", encoding="utf-8") as f:
            listed = json.load(f)["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return "unreadable manifest (%s)" % e
    for path in outputs:
        if not os.path.exists(path):
            return "missing output %s" % path
        if listed.get(path) != sha256(path):
            return "manifest hash of %s does not match" % path
    return None


def check_attention(path: str, utts: list[Utterance]) -> dict[str, str]:
    """One (symbols, words) matrix per utterance, rows in [0, 1] summing to 1."""
    expected = {u.id: (len(u.symbols), len(u.words)) for u in utts}
    bad: dict[str, str] = {}
    seen: set[str] = set()
    try:
        with open(path, encoding="utf-8") as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
    except OSError as e:
        return _all(list(expected), "unreadable matrices (%s)" % e)
    i = 0
    while i < len(lines):
        head = lines[i].split()
        try:
            utt_id, n_rows, n_cols = head[0], int(head[1]), int(head[2])
            w = np.array([[float(v) for v in lines[i + 1 + t].split()]
                          for t in range(n_rows)])
        except (IndexError, ValueError):
            for utt_id in expected:
                if utt_id not in seen:
                    bad.setdefault(utt_id, "malformed matrix file")
            return bad
        i += 1 + n_rows
        if utt_id not in expected:
            return _all(list(expected), "matrix for unknown utterance %s" % utt_id)
        if utt_id in seen:
            bad[utt_id] = "more than one matrix"
        seen.add(utt_id)
        if (n_rows, n_cols) != expected[utt_id] or w.shape != expected[utt_id]:
            bad[utt_id] = "shape %s, expected %s" % (w.shape, expected[utt_id])
        elif np.any(w < -ROW_TOL) or np.any(w > 1 + ROW_TOL):
            bad[utt_id] = "weight outside [0, 1]"
        elif np.any(np.abs(w.sum(axis=1) - 1.0) > ROW_TOL):
            bad[utt_id] = "row does not sum to 1"
    for utt_id in expected:
        if utt_id not in seen:
            bad[utt_id] = "no matrix"
    return bad


def check_segmentation(path: str, utts: list[Utterance]) -> dict[str, str]:
    """One line per utterance whose words spell exactly its symbols.

    Symbols are single characters in every workload that segments, so a
    word is its characters and no delimiter is needed.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return _all([u.id for u in utts], "unreadable segmentation (%s)" % e)
    bad = {}
    for k, u in enumerate(utts):
        if k >= len(lines):
            bad[u.id] = "no segmentation line"
        elif tuple("".join(lines[k].split())) != u.symbols:
            bad[u.id] = "segmentation does not cover the symbols"
    if len(lines) > len(utts):
        return _all([u.id for u in utts], "more lines than utterances")
    return bad


def check_features(path: str, frames: dict[str, int]) -> dict[str, str]:
    """One (F, D) feature matrix per utterance, F from the rendered length."""
    try:
        with np.load(path) as z:
            shapes = {k[len("feat/"):]: z[k].shape for k in z.files if k.startswith("feat/")}
    except (OSError, ValueError) as e:
        return {u: "unreadable features (%s)" % e for u in frames}
    return {u: "features %s for %d frames" % (shapes.get(u), n)
            for u, n in frames.items() if not shapes.get(u) or shapes[u][0] != n}


def read_units(path: str) -> dict[str, list[tuple[str, float, float]]]:
    """`id start end label` lines grouped by utterance; malformed lines raise ValueError."""
    out: dict[str, list[tuple[str, float, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                utt_id, start, end, label = line.split()
                out.setdefault(utt_id, []).append((label, float(start), float(end)))
    return out


def check_units(path: str, frames: dict[str, int], step: float) -> dict[str, str]:
    """Each utterance's unit intervals tile [0, F * step] without gap or overlap."""
    try:
        units = read_units(path)
    except (OSError, ValueError) as e:
        return _all(list(frames), "unreadable units (%s)" % e)
    extra = set(units) - set(frames)
    if extra:
        return _all(list(frames), "units for unknown utterance %s" % min(extra))
    bad = {}
    for utt_id, n_frames in frames.items():
        ivs = units.get(utt_id)
        if not ivs:
            bad[utt_id] = "no units"
            continue
        edge = 0.0
        for _label, start, end in ivs:
            if abs(start - edge) > TIME_TOL or end <= start:
                bad[utt_id] = "gap or overlap at %.6f s" % start
                break
            edge = end
        else:
            if abs(edge - n_frames * step) > TIME_TOL:
                bad[utt_id] = "units end at %.6f s, frames end at %.6f s" % (
                    edge, n_frames * step)
    return bad
