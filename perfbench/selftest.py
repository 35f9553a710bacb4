"""Self-test of the output checks: each corrupted artifact must be counted as failed.

Run from the root of a checkout with `python3 perfbench/selftest.py`;
`run.py` also runs it before every benchmark run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

import checks

UTTS = [checks.Utterance("utt00001", ("a", "b", "c"), ("x", "y")),
        checks.Utterance("utt00002", ("c", "a"), ("z",))]
IDS = [u.id for u in UTTS]
GOOD_MATRICES = {"utt00001": [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]], "utt00002": [[1.0], [1.0]]}
STEP = 0.01


def _write_matrices(path, matrices):
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, rows in matrices.items():
            f.write("%s %d %d\n" % (utt_id, len(rows), len(rows[0])))
            f.writelines(" ".join("%.10e" % v for v in row) + "\n" for row in rows)


def _write_units(path, units):
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, ivs in units.items():
            f.writelines("%s %.6f %.6f %s\n" % (utt_id, s, e, lab) for lab, s, e in ivs)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def cases(d: str):
    """(description, check result, ids that must fail) for good and corrupted artifacts."""
    m = os.path.join(d, "attn.txt")
    _write_matrices(m, GOOD_MATRICES)
    yield "good matrices", checks.check_attention(m, UTTS), set()
    _write_matrices(m, {**GOOD_MATRICES, "utt00001": [[0.25, 0.7], [1.0, 0.0], [0.5, 0.5]]})
    yield "row not summing to 1", checks.check_attention(m, UTTS), {"utt00001"}
    _write_matrices(m, {**GOOD_MATRICES, "utt00002": [[1.5], [1.0]]})
    yield "weight above 1", checks.check_attention(m, UTTS), {"utt00002"}
    _write_matrices(m, {"utt00001": GOOD_MATRICES["utt00001"]})
    yield "missing utterance", checks.check_attention(m, UTTS), {"utt00002"}
    _write_matrices(m, {**GOOD_MATRICES, "utt00002": [[1.0]]})
    yield "wrong shape", checks.check_attention(m, UTTS), {"utt00002"}
    with open(m, "a", encoding="utf-8") as f:
        f.write("utt00002 2 1\n1.0\n1.0\n")
    yield "duplicate matrix", checks.check_attention(m, UTTS), {"utt00002"}

    frames = {"utt00001": 5, "utt00002": 3}
    u = os.path.join(d, "units.txt")
    good = {"utt00001": [("a1", 0.0, 0.02), ("a2", 0.02, 0.05)], "utt00002": [("a1", 0.0, 0.03)]}
    _write_units(u, good)
    yield "good units", checks.check_units(u, frames, STEP), set()
    _write_units(u, {**good, "utt00001": [("a1", 0.0, 0.02), ("a2", 0.03, 0.05)]})
    yield "gap in units", checks.check_units(u, frames, STEP), {"utt00001"}
    _write_units(u, {**good, "utt00002": [("a1", 0.0, 0.02)]})
    yield "units short of the frames", checks.check_units(u, frames, STEP), {"utt00002"}
    _write_units(u, {"utt00001": good["utt00001"]})
    yield "utterance without units", checks.check_units(u, frames, STEP), {"utt00002"}

    f = os.path.join(d, "feats.npz")
    np.savez(f, **{"feat/utt00001": np.zeros((5, 39)), "feat/utt00002": np.zeros((3, 39))})
    yield "good features", checks.check_features(f, frames), set()
    np.savez(f, **{"feat/utt00001": np.zeros((5, 39)), "feat/utt00002": np.zeros((2, 39))})
    yield "features short of the frames", checks.check_features(f, frames), {"utt00002"}

    s = os.path.join(d, "seg.txt")
    _write(s, "ab c\nca\n")
    yield "good segmentation", checks.check_segmentation(s, UTTS), set()
    _write(s, "ab\nca\n")
    yield "segmentation short of the symbols", checks.check_segmentation(s, UTTS), {"utt00001"}

    _write(os.path.join(d, "seg.txt.manifest.json"),
           json.dumps({"outputs": {s: checks.sha256(s)}}))
    yield "good stage", checks.check_stage(0, s, [s], IDS), set()
    yield "non-zero exit code", checks.check_stage(3, s, [s], IDS), set(IDS)
    _write(s, "abc\nca\n")
    yield "manifest hash out of date", checks.check_stage(0, s, [s], IDS), set(IDS)


def run() -> list[str]:
    """Descriptions of the cases the checks got wrong; empty when all hold."""
    wrong = []
    with tempfile.TemporaryDirectory(dir=".") as d:
        for what, bad, expected in cases(d):
            if set(bad) != expected:
                wrong.append("%s: flagged %s, expected %s" % (what, sorted(bad), sorted(expected)))
    tally = checks.Tally()
    tally.add("stage", IDS, {IDS[0]: "corrupt"})
    if (tally.attempted, tally.failed, tally.correct) != (2, 1, False):
        wrong.append("tally does not count a failed utterance")
    return wrong


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(line, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)
