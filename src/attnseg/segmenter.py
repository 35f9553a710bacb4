"""From soft alignments to word segmentations.

Pipeline: optionally average the matrices of several training runs,
optionally smooth each score with its two word-axis neighbors, take the
per-symbol argmax to get a hard alignment, and open a word boundary
wherever two consecutive symbols attach to different WRL words.
"""

from __future__ import annotations

import numpy as np

from .aligner import AttentionMatrix
from .corpus import Segmentation
from .errors import DataError


def smooth_matrix(m: AttentionMatrix) -> AttentionMatrix:
    """Average each score with its two neighbors along the word axis.

    Edge columns average over the two existing values. Rows are
    renormalized to sum to 1 afterwards (harmless for the argmax, keeps
    rows interpretable as distributions). A single-word matrix is
    returned unchanged.
    """
    w = m.weights
    if w.shape[1] <= 1:
        return m
    padded = np.pad(w, ((0, 0), (1, 1)), mode="constant")
    sums = padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]
    counts = np.full(w.shape[1], 3.0)
    counts[0] = counts[-1] = 2.0
    sm = sums / counts
    sm = sm / sm.sum(axis=1, keepdims=True)
    return AttentionMatrix(m.utt_id, sm)


def average_matrices(ms: list[AttentionMatrix]) -> AttentionMatrix:
    """Elementwise mean of same-shaped matrices from independent runs."""
    if not ms:
        raise DataError("no matrices to average")
    first = ms[0]
    for m in ms[1:]:
        if m.utt_id != first.utt_id:
            raise DataError(
                "cannot average matrices of %s and %s" % (first.utt_id, m.utt_id)
            )
        if m.weights.shape != first.weights.shape:
            raise DataError(
                "%s: matrix shape mismatch %s vs %s"
                % (m.utt_id, m.weights.shape, first.weights.shape)
            )
    mean = np.mean([m.weights for m in ms], axis=0)
    return AttentionMatrix(first.utt_id, mean)


def hard_align(m: AttentionMatrix) -> tuple[int, ...]:
    """The aligned WRL word index of every UL symbol position: the per-row
    argmax, with ties broken toward the lower word index."""
    return tuple(int(i) for i in np.argmax(m.weights, axis=1))


def alignment_to_segmentation(idx: tuple[int, ...]) -> Segmentation:
    """Boundary after position t exactly when idx[t] != idx[t+1].

    Word indices need not be monotone: any change opens a new word.
    """
    bounds = {t + 1 for t in range(len(idx) - 1) if idx[t] != idx[t + 1]}
    return Segmentation(len(idx), frozenset(bounds))


def segment_matrix(m: AttentionMatrix, smooth: bool = True) -> Segmentation:
    if smooth:
        m = smooth_matrix(m)
    return alignment_to_segmentation(hard_align(m))


def segment_corpus(
    matrices_per_run: list[dict[str, AttentionMatrix]], smooth: bool = True
) -> dict[str, Segmentation]:
    """Average across runs (if more than one), then smooth and segment.

    `matrices_per_run` holds one id->matrix map per training run; all
    runs must cover the same utterances.
    """
    if not matrices_per_run:
        raise DataError("no attention matrices given")
    ids = set(matrices_per_run[0])
    for run in matrices_per_run[1:]:
        missing = ids.symmetric_difference(run)
        if missing:
            raise DataError(
                "runs disagree on utterances: %s" % ", ".join(sorted(missing))
            )
    out = {}
    for utt_id in sorted(ids):
        ms = [run[utt_id] for run in matrices_per_run]
        m = average_matrices(ms) if len(ms) > 1 else ms[0]
        out[utt_id] = segment_matrix(m, smooth=smooth)
    return out
