"""From soft alignments to word segmentations.

Pipeline: optionally average the matrices of several training runs,
optionally smooth each score with its two word-axis neighbors, take the
per-symbol argmax to get a hard alignment, and open a word boundary
wherever two consecutive symbols attach to different WRL words.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from .aligner import AttentionMatrix
from .corpus import Segmentation
from .errors import DataError

STACK_MATRICES = 128  # the most matrices `segment_corpus` stacks at once: a bound on its copies


def smooth_matrix(m: AttentionMatrix) -> AttentionMatrix:
    """Average each score with its two neighbors along the word axis.

    Edge columns average over the two existing values. Rows are
    renormalized to sum to 1 afterwards (harmless for the argmax, keeps
    rows interpretable as distributions). A single-word matrix is
    returned unchanged. Each row is smoothed on its own, so `m` may stack
    the rows of several utterances of one width.
    """
    w = m.weights
    if w.shape[1] <= 1:
        return m
    sm = w.copy()  # in place from here: (left + center) + right, one array of w's size
    sm[:, 1:] += w[:, :-1]
    sm[:, :-1] += w[:, 1:]
    counts = np.full(w.shape[1], 3.0)
    counts[0] = counts[-1] = 2.0
    sm /= counts
    sm /= sm.sum(axis=1, keepdims=True)
    return AttentionMatrix(m.utt_id, sm)


def average_runs(runs: Iterable[dict[str, AttentionMatrix]]) -> dict[str, AttentionMatrix]:
    """Elementwise mean over independent runs of each utterance's matrix.

    Each run is added into a running sum as it comes, so an iterator of
    runs needs only the sums and one run at a time. The runs are added in
    order and the sums then divided by their count, which is bit for bit
    `np.mean` over the stacked runs. One run is returned as it is. Runs
    that differ in their utterances or in a matrix's shape raise DataError.
    """
    mean: dict[str, AttentionMatrix] = {}
    k = 0
    for run in runs:
        if k:
            missing = mean.keys() ^ run.keys()
            if missing:
                raise DataError("runs disagree on utterances: %s" % ", ".join(sorted(missing)))
            for utt_id, m in run.items():
                shape = mean[utt_id].weights.shape
                if m.weights.shape != shape:
                    raise DataError("%s: matrix shape mismatch %s vs %s"
                                    % (utt_id, m.weights.shape, shape))
            for utt_id, m in run.items():
                if k == 1:  # new arrays: the first run's are the caller's
                    mean[utt_id] = AttentionMatrix(utt_id, mean[utt_id].weights + m.weights)
                else:
                    mean[utt_id].weights += m.weights
        else:
            mean = dict(run)
        k += 1
        del run  # not held while the next run is read
    if not k:
        raise DataError("no attention matrices given")
    if k > 1:
        for m in mean.values():
            m.weights /= k
    return mean


def average_matrices(ms: list[AttentionMatrix]) -> AttentionMatrix:
    """Elementwise mean of one utterance's same-shaped matrices from independent runs."""
    if not ms:
        raise DataError("no matrices to average")
    return average_runs({m.utt_id: m} for m in ms)[ms[0].utt_id]


def hard_align(m: AttentionMatrix) -> tuple[int, ...]:
    """The aligned WRL word index of every UL symbol position: the per-row
    argmax, with ties broken toward the lower word index."""
    return tuple(np.argmax(m.weights, axis=1).tolist())


def alignment_to_segmentation(idx: tuple[int, ...]) -> Segmentation:
    """Boundary after position t exactly when idx[t] != idx[t+1].

    Word indices need not be monotone: any change opens a new word.
    """
    a = np.asarray(idx)
    return Segmentation(len(idx), frozenset((np.flatnonzero(a[1:] != a[:-1]) + 1).tolist()))


def segment_matrix(m: AttentionMatrix, smooth: bool = True) -> Segmentation:
    if smooth:
        m = smooth_matrix(m)
    return alignment_to_segmentation(hard_align(m))


def segment_corpus(
    matrices_per_run: Iterable[dict[str, AttentionMatrix]], smooth: bool = True
) -> dict[str, Segmentation]:
    """Average across runs (if more than one), then smooth and segment.

    `matrices_per_run` holds one id->matrix map per training run; all
    runs must cover the same utterances. Up to STACK_MATRICES matrices of
    one width are segmented as one stack of rows, which is then cut at the
    utterance edges: smoothing and the argmax read one row at a time, so
    each utterance gets the segmentation it gets alone.
    """
    mean = average_runs(matrices_per_run)
    by_width: dict[int, list[str]] = {}
    for utt_id in sorted(mean):
        by_width.setdefault(mean[utt_id].num_words, []).append(utt_id)
    stacks = [ids[k: k + STACK_MATRICES] for ids in by_width.values()
              for k in range(0, len(ids), STACK_MATRICES)]
    out = {}
    for ids in stacks:
        stacked = AttentionMatrix("", np.concatenate([mean[u].weights for u in ids]))
        bounds = sorted(segment_matrix(stacked, smooth=smooth).boundaries)
        start = 0
        for utt_id in ids:
            end = start + mean[utt_id].num_symbols
            inner = bounds[bisect.bisect_right(bounds, start): bisect.bisect_left(bounds, end)]
            out[utt_id] = Segmentation(end - start, frozenset(b - start for b in inner))
            start = end
    return {utt_id: out[utt_id] for utt_id in sorted(out)}
