import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attnseg.aligner import AttentionMatrix
from attnseg.errors import DataError
from attnseg.segmenter import (
    STACK_MATRICES,
    alignment_to_segmentation,
    average_matrices,
    average_runs,
    hard_align,
    segment_corpus,
    segment_matrix,
    smooth_matrix,
)


def matrix(rows, utt_id="u"):
    return AttentionMatrix(utt_id, np.array(rows, dtype=float))


def random_stochastic(rng, t, a):
    w = rng.random((t, a)) + 1e-3
    return w / w.sum(axis=1, keepdims=True)


class TestSmooth:
    def test_single_word_unchanged(self):
        m = matrix([[1.0], [1.0]])
        out = smooth_matrix(m)
        np.testing.assert_array_equal(out.weights, m.weights)

    def test_hand_computed_row(self):
        m = matrix([[0.6, 0.3, 0.1]])
        out = smooth_matrix(m)
        # pre-normalization [0.45, 0.3333, 0.2]
        np.testing.assert_allclose(
            out.weights, [[0.4576, 0.3390, 0.2034]], atol=1e-3)

    def test_uniform_stays_uniform(self):
        m = matrix([[0.25] * 4, [0.25] * 4])
        out = smooth_matrix(m)
        np.testing.assert_allclose(out.weights, m.weights, atol=1e-12)

    @given(st.integers(1, 6), st.integers(2, 7), st.integers(0, 99))
    def test_preserves_row_stochasticity_and_range(self, t, a, seed):
        m = AttentionMatrix("u", random_stochastic(np.random.default_rng(seed), t, a))
        out = smooth_matrix(m)
        np.testing.assert_allclose(out.weights.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.weights >= 0)
        assert np.all(out.weights <= 1)


class TestAverage:
    def test_identical_matrices(self):
        m = matrix([[0.7, 0.3]])
        out = average_matrices([m, m, m])
        np.testing.assert_allclose(out.weights, m.weights)

    def test_two_matrix_mean(self):
        out = average_matrices([matrix([[0.8, 0.2]]), matrix([[0.4, 0.6]])])
        np.testing.assert_allclose(out.weights, [[0.6, 0.4]])

    def test_mean_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        ms = [AttentionMatrix("u", random_stochastic(rng, 4, 3)) for _ in range(5)]
        out = average_matrices(ms)
        np.testing.assert_allclose(out.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            average_matrices([matrix([[1.0]]), matrix([[0.5, 0.5]])])

    def test_id_mismatch(self):
        with pytest.raises(DataError):
            average_matrices([matrix([[1.0]], "a"), matrix([[1.0]], "b")])


class TestAverageRuns:
    @given(st.integers(2, 8), st.integers(0, 999))
    def test_running_sum_is_np_mean_bit_for_bit(self, k, seed):
        rng = np.random.default_rng(seed)
        shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 7))) for _ in range(4)]
        runs = [{"u%d" % i: AttentionMatrix("u%d" % i, random_stochastic(rng, t, a))
                 for i, (t, a) in enumerate(shapes)} for _ in range(k)]
        before = {u: m.weights.copy() for u, m in runs[0].items()}
        mean = average_runs(iter(runs))
        for u, w in before.items():
            np.testing.assert_array_equal(
                mean[u].weights, np.mean([run[u].weights for run in runs], axis=0))
            np.testing.assert_array_equal(runs[0][u].weights, w)  # the caller's arrays

    def test_one_run_is_returned_as_it_is(self):
        run = {"u": matrix([[0.3, 0.7]], "u")}
        assert average_runs([run])["u"] is run["u"]

    def test_holds_one_run_at_a_time(self):
        class Run(dict):  # a dict that a weak reference can point to
            pass

        refs = []

        def runs():
            for _ in range(4):
                assert all(r() is None for r in refs), "an earlier run is still held"
                run = Run(u=matrix([[0.5, 0.5], [0.25, 0.75]], "u"))
                refs.append(weakref.ref(run))
                yield run
                del run

        np.testing.assert_array_equal(average_runs(runs())["u"].weights,
                                      [[0.5, 0.5], [0.25, 0.75]])

    def test_no_runs(self):
        with pytest.raises(DataError, match="no attention matrices"):
            average_runs(iter([]))


class TestHardAlign:
    def test_argmax_by_inspection(self):
        assert hard_align(matrix([[0.7, 0.3], [0.6, 0.4], [0.2, 0.8]])) == (0, 0, 1)

    def test_diagonal_identity(self):
        assert hard_align(matrix(np.eye(4))) == (0, 1, 2, 3)

    def test_tie_breaks_low(self):
        assert hard_align(matrix([[0.5, 0.5]])) == (0,)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 99))
    def test_invariant_to_row_rescaling(self, t, a, seed):
        rng = np.random.default_rng(seed)
        w = random_stochastic(rng, t, a)
        scales = rng.uniform(0.1, 10.0, size=(t, 1))
        assert hard_align(AttentionMatrix("u", w)) == hard_align(
            AttentionMatrix("u", w * scales))


class TestAlignmentToSegmentation:
    def test_basic(self):
        seg = alignment_to_segmentation((0, 0, 1))
        assert seg.boundaries == {2}

    def test_single_word(self):
        seg = alignment_to_segmentation((2, 2, 2, 2))
        assert seg.boundaries == frozenset()

    def test_non_monotone_changes_segment(self):
        seg = alignment_to_segmentation((1, 0, 1))
        assert seg.boundaries == {1, 2}

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_word_count_is_changes_plus_one(self, idx):
        seg = alignment_to_segmentation(tuple(idx))
        changes = sum(1 for a, b in zip(idx, idx[1:]) if a != b)
        assert seg.num_words == changes + 1


class TestSegmentCorpus:
    def test_diagonal_grouping(self):
        ms = {"u1": matrix(np.kron(np.eye(2), np.ones((2, 1))), "u1")}
        segs = segment_corpus([ms], smooth=False)
        assert segs["u1"].boundaries == {2}

    def test_missing_utterance_listed(self):
        run1 = {"a": matrix([[1.0]], "a")}
        run2 = {"b": matrix([[1.0]], "b")}
        with pytest.raises(DataError, match="a|b"):
            segment_corpus([run1, run2])

    def test_composition_deterministic(self):
        rng = np.random.default_rng(1)
        runs = [
            {"u%d" % i: AttentionMatrix("u%d" % i, random_stochastic(rng, 5, 3))
             for i in range(4)}
            for _ in range(3)
        ]
        a = segment_corpus(runs, smooth=True)
        b = segment_corpus([dict(reversed(list(r.items()))) for r in runs], smooth=True)
        assert a == b

    def test_smoothing_changes_only_argmax_flips(self):
        rng = np.random.default_rng(2)
        ms = {"u%d" % i: AttentionMatrix("u%d" % i, random_stochastic(rng, 6, 4))
              for i in range(10)}
        plain = segment_corpus([ms], smooth=False)
        smoothed = segment_corpus([ms], smooth=True)
        for utt_id, m in ms.items():
            if hard_align(smooth_matrix(m)) == hard_align(m):
                assert plain[utt_id] == smoothed[utt_id]

    @given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 4)), min_size=1, max_size=12),
           st.integers(0, 99), st.booleans())
    def test_stacked_rows_match_one_matrix_at_a_time(self, shapes, seed, smooth):
        """Each width's matrices are segmented as one stack of rows, then cut at the
        utterance edges; ties included, as each row of weights is drawn from thirds."""
        rng = np.random.default_rng(seed)
        ms = {}
        for i, (t, a) in enumerate(shapes):
            w = rng.integers(1, 4, size=(t, a)) / 3.0
            ms["u%02d" % i] = AttentionMatrix("u%02d" % i, w / w.sum(axis=1, keepdims=True))
        segs = segment_corpus([ms], smooth=smooth)
        assert list(segs) == sorted(ms)
        assert segs == {u: segment_matrix(m, smooth=smooth) for u, m in ms.items()}

    def test_more_matrices_of_one_width_than_one_stack_holds(self):
        rng = np.random.default_rng(3)
        ms = {}
        for i in range(2 * STACK_MATRICES + 5):
            w = rng.integers(1, 4, size=(int(rng.integers(1, 9)), 3)) / 3.0
            ms["u%03d" % i] = AttentionMatrix("u%03d" % i, w / w.sum(axis=1, keepdims=True))
        assert segment_corpus([ms]) == {u: segment_matrix(m) for u, m in ms.items()}

    def test_segment_matrix_pipeline(self):
        m = matrix([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        assert segment_matrix(m, smooth=False).boundaries == {2}
