import random

import pytest
from hypothesis import given, settings, strategies as st

from attnseg.corpus import (
    ParallelCorpus,
    ParallelUtterance,
    Segmentation,
    build_vocabularies,
)
from attnseg.errors import DataError
from attnseg.metrics import (
    PRF,
    boundary_prf,
    evaluate,
    token_type_prf,
    write_report,
)


def make_corpus(symbol_lists):
    utts = [ParallelUtterance("u%d" % i, tuple(syms), ("w",))
            for i, syms in enumerate(symbol_lists)]
    ul, wrl = build_vocabularies(utts)
    return ParallelCorpus(tuple(utts), ul, wrl)


def brute_force_report(hyp, gold, corpus):
    """Independent recount of all three metrics from first principles."""
    b_match = b_hyp = b_gold = 0
    t_match = t_hyp = t_gold = 0
    hyp_types, gold_types = set(), set()
    for u in corpus:
        h, g = hyp[u.id], gold[u.id]
        for j in range(1, h.length):
            in_h, in_g = j in h.boundaries, j in g.boundaries
            b_match += in_h and in_g
            b_hyp += in_h
            b_gold += in_g
        h_words = {(a, b, tuple(u.ul_symbols[a:b])) for a, b in h.word_spans()}
        g_words = {(a, b, tuple(u.ul_symbols[a:b])) for a, b in g.word_spans()}
        t_match += len(h_words & g_words)
        t_hyp += len(h_words)
        t_gold += len(g_words)
        hyp_types.update(w for _, _, w in h_words)
        gold_types.update(w for _, _, w in g_words)
    return (
        PRF.from_counts(b_match, b_hyp, b_gold),
        PRF.from_counts(t_match, t_hyp, t_gold),
        PRF.from_counts(len(hyp_types & gold_types), len(hyp_types), len(gold_types)),
    )


def random_eval_case(rng, n_utts=4, max_len=8):
    lens = [rng.randint(1, max_len) for _ in range(n_utts)]
    syms = [[rng.choice("abc") for _ in range(n)] for n in lens]
    corpus = make_corpus(syms)

    def rand_seg(n):
        bounds = {j for j in range(1, n) if rng.random() < 0.4}
        return Segmentation(n, frozenset(bounds))

    hyp = {"u%d" % i: rand_seg(n) for i, n in enumerate(lens)}
    gold = {"u%d" % i: rand_seg(n) for i, n in enumerate(lens)}
    return corpus, hyp, gold


class TestPRF:
    def test_from_counts(self):
        p = PRF.from_counts(3, 4, 6)
        assert p.precision == pytest.approx(0.75)
        assert p.recall == pytest.approx(0.5)
        assert p.fscore == pytest.approx(0.6)

    def test_no_hypothesis_flags_precision(self):
        p = PRF.from_counts(0, 0, 5)
        assert p.precision == 0.0
        assert p.fscore == 0.0
        assert p.precision_undefined

    def test_perfect(self):
        p = PRF.from_counts(7, 7, 7)
        assert p.fscore == 1.0
        assert not p.precision_undefined


class TestBoundary:
    def test_hand_example(self):
        # gold abc|de, hyp ab|c|de: hyp {2,3}, gold {3}, match {3}
        hyp = {"u0": Segmentation(5, {2, 3})}
        gold = {"u0": Segmentation(5, {3})}
        p = boundary_prf(hyp, gold)
        assert p.precision == pytest.approx(0.5)
        assert p.recall == pytest.approx(1.0)
        assert p.fscore == pytest.approx(2 / 3)

    def test_edges_never_counted(self):
        hyp = {"u0": Segmentation(3, set())}
        gold = {"u0": Segmentation(3, set())}
        p = boundary_prf(hyp, gold)
        assert (p.hyp_count, p.gold_count) == (0, 0)

    def test_id_mismatch(self):
        with pytest.raises(DataError, match="u1"):
            boundary_prf({"u0": Segmentation(2, set())}, {"u1": Segmentation(2, set())})

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="u0"):
            boundary_prf({"u0": Segmentation(2, set())}, {"u0": Segmentation(3, set())})

    def test_swap_exchanges_p_and_r(self):
        rng = random.Random(3)
        for _ in range(50):
            _, hyp, gold = random_eval_case(rng)
            a = boundary_prf(hyp, gold)
            b = boundary_prf(gold, hyp)
            assert a.precision == pytest.approx(b.recall)
            assert a.recall == pytest.approx(b.precision)
            assert a.fscore == pytest.approx(b.fscore)


class TestTokenType:
    def test_span_exact_tokens(self):
        # gold ab|cd, hyp a|bcd: no common span even though both have 2 words
        corpus = make_corpus([list("abcd")])
        token, _, _ = token_type_prf(
            {"u0": Segmentation(4, {1})}, {"u0": Segmentation(4, {2})}, corpus
        )
        assert token.matched == 0
        assert (token.hyp_count, token.gold_count) == (2, 2)

    def test_type_overlap(self):
        # utterances "abab"; gold ab|ab, hyp ab|a|b
        corpus = make_corpus([list("abab")])
        _, type_, retrieval = token_type_prf(
            {"u0": Segmentation(4, {2, 3})}, {"u0": Segmentation(4, {2})}, corpus
        )
        # hyp types {ab, a, b}, gold types {ab}
        assert type_.precision == pytest.approx(1 / 3)
        assert type_.recall == pytest.approx(1.0)
        assert retrieval == pytest.approx(1.0)

    def test_types_pooled_across_corpus(self):
        corpus = make_corpus([list("ab"), list("ab")])
        hyp = {"u0": Segmentation(2, {1}), "u1": Segmentation(2, set())}
        gold = {"u0": Segmentation(2, set()), "u1": Segmentation(2, set())}
        _, type_, _ = token_type_prf(hyp, gold, corpus)
        # hyp types {a, b, ab}; gold types {ab}
        assert (type_.hyp_count, type_.gold_count, type_.matched) == (3, 1, 1)


class TestOracleEquivalence:
    def test_thousand_random_corpora(self):
        rng = random.Random(12345)
        for _ in range(1000):
            corpus, hyp, gold = random_eval_case(rng)
            rb, rt, ry = brute_force_report(hyp, gold, corpus)
            got = evaluate(hyp, gold, corpus)
            assert got.boundary == rb
            assert got.token == rt
            assert got.type == ry

    def test_micro_not_macro(self):
        # u0 perfect on 1 boundary, u1 0/3: micro P = 1/4, macro mean would be 0.5
        corpus = make_corpus([list("ab"), list("abcd")])
        hyp = {"u0": Segmentation(2, {1}), "u1": Segmentation(4, {1, 2, 3})}
        gold = {"u0": Segmentation(2, {1}), "u1": Segmentation(4, set())}
        p = boundary_prf(hyp, gold)
        assert p.precision == pytest.approx(0.25)


class TestEvaluateAndReport:
    def test_report_roundtrip(self, tmp_path):
        corpus = make_corpus([list("abcd")])
        hyp = {"u0": Segmentation(4, {2})}
        report = evaluate(hyp, {"u0": Segmentation(4, {2})}, corpus)
        txt = tmp_path / "r.txt"
        write_report(report, str(txt))
        d = report.to_dict()
        assert d["boundary_fscore"] == 1.0
        assert d["token_fscore"] == 1.0
        lines = txt.read_text().splitlines()
        assert "boundary_fscore 1.000000" in lines
        assert [line.split()[0] for line in lines] == sorted(d)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_fscore_bounds(self, seed):
        rng = random.Random(seed)
        corpus, hyp, gold = random_eval_case(rng)
        rep = evaluate(hyp, gold, corpus)
        for prf in (rep.boundary, rep.token, rep.type):
            assert 0.0 <= prf.precision <= 1.0
            assert 0.0 <= prf.recall <= 1.0
            assert min(prf.precision, prf.recall) - 1e-12 <= prf.fscore
            assert prf.fscore <= max(prf.precision, prf.recall) + 1e-12
