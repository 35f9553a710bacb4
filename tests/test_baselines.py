import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from attnseg import baselines
from attnseg.baselines import (
    DpsegConfig,
    DpsegSampler,
    dpseg_segment,
    proportional_segment,
)
from attnseg.corpus import ParallelUtterance, Segmentation
from attnseg.errors import ConfigError, DataError
from attnseg.metrics import PRF
from reference_ops import reference_resample_site


def utt(ul, wrl):
    return ParallelUtterance("u", tuple(ul), tuple(wrl.split()))


def counts_consistent(sampler: DpsegSampler) -> bool:
    """Bookkeeping check: the sampler's incremental counts equal a recount from its
    boundaries, which then replaces them."""
    cur = sampler.state
    sampler._rebuild_counts()
    new = sampler.state
    return (cur.unigram == new.unigram and cur.total == new.total
            and cur.bigram == new.bigram and cur.context == new.context)


class TestProportional:
    def test_two_words_four_symbols(self):
        # chars "ab cd" (L=5), m=4: positions map to chars 0,1,2,3
        # char 2 is the space, attached to the following word
        seg = proportional_segment(utt("wxyz", "ab cd"))
        assert seg.boundaries == {2}

    def test_symbol_count_equals_char_count(self):
        seg = proportional_segment(utt("wxy", "a b"))
        assert seg.boundaries == {1}

    def test_single_wrl_word(self):
        seg = proportional_segment(utt("wxyz", "abc"))
        assert seg.boundaries == frozenset()

    def test_many_symbols_per_word(self):
        seg = proportional_segment(utt("abcdefgh", "xx yy"))
        # chars "xx yy", L=5; boundary where floor(j*5/8) crosses the space
        assert seg.num_words == 2

    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 5), min_size=1, max_size=5),
        st.integers(0, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_at_most_word_count_words(self, m, word_lens, seed):
        rng = random.Random(seed)
        words = " ".join("x" * n for n in word_lens)
        syms = [rng.choice("ab") for _ in range(m)]
        seg = proportional_segment(utt(syms, words))
        assert seg.num_words <= len(word_lens)
        assert seg.length == m


def boundary_f(hyp, gold):
    matched = n_hyp = n_gold = 0
    for utt_id in hyp:
        hb, gb = hyp[utt_id].boundaries, gold[utt_id].boundaries
        matched += len(hb & gb)
        n_hyp += len(hb)
        n_gold += len(gb)
    return PRF.from_counts(matched, n_hyp, n_gold).fscore


def synth_sequences(n_sents, seed, lexicon=None):
    rng = random.Random(seed)
    lexicon = lexicon or ["ab", "cde", "fg", "hij", "kl", "mno", "pq", "rst"]
    seqs, gold = {}, {}
    for i in range(n_sents):
        words = [rng.choice(lexicon) for _ in range(rng.randint(2, 5))]
        syms = tuple("".join(words))
        seqs["u%03d" % i] = syms
        gold["u%03d" % i] = Segmentation.from_words([tuple(w) for w in words])
    return seqs, gold


class TestDpsegConfig:
    def test_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            DpsegConfig(order="trigram")

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            DpsegConfig(p_boundary=1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError):
            DpsegConfig(alpha0=0.0)


class TestSamplerInternals:
    def make_sampler(self, order="bigram", seed=0, iters=5):
        seqs, _ = synth_sequences(20, 11)
        cfg = DpsegConfig(order=order, iterations=iters, seed=seed)
        return DpsegSampler([seqs[k] for k in sorted(seqs)], cfg)

    @pytest.mark.parametrize("order", ["unigram", "bigram"])
    def test_counts_consistent_after_sweeps(self, order):
        s = self.make_sampler(order=order)
        for _ in range(3):
            s.sweep(temperature=2.0)
            assert counts_consistent(s)

    def test_base_prob_sums_below_one(self):
        s = self.make_sampler()
        # geometric length times uniform spelling is a proper distribution,
        # so any finite subset must stay below 1
        syms = sorted({c for seq in s.sequences for c in seq})
        total = sum(
            math.exp(s.state.log_base(w))
            for n in range(1, 4)
            for w in __import__("itertools").product(syms, repeat=n)
        )
        assert total < 1.0

    def test_annealing_schedule(self):
        s = self.make_sampler(iters=10)
        assert s._temperature(0) == pytest.approx(10.0)
        assert s._temperature(9) == 1.0
        temps = [s._temperature(i) for i in range(10)]
        assert temps == sorted(temps, reverse=True)

    def test_determinism(self):
        seqs, _ = synth_sequences(30, 5)
        cfg = DpsegConfig(order="unigram", alpha0=20, iterations=20, seed=9)
        a = dpseg_segment(seqs, cfg)
        b = dpseg_segment(seqs, cfg)
        assert a == b

    def test_seed_changes_trajectory(self):
        seqs, _ = synth_sequences(30, 5)
        a = dpseg_segment(seqs, DpsegConfig(order="unigram", iterations=3, seed=1))
        b = dpseg_segment(seqs, DpsegConfig(order="unigram", iterations=3, seed=2))
        assert a != b


def exact_log_odds(seqs, flags, ui, pos, cfg):
    """log P(merge) - log P(split) at one site, in exact rational arithmetic.

    The counts of every other word (and link) are taken from scratch;
    each hypothesis is then scored word by word, every word under the
    counts of the words before it, as in the sampler. Only the final
    logs are taken of big integers, so nothing can underflow.
    """
    edge = ("<utt>",)
    p = Fraction(cfg.p_boundary)
    a0, a1 = Fraction(cfg.alpha0), Fraction(cfg.alpha1)
    num_symbols = len({s for seq in seqs for s in seq})

    def words(seq, fl):
        cuts = [0] + [j for j, f in enumerate(fl, 1) if f] + [len(seq)]
        return [tuple(seq[a:b]) for a, b in zip(cuts, cuts[1:])]

    site_flags = list(flags[ui])
    site_flags[pos - 1] = True
    site_words = words(seqs[ui], site_flags)
    i = next(k for k in range(len(site_words)) if sum(map(len, site_words[:k + 1])) == pos)
    w1, w2 = site_words[i], site_words[i + 1]
    pieces = [[edge] + words(seq, fl) + [edge]
              for u, (seq, fl) in enumerate(zip(seqs, flags)) if u != ui]
    pieces += [[edge] + site_words[:i], site_words[i + 2:] + [edge]]
    uni, big, ctx = Counter(), Counter(), Counter()
    for piece in pieces:
        for a, b in zip(piece, piece[1:]):
            big[a, b] += 1
            ctx[a] += 1
        uni.update(w for w in piece if w != edge)
    l_ctx = site_words[i - 1] if i > 0 else edge
    r_ctx = site_words[i + 2] if i + 2 < len(site_words) else edge

    def prob(hyp):
        u, b, c, total = Counter(uni), Counter(big), Counter(ctx), sum(uni.values())
        chain = [l_ctx] + hyp + [r_ctx]
        out = Fraction(1)
        for k in range(1, len(chain)):
            prev, word = chain[k - 1], chain[k]
            base = (1 - p) ** (len(word) - 1) * p / num_symbols ** len(word)
            p1 = (u[word] + a0 * base) / (total + a0)
            if cfg.order == "bigram":
                out *= (b[prev, word] + a1 * p1) / (c[prev] + a1)
                b[prev, word] += 1
                c[prev] += 1
            elif k < len(chain) - 1:
                out *= p1
            if k < len(chain) - 1:
                u[word] += 1
                total += 1
        return out

    def log(q):
        return math.log(q.numerator) - math.log(q.denominator)

    return log(prob([w1 + w2])) - log(prob([w1, w2]))


def new_word_corpus(word_len, seed):
    """Utterances of two or three words, each new, over 100 symbols."""
    rng = random.Random(seed)
    alphabet = ["s%02d" % k for k in range(100)]
    seqs, flags = [], []
    for _ in range(4):
        ws = [[rng.choice(alphabet) for _ in range(word_len)]
              for _ in range(rng.randint(2, 3))]
        seqs.append(tuple(s for w in ws for s in w))
        cuts = {sum(map(len, ws[:k])) for k in range(1, len(ws))}
        flags.append([j in cuts for j in range(1, len(seqs[-1]))])
    return seqs, flags


class TestLogOddsOracle:
    """The sampler's merge-vs-split log-odds against an exact computation."""

    def check(self, seqs, flags, sites, order):
        cfg = DpsegConfig(order=order, alpha0=20.0 if order == "unigram" else 100.0)
        s = DpsegSampler(list(seqs), cfg)
        s.flags = [list(f) for f in flags]
        s._rebuild_counts()
        for ui, pos in sites:
            exact = exact_log_odds(seqs, s.flags, ui, pos, cfg)
            for temperature in (1.0, 2.0):
                got = s._resample_site(ui, pos, temperature)
                assert math.isfinite(got)
                assert got == pytest.approx(exact / temperature, rel=1e-12)
            assert counts_consistent(s)

    @pytest.mark.parametrize("order", ["unigram", "bigram"])
    def test_short_words(self, order):
        seqs, _ = synth_sequences(20, 11)
        seqs = [seqs[k] for k in sorted(seqs)]
        rng = random.Random(4)
        flags = [[rng.random() < 0.5 for _ in range(len(q) - 1)] for q in seqs]
        self.check(seqs, flags, [(0, 1), (3, 2), (7, len(seqs[7]) - 1), (12, 3)], order)

    @pytest.mark.parametrize("order", ["unigram", "bigram"])
    @pytest.mark.parametrize("word_len", [80, 200])
    def test_long_new_words(self, order, word_len):
        # a product of raw probabilities underflows to 0 here (a 200-symbol
        # word's base probability is below the smallest double), which
        # would turn every boundary into a coin flip
        seqs, flags = new_word_corpus(word_len, seed=word_len)
        self.check(seqs, flags, [(0, word_len), (2, word_len)], order)


def two_symbol_sequences(n, seed):
    rng = random.Random(seed)
    return [tuple(rng.choice("ab") for _ in range(rng.randint(2, 9))) for _ in range(n)]


ORACLE_CORPORA = {
    "synth": lambda: [q for _, q in sorted(synth_sequences(25, 11)[0].items())],
    # every chain is a self-loop: l_ctx, w1, w2 and r_ctx are often one word
    "aaaa": lambda: [tuple("aaaa")] * 30,
    "two_symbols": lambda: two_symbol_sequences(30, 2),
}


class TestSiteStepOracle:
    """The read-only site step against the add-score-remove reference, float for float."""

    @pytest.mark.parametrize("order", ["unigram", "bigram"])
    @pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
    def test_same_log_odds_flags_and_rng(self, order, corpus):
        seqs = ORACLE_CORPORA[corpus]()
        cfg = DpsegConfig(order=order, alpha0=20.0 if order == "unigram" else 100.0,
                          iterations=5, seed=3)
        fast, slow = DpsegSampler(seqs, cfg), DpsegSampler(seqs, cfg)
        for sweep in range(cfg.iterations):
            temperature = fast._temperature(sweep)
            for ui, seq in enumerate(seqs):
                for pos in range(1, len(seq)):
                    assert (fast._resample_site(ui, pos, temperature)
                            == reference_resample_site(slow, ui, pos, temperature))
        assert fast.flags == slow.flags
        assert fast.rng.getstate() == slow.rng.getstate()
        assert counts_consistent(fast) and counts_consistent(slow)

    def test_new_word_id_table_changes_nothing(self, monkeypatch):
        seqs = ORACLE_CORPORA["synth"]()
        cfg = DpsegConfig(iterations=4, seed=5)
        kept = DpsegSampler(seqs, cfg)
        kept.run()
        monkeypatch.setattr(baselines, "WORD_IDS_REBUILD", 0)
        rebuilt = DpsegSampler(seqs, cfg)
        fresh = 0
        for sweep in range(cfg.iterations):
            rebuilt.sweep(rebuilt._temperature(sweep))
            live = len(rebuilt.state.unigram)
            assert len(rebuilt.state.ids) <= 4 * live
            # a new table holds only the live words and the utterance edge
            fresh += len(rebuilt.state.ids) == live + 1
            assert counts_consistent(rebuilt)
        assert fresh > 0
        assert rebuilt.flags == kept.flags
        assert rebuilt.rng.getstate() == kept.rng.getstate()


class TestDpsegQuality:
    def test_repeated_word_found(self):
        # 100 copies of "aaaa": a consistent lexicon beats random splits,
        # so all utterances should end up segmented identically
        seqs = {"u%03d" % i: tuple("aaaa") for i in range(100)}
        cfg = DpsegConfig(order="unigram", alpha0=1.0, iterations=200, seed=0)
        out = dpseg_segment(seqs, cfg)
        segs = {s.boundaries for s in out.values()}
        assert len(segs) == 1

    def test_unigram_recovers_synthetic_lexicon(self):
        seqs, gold = synth_sequences(200, 7)
        cfg = DpsegConfig(order="unigram", alpha0=20, iterations=80, seed=0)
        out = dpseg_segment(seqs, cfg)
        assert boundary_f(out, gold) >= 0.7

    def test_bigram_recovers_synthetic_lexicon(self):
        seqs, gold = synth_sequences(150, 3)
        cfg = DpsegConfig(order="bigram", iterations=60, seed=0)
        out = dpseg_segment(seqs, cfg)
        assert boundary_f(out, gold) >= 0.7

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            dpseg_segment({}, DpsegConfig())
