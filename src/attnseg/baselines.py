"""Reference segmenters: proportional projection and Bayesian dpseg.

The proportional baseline projects WRL word breaks onto the UL symbol
sequence through a diagonal position mapping over the space-joined WRL
character string. The dpseg baseline is a monolingual nonparametric
segmenter: words are generated by a Dirichlet-process lexicon model
(hierarchical for the bigram variant) with a geometric symbol-spelling
base distribution, and boundaries are resampled by Gibbs sweeps with
simulated annealing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .corpus import ParallelCorpus, ParallelUtterance, Segmentation


class BaselineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Proportional baseline

def proportional_segment(utt: ParallelUtterance) -> Segmentation:
    """Project WRL word breaks onto UL positions via a diagonal mapping.

    UL position j maps to character floor(j * L / m) of the space-joined
    WRL string (length L, m UL symbols); a boundary opens after j when
    positions j and j+1 fall in different WRL words. Spaces attach to
    the following word.
    """
    chars = " ".join(utt.wrl_words)
    L = len(chars)
    m = len(utt.ul_symbols)
    word_of_char = []
    w = 0
    for ch in chars:
        if ch == " ":
            w += 1
        word_of_char.append(w)
    word_of = [word_of_char[(j * L) // m] for j in range(m)]
    bounds = {j + 1 for j in range(m - 1) if word_of[j] != word_of[j + 1]}
    return Segmentation(m, frozenset(bounds))


def proportional_segment_corpus(corpus: ParallelCorpus) -> dict[str, Segmentation]:
    return {u.id: proportional_segment(u) for u in corpus}


# ---------------------------------------------------------------------------
# dpseg

UTT_EDGE = ("<utt>",)  # context marker for utterance-initial/final positions
ANNEAL_START_TEMP = 10.0
ANNEAL_FRAC = 0.9  # fraction of sweeps over which the temperature decays to 1


@dataclass
class DpsegConfig:
    order: str = "bigram"  # "unigram" | "bigram"
    alpha0: float = 100.0  # lexicon-level DP concentration (unigram: 20 is typical)
    alpha1: float = 3000.0  # bigram-level concentration (bigram order only)
    p_boundary: float = 0.5  # geometric word-length stop probability of the base
    iterations: int = 1000
    sample_average: int = 0  # >0: majority vote over the last k samples
    seed: int = 0

    def __post_init__(self):
        if self.order not in ("unigram", "bigram"):
            raise BaselineError("order must be unigram or bigram")
        if self.alpha0 <= 0 or self.alpha1 <= 0:
            raise BaselineError("DP concentrations must be positive")
        if not 0.0 < self.p_boundary < 1.0:
            raise BaselineError("p_boundary must be in (0, 1)")
        if self.iterations < 1:
            raise BaselineError("iterations must be >= 1")


def _log_smoothed(n: int, alpha: float, log_prior: float, total: int) -> float:
    """log((n + alpha * prior) / (total + alpha)); finite however small the prior is."""
    num = math.log(n + alpha * math.exp(log_prior)) if n else math.log(alpha) + log_prior
    return num - math.log(total + alpha)


def _bump(counts: dict, key, k: int):
    n = counts.get(key, 0) + k
    if n:
        counts[key] = n
    else:
        del counts[key]


class _LexiconState:
    """Token counts for the DP lexicon; bigram link and context counts when needed."""

    def __init__(self, config: DpsegConfig, num_symbols: int):
        self.cfg = config
        self.num_symbols = max(num_symbols, 1)
        self.bigram_order = config.order == "bigram"
        self.unigram: dict = {}
        self.total = 0
        self.bigram: dict = {}  # (prev_word, word) -> count
        self.context: dict = {}  # prev_word -> count
        p = config.p_boundary
        # log P0(word) = log p + (len - 1) log(1 - p) - len log(num_symbols)
        self._log_base_per_symbol = math.log1p(-p) - math.log(self.num_symbols)
        self._log_base_offset = math.log(p) - math.log1p(-p)

    def log_base(self, word: tuple[str, ...]) -> float:
        """Geometric length times uniform spelling, in log space."""
        return len(word) * self._log_base_per_symbol + self._log_base_offset

    def log_prob(self, prev, word) -> float:
        """log P(word | prev): the unigram predictive, backed off to by the bigram one."""
        lp = _log_smoothed(self.unigram.get(word, 0), self.cfg.alpha0,
                           self.log_base(word), self.total)
        if self.bigram_order:
            lp = _log_smoothed(self.bigram.get((prev, word), 0), self.cfg.alpha1,
                               lp, self.context.get(prev, 0))
        return lp

    def update(self, chain: list, k: int, score: bool = False) -> float:
        """Add (k = 1) or remove (k = -1) the chain [l_ctx, w1, ..., r_ctx].

        The inner words are counted; for bigrams every link is too. With
        `score`, returns the chain's log probability: each word after
        l_ctx scored under the counts of the words before it (unigrams
        score the inner words only).
        """
        lp = 0.0
        last = len(chain) - 1
        for i in range(1, len(chain)):
            prev, word = chain[i - 1], chain[i]
            inner = i < last
            if score and (inner or self.bigram_order):
                lp += self.log_prob(prev, word)
            if self.bigram_order:
                _bump(self.bigram, (prev, word), k)
                _bump(self.context, prev, k)
            if inner:
                _bump(self.unigram, word, k)
                self.total += k
        return lp


def _words_of(symbols, flags):
    """Word tuples of an utterance given boundary flags (flags[j] = break after j+1 symbols)."""
    words, start = [], 0
    for j, flag in enumerate(flags, start=1):
        if flag:
            words.append(tuple(symbols[start:j]))
            start = j
    words.append(tuple(symbols[start:]))
    return words


def _break_before(flags, j: int) -> int:
    """The last word break strictly before position j (0 is the utterance start)."""
    j -= 1
    while j > 0 and not flags[j - 1]:
        j -= 1
    return j


def _break_after(flags, j: int) -> int:
    """The first word break strictly after position j (len(flags) + 1 is the end)."""
    j += 1
    while j <= len(flags) and not flags[j - 1]:
        j += 1
    return j


class DpsegSampler:
    """Boundary-wise Gibbs sampler over all internal boundary variables."""

    def __init__(self, sequences: list[tuple[str, ...]], config: DpsegConfig):
        if not sequences:
            raise BaselineError("empty corpus")
        self.cfg = config
        self.sequences = sequences
        symbols = {s for seq in sequences for s in seq}
        self.state = _LexiconState(config, len(symbols))
        self.rng = random.Random(config.seed)
        # random initial segmentation
        self.flags = [
            [self.rng.random() < 0.5 for _ in range(len(seq) - 1)] for seq in sequences
        ]
        self._rebuild_counts()

    def _rebuild_counts(self):
        st = _LexiconState(self.cfg, self.state.num_symbols)
        for seq, flags in zip(self.sequences, self.flags):
            st.update([UTT_EDGE] + _words_of(seq, flags) + [UTT_EDGE], 1)
        self.state = st

    def counts_consistent(self) -> bool:
        """Bookkeeping check: incremental counts equal a from-scratch recount."""
        cur = self.state
        self._rebuild_counts()
        return (
            cur.unigram == self.state.unigram
            and cur.total == self.state.total
            and cur.bigram == self.state.bigram
            and cur.context == self.state.context
        )

    # -- single-site resampling -------------------------------------------

    def _resample_site(self, ui: int, pos: int, temperature: float) -> float:
        """Gibbs-sample the boundary after `pos` symbols; returns the merge-vs-split log-odds."""
        st = self.state
        seq = self.sequences[ui]
        flags = self.flags[ui]
        left, right = _break_before(flags, pos), _break_after(flags, pos)
        w1, w2 = tuple(seq[left:pos]), tuple(seq[pos:right])
        l_ctx = tuple(seq[_break_before(flags, left):left]) if left > 0 else UTT_EDGE
        r_ctx = tuple(seq[right:_break_after(flags, right)]) if right < len(seq) else UTT_EDGE
        split = [l_ctx, w1, w2, r_ctx]
        merge = [l_ctx, w1 + w2, r_ctx]
        st.update(split if flags[pos - 1] else merge, -1)
        lp_merge = st.update(merge, 1, score=True)
        st.update(merge, -1)
        lp_split = st.update(split, 1, score=True)
        # P(split) = p_split^(1/T) / (p_merge^(1/T) + p_split^(1/T)); exp capped below overflow
        log_odds = (lp_merge - lp_split) / temperature
        boundary = self.rng.random() < 1.0 / (1.0 + math.exp(min(log_odds, 700.0)))
        if not boundary:
            st.update(split, -1)
            st.update(merge, 1)
        flags[pos - 1] = boundary
        return log_odds

    # -- driver ------------------------------------------------------------

    def _temperature(self, sweep: int) -> float:
        n = max(1, int(self.cfg.iterations * ANNEAL_FRAC))
        if sweep >= n:
            return 1.0
        return ANNEAL_START_TEMP + (1.0 - ANNEAL_START_TEMP) * (sweep / n)

    def sweep(self, temperature: float = 1.0):
        for ui, seq in enumerate(self.sequences):
            for pos in range(1, len(seq)):
                self._resample_site(ui, pos, temperature)

    def run(self) -> list[list[bool]]:
        k = self.cfg.sample_average
        votes = None
        if k > 0:
            votes = [[0] * len(f) for f in self.flags]
        for sweep in range(self.cfg.iterations):
            self.sweep(self._temperature(sweep))
            if votes is not None and sweep >= self.cfg.iterations - k:
                for vu, fu in zip(votes, self.flags):
                    for j, f in enumerate(fu):
                        vu[j] += int(f)
        if votes is not None:
            return [[v * 2 > k for v in vu] for vu in votes]
        return self.flags


def dpseg_segment(
    sequences: dict[str, tuple[str, ...]], config: DpsegConfig
) -> dict[str, Segmentation]:
    """Gibbs-sample a segmentation of UL symbol sequences (monolingual)."""
    ids = sorted(sequences)
    sampler = DpsegSampler([sequences[i] for i in ids], config)
    flags = sampler.run()
    out = {}
    for utt_id, seq, f in zip(ids, (sequences[i] for i in ids), flags):
        bounds = {j for j, flag in enumerate(f, start=1) if flag}
        out[utt_id] = Segmentation(len(seq), frozenset(bounds))
    return out


def dpseg_segment_corpus(corpus: ParallelCorpus, config: DpsegConfig) -> dict[str, Segmentation]:
    return dpseg_segment({u.id: u.ul_symbols for u in corpus}, config)
