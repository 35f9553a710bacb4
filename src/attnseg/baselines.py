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
import time
from dataclasses import dataclass

from .corpus import ParallelCorpus, ParallelUtterance, Segmentation
from .errors import ConfigError, DataError


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
WORD_IDS_REBUILD = 1 << 16  # word-id table size past which a sweep rebuilds it (see _WordIds)


@dataclass
class DpsegConfig:
    order: str = "bigram"  # "unigram" | "bigram"
    alpha0: float = 100.0  # lexicon-level DP concentration (unigram: 20 is typical)
    alpha1: float = 3000.0  # bigram-level concentration (bigram order only)
    p_boundary: float = 0.5  # geometric word-length stop probability of the base
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.order not in ("unigram", "bigram"):
            raise ConfigError("order must be unigram or bigram")
        if self.alpha0 <= 0 or self.alpha1 <= 0:
            raise ConfigError("DP concentrations must be positive")
        if not 0.0 < self.p_boundary < 1.0:
            raise ConfigError("p_boundary must be in (0, 1)")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")


class _Memo(dict):
    """f(key), computed on first use and kept."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


class _WordIds(dict):
    """Word tuple -> int id, handed out on first use; `lengths[id]` is the word's length.

    Ids are not freed one by one. The table keeps every word, context and
    merge candidate a site has looked at, so it grows with the sweeps: on
    1,000 paper-shaped sentences it holds ~28k ids after 2 sweeps and
    ~100k after 30 (~170 bytes each), while 1k-4k word types are live.
    `DpsegSampler.sweep` starts a new table from the live words once it
    passes `WORD_IDS_REBUILD` and 4x the live types, so it never holds
    more than that plus one sweep's new ids (at most 5 a site).
    """

    def __init__(self):
        super().__init__()
        self.lengths: list[int] = []

    def __missing__(self, word):
        i = self[word] = len(self.lengths)
        self.lengths.append(len(word))
        return i


def _prior_terms(alpha: float, log_base: float) -> tuple[float, float]:
    """alpha P0 and log(alpha P0) of a word whose log base probability is `log_base`."""
    return alpha * math.exp(log_base), math.log(alpha) + log_base


class _LexiconState:
    """Token counts for the DP lexicon, keyed by word id; bigram link and context counts when needed."""

    def __init__(self, config: DpsegConfig, num_symbols: int, ids: _WordIds | None = None):
        self.cfg = config
        self.num_symbols = max(num_symbols, 1)
        self.bigram_order = config.order == "bigram"
        self.ids = _WordIds() if ids is None else ids
        self.edge = self.ids[UTT_EDGE]
        self.unigram: dict = {}  # word -> count
        self.total = 0
        self.bigram: dict = {}  # (prev_word, word) -> count
        self.context: dict = {}  # prev_word -> count
        p = config.p_boundary
        # log P0(word) = log p + (len - 1) log(1 - p) - len log(num_symbols)
        self._log_base_per_symbol = math.log1p(-p) - math.log(self.num_symbols)
        self._log_base_offset = math.log(p) - math.log1p(-p)
        # The smoothed predictive log((n + alpha P) / (total + alpha)) is
        # log(n + alpha P) - log(total + alpha), or log(alpha) + log P when
        # n = 0. Its parts that do not involve n are kept: the unigram
        # prior terms by word length, the denominators by count. The
        # functions close over locals, not self: a state in a reference
        # cycle would outlive a rebuild until the cycle collector ran.
        a0, a1 = config.alpha0, config.alpha1
        per_symbol, offset = self._log_base_per_symbol, self._log_base_offset
        self._prior = _Memo(lambda n: _prior_terms(a0, n * per_symbol + offset))
        self._log_total = _Memo(lambda n: math.log(n + a0))
        self._log_context = _Memo(lambda n: math.log(n + a1))
        self._log_alpha1 = math.log(a1)

    def log_base(self, word: tuple[str, ...]) -> float:
        """Geometric length times uniform spelling, in log space."""
        return len(word) * self._log_base_per_symbol + self._log_base_offset

    def score(self, chain) -> float:
        """log P of the chain [l_ctx, w1, ..., r_ctx] of word ids, without counting it.

        Each word after l_ctx is scored under the live counts plus the
        inner words and links of the chain before it, as if they had been
        added one by one; unigrams score the inner words only. Only a
        chain that repeats an id has such earlier copies to add.
        """
        unigram, lengths, prior_terms, log_total = (
            self.unigram, self.ids.lengths, self._prior, self._log_total)
        bigram, context, log_context = self.bigram, self.context, self._log_context
        alpha1, log_alpha1 = self.cfg.alpha1, self._log_alpha1
        bigram_order = self.bigram_order
        log, exp = math.log, math.exp
        repeats = len(set(chain)) < len(chain)
        total = self.total - 1
        lp = 0.0
        for i in range(1, len(chain) if bigram_order else len(chain) - 1):
            prev, word = chain[i - 1], chain[i]
            n = unigram.get(word, 0)
            if repeats:
                n += chain[1:i].count(word)
            prior, log_prior = prior_terms[lengths[word]]
            lw = (log(n + prior) if n else log_prior) - log_total[total + i]
            if bigram_order:
                link = (prev, word)
                n, m = bigram.get(link, 0), context.get(prev, 0)
                if repeats:
                    n += list(zip(chain, chain[1:i])).count(link)
                    m += chain[:i - 1].count(prev)
                lw = (log(n + alpha1 * exp(lw)) if n else log_alpha1 + lw) - log_context[m]
            lp += lw
        return lp

    def update(self, chain, k: int):
        """Add (k = 1) or remove (k = -1) the chain [l_ctx, w1, ..., r_ctx] of word ids.

        The inner words are counted; for bigrams every link is too. A
        count that reaches 0 is deleted, so equal counts compare equal.
        """
        unigram, bigram, context = self.unigram, self.bigram, self.context
        bigram_order = self.bigram_order
        last = len(chain) - 1
        for i in range(1, len(chain)):
            prev, word = chain[i - 1], chain[i]
            if bigram_order:
                link = (prev, word)
                n = bigram.get(link, 0) + k
                if n:
                    bigram[link] = n
                else:
                    del bigram[link]
                n = context.get(prev, 0) + k
                if n:
                    context[prev] = n
                else:
                    del context[prev]
            if i < last:
                n = unigram.get(word, 0) + k
                if n:
                    unigram[word] = n
                else:
                    del unigram[word]
        self.total += k * (last - 1)


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
            raise DataError("empty corpus")
        self.cfg = config
        self.sequences = [tuple(seq) for seq in sequences]  # a slice is then a word key
        symbols = {s for seq in sequences for s in seq}
        self.state = _LexiconState(config, len(symbols))
        self.rng = random.Random(config.seed)
        # random initial segmentation
        self.flags = [
            [self.rng.random() < 0.5 for _ in range(len(seq) - 1)] for seq in sequences
        ]
        self.log: list[dict] = []  # one entry per sweep of `run`
        self._rebuild_counts()

    def _rebuild_counts(self, ids: _WordIds | None = None):
        """Recount from the flags, into a new word-id table if `ids` is given."""
        st = _LexiconState(self.cfg, self.state.num_symbols,
                           self.state.ids if ids is None else ids)
        for seq, flags in zip(self.sequences, self.flags):
            st.update([st.edge] + [st.ids[w] for w in _words_of(seq, flags)] + [st.edge], 1)
        self.state = st

    # -- single-site resampling -------------------------------------------

    def _resample_site(self, ui: int, pos: int, temperature: float) -> float:
        """Gibbs-sample the boundary after `pos` symbols; returns the merge-vs-split log-odds.

        The current chain is removed, both hypotheses are scored from the
        counts without writing them, and the chosen chain is added back.
        """
        st = self.state
        ids = st.ids
        seq = self.sequences[ui]
        flags = self.flags[ui]
        left, right = _break_before(flags, pos), _break_after(flags, pos)
        l_ctx = ids[seq[_break_before(flags, left):left]] if left > 0 else st.edge
        r_ctx = ids[seq[right:_break_after(flags, right)]] if right < len(seq) else st.edge
        split = (l_ctx, ids[seq[left:pos]], ids[seq[pos:right]], r_ctx)
        merge = (l_ctx, ids[seq[left:right]], r_ctx)
        st.update(split if flags[pos - 1] else merge, -1)
        # P(split) = p_split^(1/T) / (p_merge^(1/T) + p_split^(1/T)); exp capped below overflow
        log_odds = (st.score(merge) - st.score(split)) / temperature
        boundary = self.rng.random() < 1.0 / (1.0 + math.exp(min(log_odds, 700.0)))
        st.update(split if boundary else merge, 1)
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
        if len(self.state.ids) > max(WORD_IDS_REBUILD, 4 * len(self.state.unigram)):
            self._rebuild_counts(_WordIds())

    def run(self) -> list[list[bool]]:
        """All sweeps, then the last sample's boundary flags; appends each sweep's
        number, temperature, boundaries and seconds to `log`."""
        for sweep in range(self.cfg.iterations):
            temperature = self._temperature(sweep)
            t0 = time.perf_counter()
            self.sweep(temperature)
            self.log.append({"sweep": sweep + 1, "temperature": temperature,
                             "boundaries": sum(map(sum, self.flags)),
                             "seconds": time.perf_counter() - t0})
        return self.flags


def dpseg_segment(
    sequences: dict[str, tuple[str, ...]], config: DpsegConfig, log: list | None = None
) -> dict[str, Segmentation]:
    """Gibbs-sample a segmentation of UL symbol sequences (monolingual).

    A `log` list receives one entry per sweep (see `DpsegSampler.run`).
    """
    ids = sorted(sequences)
    sampler = DpsegSampler([sequences[i] for i in ids], config)
    flags = sampler.run()
    if log is not None:
        log.extend(sampler.log)
    out = {}
    for utt_id, seq, f in zip(ids, (sequences[i] for i in ids), flags):
        bounds = {j for j, flag in enumerate(f, start=1) if flag}
        out[utt_id] = Segmentation(len(seq), frozenset(bounds))
    return out


def dpseg_segment_corpus(corpus: ParallelCorpus, config: DpsegConfig,
                         log: list | None = None) -> dict[str, Segmentation]:
    return dpseg_segment({u.id: u.ul_symbols for u in corpus}, config, log)
