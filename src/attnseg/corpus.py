"""Parallel corpus data model and I/O.

The unwritten-language (UL) side is a sequence of symbols (true phones
or discovered pseudo-phones), the well-resourced-language (WRL) side a
sequence of words. Word segmentations are stored as sets of internal
boundary positions: a boundary at position b means a word break after
the first b symbols. Utterance edges are never stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

PAD, BOS, EOS, UNK = "<PAD>", "<BOS>", "<EOS>", "<UNK>"
RESERVED = (PAD, BOS, EOS, UNK)


class CorpusError(ValueError):
    """Raised on malformed corpus input."""


@dataclass(frozen=True)
class Segmentation:
    """Internal word boundaries over a symbol sequence of given length."""

    length: int
    boundaries: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "boundaries", frozenset(self.boundaries))
        for b in self.boundaries:
            if not 0 < b < self.length:
                raise CorpusError(
                    "boundary %d outside open interval (0, %d)" % (b, self.length)
                )

    @property
    def num_words(self) -> int:
        return len(self.boundaries) + 1

    def word_spans(self) -> list[tuple[int, int]]:
        """(start, end) symbol spans of each word, end-exclusive."""
        cuts = [0] + sorted(self.boundaries) + [self.length]
        return list(zip(cuts[:-1], cuts[1:]))

    def words(self, symbols: Sequence[str]) -> list[tuple[str, ...]]:
        if len(symbols) != self.length:
            raise CorpusError(
                "symbol count %d does not match segmentation length %d"
                % (len(symbols), self.length)
            )
        return [tuple(symbols[a:b]) for a, b in self.word_spans()]

    @staticmethod
    def from_words(words: Sequence[Sequence[str]]) -> "Segmentation":
        """Inverse of .words(): boundary after each non-final word."""
        lengths = [len(w) for w in words]
        if any(n == 0 for n in lengths):
            raise CorpusError("empty word in segmentation")
        cuts, total = [], 0
        for n in lengths[:-1]:
            total += n
            cuts.append(total)
        return Segmentation(sum(lengths), frozenset(cuts))


@dataclass(frozen=True)
class ParallelUtterance:
    id: str
    ul_symbols: tuple[str, ...]
    wrl_words: tuple[str, ...]
    gold_boundaries: Optional[Segmentation] = None

    def __post_init__(self):
        if not self.ul_symbols:
            raise CorpusError("utterance %s: empty UL side" % self.id)
        if not self.wrl_words:
            raise CorpusError("utterance %s: empty WRL side" % self.id)
        if (
            self.gold_boundaries is not None
            and self.gold_boundaries.length != len(self.ul_symbols)
        ):
            raise CorpusError(
                "utterance %s: gold segmentation length mismatch" % self.id
            )


class Vocabulary:
    """Bidirectional token <-> id mapping with reserved PAD/BOS/EOS/UNK ids."""

    def __init__(self, tokens: Iterable[str] = ()):
        """Ids after the reserved ones, in order of each token's first occurrence."""
        new = dict.fromkeys(tokens)
        if not new.keys().isdisjoint(RESERVED):
            bad = next(t for t in new if t in RESERVED)
            raise CorpusError("reserved token %r cannot be added" % bad)
        self._id_to_token: list[str] = [*RESERVED, *new]
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(self._id_to_token)}

    pad_id, bos_id, eos_id, unk_id = 0, 1, 2, 3

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str, allow_unk: bool = False) -> int:
        try:
            return self._token_to_id[token]
        except KeyError:
            if allow_unk:
                return self.unk_id
            raise CorpusError("token %r not in vocabulary" % token) from None

    def token(self, idx: int) -> str:
        return self._id_to_token[idx]

    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order."""
        return self._id_to_token[len(RESERVED):]


@dataclass(frozen=True)
class ParallelCorpus:
    utterances: tuple[ParallelUtterance, ...]
    ul_vocab: Vocabulary = field(compare=False, default_factory=Vocabulary)
    wrl_vocab: Vocabulary = field(compare=False, default_factory=Vocabulary)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def by_id(self, utt_id: str) -> ParallelUtterance:
        for u in self.utterances:
            if u.id == utt_id:
                return u
        raise CorpusError("no utterance with id %r" % utt_id)


def build_vocabularies(utterances: Sequence[ParallelUtterance]) -> tuple[Vocabulary, Vocabulary]:
    return (Vocabulary(s for u in utterances for s in u.ul_symbols),
            Vocabulary(w for u in utterances for w in u.wrl_words))


def load_parallel_corpus(ul_path: str, wrl_path: str) -> ParallelCorpus:
    """Load aligned UL/WRL text files, one whitespace-tokenized utterance per line."""
    with open(ul_path, encoding="utf-8") as f:
        ul_lines = f.read().splitlines()
    with open(wrl_path, encoding="utf-8") as f:
        wrl_lines = f.read().splitlines()
    # ignore a trailing fully-empty line produced by a final newline
    while ul_lines and not ul_lines[-1].strip():
        ul_lines.pop()
    while wrl_lines and not wrl_lines[-1].strip():
        wrl_lines.pop()
    if len(ul_lines) != len(wrl_lines):
        raise CorpusError(
            "line count mismatch: %s has %d lines, %s has %d"
            % (ul_path, len(ul_lines), wrl_path, len(wrl_lines))
        )
    utterances = []
    for i, (ul, wrl) in enumerate(zip(ul_lines, wrl_lines), start=1):
        syms, words = tuple(ul.split()), tuple(wrl.split())
        if not syms:
            raise CorpusError("%s: empty line %d" % (ul_path, i))
        if not words:
            raise CorpusError("%s: empty line %d" % (wrl_path, i))
        utterances.append(ParallelUtterance(id="utt%05d" % i, ul_symbols=syms, wrl_words=words))
    ul_vocab, wrl_vocab = build_vocabularies(utterances)
    return ParallelCorpus(tuple(utterances), ul_vocab, wrl_vocab)


def write_corpus(corpus: ParallelCorpus, ul_path: str, wrl_path: str) -> None:
    with open(ul_path, "w", encoding="utf-8") as f:
        for u in corpus:
            f.write(" ".join(u.ul_symbols) + "\n")
    with open(wrl_path, "w", encoding="utf-8") as f:
        for u in corpus:
            f.write(" ".join(u.wrl_words) + "\n")


def parse_segmented_line(line: str, delimiter: Optional[str]) -> list[tuple[str, ...]]:
    """Split a segmented utterance line into words of symbol tuples.

    delimiter=None treats every character of a word as one symbol
    (single-character symbol inventories); otherwise symbols within a
    word are joined by the delimiter (multi-character AUD labels).
    """
    words = []
    for w in line.split():
        syms = tuple(w.split(delimiter)) if delimiter else tuple(w)
        words.append(syms)
    return words


def load_gold_segmentation(
    corpus: ParallelCorpus, gold_path: str, delimiter: Optional[str] = None
) -> ParallelCorpus:
    """Attach gold boundaries from a segmented text file; symbol identity enforced."""
    with open(gold_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != len(corpus):
        raise CorpusError(
            "gold file %s has %d lines, corpus has %d utterances"
            % (gold_path, len(lines), len(corpus))
        )
    out = []
    for i, (u, line) in enumerate(zip(corpus, lines), start=1):
        words = parse_segmented_line(line, delimiter)
        flat = tuple(s for w in words for s in w)
        if flat != u.ul_symbols:
            raise CorpusError(
                "%s line %d: gold symbols %r do not match corpus symbols %r"
                % (gold_path, i, flat, u.ul_symbols)
            )
        out.append(replace(u, gold_boundaries=Segmentation.from_words(words)))
    return ParallelCorpus(tuple(out), corpus.ul_vocab, corpus.wrl_vocab)


def write_segmentations(
    corpus: ParallelCorpus,
    segs: dict[str, Segmentation],
    out_path: str,
    delimiter: Optional[str] = None,
) -> None:
    """Write one segmented line per utterance, same format as gold input."""
    joiner = delimiter or ""
    with open(out_path, "w", encoding="utf-8") as f:
        for u in corpus:
            seg = segs[u.id]
            words = seg.words(u.ul_symbols)
            f.write(" ".join(joiner.join(w) for w in words) + "\n")


def split_train_dev(
    corpus: ParallelCorpus, dev_fraction: float, seed: int
) -> tuple[ParallelCorpus, ParallelCorpus]:
    """Deterministic disjoint train/dev split; dev size = round(dev_fraction * N)."""
    if not 0.0 < dev_fraction < 1.0:
        raise CorpusError("dev_fraction must be in (0, 1), got %r" % dev_fraction)
    n = len(corpus)
    n_dev = int(round(dev_fraction * n))
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    dev_idx = set(idx[:n_dev])
    train = tuple(u for i, u in enumerate(corpus) if i not in dev_idx)
    dev = tuple(u for i, u in enumerate(corpus) if i in dev_idx)
    return (
        ParallelCorpus(train, corpus.ul_vocab, corpus.wrl_vocab),
        ParallelCorpus(dev, corpus.ul_vocab, corpus.wrl_vocab),
    )
