"""Parallel corpus data model and I/O.

The unwritten-language (UL) side is a sequence of symbols (true phones
or discovered pseudo-phones), the well-resourced-language (WRL) side a
sequence of words. Word segmentations are stored as sets of internal
boundary positions: a boundary at position b means a word break after
the first b symbols. Utterance edges are never stored. A segmentation of
a corpus, gold or hypothesis, is a dict from utterance id to Segmentation.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigError, DataError

PAD, BOS, EOS, UNK = "<PAD>", "<BOS>", "<EOS>", "<UNK>"
RESERVED = (PAD, BOS, EOS, UNK)


@contextlib.contextmanager
def open_text(path: str):
    """`path` opened to read as UTF-8 text. A byte that does not decode, met
    while the file is read in the `with` block, raises DataError naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise DataError("%s: not UTF-8 text (%s)" % (path, e.reason)) from None


@dataclass(frozen=True)
class Segmentation:
    """Internal word boundaries over a symbol sequence of given length."""

    length: int
    boundaries: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "boundaries", frozenset(self.boundaries))
        for b in self.boundaries:
            if not 0 < b < self.length:
                raise DataError(
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
            raise DataError(
                "symbol count %d does not match segmentation length %d"
                % (len(symbols), self.length)
            )
        return [tuple(symbols[a:b]) for a, b in self.word_spans()]

    @staticmethod
    def from_words(words: Sequence[Sequence[str]]) -> "Segmentation":
        """Inverse of .words(): boundary after each non-final word."""
        lengths = [len(w) for w in words]
        if any(n == 0 for n in lengths):
            raise DataError("empty word in segmentation")
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

    def __post_init__(self):
        if not self.ul_symbols:
            raise DataError("utterance %s: empty UL side" % self.id)
        if not self.wrl_words:
            raise DataError("utterance %s: empty WRL side" % self.id)


class Vocabulary:
    """Bidirectional token <-> id mapping with reserved PAD/BOS/EOS/UNK ids."""

    def __init__(self, tokens: Iterable[str] = ()):
        """Ids after the reserved ones, in order of each token's first occurrence."""
        new = dict.fromkeys(tokens)
        if not new.keys().isdisjoint(RESERVED):
            bad = next(t for t in new if t in RESERVED)
            raise DataError("reserved token %r cannot be added" % bad)
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
            raise DataError("token %r not in vocabulary" % token) from None

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


def build_vocabularies(utterances: Sequence[ParallelUtterance]) -> tuple[Vocabulary, Vocabulary]:
    return (Vocabulary(s for u in utterances for s in u.ul_symbols),
            Vocabulary(w for u in utterances for w in u.wrl_words))


def load_parallel_corpus(ul_path: str, wrl_path: str) -> ParallelCorpus:
    """Load aligned UL/WRL text files, one whitespace-tokenized utterance per line."""
    with open_text(ul_path) as f:
        ul_lines = f.read().splitlines()
    with open_text(wrl_path) as f:
        wrl_lines = f.read().splitlines()
    # ignore a trailing fully-empty line produced by a final newline
    while ul_lines and not ul_lines[-1].strip():
        ul_lines.pop()
    while wrl_lines and not wrl_lines[-1].strip():
        wrl_lines.pop()
    if len(ul_lines) != len(wrl_lines):
        raise DataError(
            "line count mismatch: %s has %d lines, %s has %d"
            % (ul_path, len(ul_lines), wrl_path, len(wrl_lines))
        )
    utterances = []
    for i, (ul, wrl) in enumerate(zip(ul_lines, wrl_lines), start=1):
        syms, words = tuple(ul.split()), tuple(wrl.split())
        if not syms:
            raise DataError("%s: empty line %d" % (ul_path, i))
        if not words:
            raise DataError("%s: empty line %d" % (wrl_path, i))
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


def _spell(word: str, symbols: Sequence[str], start: int) -> int:
    """End of the symbols from `start` whose concatenation is `word`, or -1.

    Symbols are non-empty, so each one more lengthens the concatenation
    and at most one run of them can spell the word.
    """
    pos, end = 0, start
    while pos < len(word) and end < len(symbols) and word.startswith(symbols[end], pos):
        pos += len(symbols[end])
        end += 1
    return end if pos == len(word) else -1


def load_gold_segmentation(corpus: ParallelCorpus, path: str) -> dict[str, Segmentation]:
    """Read a segmentation file, gold or hypothesis, against the corpus.

    One line per utterance; each word is the concatenation of its symbols
    and is read back by spelling it out of the utterance's own symbols,
    so multi-character symbols need no delimiter.
    """
    with open_text(path) as f:
        lines = f.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != len(corpus):
        raise DataError(
            "segmentation file %s has %d lines, corpus has %d utterances"
            % (path, len(lines), len(corpus))
        )
    out = {}
    for i, (u, line) in enumerate(zip(corpus, lines), start=1):
        cuts = [0]
        for k, word in enumerate(line.split(), start=1):
            end = _spell(word, u.ul_symbols, cuts[-1])
            if end < 0:
                raise DataError("%s line %d: word %d %r does not spell the next symbols %r"
                                % (path, i, k, word,
                                   " ".join(u.ul_symbols[cuts[-1]:cuts[-1] + len(word)])))
            cuts.append(end)
        if cuts[-1] != len(u.ul_symbols):
            raise DataError("%s line %d: the words spell %d of the %d symbols"
                            % (path, i, cuts[-1], len(u.ul_symbols)))
        out[u.id] = Segmentation(cuts[-1], frozenset(cuts[1:-1]))
    return out


def write_segmentations(
    corpus: ParallelCorpus, segs: dict[str, Segmentation], out_path: str
) -> None:
    """One line per utterance, each word written as the concatenation of its symbols."""
    with open(out_path, "w", encoding="utf-8") as f:
        for u in corpus:
            words = segs[u.id].words(u.ul_symbols)
            f.write(" ".join("".join(w) for w in words) + "\n")


def split_train_dev(
    corpus: ParallelCorpus, dev_fraction: float, seed: int
) -> tuple[ParallelCorpus, ParallelCorpus]:
    """Deterministic disjoint train/dev split; dev size = round(dev_fraction * N)."""
    if not 0.0 < dev_fraction < 1.0:
        raise ConfigError("dev_fraction must be in (0, 1), got %r" % dev_fraction)
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
