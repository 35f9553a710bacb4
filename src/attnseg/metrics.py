"""Segmentation scoring: boundary, token and type precision/recall/F.

All scores are corpus-level micro-averages over internal boundary
positions (utterance edges are never counted). Token matches require an
identical (start, end) symbol span in the same utterance; types are
distinct word symbol-sequences over the whole corpus. When a system
hypothesizes no boundaries at all, precision is reported as 0 with an
explicit flag rather than NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import ParallelCorpus, Segmentation
from .errors import DataError


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    fscore: float
    matched: int
    hyp_count: int
    gold_count: int
    precision_undefined: bool = False

    @staticmethod
    def from_counts(matched: int, hyp: int, gold: int) -> "PRF":
        p_undef = hyp == 0
        p = matched / hyp if hyp else 0.0
        r = matched / gold if gold else 0.0
        f = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        return PRF(p, r, f, matched, hyp, gold, precision_undefined=p_undef)


@dataclass(frozen=True)
class EvalReport:
    boundary: PRF
    token: PRF
    type: PRF
    type_retrieval: float

    def to_dict(self) -> dict:
        def prf(p: PRF, name: str) -> dict:
            return {
                name + "_precision": p.precision,
                name + "_recall": p.recall,
                name + "_fscore": p.fscore,
                name + "_matched": p.matched,
                name + "_hyp_count": p.hyp_count,
                name + "_gold_count": p.gold_count,
                name + "_precision_undefined": p.precision_undefined,
            }

        d = {}
        d.update(prf(self.boundary, "boundary"))
        d.update(prf(self.token, "token"))
        d.update(prf(self.type, "type"))
        d["type_retrieval"] = self.type_retrieval
        d["hyp_vocabulary_size"] = self.type.hyp_count  # the distinct word types
        d["gold_vocabulary_size"] = self.type.gold_count
        return d


def _check_aligned(hyp: dict[str, Segmentation], gold: dict[str, Segmentation]) -> None:
    if set(hyp) != set(gold):
        missing = set(hyp).symmetric_difference(gold)
        raise DataError("utterance id mismatch: %s" % ", ".join(sorted(missing)))
    for utt_id in hyp:
        if hyp[utt_id].length != gold[utt_id].length:
            raise DataError(
                "%s: hypothesis covers %d symbols, gold %d"
                % (utt_id, hyp[utt_id].length, gold[utt_id].length)
            )


def boundary_prf(hyp: dict[str, Segmentation], gold: dict[str, Segmentation]) -> PRF:
    """Micro-averaged P/R/F over internal boundary positions."""
    _check_aligned(hyp, gold)
    matched = n_hyp = n_gold = 0
    for utt_id in hyp:
        hb, gb = hyp[utt_id].boundaries, gold[utt_id].boundaries
        matched += len(hb & gb)
        n_hyp += len(hb)
        n_gold += len(gb)
    return PRF.from_counts(matched, n_hyp, n_gold)


def token_type_prf(
    hyp: dict[str, Segmentation],
    gold: dict[str, Segmentation],
    corpus: ParallelCorpus,
) -> tuple[PRF, PRF, float]:
    """Span-exact token P/R/F, vocabulary-overlap type P/R/F, type retrieval."""
    _check_aligned(hyp, gold)
    tok_matched = tok_hyp = tok_gold = 0
    hyp_types: set[tuple[str, ...]] = set()
    gold_types: set[tuple[str, ...]] = set()
    for u in corpus:
        if u.id not in hyp:
            raise DataError("utterance %s missing from segmentations" % u.id)
        h_spans = set(hyp[u.id].word_spans())
        g_spans = set(gold[u.id].word_spans())
        tok_matched += len(h_spans & g_spans)
        tok_hyp += len(h_spans)
        tok_gold += len(g_spans)
        hyp_types.update(tuple(u.ul_symbols[a:b]) for a, b in h_spans)
        gold_types.update(tuple(u.ul_symbols[a:b]) for a, b in g_spans)
    common = len(hyp_types & gold_types)
    token = PRF.from_counts(tok_matched, tok_hyp, tok_gold)
    type_ = PRF.from_counts(common, len(hyp_types), len(gold_types))
    retrieval = common / len(gold_types) if gold_types else 0.0
    return token, type_, retrieval


def evaluate(
    hyp: dict[str, Segmentation],
    gold: dict[str, Segmentation],
    corpus: ParallelCorpus,
) -> EvalReport:
    boundary = boundary_prf(hyp, gold)
    token, type_, retrieval = token_type_prf(hyp, gold, corpus)
    return EvalReport(boundary=boundary, token=token, type=type_, type_retrieval=retrieval)


def write_report(report: EvalReport, txt_path: str) -> None:
    """Flat key-value text report, one `key value` line per key of `to_dict`."""
    d = report.to_dict()
    with open(txt_path, "w", encoding="utf-8") as f:
        for k in sorted(d):
            v = d[k]
            if isinstance(v, float):
                f.write("%s %.6f\n" % (k, v))
            else:
                f.write("%s %s\n" % (k, v))
