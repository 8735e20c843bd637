"""Path exact-match and text-overlap scoring with bucketed reporting.

Text metrics share one tokenizer, pinned for reproducibility: lowercase,
replace punctuation except underscores with spaces (relation tokens
survive intact), split on whitespace.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .datagen import Sample
from .errors import TitanError
from .kg import fold
from .ontology import RelationRegistry
from .pathlang import (
    LENGTH_BUCKETS,
    OPERATOR_BUCKETS,
    Filter,
    PathProgram,
    PathStep,
    Select,
    parse_path,
)

_PUNCT_TABLE = str.maketrans(
    {ch: " " for ch in string.punctuation if ch != "_"})


def tokenize(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


def _folded(step: PathStep) -> PathStep:
    """``step`` with its filter keyword or select names under
    :func:`~titan_kg.kg.fold`, as execution reads them."""
    if isinstance(step, Filter):
        return Filter(fold(step.keyword))
    if isinstance(step, Select):
        return Select(tuple(map(fold, step.names)))
    return step


def exact_match(pred: PathProgram, ref: PathProgram) -> int:
    """1 iff the programs have equal steps once filter keywords and select
    names are folded, else 0."""
    return int(list(map(_folded, pred.steps)) == list(map(_folded, ref.steps)))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit i of ``row`` is
    position i of ``a``, and each token of ``b`` updates the whole row with
    a few integer operations.  The set bits of the final row count the LCS.
    """
    masks: dict[str, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    row = 0
    for token in b:
        x = masks.get(token, 0) | row
        row = x & ~(x - ((row << 1) | 1))
    return row.bit_count()


def _f1(overlap: int, n_cand: int, n_ref: int) -> float:
    """F1 of ``overlap`` matched tokens out of ``n_cand`` and ``n_ref``."""
    if overlap == 0:
        return 0.0
    precision = overlap / n_cand
    recall = overlap / n_ref
    return 2 * precision * recall / (precision + recall)


def rouge_l(candidate: str, reference: str) -> float:
    """Token-level longest-common-subsequence F1."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return 0.0
    return _f1(_lcs_length(cand, ref), len(cand), len(ref))


def rouge_1(candidate: str, reference: str) -> float:
    """Clipped unigram-overlap F1."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return 0.0
    return _f1(sum((Counter(cand) & Counter(ref)).values()), len(cand), len(ref))


BLEU_MAX_N = 4


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def bleu(candidate: str, reference: str) -> float:
    """Single-reference BLEU: geometric mean of the clipped n-gram
    precisions up to ``BLEU_MAX_N`` times the brevity penalty.

    Zero precisions are smoothed to 1e-9.  Orders the candidate is too
    short to populate are excluded (effective order), so identical texts
    score exactly 1.0 regardless of length.
    """
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return 0.0
    epsilon = 1e-9
    effective_n = min(BLEU_MAX_N, len(cand))
    log_sum = 0.0
    for n in range(1, effective_n + 1):
        cand_ngrams = _ngrams(cand, n)
        clipped = sum((cand_ngrams & _ngrams(ref, n)).values())
        # The candidate has len(cand) - n + 1 n-grams (n <= len(cand)).
        precision = clipped / (len(cand) - n + 1) if clipped else epsilon
        log_sum += math.log(precision)
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return brevity * math.exp(log_sum / effective_n)


@dataclass(frozen=True)
class EvalRecord:
    """Score of one prediction against its reference."""

    bucket: str
    operators: frozenset[str]
    em: int
    rouge_l: float | None = None
    rouge_1: float | None = None
    bleu: float | None = None


def score_predictions(references: Sequence[Sample],
                      predictions: Sequence[Mapping[str, str | None]],
                      registry: RelationRegistry) -> list[EvalRecord]:
    """Score each prediction against the reference at the same position.

    A prediction's "path" and "cot" are strings or absent/None.  A missing,
    null or unparseable path scores as a miss; the text metrics are None
    unless both CoTs are non-empty.
    """
    if len(predictions) != len(references):
        raise TitanError(f"predictions ({len(predictions)}) and dataset "
                         f"({len(references)}) have different lengths")
    records = []
    for ref, pred in zip(references, predictions):
        ref_program = parse_path(ref.path, registry)
        em = 0
        try:
            pred_program = parse_path(pred.get("path") or "", registry)
        except TitanError:
            pass  # a missing, null or unparseable path scores as a miss
        else:
            em = exact_match(pred_program, ref_program)
        pred_cot = pred.get("cot") or ""
        has_text = bool(pred_cot and ref.cot)
        records.append(EvalRecord(
            bucket=ref.bucket, operators=frozenset(ref.operators),
            em=em,
            rouge_l=rouge_l(pred_cot, ref.cot) if has_text else None,
            rouge_1=rouge_1(pred_cot, ref.cot) if has_text else None,
            bleu=bleu(pred_cot, ref.cot) if has_text else None,
        ))
    return records


@dataclass(frozen=True)
class BucketStats:
    count: int
    em: float
    rouge_l: float | None
    rouge_1: float | None
    bleu: float | None


@dataclass(frozen=True)
class BucketReport:
    """Per-bucket and overall means; length buckets partition the records."""

    rows: dict[str, BucketStats]

    def to_text(self) -> str:
        header = f"{'bucket':<18}{'n':>6}{'EM':>8}{'R-L':>8}{'R-1':>8}{'BLEU':>8}"
        lines = [header, "-" * len(header)]
        for name in (*LENGTH_BUCKETS, *OPERATOR_BUCKETS, "overall"):
            stats = self.rows.get(name)
            if stats is None:
                continue
            fmt = lambda v: f"{v:>8.3f}" if v is not None else f"{'-':>8}"
            lines.append(f"{name:<18}{stats.count:>6}{stats.em:>8.3f}"
                         f"{fmt(stats.rouge_l)}{fmt(stats.rouge_1)}{fmt(stats.bleu)}")
        lines.append("BERTScore: not computed")
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        out = []
        for name, stats in self.rows.items():
            out.append(json.dumps({
                "bucket": name, "count": stats.count, "em": stats.em,
                "rouge_l": stats.rouge_l, "rouge_1": stats.rouge_1,
                "bleu": stats.bleu,
            }, ensure_ascii=False))
        return "\n".join(out) + "\n"


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate_report(records: list[EvalRecord]) -> BucketReport:
    """Group records by length bucket and by operator flag.

    A record lands in exactly one length bucket and in every operator
    bucket whose flag it carries, so length buckets recombine to the
    overall mean while operator buckets may overlap.
    """
    groups: dict[str, list[EvalRecord]] = {}
    for rec in records:
        groups.setdefault(rec.bucket, []).append(rec)
        for flag in sorted(rec.operators):
            groups.setdefault(flag, []).append(rec)
    groups["overall"] = list(records)

    rows = {}
    for name, group in groups.items():
        if not group:
            rows[name] = BucketStats(count=0, em=0.0, rouge_l=None,
                                     rouge_1=None, bleu=None)
            continue
        rows[name] = BucketStats(
            count=len(group),
            em=sum(r.em for r in group) / len(group),
            rouge_l=_mean([r.rouge_l for r in group if r.rouge_l is not None]),
            rouge_1=_mean([r.rouge_1 for r in group if r.rouge_1 is not None]),
            bleu=_mean([r.bleu for r in group if r.bleu is not None]),
        )
    return BucketReport(rows=rows)
