"""Predictions reading, path exact-match and text-overlap scoring, bucketed reports.

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
from functools import lru_cache
from itertools import count, repeat
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .datagen import Sample, json_object, read_records
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
    profile,
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


@lru_cache(maxsize=1)  # the three metrics score a pair in turn: tokenize it once
def _coded(candidate: str, reference: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Both texts' tokens, each numbered by its first appearance in ``cand + ref``,
    and their clipped unigram overlap, which ROUGE-1 and BLEU both read."""
    cand, ref = tokenize(candidate), tokenize(reference)
    codes = dict(zip(dict.fromkeys(cand + ref), count()))
    cand, ref = tuple(map(codes.__getitem__, cand)), tuple(map(codes.__getitem__, ref))
    return cand, ref, _clipped(cand, ref)


def _lcs_length(a: Sequence, b: Sequence) -> int:
    """Length of the longest common subsequence of two token sequences.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit i of ``row`` is
    position i of ``a``, and each token of ``b`` updates the whole row with
    a few integer operations.  The set bits of the final row count the LCS.
    """
    masks: dict = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    row = 0
    for token in b:
        x = masks.get(token, 0) | row
        row = x & ~(x - ((row << 1) | 1))
    return row.bit_count()


def _clipped(cand: Iterable, ref: Iterable) -> int:
    """Items of ``cand``, each counted at most as often as it occurs in ``ref``."""
    c, r = Counter(cand), Counter(ref)
    return sum(map(min, c.values(), map(r.get, c, repeat(0))))


def _f1(overlap: int, n_cand: int, n_ref: int) -> float:
    """F1 of ``overlap`` matched tokens out of ``n_cand`` and ``n_ref``."""
    if overlap == 0:
        return 0.0
    precision = overlap / n_cand
    recall = overlap / n_ref
    return 2 * precision * recall / (precision + recall)


def rouge_l(candidate: str, reference: str) -> float:
    """Token-level longest-common-subsequence F1."""
    cand, ref, _ = _coded(candidate, reference)
    return _f1(_lcs_length(cand, ref), len(cand), len(ref))


def rouge_1(candidate: str, reference: str) -> float:
    """Clipped unigram-overlap F1."""
    cand, ref, unigrams = _coded(candidate, reference)
    return _f1(unigrams, len(cand), len(ref))


BLEU_MAX_N = 4


def bleu(candidate: str, reference: str) -> float:
    """Single-reference BLEU: geometric mean of the clipped n-gram
    precisions up to ``BLEU_MAX_N`` times the brevity penalty.

    Zero precisions are smoothed to 1e-9.  Orders the candidate is too
    short to populate are excluded (effective order), so identical texts
    score exactly 1.0 regardless of length.
    """
    cand, ref, clipped = _coded(candidate, reference)
    if not cand or not ref:
        return 0.0
    base = len(cand) + len(ref)  # above every token code
    effective_n = min(BLEU_MAX_N, len(cand))
    cand_grams, ref_grams = cand, ref
    log_sum = 0.0
    for n in range(1, effective_n + 1):
        if n > 1:  # an n-gram is one int, its token codes as digits in ``base``
            cand_grams = list(map(add, map(mul, cand_grams, repeat(base)), cand[n - 1:]))
            ref_grams = list(map(add, map(mul, ref_grams, repeat(base)), ref[n - 1:]))
            clipped = _clipped(cand_grams, ref_grams)
        # The candidate has len(cand) - n + 1 n-grams (n <= len(cand)).
        precision = clipped / (len(cand) - n + 1) if clipped else 1e-9
        log_sum += math.log(precision)
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return brevity * math.exp(log_sum / effective_n)


def load_predictions(text: str) -> list[dict]:
    """Predictions of a JSONL file, read by
    :func:`~titan_kg.datagen.read_records`; a bad line raises MalformedInput
    naming it.  Each line is a JSON object whose "path" and "cot", when
    present, are strings or null."""
    return read_records(text, lambda line: json_object(line, ("path", "cot")))


def load_references(text: str, registry: RelationRegistry) -> list[tuple[Sample, PathProgram]]:
    """Each sample of a dataset with its parsed path, each distinct path
    text parsed once; a path that does not parse raises MalformedInput
    naming its line, as any bad line does."""
    @lru_cache(maxsize=None)
    def program(path: str) -> PathProgram:
        try:
            return parse_path(path, registry)
        except TitanError as exc:
            raise ValueError(exc) from exc

    def read(line: str) -> tuple[Sample, PathProgram]:
        sample = Sample.from_json(line)
        return sample, program(sample.path)
    return read_records(text, read)


class EvalRecord(NamedTuple):
    """Score of one prediction against its reference: EM, then the text
    metrics, which are None unless both CoTs are non-empty."""

    bucket: str
    operators: frozenset[str]
    em: int
    rouge_l: float | None = None
    rouge_1: float | None = None
    bleu: float | None = None


def score_predictions(references: Sequence[tuple[Sample, PathProgram]],
                      predictions: Sequence[Mapping[str, str | None]],
                      registry: RelationRegistry) -> list[EvalRecord]:
    """Score each prediction against the reference at the same position.

    ``references`` are :func:`load_references` pairs.  A prediction's
    "path" and "cot" are strings or absent/None.  A missing, null or
    unparseable path scores as a miss; the text metrics are None unless
    both CoTs are non-empty.  Rows are bucketed by the reference path's
    profile.  A prediction path that is also a reference path is not
    parsed again, and each other distinct path text is parsed once.
    """
    if len(predictions) != len(references):
        raise TitanError(f"predictions ({len(predictions)}) and dataset "
                         f"({len(references)}) have different lengths")
    programs: dict[str, PathProgram | None] = {ref.path: p for ref, p in references}
    profiles = {path: profile(p) for path, p in programs.items()}
    records = []
    for (ref, ref_program), pred in zip(references, predictions):
        text = pred.get("path") or ""
        if text not in programs:
            try:
                programs[text] = parse_path(text, registry)
            except TitanError:
                programs[text] = None
        pred_program = programs[text]
        em = 0 if pred_program is None else exact_match(pred_program, ref_program)
        pred_cot = pred.get("cot") or ""
        text_scores = ((rouge_l(pred_cot, ref.cot), rouge_1(pred_cot, ref.cot),
                        bleu(pred_cot, ref.cot)) if pred_cot and ref.cot else ())
        records.append(EvalRecord(*profiles[ref.path], em, *text_scores))
    return records


class BucketStats(NamedTuple):
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
            if stats is not None:
                lines.append(f"{name:<18}{stats.count:>6}" + "".join(
                    f"{'-':>8}" if v is None else f"{v:>8.3f}" for v in stats[1:]))
        lines.append("BERTScore: not computed")
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        return "\n".join(json.dumps({"bucket": name, **stats._asdict()}, ensure_ascii=False)
                         for name, stats in self.rows.items()) + "\n"


def _mean(group: list[EvalRecord], score: str) -> float | None:
    """Mean of ``score`` over the records that carry it.  When none does,
    the record's default: None for a text metric; EM has none, so 0.0."""
    values = [v for v in (getattr(r, score) for r in group) if v is not None]
    if values:
        return sum(values) / len(values)
    return EvalRecord._field_defaults.get(score, 0.0)


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

    scores = BucketStats._fields[1:]
    return BucketReport(rows={
        name: BucketStats(len(group), *(_mean(group, score) for score in scores))
        for name, group in groups.items()})
