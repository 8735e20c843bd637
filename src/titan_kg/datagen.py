"""Dataset synthesis: typed question templates, CoT prose, and splits.

A template couples question text containing typed placeholders such as
``[malware]`` (or ``[malware:1]`` when a kind repeats) with a path whose
entity slots (the start entity and/or select names) carry the same
placeholders.  Instantiation binds graph entities to the placeholders,
executes the path to obtain the answer set, and renders a deterministic
step-by-step explanation ending in the token-form path.

The corpus file is JSONL, one template per line (see docs/formats.md);
``data/templates_core.jsonl`` ships a seed corpus covering every length
bucket and operator.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import random
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import Iterable

from .errors import MalformedInput, StartKindMismatch, TemplateSchemaError, TitanError
from .executor import run_path
from .kg import KnowledgeGraph
from .ontology import KIND_BY_TOKEN, EntityKind, RelationRegistry, build_default_registry
from .pathlang import (
    LENGTH_BUCKETS,
    OPERATOR_BUCKETS,
    ExecCommon,
    ExecDifference,
    Filter,
    PathProgram,
    Select,
    Traverse,
    TypeSeed,
    TypedProgram,
    parse_path,
    profile,
    render_path,
    validate_program,
)

logger = logging.getLogger(__name__)

_PLACEHOLDER = re.compile(r"\[([a-z-]+)(?::(\d+))?\]")


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class QuestionTemplate:
    id: str
    text: str
    typed_path: TypedProgram
    start_slot: str | None              # placeholder token bound to the start entity
    placeholders: dict[str, EntityKind]  # token -> kind, in text order


@dataclass(frozen=True)
class Sample:
    """One dataset row; the path re-executes to exactly ``answers``."""

    question: str
    cot: str
    path: str
    start_entities: tuple[str, ...]
    answers: tuple[str, ...]
    template_id: str
    bucket: str
    operators: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps({
            "question": self.question,
            "cot": self.cot,
            "path": self.path,
            "start_entities": list(self.start_entities),
            "answers": list(self.answers),
            "template_id": self.template_id,
            "bucket": {"length": self.bucket, "operators": list(self.operators)},
        }, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "Sample":
        """One dataset line; a record of the wrong JSON shape raises ValueError."""
        rec = json_object(line, ())
        bucket = {} if rec.get("bucket") is None else rec["bucket"]
        if not isinstance(bucket, dict):
            raise ValueError("'bucket' is not an object")
        texts = {"question": rec.get("question"), "cot": rec.get("cot", ""),
                 "path": rec.get("path"), "template_id": rec.get("template_id", ""),
                 "bucket": bucket.get("length", "")}
        lists = {"start_entities": rec.get("start_entities", []),
                 "answers": rec.get("answers", []), "operators": bucket.get("operators", [])}
        for name, value in texts.items():
            if not isinstance(value, str):
                raise ValueError(f"{name!r} is not a string")
        for name, value in lists.items():
            if not (isinstance(value, list) and set(map(type, value)) <= {str}):
                raise ValueError(f"{name!r} is not a list of strings")
        return cls(**texts, **{name: tuple(value) for name, value in lists.items()})


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[Sample, ...]
    test: tuple[Sample, ...]


@dataclass(frozen=True)
class DatasetConfig:
    rng_seed: int = 0
    max_per_template: int = 40
    test_fraction: float = 0.2
    keep_empty: bool = False


def _select_slots(program: PathProgram) -> list[str]:
    return [n for step in program.steps if isinstance(step, Select)
            for n in step.names if _PLACEHOLDER.fullmatch(n)]


def default_template_text() -> str:
    """The shipped seed corpus."""
    return (resources.files("titan_kg") / "data" / "templates_core.jsonl").read_text("utf-8")


def load_templates(
    document: str,
    registry: RelationRegistry | None = None,
) -> list[QuestionTemplate]:
    """Parse and cross-check a JSONL template corpus.

    Each record needs ``id``, ``text``, ``path``, ``answer_kind`` and an
    optional ``start`` placeholder.  Placeholders in the text must equal
    the path's start/select slots, the path must type-check with the
    placeholder kinds, and its final kind must equal ``answer_kind``.
    """
    registry = registry or build_default_registry()
    seen_ids: set[str] = set()

    def template(line: str) -> QuestionTemplate:
        rec = json_object(line, ("text", "path", "answer_kind", "start"))
        tid = rec.get("id")
        if not tid or not isinstance(tid, str):
            raise ValueError("missing template id")
        if tid in seen_ids:
            raise TemplateSchemaError(f"template {tid}: duplicate id")
        seen_ids.add(tid)

        def fail(reason: str) -> TemplateSchemaError:
            return TemplateSchemaError(f"template {tid}: {reason}")

        text = rec.get("text")
        path_text = rec.get("path")
        answer_token = rec.get("answer_kind")
        if not text or not path_text or answer_token not in KIND_BY_TOKEN:
            raise fail("record needs text, path, and a valid answer_kind")
        answer_kind = KIND_BY_TOKEN[answer_token]

        try:
            program = parse_path(path_text, registry)
        except TitanError as exc:
            raise fail(f"path does not parse: {exc}") from exc

        placeholders: dict[str, EntityKind] = {}
        for m in _PLACEHOLDER.finditer(text):
            if m.group(1) not in KIND_BY_TOKEN:
                raise fail(f"bad placeholder {m.group(0)!r}")
            placeholders[m.group(0)] = KIND_BY_TOKEN[m.group(1)]
        start_slot = rec.get("start")
        path_slots = ([start_slot] if start_slot else []) + _select_slots(program)
        if sorted(placeholders) != sorted(set(path_slots)):
            raise fail(f"placeholders in text {list(placeholders)} do not match "
                       f"path slots {path_slots}")

        has_seed = isinstance(program.steps[0], TypeSeed)
        if start_slot and has_seed:
            raise fail("start slot conflicts with a type-seeded path")
        if not start_slot and not has_seed:
            raise fail("path needs either a type seed or a start slot")

        try:
            typed = validate_program(program, registry,
                                     start_kind=placeholders.get(start_slot))
        except TitanError as exc:
            raise fail(f"path does not type-check: {exc}") from exc
        if typed.answer_kind is not answer_kind:
            raise fail(f"answer_kind {answer_kind.value!r} does not match the "
                       f"path's final kind {typed.answer_kind.value!r}")

        # Select placeholders must match the frontier kind at their step.
        for i, step in enumerate(typed.steps):
            if isinstance(step, Select):
                at_kind = typed.kinds[i]
                for name in step.names:
                    if placeholders.get(name, at_kind) is not at_kind:
                        raise fail(f"select placeholder {name!r} has the wrong kind "
                                   f"(frontier is {at_kind.value!r})")

        return QuestionTemplate(id=tid, text=text, typed_path=typed,
                                start_slot=start_slot, placeholders=placeholders)

    return read_records(document, template, TemplateSchemaError, comments=True)


def synthesize_cot(
    question: str,
    start_entities: tuple[str, ...],
    typed_program: TypedProgram,
) -> str:
    """Deterministic explanation: goal, one sentence per step, final path."""
    label = typed_program.start_kind.label
    origin = f"the {label} {', '.join(start_entities)}" if start_entities else f"every {label} node"
    sentences = [f"The question is: {question} The reasoning starts from {origin}."]
    previous = typed_program.start_kind
    for i, step in enumerate(typed_program.steps, 1):
        kind_after = typed_program.kinds[i - 1]
        if isinstance(step, TypeSeed):
            sentences.append(f"Step {i}: Start from all nodes of type {step.kind.label}.")
        elif isinstance(step, Traverse):
            sentences.append(f"Step {i}: Follow the {step.rel} relation from the "
                             f"{previous.label} to the {kind_after.label}.")
        elif isinstance(step, Filter):
            sentences.append(f"Step {i}: Keep only entities matching '{step.keyword}'.")
        elif isinstance(step, Select):
            sentences.append(f"Step {i}: Branch the reasoning for {', '.join(step.names)}.")
        elif isinstance(step, ExecCommon):
            sentences.append(f"Step {i}: Take the common results across branches.")
        elif isinstance(step, ExecDifference):
            sentences.append(f"Step {i}: Take the different results across branches.")
        previous = kind_after

    sentences.append("The full reasoning path is: "
                     + render_path(typed_program.program, "token"))
    return " ".join(sentences)


def _substitute_path(program: PathProgram, binding: dict[str, str]) -> PathProgram:
    return PathProgram(tuple(Select(tuple(binding.get(n, n) for n in step.names))
                             if isinstance(step, Select) else step for step in program.steps))


def _candidate_bindings(
    template: QuestionTemplate,
    graph: KnowledgeGraph,
    rng: random.Random,
    max_count: int,
) -> list[tuple[str, ...]]:
    """Entity-id tuples for the template's placeholders, deterministic
    under the rng; same-kind slots never bind the same entity twice."""
    pools = [graph.nodes_of_kind(kind) for kind in template.placeholders.values()]
    if not pools:
        return [()]
    if any(not pool for pool in pools):
        return []
    total = 1
    for pool in pools:
        total *= len(pool)
    if total <= max(4 * max_count, 512):
        combos = [t for t in itertools.product(*pools) if len(set(t)) == len(t)]
        if len(combos) > max_count:
            combos = rng.sample(combos, max_count)
        return combos
    picked: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    while len(picked) < max_count and attempts < 20 * max_count:
        attempts += 1
        combo = tuple(rng.choice(pool) for pool in pools)
        if len(set(combo)) != len(combo) or combo in seen:
            continue
        seen.add(combo)
        picked.append(combo)
    return picked


def instantiate_template(
    template: QuestionTemplate,
    graph: KnowledgeGraph,
    config: DatasetConfig,
    registry: RelationRegistry,
) -> list[Sample]:
    """Bind entities to the template and execute each instance, up to
    ``config.max_per_template`` bindings drawn under ``config.rng_seed``.

    Start and select names resolve through :func:`~titan_kg.executor.run_path`,
    as re-execution of the emitted sample resolves them, so recorded answers
    always reproduce.  A binding that fails, or whose start name re-execution
    would read as another kind, is dropped with a logged reason.
    """
    rng = random.Random(_derive_seed(config.rng_seed, template.id))
    samples: list[Sample] = []
    for combo in _candidate_bindings(template, graph, rng, config.max_per_template):
        binding = {token: graph.node(nid).name
                   for token, nid in zip(template.placeholders, combo)}
        question = _PLACEHOLDER.sub(lambda m: binding[m.group(0)], template.text)
        start_names = (binding[template.start_slot],) if template.start_slot else ()
        try:
            program = _substitute_path(template.typed_path.program, binding)
            typed, result = run_path(graph, registry, program, start_names)
            if typed.start_kind is not template.typed_path.start_kind:
                raise StartKindMismatch(
                    f"start name {start_names[0]!r} resolves to kind "
                    f"{typed.start_kind.value!r} first")
        except TitanError as exc:
            logger.debug("template %s: binding %s discarded: %s",
                         template.id, sorted(binding.values()), exc)
            continue

        answers = tuple(dict.fromkeys(map(attrgetter("name"), result.answers)))
        if not answers and not config.keep_empty:
            continue
        prof = profile(typed.program)
        samples.append(Sample(
            question=question,
            cot=synthesize_cot(question, start_names, typed),
            path=render_path(typed.program, "token"),
            start_entities=start_names,
            answers=answers,
            template_id=template.id,
            bucket=prof.bucket,
            operators=tuple(sorted(prof.operators)),
        ))
    return samples


def generate_dataset(
    templates: Iterable[QuestionTemplate],
    graph: KnowledgeGraph,
    config: DatasetConfig | None = None,
    registry: RelationRegistry | None = None,
) -> tuple[DatasetSplit, str]:
    """Instantiate every template and split into train/test.

    The split is stratified per template; a (template, entity-binding)
    combination lands in exactly one side, so the test set only contains
    combinations unseen during training.  Templates too small to feed
    both sides go wholly to train.  Deterministic for a fixed seed.
    """
    config = config or DatasetConfig()
    registry = registry or build_default_registry()
    train: list[Sample] = []
    test: list[Sample] = []
    for template in sorted(templates, key=lambda t: t.id):
        samples = instantiate_template(template, graph, config, registry)
        n = len(samples)
        if n == 0:
            logger.info("template %s produced no samples", template.id)
            continue
        want_test = min(round(config.test_fraction * n), n - 1)
        if want_test < 1:
            logger.info("InsufficientBindings: template %s (%d sample(s)) "
                        "goes wholly to train", template.id, n)
            train.extend(samples)
            continue
        rng = random.Random(_derive_seed(config.rng_seed, template.id, "split"))
        test_idx = set(rng.sample(range(n), want_test))
        for i, sample in enumerate(samples):
            (test if i in test_idx else train).append(sample)

    split = DatasetSplit(train=tuple(train), test=tuple(test))
    return split, profile_table(split)


def profile_table(split: DatasetSplit) -> str:
    """Plain-text dataset profile: length buckets and operator counts."""
    def row(name: str, cells) -> str:
        return f"{name:<8}" + "".join(f"{cell:>7}" for cell in cells)

    def counts(samples: tuple[Sample, ...]) -> list[int]:
        seen = Counter(s.bucket for s in samples)
        seen.update(op for s in samples for op in s.operators)
        return [len(samples), *(seen[b] for b in LENGTH_BUCKETS + OPERATOR_BUCKETS)]

    header = row("split", ["total", *LENGTH_BUCKETS, "filter", "select", "common", "diff"])
    return "\n".join([header, row("train", counts(split.train)),
                      row("test", counts(split.test))]) + "\n"


def dataset_to_jsonl(samples: Iterable[Sample]) -> str:
    return "".join(sample.to_json() + "\n" for sample in samples)


def json_object(line: str, strings: Iterable[str]) -> dict:
    """The JSON object on one JSONL line whose ``strings`` fields, where
    present, are strings or null; anything else raises ValueError."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc.msg})") from exc
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    for field in strings:
        if not isinstance(rec.get(field), (str, type(None))):
            raise ValueError(f"{field!r} is not a string")
    return rec


def read_records(text: str, read, error=MalformedInput, comments: bool = False) -> list:
    """``read`` of each record of a line-record file, in file order.

    Records end at ``\n`` only: JSON leaves U+0085, U+2028 and U+2029
    unescaped, and ``str.splitlines`` would break a record at them.  A record
    is read stripped of surrounding whitespace, so CRLF reads as LF.  Blank
    lines, and ``#`` lines where ``comments`` is set, are skipped but
    counted; a ValueError from ``read`` is raised as ``error`` naming the line.
    """
    records = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or (comments and line.startswith("#")):
            continue
        try:
            records.append(read(line))
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from exc
    return records


def load_dataset(text: str) -> list[Sample]:
    """Samples of a JSONL dataset; a bad line raises MalformedInput naming it."""
    return read_records(text, Sample.from_json)
