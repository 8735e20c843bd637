"""Lexer, parser, serializer, and kind-flow checker for relational paths.

Two surface syntaxes are accepted:

* token form:   ``<PATH> is_malware_type <SEP> uses_attack_pattern </PATH>``
* display form: ``is_malware_type → uses_attack_pattern`` (``->`` also works)

Segment grammar (see docs/grammar.md for the EBNF):

* ``is_<kind>_type``           seeds the frontier with every node of a kind
* ``filter <keyword...>``      keeps entities matching a (multiword) keyword
* ``select <name> <name>...``  splits reasoning into one branch per name;
  names containing whitespace are double-quoted
* ``exec_common`` / ``exec_difference``   combine branches at the end
* anything else is a relation traversal

Operand whitespace is canonicalized at parse time (runs collapse to one
space), so parse∘render is the identity on parsed programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union, get_args

from .errors import (
    MalformedOperator,
    MissingStartKind,
    NoSuchSignature,
    OperatorPlacementError,
    PathSyntaxError,
    TypeFlowError,
    UnknownRelation,
)
from .ontology import EntityKind, RelationRegistry, build_default_registry

PATH_OPEN = "<PATH>"
PATH_CLOSE = "</PATH>"
SEP = "<SEP>"

_ARROW_SPLIT = re.compile(r"→|->")
# Markers that end an operand early when a program is rendered.
_FRAMING = (PATH_OPEN, PATH_CLOSE, SEP, "→", "->")


def _reject_framing(operand: str, markers: tuple[str, ...] = _FRAMING) -> None:
    for marker in markers:
        if marker in operand:
            raise MalformedOperator(f"operand {operand!r} may not hold {marker!r}")


@dataclass(frozen=True)
class TypeSeed:
    kind: EntityKind

    @property
    def token(self) -> str:
        """The pseudo-relation that seeds a frontier with every node of the kind."""
        return f"is_{self.kind.slug}_type"


@dataclass(frozen=True)
class Traverse:
    rel: str


# Each operator step declares its keyword once, as ``token``.
@dataclass(frozen=True)
class Filter:
    keyword: str
    token: ClassVar[str] = "filter"

    def __post_init__(self):
        if not self.keyword.strip():
            raise MalformedOperator("filter requires a non-empty keyword")
        _reject_framing(self.keyword)


@dataclass(frozen=True)
class Select:
    names: tuple[str, ...]
    token: ClassVar[str] = "select"

    def __post_init__(self):
        if len(self.names) < 2:
            raise MalformedOperator("select requires at least two names")
        if any(not n.strip() for n in self.names):
            raise MalformedOperator("select names must be non-empty")
        for name in self.names:
            _reject_framing(name, ('"', *_FRAMING))


@dataclass(frozen=True)
class ExecCommon:
    token: ClassVar[str] = "exec_common"


@dataclass(frozen=True)
class ExecDifference:
    token: ClassVar[str] = "exec_difference"


PathStep = Union[TypeSeed, Traverse, Filter, Select, ExecCommon, ExecDifference]
_STEP_CLASSES = get_args(PathStep)  # isinstance is several times faster on these than on the Union

_SEEDS = {seed.token: seed for seed in map(TypeSeed, EntityKind)}
_COMBINERS = {cls.token: cls for cls in (ExecCommon, ExecDifference)}
# Bucket names of dataset profiles and evaluation reports, in report order.
LENGTH_BUCKETS = ("L1", "L2", "L3", "L4+")
OPERATOR_BUCKETS = tuple(cls.token for cls in (Filter, Select, ExecCommon, ExecDifference))


@dataclass(frozen=True)
class PathProgram:
    """A structurally valid sequence of path steps.

    Construction enforces: non-empty; each member one of the step classes;
    a type seed only as the first step; at most one select; at most one of
    exec_common/exec_difference, only as the final step, and only after a select.
    """

    steps: tuple[PathStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise PathSyntaxError("empty program")
        select_seen = False
        for i, step in enumerate(self.steps):
            if not isinstance(step, _STEP_CLASSES):
                raise TypeError(f"not a path step: {step!r}")
            if isinstance(step, TypeSeed) and i != 0:
                raise OperatorPlacementError(
                    f"type seed must be the first step (found at step {i + 1})")
            if isinstance(step, Select):
                if select_seen:
                    raise OperatorPlacementError("at most one select per program")
                select_seen = True
            if isinstance(step, (ExecCommon, ExecDifference)):
                if i != len(self.steps) - 1:
                    raise OperatorPlacementError(
                        "exec_common/exec_difference must be the final step")
                if not select_seen:
                    raise OperatorPlacementError(
                        "exec_common/exec_difference requires an earlier select")


# A name: a quoted one (its text, its closing quote if any, and any text
# glued after that) or a bare word.
_NAME_TOKEN = re.compile(r'"([^"]*)("?)(\S*)|\S+')


def split_names(text: str) -> list[str]:
    """Whitespace-split with double-quote grouping for multiword names."""
    names: list[str] = []
    for token in _NAME_TOKEN.finditer(text):
        quoted, close, glued = token.groups()
        if quoted is None:  # a bare word
            if '"' in token[0]:
                raise PathSyntaxError(f"stray quote in {text!r}")
            names.append(token[0])
            continue
        if not close:
            raise PathSyntaxError(f"unterminated quote in {text!r}")
        if not (name := " ".join(quoted.split())):
            raise MalformedOperator("empty quoted name")
        if glued:
            raise PathSyntaxError(f"stray quote in {text!r}")
        names.append(name)
    return names


def _parse_segment(segment: str, registry: RelationRegistry) -> PathStep:
    words = segment.split(None, 1)
    head = words[0]
    rest = words[1] if len(words) > 1 else ""

    if head in _SEEDS:
        if rest:
            raise PathSyntaxError(f"unexpected tokens after {head!r}: {rest!r}")
        return _SEEDS[head]
    if head == Filter.token:
        return Filter(" ".join(rest.split()))
    if head == Select.token:
        return Select(tuple(split_names(rest)))
    if head in _COMBINERS:
        if rest:
            raise MalformedOperator(f"{head} takes no arguments")
        return _COMBINERS[head]()

    if rest:
        raise PathSyntaxError(f"unexpected tokens after relation {head!r}: {rest!r}")
    # Canonicalize context-free short verbs now; defer context-dependent ones
    # (e.g. ``uses``) to validation, where the source kind is known.
    try:
        return Traverse(registry.normalize(head))
    except UnknownRelation:
        if registry.resolvable_from_some_kind(head):
            return Traverse(head)
        raise UnknownRelation(f"unknown relation {head!r}") from None


def parse_path(text: str, registry: RelationRegistry | None = None) -> PathProgram:
    """Parse token-form or display-form text into a program."""
    registry = registry or build_default_registry()
    stripped = text.strip()
    if not stripped:
        raise PathSyntaxError("empty path text")

    if stripped.startswith(PATH_OPEN) or stripped.endswith(PATH_CLOSE):
        if not (stripped.startswith(PATH_OPEN) and stripped.endswith(PATH_CLOSE)):
            raise PathSyntaxError("unbalanced <PATH> wrapper")
        inner = stripped[len(PATH_OPEN):-len(PATH_CLOSE)]
        if PATH_OPEN in inner or PATH_CLOSE in inner:
            raise PathSyntaxError("nested <PATH> wrapper")
        raw_segments = inner.split(SEP)
        if len(raw_segments) == 1 and not raw_segments[0].strip():
            raise PathSyntaxError("empty program")
    else:
        raw_segments = _ARROW_SPLIT.split(stripped)

    steps = []
    for raw in raw_segments:
        segment = raw.strip()
        if not segment:
            raise PathSyntaxError("empty path segment")
        steps.append(_parse_segment(segment, registry))
    return PathProgram(tuple(steps))


def _render_name(name: str) -> str:
    if any(ch.isspace() for ch in name):
        return f'"{name}"'
    return name


def render_segment(step: PathStep) -> str:
    if isinstance(step, Traverse):
        return step.rel
    if isinstance(step, Filter):
        return f"{step.token} {step.keyword}"
    if isinstance(step, Select):
        return f"{step.token} " + " ".join(_render_name(n) for n in step.names)
    return step.token  # a type seed or a combiner


def render_path(program: PathProgram, form: str = "token") -> str:
    """Serialize a program; ``parse_path(render_path(p))`` equals ``p``."""
    segments = [render_segment(step) for step in program.steps]
    if form == "token":
        return f"{PATH_OPEN} {f' {SEP} '.join(segments)} {PATH_CLOSE}"
    if form == "display":
        return " → ".join(segments)
    raise ValueError(f"unknown form {form!r} (expected 'token' or 'display')")


@dataclass(frozen=True)
class TypedProgram:
    """A program with relations canonicalized and a kind inferred per step.

    ``kinds[i]`` is the entity kind of the frontier after step ``i``;
    ``start_kind`` is the kind execution begins from.
    """

    program: PathProgram
    start_kind: EntityKind
    kinds: tuple[EntityKind, ...]

    @property
    def steps(self) -> tuple[PathStep, ...]:
        return self.program.steps

    @property
    def answer_kind(self) -> EntityKind:
        return self.kinds[-1]


def validate_program(
    program: PathProgram,
    registry: RelationRegistry | None = None,
    start_kind: EntityKind | None = None,
) -> TypedProgram:
    """Infer the entity kind at every step and canonicalize relations.

    Programs without a type seed need ``start_kind`` (normally the kind of
    the planner's start entities).  A relation that does not apply to the
    current kind is a :class:`TypeFlowError`.
    """
    registry = registry or build_default_registry()
    first = program.steps[0]
    if isinstance(first, TypeSeed):
        current = first.kind
    elif start_kind is not None:
        current = start_kind
    else:
        raise MissingStartKind("program has no type seed and no start kind was given")

    begin = current
    canonical: list[PathStep] = []
    kinds: list[EntityKind] = []
    for step in program.steps:
        if isinstance(step, Traverse):
            try:
                rel = registry.normalize(step.rel, current)
                sig = registry.signature_of(current, rel)
            except (UnknownRelation, NoSuchSignature) as exc:
                raise TypeFlowError(
                    f"relation {step.rel!r} does not apply to kind "
                    f"{current.value!r}: {exc}") from exc
            canonical.append(Traverse(rel))
            current = sig.target_kind
        else:
            canonical.append(step)
        kinds.append(current)

    return TypedProgram(
        program=PathProgram(tuple(canonical)),
        start_kind=begin,
        kinds=tuple(kinds),
    )


class PathProfile(NamedTuple):
    """Length bucket and operator usage of a program."""

    bucket: str
    operators: frozenset[str]


def profile(program: PathProgram) -> PathProfile:
    """Bucket a program by graph-touching steps and collect operator flags.

    Length counts type seeds and traversals; filter/select/exec steps do
    not touch new graph regions and are excluded.
    """
    length = sum(1 for s in program.steps if isinstance(s, (TypeSeed, Traverse)))
    bucket = LENGTH_BUCKETS[min(max(length, 1), len(LENGTH_BUCKETS)) - 1]
    flags = frozenset(s.token for s in program.steps
                      if not isinstance(s, (TypeSeed, Traverse)))
    return PathProfile(bucket, flags)
