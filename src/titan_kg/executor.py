"""Deterministic interpreter for typed path programs over a knowledge graph.

Execution folds the program's steps over a frontier (one node set per
branch, several after a select), records a per-step evidence trace, and
returns the final entities in a stable (kind, name, id) order.  Frontiers
hold the graph's integer node ranks, which ascend in that order; answers,
start nodes and trace edges are reported by node and id.  The
interpreter is pure: the same (graph, program, start) always produces the
same answers and the same trace.

``run_path`` is the one query pipeline from start names to answers;
``titan exec``, planner asks and dataset generation all go through it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

from .errors import (
    MissingStartKind,
    SelectNameUnresolved,
    StartKindMismatch,
    TitanError,
)
from .kg import KnowledgeGraph, Node, fold
from .ontology import RelationRegistry
from .pathlang import (
    ExecCommon,
    ExecDifference,
    Filter,
    PathProgram,
    PathStep,
    Select,
    Traverse,
    TypeSeed,
    TypedProgram,
    render_segment,
    validate_program,
)

Edge = tuple[str, str, str]
# Ordered branch sets of ascending node ranks; one branch until a select
# splits it.
Frontier = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StepRecord:
    """One executed step: its branch sizes, plus what ``edges`` derives from."""

    step: PathStep
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    inputs: Frontier = field(repr=False)
    graph: KnowledgeGraph = field(repr=False, compare=False)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """A traverse step's distinct (src, rel, dst) edges in sorted order,
        derived when first read; empty for every other step."""
        if not isinstance(self.step, Traverse):
            return ()
        rel, graph, ranks = self.step.rel, self.graph, set().union(*self.inputs)
        return tuple(sorted((src, rel, dst) for rank, src in zip(ranks, graph.ids(ranks))
                            for dst in graph.ids(graph.successor_ranks((rank,), rel))))


@dataclass(frozen=True)
class ExecutionResult:
    answers: tuple[Node, ...]
    trace: tuple[StepRecord, ...]
    start_nodes: tuple[str, ...]

    def to_text(self, graph: KnowledgeGraph) -> str:
        """Stable structured-text rendering: answers first, then the trace."""
        lines = [f"answers\t{len(self.answers)}"]
        for node in self.answers:
            lines.append(f"  {node.kind.value}\t{node.name}\t{node.id}")
        lines.append(f"start\t{len(self.start_nodes)}\t{' '.join(self.start_nodes)}")
        lines.append("trace")
        for i, rec in enumerate(self.trace, 1):
            sizes_in = ",".join(str(s) for s in rec.input_sizes)
            sizes_out = ",".join(str(s) for s in rec.output_sizes)
            lines.append(f"  step {i}\t{render_segment(rec.step)}\t"
                         f"in={sizes_in}\tout={sizes_out}\tedges={len(rec.edges)}")
            for src, rel, dst in rec.edges:
                lines.append(f"    {graph.node(src).name} --{rel}--> {graph.node(dst).name}")
        return "\n".join(lines) + "\n"


def _node_matches(node: Node, needle: str, norm: Callable[[str], str]) -> bool:
    return (needle in norm(node.name)
            or any(needle in norm(alias) for alias in node.aliases)
            or any(needle in norm(tag) for tag in node.tags)
            or needle in norm(node.description))


def step_filter(graph: KnowledgeGraph, frontier: Frontier, keyword: str) -> Frontier:
    """Keep nodes whose name, an alias, a tag or the description contains
    the keyword, both sides under :func:`~titan_kg.kg.fold`.

    ``fold(text)`` is ``text.casefold()``'s whitespace-free runs joined by
    single spaces, so a folded keyword without a space lies in it exactly
    when it lies in ``text.casefold()``: only a keyword with a space needs
    the node text folded in full.
    """
    needle, nodes = fold(keyword), graph.nodes_by_rank
    norm = fold if " " in needle else str.casefold
    return tuple(tuple(rank for rank in branch if _node_matches(nodes[rank], needle, norm))
                 for branch in frontier)


def step_select(graph: KnowledgeGraph, frontier: Frontier,
                names: tuple[str, ...]) -> Frontier:
    """Split a single-branch frontier into one branch per named entity.

    :class:`PathProgram` allows one select and no combiner before it, so
    the frontier has one branch here.  A name resolves like
    :meth:`KnowledgeGraph.find_by_name`, restricted to the frontier by
    bisection.  Both are in rank order, so each branch keeps the
    frontier's order.
    """
    (current,) = frontier
    branches = []
    for name in names:
        hits = [rank for rank in graph.ranks(graph.find_by_name(name))
                if (i := bisect_left(current, rank)) < len(current) and current[i] == rank]
        if not hits:
            raise SelectNameUnresolved(
                f"select name {name!r} matches nothing in the current frontier")
        branches.append(tuple(hits))
    return tuple(branches)


def step_exec_common(frontier: Frontier) -> Frontier:
    """Collapse branches to their intersection.

    :class:`PathProgram` places a combiner only last, after a select of
    two names or more, so the frontier has at least two branches here.
    """
    common = set.intersection(*map(set, frontier[1:]))
    return (tuple(rank for rank in frontier[0] if rank in common),)


def step_exec_difference(frontier: Frontier) -> Frontier:
    """Collapse branches to: first branch minus the union of the others.

    Like :func:`step_exec_common`, it sees at least two branches.
    """
    union_rest = set().union(*frontier[1:])
    return (tuple(rank for rank in frontier[0] if rank not in union_rest),)


def execute(
    graph: KnowledgeGraph,
    typed_program: TypedProgram,
    start: tuple[str, ...] | None = None,
) -> ExecutionResult:
    """Run a validated program and return answers plus an evidence trace.

    Programs starting with a type seed ignore ``start``; all other
    programs require non-empty ``start`` node ids of the program's start
    kind.  Empty intermediate frontiers are legal and simply propagate.
    """
    first = typed_program.steps[0]
    if isinstance(first, TypeSeed):
        start_ids, start_ranks = graph.nodes_of_kind(first.kind), graph.kind_ranks(first.kind)
    else:
        if not start:
            raise StartKindMismatch("program has no type seed; start nodes required")
        for nid in start:
            if not graph.has_node(nid):
                raise StartKindMismatch(f"unknown start node id {nid!r}")
            if graph.node(nid).kind is not typed_program.start_kind:
                raise StartKindMismatch(
                    f"start node {nid!r} has kind {graph.node(nid).kind.value!r}, "
                    f"program needs {typed_program.start_kind.value!r}")
        start_ids = graph.sort_ids(start)
        start_ranks = graph.ranks(start_ids)

    frontier: Frontier = (start_ranks,)
    trace: list[StepRecord] = []
    for step in typed_program.steps:
        inputs = frontier  # a type seed leaves the start's kind extent as it is
        if isinstance(step, Traverse):
            frontier = tuple(graph.successor_ranks(branch, step.rel) for branch in inputs)
        elif isinstance(step, Filter):
            frontier = step_filter(graph, frontier, step.keyword)
        elif isinstance(step, Select):
            frontier = step_select(graph, frontier, step.names)
        elif isinstance(step, ExecCommon):
            frontier = step_exec_common(frontier)
        elif isinstance(step, ExecDifference):
            frontier = step_exec_difference(frontier)
        trace.append(StepRecord(
            step=step, input_sizes=tuple(map(len, inputs)),
            output_sizes=tuple(map(len, frontier)),
            inputs=inputs, graph=graph,
        ))

    # A select not followed by an operator leaves several branches; the
    # answer set is their union.
    ranks = frontier[0] if len(frontier) == 1 else sorted(set().union(*frontier))
    answers = tuple(map(graph.nodes_by_rank.__getitem__, ranks))

    return ExecutionResult(
        answers=answers,
        trace=tuple(trace),
        start_nodes=start_ids,
    )


def run_path(
    graph: KnowledgeGraph,
    registry: RelationRegistry,
    program: PathProgram,
    start_names: Iterable[str],
) -> tuple[TypedProgram, ExecutionResult]:
    """Resolve the start names, validate the program for them, execute it.

    Each name starts the nodes :meth:`KnowledgeGraph.find_by_name` gives
    it; a name that matches no node raises :class:`StartKindMismatch`.  A
    type-seeded program then ignores the start.  Otherwise each distinct
    kind among the start nodes is tried in order; the first kind the
    program type-checks for wins, and only nodes of that kind start it.
    """
    start_ids: list[str] = []
    for name in start_names:
        found = graph.find_by_name(name)
        if not found:
            raise StartKindMismatch(f"no node named {name!r} in the graph")
        start_ids.extend(found)
    if isinstance(program.steps[0], TypeSeed):
        typed = validate_program(program, registry)
        return typed, execute(graph, typed)
    if not start_ids:
        raise MissingStartKind("path needs start entities, none resolved")
    *kinds, last = dict.fromkeys(graph.node(nid).kind for nid in start_ids)
    for kind in kinds:
        try:
            typed = validate_program(program, registry, start_kind=kind)
            break
        except TitanError:
            pass
    else:  # no earlier kind type-checks: the last kind's error propagates
        kind, typed = last, validate_program(program, registry, start_kind=last)
    keep = tuple(nid for nid in start_ids if graph.node(nid).kind is kind)
    return typed, execute(graph, typed, start=keep)
