"""Deterministic interpreter for typed path programs over a knowledge graph.

Execution folds the program's steps over a frontier (one node set per
branch, several after a select), records a per-step evidence trace, and
returns the final entities in a stable (kind, name, id) order.  Frontiers
hold the graph's integer node ranks, which ascend in that order; answers,
start nodes and trace edges are reported by node and id.  The
interpreter is pure: the same (graph, program, start) always produces the
same answers and the same trace.

``resolve_names`` and ``run_path`` are the one query pipeline from start
names to answers; ``titan exec``, planner asks and dataset generation
all go through them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import (
    MissingStartKind,
    OperatorArityError,
    OperatorPlacementError,
    SelectNameUnresolved,
    StartKindMismatch,
    TitanError,
)
from .kg import KnowledgeGraph, Node
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


@dataclass(frozen=True)
class Frontier:
    """Ordered branch sets of ascending node ranks; one branch until a
    select splits it."""

    branches: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StepRecord:
    """One executed step: its branch sizes, plus what ``edges`` derives from."""

    step: PathStep
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    inputs: tuple[tuple[int, ...], ...] = field(repr=False)
    graph: KnowledgeGraph = field(repr=False, compare=False)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """A traverse step's distinct (src, rel, dst) edges in sorted order,
        derived when first read; empty for every other step."""
        if not isinstance(self.step, Traverse):
            return ()
        rel, graph = self.step.rel, self.graph
        return tuple(sorted({(src, rel, dst) for src in graph.ids(set().union(*self.inputs))
                             for dst in graph.out(src, rel)}))


@dataclass(frozen=True)
class ExecutionResult:
    answers: tuple[Node, ...]
    trace: tuple[StepRecord, ...]
    start_nodes: tuple[str, ...]

    def to_text(self, graph: KnowledgeGraph | None = None) -> str:
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
                if graph is not None:
                    lines.append(f"    {graph.node(src).name} --{rel}--> {graph.node(dst).name}")
                else:
                    lines.append(f"    {src} --{rel}--> {dst}")
        return "\n".join(lines) + "\n"


def _node_matches(node: Node, keyword: str) -> bool:
    return (keyword in node.name.lower()
            or any(keyword in alias.lower() for alias in node.aliases)
            or any(keyword in tag for tag in node.tags)
            or keyword in node.description.lower())


def step_filter(graph: KnowledgeGraph, frontier: Frontier, keyword: str) -> Frontier:
    """Keep nodes whose name, alias, tag, or description contains the keyword."""
    needle, nodes = keyword.lower(), graph.nodes_by_rank
    return Frontier(tuple(
        tuple(rank for rank in branch if _node_matches(nodes[rank], needle))
        for branch in frontier.branches))


def step_select(graph: KnowledgeGraph, frontier: Frontier,
                names: tuple[str, ...]) -> Frontier:
    """Split a single-branch frontier into one branch per named entity.

    A name resolves like :meth:`KnowledgeGraph.find_by_name`, restricted
    to the frontier by bisection.  Both are in rank order, so each branch
    keeps the frontier's order.
    """
    if len(frontier.branches) != 1:
        raise OperatorPlacementError("select applies to a single-branch frontier")
    current = frontier.branches[0]
    branches = []
    for name in names:
        hits = [rank for rank in graph.ranks(graph.find_by_name(name))
                if (i := bisect_left(current, rank)) < len(current) and current[i] == rank]
        if not hits:
            raise SelectNameUnresolved(
                f"select name {name!r} matches nothing in the current frontier")
        branches.append(tuple(hits))
    return Frontier(tuple(branches))


def step_exec_common(frontier: Frontier) -> Frontier:
    """Collapse branches to their intersection."""
    if len(frontier.branches) < 2:
        raise OperatorArityError("exec_common needs at least two branches")
    common = set.intersection(*map(set, frontier.branches[1:]))
    kept = tuple(nid for nid in frontier.branches[0] if nid in common)
    return Frontier((kept,))


def step_exec_difference(frontier: Frontier) -> Frontier:
    """Collapse branches to: first branch minus the union of the others."""
    if len(frontier.branches) < 2:
        raise OperatorArityError("exec_difference needs at least two branches")
    union_rest = set().union(*frontier.branches[1:])
    kept = tuple(nid for nid in frontier.branches[0] if nid not in union_rest)
    return Frontier((kept,))


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

    frontier = Frontier((start_ranks,))
    trace: list[StepRecord] = []
    for step in typed_program.steps:
        inputs = frontier.branches
        if isinstance(step, TypeSeed):
            pass  # the frontier is already the kind extent
        elif isinstance(step, Traverse):
            frontier = Frontier(tuple(graph.successor_ranks(branch, step.rel)
                                      for branch in inputs))
        elif isinstance(step, Filter):
            frontier = step_filter(graph, frontier, step.keyword)
        elif isinstance(step, Select):
            frontier = step_select(graph, frontier, step.names)
        elif isinstance(step, ExecCommon):
            frontier = step_exec_common(frontier)
        elif isinstance(step, ExecDifference):
            frontier = step_exec_difference(frontier)
        else:
            raise TypeError(f"not a path step: {step!r}")
        trace.append(StepRecord(
            step=step, input_sizes=tuple(map(len, inputs)),
            output_sizes=tuple(map(len, frontier.branches)),
            inputs=inputs, graph=graph,
        ))

    if len(frontier.branches) == 1:
        answers = tuple(map(graph.nodes_by_rank.__getitem__, frontier.branches[0]))
    else:
        # A select not followed by an operator leaves several branches;
        # the answer set is their union.
        answers = tuple(map(graph.node, graph.sort_ids(graph.ids(set().union(*frontier.branches)))))

    return ExecutionResult(
        answers=answers,
        trace=tuple(trace),
        start_nodes=start_ids,
    )


def resolve_names(graph: KnowledgeGraph, names: Iterable[str]) -> tuple[str, ...]:
    """The ids of the nodes each name or alias matches, name by name; a
    name that matches no node raises :class:`StartKindMismatch`."""
    ids: list[str] = []
    for name in names:
        found = graph.find_by_name(name)
        if not found:
            raise StartKindMismatch(f"no node named {name!r} in the graph")
        ids.extend(found)
    return tuple(ids)


def run_path(
    graph: KnowledgeGraph,
    registry: RelationRegistry,
    program: PathProgram,
    start_ids: tuple[str, ...],
) -> tuple[TypedProgram, ExecutionResult]:
    """Validate a program for its start nodes, then execute it.

    A type-seeded program ignores ``start_ids``.  Otherwise each distinct
    kind among the start nodes is tried in order; the first kind the
    program type-checks for wins, and only nodes of that kind start it.
    """
    if isinstance(program.steps[0], TypeSeed):
        typed = validate_program(program, registry)
        return typed, execute(graph, typed)
    if not start_ids:
        raise MissingStartKind("path needs start entities, none resolved")
    # start_ids is not empty, so the loop runs and a failure sets last_error.
    for kind in dict.fromkeys(graph.node(nid).kind for nid in start_ids):
        try:
            typed = validate_program(program, registry, start_kind=kind)
        except TitanError as exc:
            last_error = exc
            continue
        keep = tuple(nid for nid in start_ids if graph.node(nid).kind is kind)
        return typed, execute(graph, typed, start=keep)
    raise last_error
