"""Deterministic interpreter for typed path programs over a knowledge graph.

Execution folds the program's steps over a frontier (one node set per
branch, several after a select), records a per-step evidence trace, and
returns the final entities in a stable (kind, name, id) order.  The
interpreter is pure: the same (graph, program, start) always produces the
same answers and the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    OperatorArityError,
    OperatorPlacementError,
    SelectNameUnresolved,
    StartKindMismatch,
)
from .kg import KnowledgeGraph, Node
from .pathlang import (
    ExecCommon,
    ExecDifference,
    Filter,
    PathStep,
    Select,
    Traverse,
    TypeSeed,
    TypedProgram,
    render_segment,
)

Edge = tuple[str, str, str]


@dataclass(frozen=True)
class Frontier:
    """Ordered branch sets of node ids; one branch until a select splits it."""

    branches: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class StepRecord:
    step: PathStep
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    edges: tuple[Edge, ...] = ()


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


def _traverse_branch(graph: KnowledgeGraph, branch: tuple[str, ...],
                     rel: str) -> tuple[tuple[str, ...], list[Edge]]:
    edges: list[Edge] = []
    out: set[str] = set()
    for nid in branch:
        for dst in graph.out(nid, rel):
            edges.append((nid, rel, dst))
            out.add(dst)
    return graph.sort_ids(out), edges


def step_traverse(graph: KnowledgeGraph, frontier: Frontier, rel: str) -> Frontier:
    branches = tuple(_traverse_branch(graph, b, rel)[0] for b in frontier.branches)
    return Frontier(branches, frontier.labels)


def _node_matches(node: Node, keyword: str) -> bool:
    if keyword in node.name.lower():
        return True
    if any(keyword in alias.lower() for alias in node.aliases):
        return True
    if any(keyword in tag for tag in node.tags):
        return True
    return keyword in node.description.lower()


def step_filter(graph: KnowledgeGraph, frontier: Frontier, keyword: str) -> Frontier:
    """Keep nodes whose name, alias, tag, or description contains the keyword."""
    needle = keyword.lower()
    branches = tuple(
        tuple(nid for nid in branch if _node_matches(graph.node(nid), needle))
        for branch in frontier.branches)
    return Frontier(branches, frontier.labels)


def step_select(graph: KnowledgeGraph, frontier: Frontier,
                names: tuple[str, ...]) -> Frontier:
    """Split a single-branch frontier into one branch per named entity.

    A name resolves like :meth:`KnowledgeGraph.find_by_name`, restricted
    to the frontier.  Both are in (kind, name, id) order, so each branch
    keeps the frontier's order.
    """
    if len(frontier.branches) != 1:
        raise OperatorPlacementError("select applies to a single-branch frontier")
    current = set(frontier.branches[0])
    branches = []
    for name in names:
        hits = [nid for nid in graph.find_by_name(name) if nid in current]
        if not hits:
            raise SelectNameUnresolved(
                f"select name {name!r} matches nothing in the current frontier")
        branches.append(tuple(hits))
    return Frontier(tuple(branches), labels=names)


def step_exec_common(frontier: Frontier) -> Frontier:
    """Collapse branches to their intersection."""
    if len(frontier.branches) < 2:
        raise OperatorArityError("exec_common needs at least two branches")
    rest = [set(b) for b in frontier.branches[1:]]
    kept = tuple(nid for nid in frontier.branches[0]
                 if all(nid in other for other in rest))
    return Frontier((kept,))


def step_exec_difference(frontier: Frontier) -> Frontier:
    """Collapse branches to: first branch minus the union of the others."""
    if len(frontier.branches) < 2:
        raise OperatorArityError("exec_difference needs at least two branches")
    union_rest: set[str] = set()
    for branch in frontier.branches[1:]:
        union_rest.update(branch)
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
        start_ids = graph.nodes_of_kind(first.kind)
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

    frontier = Frontier((start_ids,))
    trace: list[StepRecord] = []
    for step in typed_program.steps:
        sizes_in = tuple(len(b) for b in frontier.branches)
        edges: tuple[Edge, ...] = ()
        if isinstance(step, TypeSeed):
            pass  # the frontier is already the kind extent
        elif isinstance(step, Traverse):
            new_branches = []
            collected: list[Edge] = []
            for branch in frontier.branches:
                out, branch_edges = _traverse_branch(graph, branch, step.rel)
                new_branches.append(out)
                collected.extend(branch_edges)
            frontier = Frontier(tuple(new_branches), frontier.labels)
            edges = tuple(sorted(set(collected)))
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
            step=step, input_sizes=sizes_in,
            output_sizes=tuple(len(b) for b in frontier.branches),
            edges=edges,
        ))

    if len(frontier.branches) == 1:
        answer_ids = frontier.branches[0]
    else:
        # A select not followed by an operator leaves several branches;
        # the answer set is their union.
        merged: set[str] = set()
        for branch in frontier.branches:
            merged.update(branch)
        answer_ids = graph.sort_ids(merged)

    return ExecutionResult(
        answers=tuple(graph.node(nid) for nid in answer_ids),
        trace=tuple(trace),
        start_nodes=start_ids,
    )
