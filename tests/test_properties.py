"""Property tests of traversal and execution against the brute-force oracle.

Graphs are small random typed graphs: a few nodes of each kind, with names
drawn from a pool that repeats names across kinds and differs only in case
or whitespace, and random edges that each fit a registry signature and come
with their registry reverse.  Programs are random valid programs over them.

The bit-parallel LCS behind ROUGE-L is checked against the dynamic program
on random token lists long enough to span several 64-bit words.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from titan_kg.errors import SelectNameUnresolved
from titan_kg.eval import _lcs_length
from titan_kg.executor import execute
from titan_kg.kg import KnowledgeGraph, Node
from titan_kg.ontology import EntityKind, build_default_registry
from titan_kg.pathlang import (
    ExecCommon,
    ExecDifference,
    Filter,
    PathProgram,
    Select,
    Traverse,
    TypeSeed,
    validate_program,
)

from bruteforce import brute_execute, lcs_length, steps_from_program, tables_from_graph

REGISTRY = build_default_registry()
RELATIONS = sorted({sig.name for sig in REGISTRY.signatures})
# One of each signature pair; the graph adds the reverse of every edge.
FORWARD = tuple(sig for sig in REGISTRY.signatures if sig.name < sig.inverse_name)
NAMES = ("Alpha", "alpha", "Beta Gamma", "beta  gamma", "Twin", "TWIN", "Zed")
TAGS = ("linux", "russia", "windows")
KEYWORDS = ("a", "Beta", "twin", "win", "russia", "zz")

# Strategies are built once: building one per draw dominates the run time.
SUFFIXES = st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True)
NAME = st.sampled_from(NAMES)
ALIASES = st.lists(NAME, max_size=1)
TAG_SETS = st.lists(st.sampled_from(TAGS), max_size=2, unique=True)
KINDS = st.sampled_from(tuple(EntityKind))
KEYWORD = st.sampled_from(KEYWORDS)
COMBINER = st.sampled_from((None, ExecCommon, ExecDifference))
WALK = st.integers(0, 3)
WALK_AFTER_SELECT = st.sampled_from((1, 2, 0))
# A four-token alphabet, so tokens repeat and common subsequences are long.
# The length is drawn first: a plain list strategy rarely grows past 64.
TOKEN = st.sampled_from(("a", "b", "c", "uses_malware"))
TOKEN_LISTS = st.integers(0, 200).flatmap(lambda n: st.lists(TOKEN, min_size=n, max_size=n))


@st.composite
def typed_graphs(draw) -> KnowledgeGraph:
    nodes = []
    for kind in EntityKind:
        for suffix in draw(SUFFIXES):
            nodes.append(Node(id=f"{kind.value}--{suffix:02d}", kind=kind, name=draw(NAME),
                              aliases=tuple(draw(ALIASES)), tags=tuple(draw(TAG_SETS))))
    extent = {kind: [n.id for n in nodes if n.kind is kind] for kind in EntityKind}
    # Each pair a signature allows is an edge with the drawn density.  The
    # pairs come from a seeded generator: one draw per pair is too slow.
    density = draw(st.sampled_from((0.2, 0.4, 0.6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = set()
    for sig in FORWARD:
        for src in extent[sig.source_kind]:
            for dst in extent[sig.target_kind]:
                if rng.random() < density:
                    edges.add((src, sig.name, dst))
                    edges.add((dst, sig.inverse_name, src))
    return KnowledgeGraph(nodes, edges)


def _draw_program(data, graph: KnowledgeGraph):
    """A valid program and its start ids (None for a type-seeded program).

    Shape: a type seed or start ids, a few relation and filter steps, and
    optionally a select followed by more steps and a combiner.
    """
    kind = data.draw(KINDS)
    steps: list = []
    start = None
    if data.draw(st.booleans()):
        start = tuple(data.draw(st.lists(st.sampled_from(graph.nodes_of_kind(kind)),
                                         min_size=1, max_size=3, unique=True)))
    else:
        steps.append(TypeSeed(kind))

    def walk(count: int) -> None:
        nonlocal kind
        for _ in range(count):
            if data.draw(st.integers(0, 3)) == 0:
                steps.append(Filter(data.draw(KEYWORD)))
            else:
                rel = data.draw(st.sampled_from(REGISTRY.relations_from(kind)))
                steps.append(Traverse(rel))
                kind = REGISTRY.signature_of(kind, rel).target_kind

    walk(data.draw(WALK))
    if data.draw(st.booleans()):
        # Names of the current kind mostly resolve; the pool's may not.
        # Distinct names make distinct branches.
        known = [graph.node(nid).name for nid in graph.nodes_of_kind(kind)]
        pool = st.sampled_from(known).map(str.upper) | st.sampled_from(known + list(NAMES))
        names = data.draw(st.lists(pool, min_size=2, max_size=3,
                                   unique_by=lambda name: " ".join(name.casefold().split())))
        steps.append(Select(tuple(names)))
        walk(data.draw(WALK_AFTER_SELECT))
        combiner = data.draw(COMBINER)
        if combiner is not None:
            steps.append(combiner())
    if not steps:
        walk(1)
    return PathProgram(tuple(steps)), start


def _sorted_ids(graph: KnowledgeGraph, ids) -> list[str]:
    return sorted(set(ids), key=lambda nid: graph.node(nid).sort_key)


@given(graph=typed_graphs(), data=st.data())
def test_execute_matches_bruteforce(graph, data):
    program, start = _draw_program(data, graph)
    start_kind = graph.node(start[0]).kind if start else None
    typed = validate_program(program, REGISTRY, start_kind=start_kind)
    nodes, edges = tables_from_graph(graph)
    walked: list[set] = []
    try:
        expected = brute_execute(nodes, edges, steps_from_program(typed.program),
                                 start_ids=set(start or ()), walked=walked)
    except ValueError:
        with pytest.raises(SelectNameUnresolved):
            execute(graph, typed, start=start)
        return
    result = execute(graph, typed, start=start)
    assert [n.id for n in result.answers] == _sorted_ids(graph, expected)
    traversed = [rec.edges for rec in result.trace if isinstance(rec.step, Traverse)]
    assert traversed == [tuple(sorted(w)) for w in walked]
    assert all(rec.edges == () for rec in result.trace
               if not isinstance(rec.step, Traverse))


@given(graph=typed_graphs(), data=st.data())
def test_successors_and_sort_ids_match_bruteforce(graph, data):
    # Mostly ids of one kind, and a relation that applies to that kind.
    kind = data.draw(KINDS)
    all_ids = [nid for k in EntityKind for nid in graph.nodes_of_kind(k)]
    ids = data.draw(st.lists(st.sampled_from(graph.nodes_of_kind(kind))
                             | st.sampled_from(all_ids), max_size=6))
    rel = data.draw(st.sampled_from(REGISTRY.relations_from(kind)) | st.sampled_from(RELATIONS))
    expected = {dst for (src, r, dst) in graph.all_edges() if r == rel and src in ids}
    assert graph.successors(ids, rel) == tuple(_sorted_ids(graph, expected))
    assert graph.sort_ids(ids) == tuple(_sorted_ids(graph, ids))


@given(a=TOKEN_LISTS, b=TOKEN_LISTS)
def test_bit_parallel_lcs_matches_dynamic_program(a, b):
    assert _lcs_length(a, b) == lcs_length(a, b)
