"""Output checks, each computed apart from the code path it checks.

Answers are recomputed by the test suite's brute-force interpreter
(``tests/bruteforce.py``), which rescans a raw edge list at every step.
Start names are resolved through a name table built here from the raw node
records, not through the graph's own name index.
"""

from __future__ import annotations

from bruteforce import brute_execute, steps_from_program, tables_from_graph

from titan_kg.datagen import Sample
from titan_kg.errors import NoSuchSignature
from titan_kg.kg import KnowledgeGraph
from titan_kg.ontology import build_default_registry
from titan_kg.pathlang import parse_path

# STIX object types that become graph nodes, by the kind token the census prints.
_NODE_TYPES = {
    "attack-pattern": "attack-pattern",
    "course-of-action": "course-of-action",
    "malware": "malware",
    "tool": "tool",
    "campaign": "campaign",
    "intrusion-set": "intrusion-set",
    "x-mitre-data-component": "data-component",
    "x-mitre-data-source": "data-source",
}


def bundle_census(objects: list[dict]) -> dict[str, int]:
    """Per-kind node counts, node total and directed edge total, counted
    straight from the bundle's objects: every relationship, data-component
    containment and technique platform is one edge plus its reverse."""
    census = {kind: 0 for kind in _NODE_TYPES.values()}
    node_ids = set()
    for obj in objects:
        kind = _NODE_TYPES.get(obj["type"])
        if kind and obj.get("name") and not obj.get("revoked"):
            census[kind] += 1
            node_ids.add(obj["id"])
    platforms = {(obj["id"], p) for obj in objects if obj["type"] == "attack-pattern"
                 for p in obj.get("x_mitre_platforms", ())}
    census["asset"] = len({p for _, p in platforms})
    relations = {(obj["source_ref"], obj["relationship_type"], obj["target_ref"])
                 for obj in objects if obj["type"] == "relationship"
                 and obj["source_ref"] in node_ids and obj["target_ref"] in node_ids}
    containment = {(obj["id"], obj["x_mitre_data_source_ref"]) for obj in objects
                   if obj["type"] == "x-mitre-data-component"
                   and obj.get("x_mitre_data_source_ref") in node_ids}
    census["nodes"] = sum(census.values())
    census["edges"] = 2 * (len(relations) + len(containment) + len(platforms))
    return census


def printed_census(stdout: str) -> dict[str, int]:
    """The ``kind<TAB>count`` lines ``titan ingest`` prints."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        if value.isdigit():
            out[key] = int(value)
    return out


def missing_reverses(graph, registry) -> int:
    """Edges whose registry reverse is absent or whose target kind is wrong."""
    edges = set(graph.all_edges())
    bad = 0
    for src, rel, dst in edges:
        try:
            signature = registry.signature_of(graph.node(src).kind, rel)
        except NoSuchSignature:
            bad += 1
            continue
        if (signature.target_kind is not graph.node(dst).kind
                or (dst, signature.inverse_name, src) not in edges):
            bad += 1
    return bad


def _norm(text: str) -> str:
    return " ".join(text.casefold().split())


class Oracle:
    """Brute-force answers over a graph's raw node and edge tables."""

    def __init__(self, graph, registry):
        self._registry = registry
        self.nodes, edges = tables_from_graph(graph)
        self._by_rel: dict[str, list] = {}
        for edge in edges:
            self._by_rel.setdefault(edge[1], []).append(edge)
        self._by_name: dict[str, set[str]] = {}
        for nid, node in self.nodes.items():
            for name in (node["name"], *node["aliases"]):
                self._by_name.setdefault(_norm(name), set()).add(nid)
        # Answers already derived, by steps and start set: an indexed ask
        # returns its sample's path and start nodes, so it is derived once.
        self._derived: dict[tuple, tuple[str, ...]] = {}

    def answer_names(self, program, start_ids) -> tuple[str, ...]:
        """Answer names in (kind, name, id) order, deduplicated."""
        steps = steps_from_program(program)
        seeded = bool(steps) and steps[0][0] == "seed"
        key = (repr(steps), None if seeded else frozenset(start_ids or ()))
        if key in self._derived:
            return self._derived[key]
        # The oracle keeps only edges of the step's relation, so handing it
        # just the program's relations gives the same answers, faster.
        edges = [e for rel in {s[1] for s in steps if s[0] == "rel"}
                 for e in self._by_rel.get(rel, ())]
        ids = brute_execute(self.nodes, edges, steps, start_ids)
        ordered = sorted(ids, key=lambda nid: (self.nodes[nid]["kind"],
                                               self.nodes[nid]["name"].casefold(), nid))
        names = tuple(dict.fromkeys(self.nodes[nid]["name"] for nid in ordered))
        self._derived[key] = names
        return names

    def sample_agrees(self, sample) -> bool:
        """A generated sample's answers re-derive from its path and start names."""
        program = parse_path(sample.path, self._registry)
        start = None
        if sample.start_entities:
            start = set().union(*(self._by_name.get(_norm(n), set())
                                  for n in sample.start_entities))
        return self.answer_names(program, start) == sample.answers


def oracle_disagreements(snapshot_text: str, sample_lines: list[str],
                         asks: list[tuple]) -> tuple[list[str], list]:
    """The questions of the dataset lines, and the keys of the asks, whose
    answers the oracle does not re-derive.  An ask is ``(key, program, start
    node ids, answer names)``."""
    oracle = Oracle(KnowledgeGraph.load_snapshot(snapshot_text), build_default_registry())
    samples = (Sample.from_json(line) for line in sample_lines)
    return ([s.question for s in samples if not oracle.sample_agrees(s)],
            [key for key, program, start, names in asks
             if oracle.answer_names(program, start) != names])
