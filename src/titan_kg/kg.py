"""STIX bundle ingestion and the immutable typed knowledge graph.

Every edge is typed by a registry signature and kept together with its
registry reverse.  Ingest and the snapshot give the graph each edge once,
in its forward direction, and the graph checks its type and derives the
reverse itself.  The graph synthesizes asset nodes from the platform lists
on attack patterns, and indexes nodes by kind and by folded name/alias
(:func:`fold`) for entity linking.

Export/import uses a line-oriented snapshot format (see docs/formats.md)
that writes the forward edges only, and whose byte output is
deterministic, which is what the determinism tests pin against.
"""

from __future__ import annotations

import json
import logging
import re
import string
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedBundle, UnknownSignature
from .ontology import KIND_BY_TOKEN, EntityKind, RelationRegistry, build_default_registry

logger = logging.getLogger(__name__)

SNAPSHOT_HEADER = "TITAN-SNAPSHOT\t2"

STIX_TYPE_TO_KIND: dict[str, EntityKind] = {
    "attack-pattern": EntityKind.ATTACK_PATTERN,
    "course-of-action": EntityKind.COURSE_OF_ACTION,
    "malware": EntityKind.MALWARE,
    "tool": EntityKind.TOOL,
    "campaign": EntityKind.CAMPAIGN,
    "intrusion-set": EntityKind.INTRUSION_SET,
    "x-mitre-data-component": EntityKind.DATA_COMPONENT,
    "x-mitre-data-source": EntityKind.DATA_SOURCE,
}

# Adjectives/markers that yield a country tag when found, as whole words,
# in a description or an alias; filters like "Russia" need something to
# match on nodes whose name carries no geography.
_COUNTRY_MARKERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("russia", ("russia", "russian")),
    ("china", ("china", "chinese")),
    ("iran", ("iran", "iranian")),
    ("north korea", ("north korea", "north korean", "dprk")),
    ("south korea", ("south korea", "south korean")),
    ("india", ("india", "indian")),
    ("pakistan", ("pakistan", "pakistani")),
    ("vietnam", ("vietnam", "vietnamese")),
    ("turkey", ("turkey", "turkish")),
    ("ukraine", ("ukraine", "ukrainian")),
    ("belarus", ("belarus", "belarusian")),
    ("israel", ("israel", "israeli")),
    ("united states", ("united states", "u.s.")),
)
_COUNTRY_OF = {m: tag for tag, markers in _COUNTRY_MARKERS for m in markers}
_COUNTRY_RE = re.compile(r"(?<!\w)({})(?!\w)".format(
    "|".join(map(re.escape, sorted(_COUNTRY_OF, key=len, reverse=True)))))


class RawStixObject(NamedTuple):
    """The slice of a STIX object this package cares about.  A relationship
    keeps only its type, id, endpoints, verb and flags; the rest is empty."""

    type: str
    id: str
    name: str = ""
    description: str = ""
    aliases: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()
    platforms: tuple[str, ...] = ()
    revoked: bool = False
    deprecated: bool = False
    source_ref: str = ""
    target_ref: str = ""
    relationship_type: str = ""
    data_source_ref: str = ""


class Node(NamedTuple):
    """One graph entity: an immutable record with no per-instance dict."""

    id: str
    name: str
    kind: EntityKind
    aliases: tuple[str, ...] = ()
    description: str = ""
    tags: tuple[str, ...] = ()

    @property
    def sort_key(self) -> tuple[EntityKind, str, str]:
        # A str enum member sorts as its token, without the slow ``.value``.
        return (self.kind, self.name.casefold(), self.id)


class Census(dict):
    """The table ``titan`` prints: count per kind token, then ``nodes`` and
    ``edges``, which also read as ``total_nodes`` and ``total_edges``."""

    total_nodes = property(lambda self: self["nodes"])
    total_edges = property(lambda self: self["edges"])


@dataclass(frozen=True)
class EntityMention:
    """One linked span of a question; ``find_by_name(text)`` is not empty."""

    text: str
    start: int
    end: int


def _as_str_tuple(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        return ()
    return tuple(v for v in value if isinstance(v, str) and v)


def parse_stix_bundle(text: str) -> list[RawStixObject]:
    """Parse a STIX 2.x bundle document into raw objects.

    Accepts the usual ``{"type": "bundle", "objects": [...]}`` document or
    a bare top-level object list.  A relationship keeps only what
    :func:`build_graph` reads of it (see :class:`RawStixObject`).  Raises
    :class:`MalformedBundle` with position information for unusable input.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedBundle(
            f"bundle is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc

    if isinstance(doc, dict) and isinstance(doc.get("objects"), list):
        items = doc["objects"]
    elif isinstance(doc, list):
        items = doc
    else:
        raise MalformedBundle("bundle has no top-level object list")

    objects = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise MalformedBundle(f"object #{i} is not a JSON object")
        obj_type = item.get("type")
        obj_id = item.get("id")
        if not isinstance(obj_type, str) or not isinstance(obj_id, str) or not obj_id:
            raise MalformedBundle(f"object #{i} lacks a usable type/id")
        if "\t" in obj_id or "\n" in obj_id or "\r" in obj_id:  # the snapshot's framing
            raise MalformedBundle(f"object #{i} id {obj_id!r} holds a tab or line break")
        get = item.get
        # Positional, in field order: with keywords the call takes about
        # three times as long.
        if obj_type == "relationship":  # most of a bundle: keep only what build_graph reads
            objects.append(RawStixObject(
                obj_type, obj_id, "", "", (), (), (), bool(get("revoked", False)),
                bool(get("x_mitre_deprecated", False)), str(get("source_ref") or ""),
                str(get("target_ref") or ""), str(get("relationship_type") or "")))
            continue
        aliases = _as_str_tuple(get("aliases")) + _as_str_tuple(get("x_mitre_aliases"))
        objects.append(RawStixObject(
            obj_type,
            obj_id,
            str(get("name") or ""),
            str(get("description") or ""),
            tuple(dict.fromkeys(aliases)) if aliases else (),
            _as_str_tuple(get("labels")) + _as_str_tuple(get("malware_types")),
            _as_str_tuple(get("x_mitre_platforms")),
            bool(get("revoked", False)),
            bool(get("x_mitre_deprecated", False)),
            str(get("source_ref") or ""),
            str(get("target_ref") or ""),
            str(get("relationship_type") or ""),
            str(get("x_mitre_data_source_ref") or ""),
        ))
    return objects


def fold(text: str) -> str:
    """The one rule by which outside text meets node text: casefold, then
    collapse whitespace runs to single spaces and strip the ends."""
    return " ".join(text.casefold().split())


_raw_decode = json.JSONDecoder().raw_decode


def _decode_field(text: str):
    """The one JSON value of a snapshot value field padded by spaces or "\r"
    (the only JSON whitespace a field can hold), as ``json.loads`` reads it."""
    text = text.strip(" \r")
    value, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def _country_tags(*fields: str) -> set[str]:
    """Tags whose markers occur as whole words in a folded field."""
    return {_COUNTRY_OF[m] for field in fields for m in _COUNTRY_RE.findall(fold(field))}


@lru_cache(maxsize=256)
def _asset_id(platform: str) -> str:
    """The platform's asset id; empty when it holds no ASCII letter or digit."""
    slug = re.sub(r"[^a-z0-9]+", "-", platform.lower()).strip("-")
    return f"asset--{slug}" if slug else ""


class KnowledgeGraph:
    """Immutable typed multigraph of CTI entities.

    Ranks number the nodes in (kind, name, id) order, and ``nodes_by_rank``
    is the one node table: each kind's nodes are one run of ranks in it.
    The one edge store is ``_adjacency``: relation -> source rank -> the
    ascending distinct target ranks, holding a run only for a source with
    at least one edge of that relation.  The edge list, its count and the
    snapshot are derived from it in (source id, relation, target id) order,
    so graphs built from the same nodes and edges, in any order and with
    repeats, export byte-identical snapshots.

    Given a ``registry``, ``edges`` are forward edges: each must be typed by
    the registry's forward signature from its source's kind and end at that
    signature's target kind, or a ``ValueError`` names it, and the graph
    derives its reverse.  Without one, ``edges`` are every directed edge,
    taken as given and unchecked, as in a hand-built graph.  The snapshot
    holds the runs of that registry's (or the default's) forward relations.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[str, str, str]],
                 skipped: tuple[str, ...] = (), registry: RelationRegistry | None = None):
        self.skipped = skipped
        # The keys end in the id, so only nodes that share an id sort as equals.
        by_rank = self.nodes_by_rank = tuple(sorted(nodes, key=Node.sort_key.fget))
        self._order: tuple[str, ...] = tuple(node.id for node in by_rank)
        # Walking the nodes in rank order keeps every index sorted.
        rank: dict[str, int] = {}
        by_name: dict[str, list[str]] = {}
        for i, node in enumerate(by_rank):
            if rank.setdefault(node.id, i) != i:
                raise ValueError(f"duplicate node id {node.id!r}")
            if not (name := fold(node.name)):
                raise ValueError(f"node {node.id!r} has an empty name")
            # Most nodes have no aliases, and so one key: no set to build.
            for key in {name, *map(fold, node.aliases)} if node.aliases else (name,):
                if key:
                    by_name.setdefault(key, []).append(node.id)
        self._rank = rank
        # The kind leads the key, so each kind's nodes are one run of ranks.
        kind_of = attrgetter("kind")
        kinds = {kind: range(bisect_left(by_rank, kind, key=kind_of),
                             bisect_right(by_rank, kind, key=kind_of)) for kind in EntityKind}
        self._kind_ranks = {kind: tuple(run) for kind, run in kinds.items()}
        self._by_kind = {kind: self._order[run.start:run.stop] for kind, run in kinds.items()}
        # One pass gathers each (relation, source) run's targets in the order
        # they come.  Then each run is sorted once and its repeats dropped.
        gathered = defaultdict(lambda: defaultdict(list))  # relation -> source rank -> targets
        for src, rel, dst in edges:
            try:
                gathered[rel][rank[src]].append(rank[dst])
            except KeyError:
                raise ValueError(f"edge ({src}, {rel}, {dst}) references a missing node") from None
        adjacency: dict[str, dict[int, tuple[int, ...]]] = {
            rel: {source: tuple(sorted(set(targets))) for source, targets in runs.items()}
            for rel, runs in gathered.items()}
        if registry is not None:
            adjacency.update(self._reverses(adjacency, kinds, registry))
        self._adjacency = adjacency
        self._forward_names = (registry or build_default_registry()).forward_names
        self._edge_count = sum(len(run) for runs in self._adjacency.values()
                               for run in runs.values())
        self._name_index: dict[str, tuple[str, ...]] = {
            key: tuple(ids) for key, ids in by_name.items()}
        heads: dict[str, int] = {}  # first word of a key -> the most words of any key it starts
        for words in map(str.split, self._name_index):
            if heads.get(words[0], 0) < len(words):
                heads[words[0]] = len(words)
        self._name_heads = heads

    def _reverses(self, forward: dict[str, dict[int, tuple[int, ...]]],
                  kinds: dict[EntityKind, range], registry: RelationRegistry):
        """The reverse runs of the ``forward`` runs, each checked first.

        Each kind is one run of ranks, so a source's kind is the run its
        rank falls in, and a run of ascending targets ends in one kind when
        its first and last target do.  The sources are walked in ascending
        rank, so each reverse run is filled ascending and distinct.
        """
        if not registry.forward_names.isdisjoint(registry.reverse_names):
            raise ValueError("a registry whose forward and reverse names overlap "
                             "cannot tell an edge's direction")
        order = self._order
        reverses = defaultdict(lambda: defaultdict(list))  # relation -> target rank -> sources
        for rel, runs in forward.items():
            sources = sorted(runs)
            for kind, ranks in kinds.items():
                lo, hi = bisect_left(sources, ranks.start), bisect_left(sources, ranks.stop)
                if lo == hi:
                    continue
                if (sig := registry.forward(kind, rel)) is None:
                    why = (f"{rel!r} is a reverse relation" if rel in registry.reverse_names
                           else f"no forward relation {rel!r} from kind {kind.value!r}")
                    source = sources[lo]
                    raise ValueError(f"edge ({order[source]}, {rel}, "
                                     f"{order[runs[source][0]]}): {why}")
                targets, reverse = kinds[sig.target_kind], reverses[sig.inverse_name]
                for source in sources[lo:hi]:
                    run = runs[source]
                    if run[0] not in targets or run[-1] not in targets:
                        target = next(t for t in run if t not in targets)
                        raise ValueError(
                            f"edge ({order[source]}, {rel}, {order[target]}): {rel!r} from "
                            f"kind {kind.value!r} ends at kind {sig.target_kind.value!r}, "
                            f"not {self.nodes_by_rank[target].kind.value!r}")
                    for target in run:
                        reverse[target].append(source)
        return {rel: {target: tuple(sources) for target, sources in runs.items()}
                for rel, runs in reverses.items()}

    # --- lookups ---

    def node(self, node_id: str) -> Node:
        return self.nodes_by_rank[self._rank[node_id]]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._rank

    def nodes_of_kind(self, kind: EntityKind) -> tuple[str, ...]:
        return self._by_kind[kind]

    def kind_ranks(self, kind: EntityKind) -> tuple[int, ...]:
        return self._kind_ranks[kind]

    def ranks(self, ids: Iterable[str]) -> tuple[int, ...]:
        """The rank of each id, in the order given."""
        return tuple(map(self._rank.__getitem__, ids))

    def ids(self, ranks: Iterable[int]) -> tuple[str, ...]:
        """The id at each rank, in the order given."""
        return tuple(map(self._order.__getitem__, ranks))

    def successor_ranks(self, ranks: Iterable[int], rel: str) -> tuple[int, ...]:
        """Distinct targets of ``rel`` edges from ``ranks``, ascending."""
        if not (runs := self._adjacency.get(rel)):
            return ()
        # Only a source with a ``rel`` edge has a run: look up only those.
        return tuple(sorted(set().union(*map(runs.__getitem__, filter(runs.__contains__, ranks)))))

    def find_by_name(self, name: str) -> tuple[str, ...]:
        """Node ids whose name or alias equals ``name`` under :func:`fold`."""
        return self._name_index.get(fold(name), ())

    def _id_runs(self, rels: Iterable[str]) -> Iterator[tuple[str, str, list[str]]]:
        """(source id, relation, ascending target ids) of every run of the
        relations ``rels``, in (source id, relation) order: the sources in id
        order, and each source's runs in relation-name order."""
        order, adjacency = self._order, self._adjacency
        for src, rel, run in sorted((order[source], rel, run) for rel in rels
                                    for source, run in adjacency.get(rel, {}).items()):
            yield src, rel, sorted(map(order.__getitem__, run))

    def all_edges(self) -> Iterator[tuple[str, str, str]]:
        """Every directed edge, in (source id, relation, target id) order."""
        return ((src, rel, dst) for src, rel, dsts in self._id_runs(self._adjacency)
                for dst in dsts)

    @property
    def node_count(self) -> int:
        return len(self.nodes_by_rank)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def sort_ids(self, ids: Iterable[str]) -> tuple[str, ...]:
        """Distinct ids in (kind, name, id) order."""
        return self.ids(sorted(set(self.ranks(ids))))

    # --- snapshot interface ---

    def export_snapshot(self) -> str:
        # What json.dumps(ensure_ascii=False) writes for a string; arrays are
        # joined as it writes a list of strings.
        quote = json.encoder.encode_basestring
        lines = [SNAPSHOT_HEADER]
        for n in self.nodes_by_rank:
            lines.append(f"NODE\t{n.id}\t{n.kind.value}\t{quote(n.name)}"
                         f"\t[{', '.join(map(quote, n.aliases))}]"
                         f"\t[{', '.join(map(quote, n.tags))}]\t{quote(n.description)}")
        # One chunk of lines per forward run, each line led by the run's
        # prefix; a load derives the reverse runs.
        lines.extend(f"EDGE\t{src}\t{rel}\t" + f"\nEDGE\t{src}\t{rel}\t".join(dsts)
                     for src, rel, dsts in self._id_runs(self._forward_names))
        return "\n".join(lines) + "\n"

    @classmethod
    def load_snapshot(cls, text: str) -> "KnowledgeGraph":
        """The graph a snapshot holds, its forward edges checked against the
        default registry; :class:`MalformedBundle` names a bad line or edge."""
        # Records end at "\n" only (a "\r" before it is dropped): JSON leaves
        # U+0085, U+2028 and U+2029 unescaped, and str.splitlines breaks there.
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        lines = text.split("\n")
        if lines[0] != SNAPSHOT_HEADER:
            if lines[0] == "TITAN-SNAPSHOT\t1":  # it wrote both directions of each edge
                raise MalformedBundle("snapshot line 1: a version-1 snapshot is no longer read; "
                                      "re-run titan ingest to write this version")
            raise MalformedBundle("not a graph snapshot (bad header line)")
        nodes: list[Node] = []
        edge_lines: list[str] = []
        for lineno, line in enumerate(lines[1:], 2):
            if line.startswith("EDGE\t") and line.count("\t") == 3:
                edge_lines.append(line)
                continue
            parts = line.split("\t")
            try:
                if parts[0] == "NODE" and len(parts) == 7:
                    _, nid, kind, name, aliases, tags, desc = parts
                    name, aliases, tags, desc = (_decode_field(name), _decode_field(aliases),
                                                 _decode_field(tags), _decode_field(desc))
                    if not (isinstance(name, str) and isinstance(desc, str)
                            and isinstance(aliases, list) and isinstance(tags, list)
                            and set(map(type, aliases + tags)) <= {str}):
                        raise ValueError("name and description must be strings, "
                                         "aliases and tags lists of strings")
                    # Positional, in field order: keyword arguments cost more.
                    nodes.append(Node(nid, name, KIND_BY_TOKEN[kind],
                                      tuple(aliases), desc, tuple(tags)))
                elif line.strip():
                    raise ValueError("unrecognized record")
            except (ValueError, KeyError) as exc:
                raise MalformedBundle(f"snapshot line {lineno}: {exc}") from exc
        # Every EDGE line holds four fields, so one split of them all reads
        # (EDGE, src, rel, dst) at each fourth field: no tuple per edge.  The
        # lines go before the graph is built, which lowers the load's peak.
        fields = "\t".join(edge_lines).split("\t")
        del lines, edge_lines
        try:
            return cls(nodes, zip(fields[1::4], fields[2::4], fields[3::4]),
                       registry=build_default_registry())
        except ValueError as exc:
            raise MalformedBundle(f"snapshot: {exc}") from exc


def build_graph(
    objects: Iterable[RawStixObject],
    registry: RelationRegistry | None = None,
    *,
    drop_revoked: bool = True,
    lenient: bool = True,
) -> KnowledgeGraph:
    """Assemble the typed bidirectional graph from raw STIX objects.

    Every edge (a relationship, a data component's containment in its data
    source, a technique's platform asset) is typed by the registry
    signature for its source kind, verb and target kind (``uses`` toward a
    malware node is ``uses_malware``), and goes to the graph in its forward
    direction, from which the graph derives the reverse.  An edge that fits
    no signature is collected into ``graph.skipped`` when ``lenient``, and
    raises :class:`UnknownSignature` otherwise.  ``drop_revoked`` leaves out revoked and deprecated objects,
    relationships included, without a skip reason.
    """
    registry = registry or build_default_registry()

    nodes: dict[str, Node] = {}
    kinds: dict[str, EntityKind] = {}
    skipped: list[str] = []
    # The later passes read only these; they keep the bundle's order.
    relationships: list[RawStixObject] = []
    components: list[RawStixObject] = []
    techniques: list[RawStixObject] = []
    for obj in objects:
        if obj.type == "relationship":
            if not (drop_revoked and (obj.revoked or obj.deprecated)):
                relationships.append(obj)
            continue
        kind = STIX_TYPE_TO_KIND.get(obj.type)
        if kind is None:
            continue
        if kinds.setdefault(obj.id, kind) is not kind:
            raise MalformedBundle(f"id {obj.id!r} is used by objects of kinds "
                                  f"{kinds[obj.id].value!r} and {kind.value!r}", obj.id)
        if kind is EntityKind.DATA_COMPONENT:
            components.append(obj)
        elif kind is EntityKind.ATTACK_PATTERN:
            techniques.append(obj)
        if drop_revoked and (obj.revoked or obj.deprecated):
            continue
        if not obj.name.strip():  # what folds to nothing names no node
            skipped.append(f"node {obj.id}: empty name")
            continue
        tags = {fold(t) for t in (*obj.labels, *obj.platforms)}
        tags.update(_country_tags(obj.description, *obj.aliases))
        tags.discard("")
        nodes[obj.id] = Node(obj.id, obj.name, kind, obj.aliases, obj.description,
                             tuple(sorted(tags)))

    ends: list[str] = []  # each typed edge's (src, rel, dst), flat

    def reject(message: str) -> None:
        if lenient:
            skipped.append(message)
        else:
            raise UnknownSignature(message)

    def add_edge(origin: str, oid: str, src: Node, verb: str, dst: Node) -> None:
        """``src --verb--> dst``, typed by the registry and kept in its
        forward direction; ``origin`` and ``oid`` name the edge's object in
        a skip reason."""
        verb = verb.replace("-", "_")
        sig = registry.signature_for_verb(src.kind, verb, dst.kind)
        if sig is None:
            reject(f"{origin} {oid}: no signature for "
                   f"({src.kind.value}, {verb}, {dst.kind.value})")
            return
        if sig.name in registry.forward_names:
            ends.extend((src.id, sig.name, dst.id))
        else:  # a reverse verb, such as ``mitigates``
            ends.extend((dst.id, sig.inverse_name, src.id))

    for obj in relationships:
        if not obj.relationship_type:
            reject(f"relationship {obj.id}: missing relationship_type")
            continue
        src, dst = nodes.get(obj.source_ref), nodes.get(obj.target_ref)
        if src is None or dst is None:
            skipped.append(f"relationship {obj.id}: endpoint missing or dropped")
            continue
        add_edge("relationship", obj.id, src, obj.relationship_type, dst)

    # Data source -> data component containment.
    for obj in components:
        if obj.id not in nodes or not obj.data_source_ref:
            continue
        if obj.data_source_ref in nodes:
            add_edge("node", obj.id, nodes[obj.id], "provided_by", nodes[obj.data_source_ref])
        else:
            skipped.append(f"node {obj.id}: data source ref missing or dropped")

    # Assets synthesized from the platform lists on attack patterns; the
    # first spelling of a platform names its asset.
    for obj in techniques:
        if obj.id in nodes:
            for platform in obj.platforms:
                asset_id = _asset_id(platform)
                if not asset_id:
                    skipped.append(f"node {obj.id}: platform {platform!r} names no asset")
                    continue
                if asset_id not in nodes:
                    nodes[asset_id] = Node(asset_id, platform, EntityKind.ASSET,
                                           (), "", (fold(platform),))
                add_edge("node", obj.id, nodes[obj.id], "targets", nodes[asset_id])

    if skipped:
        logger.info("build_graph skipped %d edge(s)/object(s)", len(skipped))
    # The graph drops repeated edges itself.
    edges = zip(ends[0::3], ends[1::3], ends[2::3])
    return KnowledgeGraph(nodes.values(), edges, skipped=tuple(skipped), registry=registry)


def node_census(graph: KnowledgeGraph) -> Census:
    """Node count per kind, then the node and directed edge totals."""
    counts = ((kind.value, len(graph.nodes_of_kind(kind))) for kind in EntityKind)
    return Census(counts, nodes=graph.node_count, edges=graph.edge_count)


_WORD = re.compile(r"\S+")
_EDGE_PUNCT = string.punctuation + "“”‘’"


def link_entities(question: str, graph: KnowledgeGraph) -> list[EntityMention]:
    """Find graph entities mentioned in a question.

    Longest-match-first scan of the question against node names and
    aliases under :func:`fold`; a match consumes its words, so shorter
    overlapping matches are suppressed.  Mentions come back in span order.
    """
    tokens: list[tuple[int, int, int]] = []  # trimmed start and end, word end
    for m in _WORD.finditer(question):
        text = m.group()
        start = m.start() + (len(text) - len(text.lstrip(_EDGE_PUNCT)))
        end = m.end() - (len(text) - len(text.rstrip(_EDGE_PUNCT)))
        if start < end:
            tokens.append((start, end, m.end()))

    # casefold makes and removes no whitespace, so a span's first folded word
    # is its first token casefolded, whole if the span runs on, else trimmed;
    # and a span folds to at least as many words as it has tokens.
    mentions: list[EntityMention] = []
    i = 0
    while i < len(tokens):
        start, end, word_end = tokens[i]
        limit = max(graph._name_heads.get(question[start:word_end].casefold(), 0),
                    graph._name_heads.get(question[start:end].casefold(), 0))
        for j in range(min(len(tokens), i + limit), i, -1):
            span_text = question[start:tokens[j - 1][1]]
            if graph.find_by_name(span_text):
                mentions.append(EntityMention(span_text, start, tokens[j - 1][1]))
                i = j
                break
        else:
            i += 1
    return mentions
