"""STIX bundle ingestion and the immutable typed knowledge graph.

Every edge is typed by a registry signature and kept together with its
registry reverse.  The graph synthesizes asset nodes from the platform
lists on attack patterns, and indexes nodes by kind and by folded
name/alias (:func:`fold`) for entity linking.

Export/import uses a line-oriented snapshot format (see docs/formats.md)
whose byte output is deterministic, which is what the determinism tests
pin against.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedBundle, UnknownSignature
from .ontology import KIND_BY_TOKEN, EntityKind, RelationRegistry, build_default_registry

logger = logging.getLogger(__name__)

SNAPSHOT_HEADER = "TITAN-SNAPSHOT\t1"

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
_COUNTRY_RANK = {tag: i for i, (tag, _) in enumerate(_COUNTRY_MARKERS)}


class RawStixObject(NamedTuple):
    """The slice of a STIX object this package cares about."""

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


@dataclass(frozen=True)
class Node:
    id: str
    name: str
    kind: EntityKind
    aliases: tuple[str, ...] = ()
    description: str = ""
    tags: tuple[str, ...] = ()

    @property
    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind.value, self.name.casefold(), self.id)


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
    a bare top-level object list.  Raises :class:`MalformedBundle` with
    position information for unusable input.
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
        get = item.get
        aliases = _as_str_tuple(get("aliases")) + _as_str_tuple(get("x_mitre_aliases"))
        # Positional, in field order: with keywords the call takes about
        # three times as long.
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


def _country_tags(*fields: str) -> list[str]:
    """Tags whose markers occur as whole words in a folded field, in the
    marker table's order."""
    found = {_COUNTRY_OF[m] for field in fields for m in _COUNTRY_RE.findall(fold(field))}
    return sorted(found, key=_COUNTRY_RANK.__getitem__)


@lru_cache(maxsize=256)
def _asset_id(platform: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", platform.lower()).strip("-")
    return f"asset--{slug}"


class KnowledgeGraph:
    """Immutable typed multigraph of CTI entities.

    Iteration orders are deterministic: nodes sort by (kind, name, id)
    and out-edge target lists are pre-sorted the same way, so repeated
    builds from the same input export byte-identical snapshots.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[str, str, str]],
                 skipped: tuple[str, ...] = ()):
        self._nodes: dict[str, Node] = {}
        for node in nodes:
            if node.id in self._nodes:
                raise ValueError(f"duplicate node id {node.id!r}")
            if not node.name:
                raise ValueError(f"node {node.id!r} has an empty name")
            self._nodes[node.id] = node

        # Sort, then drop duplicates: a snapshot's edges arrive sorted, which
        # Timsort passes in linear time; a set would hand it hash order.
        self._edges: tuple[tuple[str, str, str], ...] = tuple(dict.fromkeys(sorted(edges)))
        self.skipped = skipped

        # Every id's rank in (kind, name, id) order (the keys end in the
        # unique id, so they sort as they are); an id sort is an int sort.
        self._order: tuple[str, ...] = tuple(
            key[2] for key in sorted(node.sort_key for node in self._nodes.values()))
        rank = self._rank = {nid: i for i, nid in enumerate(self._order)}
        self.nodes_by_rank: tuple[Node, ...] = tuple(map(self._nodes.__getitem__, self._order))
        # relation -> source rank -> ascending target ranks.  The edges are
        # sorted, so the edges of one (source, relation) pair are one run.
        adjacency: dict[str, list] = {}
        runs: list[list[int]] = []
        last_src = last_rel = None
        try:
            for src, rel, dst in self._edges:
                if rel != last_rel or src != last_src:
                    last_src, last_rel = src, rel
                    targets = adjacency.get(rel) or adjacency.setdefault(rel, [()] * len(rank))
                    runs.append(run := [])
                    targets[rank[src]] = run
                run.append(rank[dst])
        except KeyError:
            src, rel, dst = next(e for e in self._edges if e[0] not in rank or e[2] not in rank)
            raise ValueError(f"edge ({src}, {rel}, {dst}) references a missing node") from None
        for run in runs:
            run.sort()
        self._adjacency = adjacency
        # Walking the nodes in rank order keeps every index sorted.
        by_kind: dict[EntityKind, list[int]] = {kind: [] for kind in EntityKind}
        by_name: dict[str, list[str]] = {}
        for i, node in enumerate(self.nodes_by_rank):
            by_kind[node.kind].append(i)
            # Most nodes have no aliases, and so one key: no set to build.
            for key in ({fold(c) for c in (node.name, *node.aliases)} if node.aliases
                        else (fold(node.name),)):
                if key:
                    by_name.setdefault(key, []).append(node.id)
        self._kind_ranks = {kind: tuple(ranks) for kind, ranks in by_kind.items()}
        self._by_kind = {kind: self.ids(ranks) for kind, ranks in by_kind.items()}
        self._name_index: dict[str, tuple[str, ...]] = {
            key: tuple(ids) for key, ids in by_name.items()}
        heads: dict[str, int] = {}  # first word of a key -> the most words of any key it starts
        for words in map(str.split, self._name_index):
            if heads.get(words[0], 0) < len(words):
                heads[words[0]] = len(words)
        self._name_heads = heads

    # --- lookups ---

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

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
        adjacency = self._adjacency.get(rel)
        return tuple(sorted(set().union(*map(adjacency.__getitem__, ranks)))) if adjacency else ()

    def find_by_name(self, name: str) -> tuple[str, ...]:
        """Node ids whose name or alias equals ``name`` under :func:`fold`."""
        return self._name_index.get(fold(name), ())

    def all_edges(self) -> Iterator[tuple[str, str, str]]:
        return iter(self._edges)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def sort_ids(self, ids: Iterable[str]) -> tuple[str, ...]:
        """Distinct ids in (kind, name, id) order."""
        return self.ids(sorted(set(self.ranks(ids))))

    # --- snapshot interface ---

    def export_snapshot(self) -> str:
        # One encoder for every string (json.dumps builds one per call);
        # arrays are joined as json.dumps writes a list of strings.
        quote = json.JSONEncoder(ensure_ascii=False).encode
        lines = [SNAPSHOT_HEADER]
        for nid in self._order:
            n = self._nodes[nid]
            lines.append(f"NODE\t{n.id}\t{n.kind.value}\t{quote(n.name)}"
                         f"\t[{', '.join(map(quote, n.aliases))}]"
                         f"\t[{', '.join(map(quote, n.tags))}]\t{quote(n.description)}")
        lines.extend(f"EDGE\t{src}\t{rel}\t{dst}" for src, rel, dst in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def load_snapshot(cls, text: str) -> "KnowledgeGraph":
        # Records end at "\n" only (a "\r" before it is dropped): JSON leaves
        # U+0085, U+2028 and U+2029 unescaped, and str.splitlines breaks there.
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        lines = text.split("\n")
        if lines[0] != SNAPSHOT_HEADER:
            raise MalformedBundle("not a graph snapshot (bad header line)")
        nodes: list[Node] = []
        edges: list[tuple[str, str, str]] = []
        for lineno, line in enumerate(lines[1:], 2):
            parts = line.split("\t")
            try:
                if parts[0] == "EDGE" and len(parts) == 4:
                    edges.append((parts[1], parts[2], parts[3]))
                elif parts[0] == "NODE" and len(parts) == 7:
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
        try:
            return cls(nodes, edges)
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
    malware node is ``uses_malware``), and is paired with that signature's
    reverse.  An edge that fits no signature is collected into
    ``graph.skipped`` when ``lenient``, and raises :class:`UnknownSignature`
    otherwise.  ``drop_revoked`` leaves out revoked and deprecated objects.
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
        if not obj.name:
            skipped.append(f"node {obj.id}: empty name")
            continue
        tags = {fold(t) for t in (*obj.labels, *obj.platforms)}
        tags.update(_country_tags(obj.description, *obj.aliases))
        tags.discard("")
        nodes[obj.id] = Node(
            id=obj.id, name=obj.name, kind=kind,
            aliases=obj.aliases, description=obj.description, tags=tuple(sorted(tags)),
        )

    edges: set[tuple[str, str, str]] = set()

    def reject(message: str) -> None:
        if lenient:
            skipped.append(message)
        else:
            raise UnknownSignature(message)

    def add_edge(what: str, src: Node, verb: str, dst: Node) -> None:
        """``src --verb--> dst`` and its reverse, typed by the registry;
        ``what`` names the edge's origin in a skip reason."""
        verb = verb.replace("-", "_")
        sig = registry.signature_for_verb(src.kind, verb, dst.kind)
        if sig is None:
            reject(f"{what}: no signature for ({src.kind.value}, {verb}, {dst.kind.value})")
            return
        edges.add((src.id, sig.name, dst.id))
        edges.add((dst.id, sig.inverse_name, src.id))

    for obj in relationships:
        if not obj.relationship_type:
            reject(f"relationship {obj.id}: missing relationship_type")
            continue
        src, dst = nodes.get(obj.source_ref), nodes.get(obj.target_ref)
        if src is None or dst is None:
            skipped.append(f"relationship {obj.id}: endpoint missing or dropped")
            continue
        add_edge(f"relationship {obj.id}", src, obj.relationship_type, dst)

    # Data source -> data component containment.
    for obj in components:
        if obj.id not in nodes or not obj.data_source_ref:
            continue
        if obj.data_source_ref in nodes:
            add_edge(f"node {obj.id}", nodes[obj.id], "provided_by", nodes[obj.data_source_ref])
        else:
            skipped.append(f"node {obj.id}: data source ref missing or dropped")

    # Assets synthesized from the platform lists on attack patterns; the
    # first spelling of a platform names its asset.
    for obj in techniques:
        if obj.id in nodes:
            for platform in obj.platforms:
                asset_id = _asset_id(platform)
                if asset_id not in nodes:
                    nodes[asset_id] = Node(id=asset_id, name=platform, kind=EntityKind.ASSET,
                                           tags=(fold(platform),))
                add_edge(f"node {obj.id}", nodes[obj.id], "targets", nodes[asset_id])

    if skipped:
        logger.info("build_graph skipped %d edge(s)/object(s)", len(skipped))
    return KnowledgeGraph(nodes.values(), edges, skipped=tuple(skipped))


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
