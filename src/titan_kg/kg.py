"""STIX bundle ingestion and the immutable typed knowledge graph.

The graph keeps one forward and one reverse edge for every relationship
(the registry supplies the reverse name), synthesizes asset nodes from
the platform lists on attack patterns, and indexes nodes by kind and by
normalized name/alias for entity linking.

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
from typing import Iterable, Iterator

from .errors import MalformedBundle, NoSuchSignature, UnknownSignature
from .ontology import EntityKind, KIND_BY_TOKEN, RelationRegistry, build_default_registry

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

# Adjectives/markers that yield a country tag when found in descriptions
# or aliases; filters like "Russia" need something to match on nodes whose
# name carries no geography.
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


@dataclass(frozen=True)
class RawStixObject:
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


@dataclass(frozen=True)
class BuildOptions:
    drop_revoked: bool = True
    lenient: bool = True


@dataclass(frozen=True)
class Census:
    per_kind: dict[EntityKind, int]
    total_nodes: int
    total_edges: int


@dataclass(frozen=True)
class EntityMention:
    """One linked span of a question: the node ids whose name matched."""

    node_ids: tuple[str, ...]
    text: str
    start: int
    end: int


def _as_str_tuple(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        return ()
    return tuple(str(v) for v in value if isinstance(v, str) and v)


def parse_stix_bundle(data: bytes | str) -> list[RawStixObject]:
    """Parse a STIX 2.x bundle document into raw objects.

    Accepts the usual ``{"type": "bundle", "objects": [...]}`` document or
    a bare top-level object list.  Raises :class:`MalformedBundle` with
    position information for unusable input.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedBundle(f"bundle is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
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
        aliases = _as_str_tuple(item.get("aliases")) + _as_str_tuple(item.get("x_mitre_aliases"))
        seen = set()
        deduped = tuple(a for a in aliases if not (a in seen or seen.add(a)))
        objects.append(RawStixObject(
            type=obj_type,
            id=obj_id,
            name=str(item.get("name") or ""),
            description=str(item.get("description") or ""),
            aliases=deduped,
            labels=_as_str_tuple(item.get("labels")) + _as_str_tuple(item.get("malware_types")),
            platforms=_as_str_tuple(item.get("x_mitre_platforms")),
            revoked=bool(item.get("revoked", False)),
            deprecated=bool(item.get("x_mitre_deprecated", False)),
            source_ref=str(item.get("source_ref") or ""),
            target_ref=str(item.get("target_ref") or ""),
            relationship_type=str(item.get("relationship_type") or ""),
            data_source_ref=str(item.get("x_mitre_data_source_ref") or ""),
        ))
    return objects


def _norm_name(text: str) -> str:
    return " ".join(text.casefold().split())


def _country_tags(text: str) -> list[str]:
    lowered = text.lower()
    return [tag for tag, markers in _COUNTRY_MARKERS
            if any(m in lowered for m in markers)]


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

        edge_set = set(edges)
        for src, rel, dst in edge_set:
            if src not in self._nodes or dst not in self._nodes:
                raise ValueError(f"edge ({src}, {rel}, {dst}) references a missing node")
        self._edges: tuple[tuple[str, str, str], ...] = tuple(sorted(edge_set))
        self.skipped = skipped

        # Every id's position in (kind, name, id) order; every id sort
        # keys on this rank.
        self._order: tuple[str, ...] = tuple(
            sorted(self._nodes, key=lambda nid: self._nodes[nid].sort_key))
        self._rank: dict[str, int] = {nid: i for i, nid in enumerate(self._order)}
        by_rank = self._rank.__getitem__
        out: dict[tuple[str, str], list[str]] = {}
        for src, rel, dst in self._edges:
            out.setdefault((src, rel), []).append(dst)
        self._out: dict[tuple[str, str], tuple[str, ...]] = {
            key: tuple(sorted(set(dsts), key=by_rank)) for key, dsts in out.items()
        }
        # Walking the nodes in rank order keeps both indexes sorted.
        by_kind: dict[EntityKind, list[str]] = {kind: [] for kind in EntityKind}
        by_name: dict[str, list[str]] = {}
        for nid in self._order:
            node = self._nodes[nid]
            by_kind[node.kind].append(nid)
            for key in {_norm_name(c) for c in (node.name, *node.aliases)}:
                if key:
                    by_name.setdefault(key, []).append(nid)
        self._by_kind: dict[EntityKind, tuple[str, ...]] = {
            kind: tuple(ids) for kind, ids in by_kind.items()}
        self._name_index: dict[str, tuple[str, ...]] = {
            key: tuple(ids) for key, ids in by_name.items()}
        self._max_name_words = max((len(k.split()) for k in self._name_index), default=1)

    # --- lookups ---

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes_of_kind(self, kind: EntityKind) -> tuple[str, ...]:
        return self._by_kind[kind]

    def out(self, node_id: str, rel: str) -> tuple[str, ...]:
        return self._out.get((node_id, rel), ())

    def find_by_name(self, name: str) -> tuple[str, ...]:
        """Node ids whose name or alias equals ``name`` (case-insensitive)."""
        return self._name_index.get(_norm_name(name), ())

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
        return tuple(sorted(set(ids), key=self._rank.__getitem__))

    # --- snapshot interface ---

    def export_snapshot(self) -> str:
        lines = [SNAPSHOT_HEADER]
        for nid in self._order:
            n = self._nodes[nid]
            lines.append("NODE\t{}\t{}\t{}\t{}\t{}\t{}".format(
                n.id, n.kind.value,
                json.dumps(n.name, ensure_ascii=False),
                json.dumps(list(n.aliases), ensure_ascii=False),
                json.dumps(list(n.tags), ensure_ascii=False),
                json.dumps(n.description, ensure_ascii=False),
            ))
        for src, rel, dst in self._edges:
            lines.append(f"EDGE\t{src}\t{rel}\t{dst}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load_snapshot(cls, text: str) -> "KnowledgeGraph":
        lines = text.splitlines()
        if not lines or lines[0] != SNAPSHOT_HEADER:
            raise MalformedBundle("not a graph snapshot (bad header line)")
        nodes: list[Node] = []
        edges: list[tuple[str, str, str]] = []
        for lineno, line in enumerate(lines[1:], 2):
            if not line.strip():
                continue
            parts = line.split("\t")
            try:
                if parts[0] == "NODE" and len(parts) == 7:
                    _, nid, kind, name, aliases, tags, desc = parts
                    nodes.append(Node(
                        id=nid, kind=KIND_BY_TOKEN[kind],
                        name=json.loads(name),
                        aliases=tuple(json.loads(aliases)),
                        tags=tuple(json.loads(tags)),
                        description=json.loads(desc),
                    ))
                elif parts[0] == "EDGE" and len(parts) == 4:
                    edges.append((parts[1], parts[2], parts[3]))
                else:
                    raise ValueError("unrecognized record")
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                raise MalformedBundle(f"snapshot line {lineno}: {exc}") from exc
        return cls(nodes, edges)


def build_graph(
    objects: Iterable[RawStixObject],
    registry: RelationRegistry | None = None,
    options: BuildOptions | None = None,
) -> KnowledgeGraph:
    """Assemble the typed bidirectional graph from raw STIX objects.

    Relationship verbs are rewritten to typed names (``uses`` toward a
    malware node becomes ``uses_malware``) and every accepted edge is
    paired with its registry reverse.  Relationships that fit no registry
    signature are collected into ``graph.skipped`` when lenient, and raise
    :class:`UnknownSignature` otherwise.
    """
    registry = registry or build_default_registry()
    options = options or BuildOptions()
    objects = list(objects)

    nodes: dict[str, Node] = {}
    skipped: list[str] = []
    for obj in objects:
        kind = STIX_TYPE_TO_KIND.get(obj.type)
        if kind is None:
            continue
        if options.drop_revoked and (obj.revoked or obj.deprecated):
            continue
        if not obj.name:
            skipped.append(f"node {obj.id}: empty name")
            continue
        tag_pool = [t.lower() for t in obj.labels]
        tag_pool += [p.lower() for p in obj.platforms]
        tag_pool += _country_tags(obj.description + " " + " ".join(obj.aliases))
        tags = tuple(sorted(set(t for t in tag_pool if t)))
        nodes[obj.id] = Node(
            id=obj.id, name=obj.name, kind=kind,
            aliases=obj.aliases, description=obj.description, tags=tags,
        )

    edges: set[tuple[str, str, str]] = set()

    def add_edge(src: str, rel: str, dst: str) -> None:
        inverse = registry.inverse_of(nodes[src].kind, rel)
        edges.add((src, rel, dst))
        edges.add((dst, inverse, src))

    def reject(message: str) -> None:
        if options.lenient:
            skipped.append(message)
        else:
            raise UnknownSignature(message)

    for obj in objects:
        if obj.type != "relationship":
            continue
        if not obj.relationship_type:
            reject(f"relationship {obj.id}: missing relationship_type")
            continue
        src, dst = nodes.get(obj.source_ref), nodes.get(obj.target_ref)
        if src is None or dst is None:
            skipped.append(f"relationship {obj.id}: endpoint missing or dropped")
            continue
        verb = obj.relationship_type.replace("-", "_")
        rel = f"{verb}_{dst.kind.slug}"
        try:
            sig = registry.signature_of(src.kind, rel)
        except NoSuchSignature:
            reject(f"relationship {obj.id}: no signature for "
                   f"({src.kind.value}, {verb}, {dst.kind.value})")
            continue
        if sig.target_kind is not dst.kind:
            reject(f"relationship {obj.id}: target kind mismatch for {rel}")
            continue
        add_edge(src.id, rel, dst.id)

    # Data source -> data component containment.
    for obj in objects:
        if obj.type != "x-mitre-data-component" or obj.id not in nodes:
            continue
        if not obj.data_source_ref:
            continue
        if obj.data_source_ref in nodes:
            add_edge(obj.id, "provided_by_data_source", obj.data_source_ref)
        else:
            skipped.append(f"node {obj.id}: data source ref missing or dropped")

    # Assets synthesized from the platform lists on attack patterns.
    platforms: dict[str, str] = {}
    for obj in objects:
        if obj.type != "attack-pattern" or obj.id not in nodes:
            continue
        for platform in obj.platforms:
            platforms.setdefault(_asset_id(platform), platform)
    for asset_id, platform in platforms.items():
        if asset_id not in nodes:
            nodes[asset_id] = Node(
                id=asset_id, name=platform, kind=EntityKind.ASSET,
                tags=(platform.lower(),),
            )
    for obj in objects:
        if obj.type != "attack-pattern" or obj.id not in nodes:
            continue
        for platform in obj.platforms:
            add_edge(obj.id, "targets_asset", _asset_id(platform))

    if skipped:
        logger.info("build_graph skipped %d relationship(s)/object(s)", len(skipped))
    return KnowledgeGraph(nodes.values(), edges, skipped=tuple(skipped))


def node_census(graph: KnowledgeGraph) -> Census:
    """Per-kind node counts plus directed edge total."""
    per_kind = {kind: len(graph.nodes_of_kind(kind)) for kind in EntityKind}
    return Census(per_kind=per_kind, total_nodes=graph.node_count,
                  total_edges=graph.edge_count)


_WORD = re.compile(r"\S+")
_EDGE_PUNCT = string.punctuation + "“”‘’"


def link_entities(question: str, graph: KnowledgeGraph) -> list[EntityMention]:
    """Find graph entities mentioned in a question.

    Case-insensitive longest-match-first scan of the question against node
    names and aliases; a match consumes its words, so shorter overlapping
    matches are suppressed.  Mentions come back in span order.
    """
    tokens: list[tuple[int, int]] = []
    for m in _WORD.finditer(question):
        text = m.group()
        start = m.start() + (len(text) - len(text.lstrip(_EDGE_PUNCT)))
        end = m.end() - (len(text) - len(text.rstrip(_EDGE_PUNCT)))
        if start < end:
            tokens.append((start, end))

    mentions: list[EntityMention] = []
    limit = min(graph._max_name_words, 10)
    i = 0
    while i < len(tokens):
        matched = False
        for j in range(min(len(tokens), i + limit), i, -1):
            span_text = question[tokens[i][0]:tokens[j - 1][1]]
            ids = graph.find_by_name(span_text)
            if ids:
                mentions.append(EntityMention(
                    node_ids=ids, text=span_text,
                    start=tokens[i][0], end=tokens[j - 1][1],
                ))
                i = j
                matched = True
                break
        if not matched:
            i += 1
    return mentions
