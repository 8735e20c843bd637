import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from titan_kg.errors import MalformedBundle, UnknownSignature
from titan_kg.kg import (
    KnowledgeGraph,
    Node,
    RawStixObject,
    build_graph,
    _country_tags,
    link_entities,
    node_census,
    parse_stix_bundle,
)
from titan_kg.ontology import EntityKind

from bruteforce import successors
from conftest import MISTYPED_TARGETS
from scalegen import build_scale_bundle

# Hand-enumerated census of tests/fixtures/fixture_bundle.json: the revoked
# malware drops; Windows and Linux assets are synthesized from platforms.
FIXTURE_CENSUS = {
    EntityKind.ATTACK_PATTERN: 4,
    EntityKind.COURSE_OF_ACTION: 2,
    EntityKind.MALWARE: 4,
    EntityKind.TOOL: 1,
    EntityKind.CAMPAIGN: 1,
    EntityKind.INTRUSION_SET: 2,
    EntityKind.DATA_COMPONENT: 3,
    EntityKind.DATA_SOURCE: 2,
    EntityKind.ASSET: 2,
}
FIXTURE_NODES = 21
FIXTURE_DIRECTED_EDGES = 68  # 34 forward relationships, each with a reverse
# SHA-256 of the snapshot ingest writes for build_scale_bundle(2024).
SCALE_SNAPSHOT_SHA256 = "76e74dfe036c9d7cd07fc38f03a2dd64ca5d2183153d67aa0d09e1cdcb77f161"


def test_parse_minimal_bundle():
    doc = json.dumps({"type": "bundle", "objects": [
        {"type": "malware", "id": "malware--x", "name": "Thing"}]})
    objects = parse_stix_bundle(doc)
    assert len(objects) == 1
    assert objects[0].type == "malware"
    assert objects[0].name == "Thing"


def test_parse_keeps_every_field_and_first_seen_alias_order():
    doc = json.dumps([
        {"type": "malware", "id": "malware--x", "name": "Thing", "description": "D",
         "aliases": ["B", "A", "", 7, "B"], "x_mitre_aliases": ["A", "C"],
         "labels": ["trojan"], "malware_types": ["backdoor"],
         "x_mitre_platforms": ["Linux", None], "revoked": 1, "x_mitre_deprecated": False,
         "x_mitre_data_source_ref": "x-mitre-data-source--y"},
        {"type": "relationship", "id": "relationship--x", "relationship_type": "uses",
         "source_ref": "malware--x", "target_ref": 5},
    ])
    assert parse_stix_bundle(doc) == [
        RawStixObject(type="malware", id="malware--x", name="Thing", description="D",
                      aliases=("B", "A", "C"), labels=("trojan", "backdoor"),
                      platforms=("Linux",), revoked=True,
                      data_source_ref="x-mitre-data-source--y"),
        RawStixObject(type="relationship", id="relationship--x", source_ref="malware--x",
                      target_ref="5", relationship_type="uses"),
    ]


def test_parse_relationship_object():
    doc = json.dumps({"type": "bundle", "objects": [
        {"type": "intrusion-set", "id": "intrusion-set--x", "name": "G"},
        {"type": "malware", "id": "malware--x", "name": "M"},
        {"type": "relationship", "id": "relationship--x",
         "relationship_type": "uses",
         "source_ref": "intrusion-set--x", "target_ref": "malware--x"},
    ]})
    objects = parse_stix_bundle(doc)
    rels = [o for o in objects if o.type == "relationship"]
    assert len(rels) == 1
    assert rels[0].relationship_type == "uses"


def test_truncated_document_is_malformed():
    with pytest.raises(MalformedBundle) as err:
        parse_stix_bundle('{"type": "bundle", "objects": [{"type": "malw')
    assert "line" in str(err.value)


def test_non_bundle_is_malformed():
    with pytest.raises(MalformedBundle):
        parse_stix_bundle('{"just": "an object"}')
    with pytest.raises(MalformedBundle):
        parse_stix_bundle('"a string"')


@pytest.mark.parametrize("data, message", [
    ('[{"type": "malware", "id": "malware--m"}, 7]', "object #1 is not a JSON object"),
], ids=["not-an-object"])
def test_bundle_error_message(data, message):
    with pytest.raises(MalformedBundle) as err:
        parse_stix_bundle(data)
    assert str(err.value).startswith(message)


def test_graph_rejects_node_with_empty_name():
    with pytest.raises(ValueError, match="^node 'malware--m' has an empty name$"):
        KnowledgeGraph([Node("malware--m", "", EntityKind.MALWARE)], [])


def test_object_without_id_is_malformed():
    with pytest.raises(MalformedBundle):
        parse_stix_bundle(json.dumps({"objects": [{"type": "malware"}]}))


def test_empty_object_list_builds_empty_graph(registry):
    graph = build_graph([], registry)
    census = node_census(graph)
    assert census == dict.fromkeys([*(kind.value for kind in EntityKind), "nodes", "edges"], 0)


def test_forward_and_reverse_edge_for_uses(registry):
    doc = json.dumps({"objects": [
        {"type": "intrusion-set", "id": "intrusion-set--g", "name": "G"},
        {"type": "malware", "id": "malware--m", "name": "M"},
        {"type": "relationship", "id": "relationship--r",
         "relationship_type": "uses",
         "source_ref": "intrusion-set--g", "target_ref": "malware--m"},
    ]})
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert successors(graph, ("intrusion-set--g",), "uses_malware") == ("malware--m",)
    assert successors(graph, ("malware--m",), "used_by_intrusion_set") == ("intrusion-set--g",)


def test_data_component_without_source_ref_keeps_node_without_edge(registry):
    doc = json.dumps({"objects": [
        {"type": "x-mitre-data-source", "id": "x-mitre-data-source--s", "name": "S"},
        {"type": "x-mitre-data-component", "id": "x-mitre-data-component--c", "name": "C"},
    ]})
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert graph.node("x-mitre-data-component--c").kind is EntityKind.DATA_COMPONENT
    assert graph.node_count == 2
    assert graph.edge_count == 0
    assert graph.skipped == ()


def test_platforms_become_assets(registry):
    doc = json.dumps({"objects": [
        {"type": "attack-pattern", "id": "attack-pattern--a", "name": "T",
         "x_mitre_platforms": ["Windows", "Linux"]},
    ]})
    graph = build_graph(parse_stix_bundle(doc), registry)
    census = node_census(graph)
    assert census["asset"] == 2
    targets = successors(graph, ("attack-pattern--a",), "targets_asset")
    assert len(targets) == 2
    for asset_id in targets:
        assert (successors(graph, (asset_id,), "targeted_by_attack_pattern")
                == ("attack-pattern--a",))


def test_fixture_census_matches_hand_count(fixture_graph):
    census = node_census(fixture_graph)
    assert list(census.items()) == [(kind.value, FIXTURE_CENSUS[kind]) for kind in EntityKind] + [
        ("nodes", FIXTURE_NODES), ("edges", FIXTURE_DIRECTED_EDGES)]
    assert (census.total_nodes, census.total_edges) == (FIXTURE_NODES, FIXTURE_DIRECTED_EDGES)
    assert FIXTURE_NODES == sum(FIXTURE_CENSUS.values())
    assert FIXTURE_DIRECTED_EDGES % 2 == 0


def test_fixture_skip_report(fixture_graph):
    assert len(fixture_graph.skipped) == 2
    assert any("related_to" in entry for entry in fixture_graph.skipped)
    assert any("endpoint missing" in entry for entry in fixture_graph.skipped)


def test_strict_mode_raises_on_unknown_signature(fixture_objects, registry):
    with pytest.raises(UnknownSignature):
        build_graph(fixture_objects, registry, lenient=False)


def test_keep_revoked_option(fixture_objects, registry):
    graph = build_graph(fixture_objects, registry, drop_revoked=False)
    census = node_census(graph)
    assert census["malware"] == 5


def test_bidirectionality_exhaustive(fixture_graph, registry):
    for src, rel, dst in fixture_graph.all_edges():
        inverse = registry.signature_of(fixture_graph.node(src).kind, rel).inverse_name
        assert src in successors(fixture_graph, (dst,), inverse), (src, rel, dst)


def test_typedness_exhaustive(fixture_graph, registry):
    for src, rel, dst in fixture_graph.all_edges():
        sig = registry.signature_of(fixture_graph.node(src).kind, rel)
        assert fixture_graph.node(dst).kind is sig.target_kind, (src, rel, dst)


def test_every_signature_appears_in_fixture(fixture_graph, registry):
    present = {(fixture_graph.node(src).kind, rel)
               for src, rel, _ in fixture_graph.all_edges()}
    expected = {(sig.source_kind, sig.name) for sig in registry.signatures}
    assert present == expected


def test_build_is_deterministic(fixture_objects, registry):
    first = build_graph(fixture_objects, registry).export_snapshot()
    second = build_graph(fixture_objects, registry).export_snapshot()
    assert first == second


def test_snapshot_round_trip(fixture_graph):
    snapshot = fixture_graph.export_snapshot()
    reloaded = KnowledgeGraph.load_snapshot(snapshot)
    assert reloaded.export_snapshot() == snapshot
    assert node_census(reloaded) == node_census(fixture_graph)
    assert list(reloaded.nodes_by_rank) == list(fixture_graph.nodes_by_rank)


@pytest.mark.parametrize("first", [
    {"type": "attack-pattern", "id": "x--1", "name": "T", "x_mitre_platforms": ["Linux"]},
    {"type": "x-mitre-data-component", "id": "x--1", "name": "C",
     "x_mitre_data_source_ref": "x-mitre-data-source--1"},
])
def test_id_reused_by_another_kind_is_rejected(first, registry):
    # Neither object may stand for the id: the malware kind has neither
    # targets_asset nor provided_by_data_source, and relationships to the
    # id would be typed against whichever object came last.
    doc = json.dumps([first, {"type": "malware", "id": "x--1", "name": "M"},
                      {"type": "x-mitre-data-source", "id": "x-mitre-data-source--1",
                       "name": "S"}])
    with pytest.raises(MalformedBundle, match="'x--1'"):
        build_graph(parse_stix_bundle(doc), registry)


def test_id_reused_by_a_revoked_object_of_another_kind_is_rejected(registry):
    doc = json.dumps([
        {"type": "intrusion-set", "id": "intrusion-set--1", "name": "G"},
        {"type": "attack-pattern", "id": "x--1", "name": "T", "revoked": True},
        {"type": "malware", "id": "x--1", "name": "M"},
        {"type": "relationship", "id": "relationship--1", "relationship_type": "uses",
         "source_ref": "intrusion-set--1", "target_ref": "x--1"}])
    with pytest.raises(MalformedBundle, match="'attack-pattern' and 'malware'"):
        build_graph(parse_stix_bundle(doc), registry)


def test_id_reused_by_the_same_kind_keeps_the_later_object(registry):
    doc = json.dumps([{"type": "malware", "id": "malware--1", "name": "Old"},
                      {"type": "malware", "id": "malware--1", "name": "New"}])
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert graph.node_count == 1
    assert graph.node("malware--1").name == "New"


def test_scale_snapshot_bytes_are_pinned(registry):
    snapshot = build_graph(parse_stix_bundle(build_scale_bundle(2024)), registry).export_snapshot()
    assert hashlib.sha256(snapshot.encode("utf-8")).hexdigest() == SCALE_SNAPSHOT_SHA256


def test_ingest_bytes_do_not_depend_on_hash_seed(tmp_path):
    import titan_kg
    src = str(Path(titan_kg.__file__).resolve().parents[1])
    bundle = tmp_path / "scale.json"
    bundle.write_text(build_scale_bundle(2024), "utf-8")
    digests = set()
    for hash_seed in ("1", "2", "3", "4"):
        out = tmp_path / f"scale-{hash_seed}.snap"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "titan_kg.cli", "ingest", str(bundle),
                        "--out", str(out)], env=env, capture_output=True, check=True, timeout=60)
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == {SCALE_SNAPSHOT_SHA256}


def test_snapshot_round_trip_with_unicode_line_separators():
    # JSON leaves U+0085, U+2028 and U+2029 unescaped; they must not end a record.
    nodes = [Node(id="malware--x", name="a\x85b", kind=EntityKind.MALWARE,
                  aliases=("c\u2029d",), description="e\u2028f"),
             Node(id="attack-pattern--y", name="T", kind=EntityKind.ATTACK_PATTERN)]
    edges = [("malware--x", "uses_attack_pattern", "attack-pattern--y"),
             ("attack-pattern--y", "used_by_malware", "malware--x")]
    snapshot = KnowledgeGraph(nodes, edges).export_snapshot()
    reloaded = KnowledgeGraph.load_snapshot(snapshot)
    assert reloaded.export_snapshot() == snapshot
    assert reloaded.node("malware--x") == nodes[0]


def test_snapshot_with_crlf_line_ends_loads(fixture_graph):
    snapshot = fixture_graph.export_snapshot()
    reloaded = KnowledgeGraph.load_snapshot(snapshot.replace("\n", "\r\n"))
    assert reloaded.export_snapshot() == snapshot


def test_snapshot_rejects_bad_header():
    with pytest.raises(MalformedBundle):
        KnowledgeGraph.load_snapshot("nonsense\n")


def test_snapshot_with_padded_value_fields_loads(fixture_graph):
    # A value field is one JSON value; spaces around it are JSON whitespace.
    snapshot = fixture_graph.export_snapshot()
    records = [line.split("\t") for line in snapshot.split("\n")]
    padded = "\n".join("\t".join(parts[:3] + [f" {field} " for field in parts[3:]])
                       if parts[0] == "NODE" else "\t".join(parts) for parts in records)
    assert padded != snapshot
    assert KnowledgeGraph.load_snapshot(padded).export_snapshot() == snapshot


def test_snapshot_rejects_two_values_in_one_field(fixture_graph):
    lines = fixture_graph.export_snapshot().split("\n")
    parts = lines[1].split("\t")
    assert parts[0] == "NODE"
    parts[3] = '"a" "b"'
    lines[1] = "\t".join(parts)
    with pytest.raises(MalformedBundle, match="^snapshot line 2: Extra data"):
        KnowledgeGraph.load_snapshot("\n".join(lines))


def test_country_tags_from_descriptions(fixture_graph):
    assert "russia" in fixture_graph.node("intrusion-set--0001").tags
    assert "iran" in fixture_graph.node("intrusion-set--0002").tags


def test_country_tags_are_whole_words_per_field():
    assert _country_tags("A loader that drops Piranha.") == []
    assert _country_tags("Targets firms in Indiana.") == []
    assert _country_tags("A crew based in the north", "Korea Team") == []
    assert _country_tags("united statesouth korea") == []
    assert _country_tags("pakistanindia") == []
    assert _country_tags("Works for the U.S. government.") == ["united states"]
    assert _country_tags("A North\n Korean crew", "Iranian") == ["iran", "north korea"]


def test_link_entities_single_name(fixture_graph):
    mentions = link_entities("Which techniques does Sys10 use?", fixture_graph)
    assert [m.text for m in mentions] == ["Sys10"]
    assert fixture_graph.find_by_name(mentions[0].text) == ("malware--0001",)


def test_link_entities_span_order_and_punctuation(fixture_graph):
    mentions = link_entities(
        "What techniques are used by Sys10 but not by MarkiRAT?", fixture_graph)
    assert [fixture_graph.find_by_name(m.text)[0] for m in mentions] == [
        "malware--0001", "malware--0002"]
    assert mentions[0].start < mentions[1].start


def test_link_entities_longest_match_wins(fixture_graph):
    mentions = link_entities(
        "Tell me about the Unitronics Defacement Campaign impact.", fixture_graph)
    assert [fixture_graph.find_by_name(m.text)[0] for m in mentions] == ["campaign--0001"]


def test_link_entities_alias_match(fixture_graph):
    mentions = link_entities("Is Voodoo Bear active?", fixture_graph)
    assert [fixture_graph.find_by_name(m.text)[0] for m in mentions] == ["intrusion-set--0001"]


def test_link_entities_no_match(fixture_graph):
    assert link_entities("Nothing relevant here at all.", fixture_graph) == []


def test_link_entities_has_no_word_cap():
    name = "Operation One Two Three Four Five Six Seven Eight Nine Ten Eleven"
    graph = KnowledgeGraph([Node("campaign--long", name, EntityKind.CAMPAIGN),
                            Node("campaign--short", "Operation One", EntityKind.CAMPAIGN)], ())
    mentions = link_entities(f"Who ran {name.upper()}?", graph)
    assert [(m.text, m.start) for m in mentions] == [(name.upper(), 8)]


def test_duplicate_names_link_to_all_matches(registry):
    doc = json.dumps({"objects": [
        {"type": "malware", "id": "malware--a", "name": "Twin"},
        {"type": "malware", "id": "malware--b", "name": "Twin"},
    ]})
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert graph.find_by_name("twin") == ("malware--a", "malware--b")
    mentions = link_entities("Does Twin use anything?", graph)
    assert graph.find_by_name(mentions[0].text) == ("malware--a", "malware--b")


def test_component_with_dangling_source_ref_is_reported(registry):
    doc = json.dumps({"objects": [
        {"type": "x-mitre-data-component", "id": "x-mitre-data-component--d",
         "name": "Orphan Signal", "x_mitre_data_source_ref": "x-mitre-data-source--gone"},
    ]})
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert graph.edge_count == 0
    assert any("data source ref" in entry for entry in graph.skipped)


@pytest.mark.parametrize("case", sorted(MISTYPED_TARGETS))
def test_edge_to_a_node_of_the_wrong_kind_is_skipped(case, registry):
    source, bundle = MISTYPED_TARGETS[case]
    malware = bundle[0]["id"]
    graph = build_graph(parse_stix_bundle(json.dumps(bundle)), registry)
    assert graph.edge_count == 0
    assert graph.node(malware).kind is EntityKind.MALWARE
    assert len(graph.skipped) == 1
    assert f"node {source}: no signature for" in graph.skipped[0]
    assert "malware)" in graph.skipped[0]
    with pytest.raises(UnknownSignature, match=source):
        build_graph(parse_stix_bundle(json.dumps(bundle)), registry, lenient=False)


def test_realistic_bundle_with_distractor_objects(registry):
    # Enterprise bundles carry object types this graph does not model plus
    # revoked-by bookkeeping; all of that must be ignored cleanly.
    doc = json.dumps({"type": "bundle", "objects": [
        {"type": "identity", "id": "identity--mitre", "name": "The MITRE Corporation"},
        {"type": "marking-definition", "id": "marking-definition--x"},
        {"type": "x-mitre-tactic", "id": "x-mitre-tactic--ta1", "name": "Execution"},
        {"type": "x-mitre-matrix", "id": "x-mitre-matrix--m", "name": "Enterprise"},
        {"type": "x-mitre-collection", "id": "x-mitre-collection--c", "name": "ATT&CK"},
        {"type": "note", "id": "note--n", "content": "irrelevant"},
        {"type": "attack-pattern", "id": "attack-pattern--old", "name": "Old Technique",
         "revoked": True},
        {"type": "attack-pattern", "id": "attack-pattern--new", "name": "New Technique",
         "x_mitre_platforms": ["Windows"]},
        {"type": "attack-pattern", "id": "attack-pattern--dep", "name": "Tired Technique",
         "x_mitre_deprecated": True},
        {"type": "malware", "id": "malware--m", "name": "M",
         "x_mitre_aliases": ["M", "EmEm"]},
        {"type": "relationship", "id": "relationship--1", "relationship_type": "uses",
         "source_ref": "malware--m", "target_ref": "attack-pattern--new"},
        {"type": "relationship", "id": "relationship--2",
         "relationship_type": "revoked-by",
         "source_ref": "attack-pattern--old", "target_ref": "attack-pattern--new"},
        {"type": "relationship", "id": "relationship--3", "relationship_type": "uses",
         "source_ref": "malware--m", "target_ref": "attack-pattern--old"},
    ]})
    graph = build_graph(parse_stix_bundle(doc), registry)
    census = node_census(graph)
    assert census["attack-pattern"] == 1
    assert census["malware"] == 1
    assert census["asset"] == 1
    assert census["nodes"] == 3
    assert successors(graph, ("malware--m",), "uses_attack_pattern") == ("attack-pattern--new",)
    # revoked-by and edges into dropped nodes land in the skip report
    assert len(graph.skipped) == 2


def test_sort_ids_matches_sort_key_order(fixture_graph):
    import random

    nodes = [Node(id=f"malware--{i}", name=name, kind=EntityKind.MALWARE)
             for i, name in enumerate(["beta", "Beta", "ALPHA", "alpha", "Gamma", "beta"])]
    nodes += [Node(id="tool--0", name="Alpha", kind=EntityKind.TOOL),
              Node(id="tool--1", name="alpha", kind=EntityKind.TOOL)]
    graph = KnowledgeGraph(nodes, [])
    for g in (graph, fixture_graph):
        ids = [nid for kind in EntityKind for nid in g.nodes_of_kind(kind)]
        shuffled = ids + ids[:3]
        random.Random(7).shuffle(shuffled)
        expected = tuple(sorted(set(ids), key=lambda n: g.node(n).sort_key))
        assert g.sort_ids(shuffled) == expected
    assert graph.sort_ids(["malware--1", "malware--0", "malware--5"]) == (
        "malware--0", "malware--1", "malware--5")


def test_snapshot_nodes_in_sort_key_order(fixture_graph):
    node_ids = [line.split("\t")[1] for line in fixture_graph.export_snapshot().splitlines()
                if line.startswith("NODE\t")]
    assert node_ids == sorted(node_ids, key=lambda n: fixture_graph.node(n).sort_key)
    assert len(node_ids) == FIXTURE_NODES
