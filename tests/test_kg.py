import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from titan_kg.cli import main
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
from titan_kg.ontology import EntityKind, RelationRegistry

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
# SHA-256 of the snapshot ingest writes for build_scale_bundle(2024), and of
# that graph in the version-1 form, which wrote both directions of each edge.
SCALE_SNAPSHOT_SHA256 = "6f3af32c3509ce68116761b714313ee746fb350146d93c0274d658103c531b3c"
SCALE_SNAPSHOT_V1_SHA256 = "76e74dfe036c9d7cd07fc38f03a2dd64ca5d2183153d67aa0d09e1cdcb77f161"
# SHA-256 of the dataset files `titan gen` writes, with its defaults, from
# that snapshot.
SCALE_DATASET_SHA256 = {
    "train.jsonl": "37018ef07d3a2d7cb252ddc7cf995e6e204f8f9104426315febbc2e7600b58c5",
    "test.jsonl": "c1bf4e3e20b76a365725e9adf0163fa00b7d3e8502e9bc14c3b5d2d7b76121ab",
}


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


def test_parse_relationship_keeps_only_endpoints_verb_and_flags():
    doc = json.dumps([
        {"type": "relationship", "id": "relationship--x", "relationship_type": "uses",
         "source_ref": "intrusion-set--x", "target_ref": "malware--x", "name": "N",
         "description": "D", "aliases": ["A"], "labels": ["L"], "x_mitre_platforms": ["Linux"],
         "x_mitre_data_source_ref": "x-mitre-data-source--y", "revoked": True,
         "x_mitre_deprecated": True},
    ])
    assert parse_stix_bundle(doc) == [
        RawStixObject(type="relationship", id="relationship--x", revoked=True,
                      deprecated=True, source_ref="intrusion-set--x",
                      target_ref="malware--x", relationship_type="uses"),
    ]


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


def test_graph_rejects_node_with_empty_name(registry):
    # A name of whitespace only folds to nothing, so it is empty too, and a
    # snapshot cannot bring one back.
    for name in ("", "   ", "\t\u3000"):
        with pytest.raises(ValueError, match="^node 'malware--m' has an empty name$"):
            KnowledgeGraph([Node("malware--m", name, EntityKind.MALWARE)], [])
    text = KnowledgeGraph([Node("malware--m", "M", EntityKind.MALWARE)], [],
                          registry=registry).export_snapshot()
    with pytest.raises(MalformedBundle, match="^snapshot: node 'malware--m' has an empty name$"):
        KnowledgeGraph.load_snapshot(text.replace('"M"', '" \\t "'))


def test_object_with_a_blank_name_is_skipped(registry):
    doc = json.dumps([{"type": "malware", "id": "malware--b", "name": " \t "},
                      {"type": "malware", "id": "malware--m", "name": "M"}])
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert graph.nodes_of_kind(EntityKind.MALWARE) == ("malware--m",)
    assert graph.skipped == ("node malware--b: empty name",)


@pytest.mark.parametrize("platform", ["  ", "!!", "日本"],
                         ids=["blank", "punctuation", "non-ascii"])
def test_platform_with_no_ascii_letter_or_digit_names_no_asset(platform, registry):
    doc = json.dumps([{"type": "attack-pattern", "id": "attack-pattern--a", "name": "T",
                       "x_mitre_platforms": [platform, "Windows"]},
                      {"type": "attack-pattern", "id": "attack-pattern--b", "name": "U",
                       "x_mitre_platforms": [platform]}])
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert graph.nodes_of_kind(EntityKind.ASSET) == ("asset--windows",)
    assert graph.skipped == tuple(
        f"node attack-pattern--{t}: platform {platform!r} names no asset" for t in "ab")
    assert successors(graph, ("attack-pattern--a",), "targets_asset") == ("asset--windows",)


@pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
def test_object_id_with_snapshot_framing_is_malformed(char):
    doc = json.dumps([{"type": "malware", "id": "malware--m", "name": "M"},
                      {"type": "tool", "id": f"tool--a{char}b", "name": "T"}])
    with pytest.raises(MalformedBundle, match=r"^object #1 id 'tool--a\\[tnr]b' holds a tab"):
        parse_stix_bundle(doc)


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


@pytest.mark.parametrize("flag", ["revoked", "x_mitre_deprecated"])
def test_revoked_or_deprecated_relationship_is_left_out(flag, registry):
    doc = json.dumps([
        {"type": "malware", "id": "malware--m", "name": "M"},
        {"type": "attack-pattern", "id": "attack-pattern--t", "name": "T"},
        {"type": "relationship", "id": "relationship--r", "relationship_type": "uses",
         "source_ref": "malware--m", "target_ref": "attack-pattern--t", flag: True},
    ])
    graph = build_graph(parse_stix_bundle(doc), registry)
    assert (graph.node_count, graph.edge_count, graph.skipped) == (2, 0, ())
    kept = build_graph(parse_stix_bundle(doc), registry, drop_revoked=False)
    assert (kept.edge_count, kept.skipped) == (2, ())
    assert successors(kept, ("malware--m",), "uses_attack_pattern") == ("attack-pattern--t",)


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


def test_scale_dataset_bytes_are_pinned(tmp_path, capsys):
    bundle, snapshot, out = tmp_path / "scale.json", tmp_path / "scale.snap", tmp_path / "ds"
    bundle.write_text(build_scale_bundle(2024), "utf-8")
    assert main(["ingest", str(bundle), "--out", str(snapshot)]) == 0
    assert main(["gen", "--snapshot", str(snapshot), "--out", str(out)]) == 0
    capsys.readouterr()
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SCALE_DATASET_SHA256} == SCALE_DATASET_SHA256


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


def test_snapshot_round_trip_with_unicode_line_separators(registry):
    # JSON leaves U+0085, U+2028 and U+2029 unescaped; they must not end a record.
    nodes = [Node(id="malware--x", name="a\x85b", kind=EntityKind.MALWARE,
                  aliases=("c\u2029d",), description="e\u2028f"),
             Node(id="attack-pattern--y", name="T", kind=EntityKind.ATTACK_PATTERN)]
    edges = [("malware--x", "uses_attack_pattern", "attack-pattern--y")]
    snapshot = KnowledgeGraph(nodes, edges, registry=registry).export_snapshot()
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
    assert _country_tags("A loader that drops Piranha.") == set()
    assert _country_tags("Targets firms in Indiana.") == set()
    assert _country_tags("A crew based in the north", "Korea Team") == set()
    assert _country_tags("united statesouth korea") == set()
    assert _country_tags("pakistanindia") == set()
    assert _country_tags("Works for the U.S. government.") == {"united states"}
    assert _country_tags("A North\n Korean crew", "Iranian") == {"iran", "north korea"}


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


# --- the edge store: one set of runs, whatever order the edges arrive in ---

def test_loaded_graph_keeps_no_per_edge_store(scale_graph):
    # A directed edge costs one target rank in its run, plus its share of the
    # nodes and indexes.  Measured with CPython 3.10-3.13: 156-172 B an edge
    # (188 B with the nodes as frozen dataclasses); a tuple per edge, even of
    # shared strings, takes it to 229-244 B, and the string triples of old
    # to 421-472 B.
    text = scale_graph.export_snapshot()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = KnowledgeGraph.load_snapshot(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.edge_count == scale_graph.edge_count == 2156
    assert retained / graph.edge_count < 210


def test_graph_from_a_one_shot_generator_of_shuffled_repeated_edges(scale_graph, registry):
    import random

    nodes = list(scale_graph.nodes_by_rank)
    edges = list(scale_graph.all_edges())
    assert edges == sorted(set(edges))
    rng = random.Random(5)
    messy = edges + rng.sample(edges, 500) + edges[:3] * 4
    rng.shuffle(messy)
    rng.shuffle(nodes)
    graph = KnowledgeGraph(iter(nodes), (edge for edge in messy))
    canonical = KnowledgeGraph(scale_graph.nodes_by_rank, edges)
    assert list(graph.all_edges()) == list(canonical.all_edges()) == edges
    assert graph.edge_count == canonical.edge_count == len(edges)
    for rel in sorted({sig.name for sig in registry.signatures}) + ["bogus_rel"]:
        for rank in range(graph.node_count):
            assert graph.successor_ranks((rank,), rel) == canonical.successor_ranks((rank,), rel)
    # The store itself holds each run ascending and distinct, and holds only
    # the non-empty runs.
    for rel, runs in graph._adjacency.items():
        assert runs == {rank: graph.successor_ranks((rank,), rel)
                        for rank in range(graph.node_count)
                        if graph.successor_ranks((rank,), rel)}


# --- the snapshot holds forward edges; the load types each one and derives its reverse ---

@pytest.mark.parametrize("edge, why", [
    (("attack-pattern--0001", "used_by_malware", "malware--0002"),
     "'used_by_malware' is a reverse relation"),
    (("asset--linux", "bogus_rel", "asset--windows"),
     "no forward relation 'bogus_rel' from kind 'asset'"),
    (("malware--0001", "uses_attack_pattern", "asset--windows"),
     "'uses_attack_pattern' from kind 'malware' ends at kind 'attack-pattern', not 'asset'"),
], ids=["reverse", "untyped", "wrong-target-kind"])
def test_snapshot_edge_not_typed_forward_is_named(fixture_graph, edge, why):
    text = fixture_graph.export_snapshot() + "EDGE\t" + "\t".join(edge) + "\n"
    message = f"snapshot: edge ({', '.join(edge)}): {why}"
    with pytest.raises(MalformedBundle, match=f"^{re.escape(message)}$"):
        KnowledgeGraph.load_snapshot(text)


def test_snapshot_forward_edge_loads_with_its_reverse(fixture_graph):
    edge = ("malware--0004", "uses_attack_pattern", "attack-pattern--0001")
    assert edge not in set(fixture_graph.all_edges())
    graph = KnowledgeGraph.load_snapshot(
        fixture_graph.export_snapshot() + "EDGE\t" + "\t".join(edge) + "\n")
    assert graph.edge_count == fixture_graph.edge_count + 2
    assert "attack-pattern--0001" in successors(graph, ("malware--0004",), "uses_attack_pattern")
    assert "malware--0004" in successors(graph, ("attack-pattern--0001",), "used_by_malware")


def test_registry_whose_forward_and_reverse_names_overlap_is_refused():
    # A relation that is its own reverse: a forward edge could not be told
    # from a derived one.
    with pytest.raises(ValueError, match="forward and reverse names overlap"):
        RelationRegistry([(EntityKind.MALWARE, "related_to_malware", EntityKind.MALWARE,
                           "related_to_malware")])


def _version_one(graph: KnowledgeGraph) -> str:
    """The graph as a version-1 snapshot wrote it: the NODE records, then
    every directed edge, each direction on its own line."""
    nodes = [line for line in graph.export_snapshot().split("\n") if line.startswith("NODE\t")]
    edges = ["EDGE\t" + "\t".join(edge) for edge in graph.all_edges()]
    return "\n".join(["TITAN-SNAPSHOT\t1", *nodes, *edges]) + "\n"


def test_version_one_snapshot_is_refused_in_one_line_naming_titan_ingest(fixture_graph):
    with pytest.raises(MalformedBundle) as err:
        KnowledgeGraph.load_snapshot(_version_one(fixture_graph))
    assert str(err.value) == ("snapshot line 1: a version-1 snapshot is no longer read; "
                              "re-run titan ingest to write this version")


def test_loaded_scale_graph_holds_the_version_one_content(registry):
    # The content the version-1 pin held, re-rendered from a load of today's
    # snapshot: the same nodes and every edge in both directions.
    snapshot = build_graph(parse_stix_bundle(build_scale_bundle(2024)), registry).export_snapshot()
    text = _version_one(KnowledgeGraph.load_snapshot(snapshot))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SCALE_SNAPSHOT_V1_SHA256


def test_checked_graph_from_shuffled_repeated_forward_edges(scale_graph, registry):
    import random

    edges = list(scale_graph.all_edges())
    forward = [edge for edge in edges if edge[1] in registry.forward_names]
    rng = random.Random(6)
    messy = forward + rng.sample(forward, 300) + forward[:3] * 4
    rng.shuffle(messy)
    graph = KnowledgeGraph(iter(scale_graph.nodes_by_rank), (edge for edge in messy),
                           registry=registry)
    assert list(graph.all_edges()) == edges
    assert graph.edge_count == len(edges) == 2 * len(forward)
    assert graph._adjacency == KnowledgeGraph(scale_graph.nodes_by_rank, edges)._adjacency
    assert graph.export_snapshot() == scale_graph.export_snapshot()


# A malware node that uses a technique, with the reverse edge.
TWO_NODES = (Node("malware--x", "X", EntityKind.MALWARE),
             Node("attack-pattern--y", "Y", EntityKind.ATTACK_PATTERN))
TWO_EDGES = (("malware--x", "uses_attack_pattern", "attack-pattern--y"),
             ("attack-pattern--y", "used_by_malware", "malware--x"))


@pytest.mark.parametrize("edge", [
    ("malware--x", "uses_attack_pattern", "attack-pattern--gone"),
    ("malware--gone", "uses_attack_pattern", "attack-pattern--y"),
], ids=["target", "source"])
def test_edge_to_a_missing_node_is_named(edge, registry):
    message = f"edge ({', '.join(edge)}) references a missing node"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KnowledgeGraph(TWO_NODES, (e for e in [TWO_EDGES[0], edge]), registry=registry)
    snapshot = (KnowledgeGraph(TWO_NODES, TWO_EDGES[:1], registry=registry).export_snapshot()
                + "EDGE\t" + "\t".join(edge) + "\n")
    with pytest.raises(MalformedBundle, match=f"^snapshot: {re.escape(message)}$"):
        KnowledgeGraph.load_snapshot(snapshot)


@pytest.mark.parametrize("edges", [TWO_EDGES, TWO_EDGES[:1], TWO_EDGES[1:]],
                         ids=["closed", "forward-only", "reverse-only"])
def test_graph_built_without_a_registry_has_no_snapshot(edges):
    # Without a registry the edges are taken as given and unchecked, so
    # nothing says that a load would give them back: export refuses.
    graph = KnowledgeGraph(TWO_NODES, edges)
    assert graph.edge_count == len(edges)
    with pytest.raises(ValueError, match="^a graph built without a registry has no snapshot$"):
        graph.export_snapshot()


@pytest.mark.parametrize("bad, lineno", [
    (["EDGE\ta\tb"], 5),
    (["EDGE\ta\tb\tc\td"], 5),
    (["EDGE"], 5),
    (["EDGE\tmalware--x\tuses_attack_pattern\tattack-pattern--y\tEDGE", "EDGE\ta\tb"], 5),
    (["EDGE\tmalware--x\tuses_attack_pattern", "EDGE\tattack-pattern--y\tx\ty\tz"], 5),
    (["", "EDGE\ta\tb\tc\t"], 6),
], ids=["three-fields", "five-fields", "bare", "five-then-three", "three-then-five",
        "trailing-tab"])
def test_edge_record_with_a_wrong_field_count_names_its_line(bad, lineno, registry):
    header, *records = KnowledgeGraph(TWO_NODES, TWO_EDGES[:1],
                                      registry=registry).export_snapshot().splitlines()
    # Header, two NODE records, the forward EDGE record, then the bad lines.
    text = "\n".join([header, *records, *bad, records[-1]]) + "\n"
    with pytest.raises(MalformedBundle, match=f"^snapshot line {lineno}: unrecognized record$"):
        KnowledgeGraph.load_snapshot(text)


# --- Node: an immutable record of six fields ---

def test_node_fields_in_order_with_defaults():
    node = Node("tool--t", "Tee", EntityKind.TOOL, ("t",), "desc", ("tag",))
    assert (node.id, node.name, node.kind, node.aliases, node.description, node.tags) == (
        "tool--t", "Tee", EntityKind.TOOL, ("t",), "desc", ("tag",))
    assert node == Node(id="tool--t", name="Tee", kind=EntityKind.TOOL, aliases=("t",),
                        description="desc", tags=("tag",))
    bare = Node("tool--t", "Tee", EntityKind.TOOL)
    assert (bare.aliases, bare.description, bare.tags) == ((), "", ())
    assert repr(bare) == ("Node(id='tool--t', name='Tee', kind=<EntityKind.TOOL: 'tool'>, "
                          "aliases=(), description='', tags=())")


def test_node_equality_and_hash_follow_every_field():
    fields = ("tool--t", "Tee", EntityKind.TOOL, ("t",), "desc", ("tag",))
    others = ("tool--u", "Tea", EntityKind.MALWARE, ("u",), "other", ("gat",))
    node = Node(*fields)
    assert node == Node(*fields) and hash(node) == hash(Node(*fields))
    assert len({node, Node(*fields)}) == 1
    for i, other in enumerate(others):
        changed = Node(*fields[:i], other, *fields[i + 1:])
        assert node != changed and not node == changed


@pytest.mark.parametrize("field", ["id", "name", "kind", "aliases", "description", "tags",
                                   "extra"])
def test_node_is_immutable(field):
    node = Node("tool--t", "Tee", EntityKind.TOOL)
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        setattr(node, field, "x")
    assert node == Node("tool--t", "Tee", EntityKind.TOOL)


def test_node_sort_key():
    node = Node("tool--t", "Straße Tee", EntityKind.TOOL)
    assert node.sort_key == ("tool", "strasse tee", "tool--t")
