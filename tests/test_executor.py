import gc

import pytest

from titan_kg.errors import (
    MissingStartKind,
    SelectNameUnresolved,
    StartKindMismatch,
    TypeFlowError,
)
from titan_kg.executor import (
    execute,
    run_path,
    step_exec_common,
    step_exec_difference,
    step_filter,
    step_select,
)
from titan_kg.kg import KnowledgeGraph, Node
from titan_kg.ontology import EntityKind
from titan_kg.pathlang import parse_path, validate_program

from bruteforce import brute_execute, steps_from_program, successors, tables_from_graph

C1 = "campaign--0001"
G1, G2 = "intrusion-set--0001", "intrusion-set--0002"
SYS10, MARKIRAT, CANNON, LITEPOWER = (
    "malware--0001", "malware--0002", "malware--0003", "malware--0004")
AP1, AP2, AP3, AP4 = ("attack-pattern--0001", "attack-pattern--0002",
                      "attack-pattern--0003", "attack-pattern--0004")
COA1, COA2 = "course-of-action--0001", "course-of-action--0002"


def _run(graph, registry, text, start=None, start_kind=None):
    typed = validate_program(parse_path(text, registry), registry, start_kind=start_kind)
    return execute(graph, typed, start=start)


def _answer_ids(result):
    return {node.id for node in result.answers}


def _frontier(graph, *branches):
    """The frontier the executor holds for these id branches: ascending ranks."""
    return tuple(tuple(sorted(graph.ranks(branch))) for branch in branches)


def _ids(graph, frontier):
    return tuple(tuple(graph.nodes_by_rank[rank].id for rank in branch)
                 for branch in frontier)


def test_fig_l4_path_from_campaign(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
                  start=(C1,), start_kind=EntityKind.CAMPAIGN)
    assert _answer_ids(result) == {COA1, COA2}
    # Cross-check against the brute-force interpreter.
    nodes, edges = tables_from_graph(fixture_graph)
    typed = validate_program(parse_path(
        "attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
        registry), registry, start_kind=EntityKind.CAMPAIGN)
    assert brute_execute(nodes, edges, steps_from_program(typed.program),
                         start_ids={C1}) == {COA1, COA2}


def test_type_seed_yields_kind_extent(fixture_graph, registry):
    result = _run(fixture_graph, registry, "is_malware_type")
    assert _answer_ids(result) == {SYS10, MARKIRAT, CANNON, LITEPOWER}


def test_exec_difference_fig_fixture(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern → exec_difference")
    assert _answer_ids(result) == {AP1}


def test_exec_common_fig_fixture(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "is_malware_type → select Cannon LitePower → uses_attack_pattern → exec_common")
    assert _answer_ids(result) == {AP3}


def test_filter_path_fig_fixture(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "is_intrusion_set_type → filter Russia → uses_attack_pattern "
                  "→ targets → filter Windows")
    assert [n.name for n in result.answers] == ["Windows"]


def test_traverse_step_union_and_order(fixture_graph):
    out = successors(fixture_graph, (SYS10,), "uses_attack_pattern")
    # Sorted by (kind, name, id): "Process Injection" < "Spearphishing ...".
    assert out == (AP2, AP1)


def test_traverse_empty_frontier(fixture_graph):
    out = successors(fixture_graph, (), "uses_attack_pattern")
    assert out == ()


def test_traverse_reverse_direction(fixture_graph):
    out = successors(fixture_graph, (AP1,), "used_by_malware")
    assert set(out) == {SYS10}


def test_filter_keeps_tagged_nodes(fixture_graph):
    frontier = _frontier(fixture_graph, (G1, G2))
    out = step_filter(fixture_graph, frontier, "Russia")
    assert _ids(fixture_graph, out) == ((G1,),)


def test_filter_matches_description_substring(fixture_graph):
    frontier = _frontier(fixture_graph, (SYS10, MARKIRAT, CANNON, LITEPOWER))
    out = step_filter(fixture_graph, frontier, "ransomware")
    assert _ids(fixture_graph, out) == ((LITEPOWER,),)


def test_filter_no_match_is_empty(fixture_graph):
    out = step_filter(fixture_graph, _frontier(fixture_graph, (G1, G2)), "zzz-nothing")
    assert _ids(fixture_graph, out) == ((),)


def test_filter_folds_keyword_and_node_text_alike():
    graph = KnowledgeGraph([Node("malware--s", "Straße Loader", EntityKind.MALWARE),
                            Node("malware--o", "Other", EntityKind.MALWARE,
                                 description="Runs   on\nmany hosts")], [])
    frontier = (graph.kind_ranks(EntityKind.MALWARE),)
    for keyword in ("STRASSE", "straße", "Strasse LOADER"):
        assert _ids(graph, step_filter(graph, frontier, keyword)) == (("malware--s",),)
    assert _ids(graph, step_filter(graph, frontier, "on many")) == (("malware--o",),)


def test_filter_matches_upper_case_tag_of_loaded_snapshot():
    # Ingest folds the tags it writes; a snapshot written elsewhere may not.
    graph = KnowledgeGraph.load_snapshot(
        'TITAN-SNAPSHOT\t1\n'
        'NODE\tmalware--t\tmalware\t"Tagged"\t[]\t["Ransomware"]\t""\n'
        'NODE\tmalware--u\tmalware\t"Untagged"\t[]\t[]\t""\n')
    frontier = (graph.kind_ranks(EntityKind.MALWARE),)
    for keyword in ("ransomware", "RANSOMWARE"):
        assert _ids(graph, step_filter(graph, frontier, keyword)) == (("malware--t",),)


def test_filter_output_is_subset(fixture_graph):
    frontier = _frontier(fixture_graph, fixture_graph.nodes_of_kind(EntityKind.ATTACK_PATTERN))
    out = step_filter(fixture_graph, frontier, "windows")
    assert set(_ids(fixture_graph, out)[0]) <= set(_ids(fixture_graph, frontier)[0])


def test_select_orders_branches_by_name_order(fixture_graph):
    frontier = _frontier(fixture_graph, fixture_graph.nodes_of_kind(EntityKind.MALWARE))
    out = step_select(fixture_graph, frontier, ("Sys10", "MarkiRAT"))
    assert _ids(fixture_graph, out) == ((SYS10,), (MARKIRAT,))


def test_select_alias_resolution(fixture_graph):
    frontier = _frontier(fixture_graph, fixture_graph.nodes_of_kind(EntityKind.INTRUSION_SET))
    out = step_select(fixture_graph, frontier, ("Voodoo Bear", "APT34"))
    assert _ids(fixture_graph, out) == ((G1,), (G2,))


def test_select_unresolved_name(fixture_graph):
    frontier = _frontier(fixture_graph, fixture_graph.nodes_of_kind(EntityKind.MALWARE))
    with pytest.raises(SelectNameUnresolved):
        step_select(fixture_graph, frontier, ("Sys10", "NoSuchMalware"))


def test_exec_common_cases():
    assert step_exec_common((("a", "b"), ("b", "c"))) == (("b",),)
    assert step_exec_common((("a", "b"), ("a", "b"))) == (("a", "b"),)
    assert step_exec_common((("a",), ("b",))) == ((),)


def test_exec_difference_cases():
    assert step_exec_difference((("t1", "t2"), ("t2",))) == (("t1",),)
    assert step_exec_difference((("t1",), ("t1",))) == ((),)
    assert step_exec_difference((("t1", "t2"), ())) == (("t1", "t2"),)


def test_start_kind_mismatch(fixture_graph, registry):
    typed = validate_program(parse_path("uses_attack_pattern", registry),
                             registry, start_kind=EntityKind.MALWARE)
    with pytest.raises(StartKindMismatch):
        execute(fixture_graph, typed, start=(G1,))
    with pytest.raises(StartKindMismatch):
        execute(fixture_graph, typed, start=())
    with pytest.raises(StartKindMismatch):
        execute(fixture_graph, typed, start=("malware--9999",))


def test_empty_intermediate_frontier_propagates(fixture_graph, registry):
    # LitePower has no detected techniques via AP3? AP3 is detected by DC3,
    # so pick a start with no outgoing edges instead: the Linux asset has
    # only reverse edges for targets.
    result = _run(fixture_graph, registry,
                  "targeted_by_attack_pattern → subtechnique_of_attack_pattern "
                  "→ mitigated_by_course_of_action",
                  start=(fixture_graph.find_by_name("Linux")), start_kind=EntityKind.ASSET)
    assert result.answers == ()


def test_determinism_identical_runs(fixture_graph, registry):
    text = "is_intrusion_set_type → uses_malware → uses_attack_pattern"
    first = _run(fixture_graph, registry, text)
    second = _run(fixture_graph, registry, text)
    assert first == second


def test_inverse_round_trip_property(fixture_graph, registry):
    # For every edge (n, r, m), running [r, inverse(r)] from {n} returns n.
    for src, rel, _ in fixture_graph.all_edges():
        kind = fixture_graph.node(src).kind
        inverse = registry.signature_of(kind, rel).inverse_name
        frontier = successors(fixture_graph, (src,), rel)
        back = successors(fixture_graph, frontier, inverse)
        assert src in back, (src, rel)


def test_trace_records_steps_and_edges(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern → exec_difference")
    assert len(result.trace) == 4
    seed, select, traverse, diff = result.trace
    assert seed.output_sizes == (4,)
    assert select.output_sizes == (1, 1)
    assert traverse.input_sizes == (1, 1)
    assert traverse.output_sizes == (2, 1)
    assert set(traverse.edges) == {
        (SYS10, "uses_attack_pattern", AP1),
        (SYS10, "uses_attack_pattern", AP2),
        (MARKIRAT, "uses_attack_pattern", AP2),
    }
    assert diff.output_sizes == (1,)


def test_result_text_rendering_is_stable(fixture_graph, registry):
    result = _run(fixture_graph, registry, "is_malware_type → filter ransomware")
    first = result.to_text(fixture_graph)
    second = _run(fixture_graph, registry, "is_malware_type → filter ransomware").to_text(fixture_graph)
    assert first == second
    assert first.startswith("answers\t1\n")
    assert "LitePower" in first


def test_select_without_operator_unions_branches(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern")
    assert _answer_ids(result) == {AP1, AP2}


def test_select_name_ignores_case_and_whitespace(fixture_graph):
    frontier = _frontier(fixture_graph, fixture_graph.nodes_of_kind(EntityKind.MALWARE))
    out = step_select(fixture_graph, frontier, ("  sys10 ", "MARKIRAT"))
    assert _ids(fixture_graph, out) == ((SYS10,), (MARKIRAT,))
    frontier = _frontier(fixture_graph, fixture_graph.nodes_of_kind(EntityKind.INTRUSION_SET))
    out = step_select(fixture_graph, frontier, ("voodoo   BEAR", "apt34"))
    assert _ids(fixture_graph, out) == ((G1,), (G2,))


def _twin_graph():
    # malware--b carries the name "Twin" only as an alias, so it sorts
    # before malware--a in (kind, name, id) order.
    return KnowledgeGraph([
        Node(id="malware--a", name="Twin", kind=EntityKind.MALWARE),
        Node(id="malware--b", name="Alpha", kind=EntityKind.MALWARE, aliases=("twin",)),
        Node(id="malware--c", name="Other", kind=EntityKind.MALWARE),
        Node(id="tool--t", name="Twin", kind=EntityKind.TOOL),
        Node(id="tool--l", name="Lonely", kind=EntityKind.TOOL),
    ], [])


def test_select_keeps_only_frontier_nodes():
    graph = _twin_graph()
    frontier = _frontier(graph, graph.sort_ids(["malware--a", "malware--c"]))
    out = step_select(graph, frontier, ("Twin", "Other"))
    assert _ids(graph, out) == (("malware--a",), ("malware--c",))
    with pytest.raises(SelectNameUnresolved):
        step_select(graph, frontier, ("Twin", "Lonely"))


def test_select_shared_name_keeps_frontier_order():
    graph = _twin_graph()
    frontier = _frontier(graph, graph.nodes_of_kind(EntityKind.MALWARE))
    assert _ids(graph, frontier)[0] == ("malware--b", "malware--c", "malware--a")
    out = step_select(graph, frontier, ("TWIN", "other"))
    assert _ids(graph, out) == (("malware--b", "malware--a"), ("malware--c",))


def test_result_text_pins_trace_edges(fixture_graph, registry):
    result = _run(fixture_graph, registry,
                  "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern → exec_difference")
    head = (
        "answers\t1\n"
        "  attack-pattern\tSpearphishing Attachment\tattack-pattern--0001\n"
        "start\t4\tmalware--0003 malware--0004 malware--0002 malware--0001\n"
        "trace\n"
        "  step 1\tis_malware_type\tin=4\tout=4\tedges=0\n"
        "  step 2\tselect Sys10 MarkiRAT\tin=4\tout=1,1\tedges=0\n"
        "  step 3\tuses_attack_pattern\tin=1,1\tout=2,1\tedges=3\n"
    )
    tail = "  step 4\texec_difference\tin=2,1\tout=1\tedges=0\n"
    assert result.to_text(fixture_graph) == head + (
        "    Sys10 --uses_attack_pattern--> Spearphishing Attachment\n"
        "    Sys10 --uses_attack_pattern--> Process Injection\n"
        "    MarkiRAT --uses_attack_pattern--> Process Injection\n"
    ) + tail
    assert result.trace[2].edges == (
        ("malware--0001", "uses_attack_pattern", "attack-pattern--0001"),
        ("malware--0001", "uses_attack_pattern", "attack-pattern--0002"),
        ("malware--0002", "uses_attack_pattern", "attack-pattern--0002"),
    )


def test_run_path_resolves_start_names_and_rejects_unknown_names(fixture_graph, registry):
    program = parse_path("uses_attack_pattern", registry)
    typed, result = run_path(fixture_graph, registry, program, ["markirat", " SYS10 "])
    assert result.start_nodes == (MARKIRAT, SYS10)
    with pytest.raises(StartKindMismatch, match="NoSuchThing"):
        run_path(fixture_graph, registry, program, ["Sys10", "NoSuchThing"])
    with pytest.raises(MissingStartKind):
        run_path(fixture_graph, registry, program, [])
    # Names resolve before the type seed is seen, so an unknown one is refused.
    with pytest.raises(StartKindMismatch):
        run_path(fixture_graph, registry, parse_path("is_malware_type", registry), ["Nope"])


def test_run_path_starts_from_the_first_kind_that_type_checks(fixture_graph, registry):
    # attributed_to applies to a campaign, not to a malware.
    program = parse_path("attributed_to → uses_malware", registry)
    typed, result = run_path(fixture_graph, registry, program,
                             ("Sys10", "Unitronics Defacement Campaign", "MarkiRAT"))
    assert typed.start_kind is EntityKind.CAMPAIGN
    assert result.start_nodes == (C1,)
    assert _answer_ids(result) == {SYS10, MARKIRAT}
    # Both kinds type-check uses_attack_pattern; the first one's nodes start it.
    typed, result = run_path(fixture_graph, registry,
                             parse_path("uses_attack_pattern", registry),
                             ("MarkiRAT", "Unitronics Defacement Campaign", "Sys10"))
    assert typed.start_kind is EntityKind.MALWARE
    assert result.start_nodes == (MARKIRAT, SYS10)  # (kind, name, id) order


def test_run_path_errors(fixture_graph, registry):
    with pytest.raises(MissingStartKind):
        run_path(fixture_graph, registry, parse_path("uses_attack_pattern", registry), ())
    with pytest.raises(TypeFlowError):
        run_path(fixture_graph, registry, parse_path("mitigated_by", registry),
                 ("Sys10", "Unitronics Defacement Campaign"))


def test_run_path_type_seed_ignores_start(fixture_graph, registry):
    typed, result = run_path(fixture_graph, registry,
                             parse_path("is_campaign_type", registry), ("Sys10",))
    assert typed.start_kind is EntityKind.CAMPAIGN
    assert result.start_nodes == (C1,)


def test_run_path_type_check_failure_leaves_no_cyclic_garbage(fixture_graph, registry):
    # Neither start kind (malware, campaign) type-checks mitigated_by.  The
    # error re-raised must not keep run_path's frame in a cycle: a command
    # runs with the cyclic collector paused.
    program = parse_path("mitigated_by", registry)
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            try:
                run_path(fixture_graph, registry, program,
                         ("Sys10", "Unitronics Defacement Campaign"))
            except TypeFlowError:
                pass
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
