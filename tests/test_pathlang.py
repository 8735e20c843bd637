import random

import pytest
from hypothesis import given, strategies as st

from titan_kg.errors import (
    MalformedOperator,
    MissingStartKind,
    OperatorPlacementError,
    PathSyntaxError,
    TypeFlowError,
    UnknownRelation,
)
from titan_kg.ontology import EntityKind
from titan_kg.pathlang import (
    ExecCommon,
    ExecDifference,
    Filter,
    PathProgram,
    Select,
    Traverse,
    TypeSeed,
    parse_path,
    profile,
    render_path,
    split_names,
    validate_program,
)

from bruteforce import relations_from

FIG_PATHS = [
    "attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
    "is_intrusion_set_type → filter Russia → uses_attack_pattern → targets → filter Windows",
    "is_malware_type → select Cannon LitePower → uses_attack_pattern → exec_common",
    "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern → exec_difference",
]


# Every seed token alone, and every operator keyword after the fewest steps
# that may precede it.
VOCABULARY = {
    **{TypeSeed(kind).token: TypeSeed(kind).token for kind in EntityKind},
    Filter.token: "is_malware_type → filter ransomware",
    Select.token: "is_malware_type → select Cannon LitePower",
    ExecCommon.token: "is_malware_type → select Cannon LitePower → exec_common",
    ExecDifference.token: "is_malware_type → select Cannon LitePower → exec_difference",
}


@pytest.mark.parametrize("token", VOCABULARY)
def test_every_seed_token_and_operator_keyword_round_trips(token):
    text = VOCABULARY[token]
    program = parse_path(text)
    last = program.steps[-1]
    assert type(last) in (TypeSeed, Filter, Select, ExecCommon, ExecDifference)
    assert last.token == token
    assert render_path(program, "display") == text
    assert parse_path(render_path(program, "token")) == program


def test_display_form_normalizes_aliases():
    program = parse_path(FIG_PATHS[0])
    assert program.steps == (
        Traverse("attributed_to_intrusion_set"),
        Traverse("uses_malware"),
        Traverse("uses_attack_pattern"),
        Traverse("mitigated_by_course_of_action"),
    )


def test_token_form_with_select_and_operator():
    text = ("<PATH> is_malware_type <SEP> select Cannon LitePower "
            "<SEP> uses_attack_pattern <SEP> exec_common </PATH>")
    program = parse_path(text)
    assert program.steps == (
        TypeSeed(EntityKind.MALWARE),
        Select(("Cannon", "LitePower")),
        Traverse("uses_attack_pattern"),
        ExecCommon(),
    )


def test_empty_program_is_a_syntax_error():
    with pytest.raises(PathSyntaxError):
        parse_path("<PATH> </PATH>")


def test_unbalanced_wrapper():
    with pytest.raises(PathSyntaxError):
        parse_path("<PATH> uses_attack_pattern")
    with pytest.raises(PathSyntaxError):
        parse_path("uses_attack_pattern </PATH>")


def test_empty_segment_rejected():
    with pytest.raises(PathSyntaxError):
        parse_path("<PATH> uses_attack_pattern <SEP> </PATH>")
    with pytest.raises(PathSyntaxError):
        parse_path("uses_attack_pattern → → targets")


def test_ascii_arrow_accepted():
    program = parse_path("uses_attack_pattern -> mitigated_by")
    assert [s.rel for s in program.steps] == [
        "uses_attack_pattern", "mitigated_by_course_of_action"]


def test_unknown_relation_rejected_at_parse():
    with pytest.raises(UnknownRelation):
        parse_path("uzes_attack_pattern")


def test_select_needs_two_names():
    with pytest.raises(MalformedOperator):
        parse_path("<PATH> is_malware_type <SEP> select Cannon <SEP> exec_common </PATH>")


def test_filter_needs_keyword():
    with pytest.raises(MalformedOperator):
        parse_path("<PATH> is_malware_type <SEP> filter </PATH>")


@pytest.mark.parametrize("text, error, message", [
    ('is_malware_type → select a"b c', PathSyntaxError, "stray quote in 'a\"b c'"),
    ('is_malware_type → select "APT 28"x y', PathSyntaxError,
     "stray quote in '\"APT 28\"x y'"),
    ('is_malware_type → select "a""b"', PathSyntaxError, "stray quote in '\"a\"\"b\"'"),
    ("is_malware_type x", PathSyntaxError, "unexpected tokens after 'is_malware_type': 'x'"),
    ("is_malware_type → select a b → uses → exec_common now", MalformedOperator,
     "exec_common takes no arguments"),
    ("is_malware_type → select a b → uses → exec_difference x", MalformedOperator,
     "exec_difference takes no arguments"),
    ("uses_attack_pattern x", PathSyntaxError,
     "unexpected tokens after relation 'uses_attack_pattern': 'x'"),
], ids=["stray-quote", "text-after-closing-quote", "quote-after-closing-quote", "after-seed",
        "common-args", "difference-args", "after-relation"])
def test_segment_with_stray_text_rejected(text, error, message, registry):
    with pytest.raises(error) as err:
        parse_path(text, registry)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("text, names", [
    ("a\tb\nc\u3000d\x85e", ["a", "b", "c", "d", "e"]),
    (' "APT \t\n\u3000 28"\x85x ', ["APT 28", "x"]),
    ('"  Sandworm   Team  "', ["Sandworm Team"]),
    ("", []),
    (" \t\n", []),
], ids=["whitespace-kinds", "quoted-run", "quoted-padding", "empty", "blank"])
def test_split_names(text, names):
    assert split_names(text) == names


@pytest.mark.parametrize("text, error, message", [
    ('"a', PathSyntaxError, "unterminated quote in '\"a'"),
    ('x "a b', PathSyntaxError, "unterminated quote in 'x \"a b'"),
    ('""', MalformedOperator, "empty quoted name"),
    ('"  "', MalformedOperator, "empty quoted name"),
    ('""x', MalformedOperator, "empty quoted name"),
    ('"a"b', PathSyntaxError, "stray quote in '\"a\"b'"),
    ('a"b', PathSyntaxError, "stray quote in 'a\"b'"),
    ('a"b "c', PathSyntaxError, "stray quote in 'a\"b \"c'"),
], ids=["unterminated", "unterminated-later", "empty", "blank", "empty-before-stray",
        "glued-after-quote", "quote-in-word", "stray-before-unterminated"])
def test_split_names_rejects(text, error, message):
    # The first bad name, left to right, is the one reported.
    with pytest.raises(error) as err:
        split_names(text)
    assert type(err.value) is error and str(err.value) == message


_SPACE = st.text(" \t\n\u3000\x85\x1c", min_size=1, max_size=3)


@given(st.lists(st.tuples(
    st.text(st.characters(exclude_characters='"'), min_size=1, max_size=8)
    .filter(lambda name: name.strip() and not any(
        marker in name for marker in ("<PATH>", "</PATH>", "<SEP>", "→", "->"))),
    _SPACE), max_size=5), _SPACE)
def test_split_names_gives_back_joined_names(pairs, lead):
    # Each name that holds whitespace is quoted; its inner runs collapse.
    text = lead + "".join((f'"{name}"' if any(c.isspace() for c in name) else name) + space
                          for name, space in pairs)
    assert split_names(text) == [" ".join(name.split()) for name, _ in pairs]


def test_operator_placement_rules():
    with pytest.raises(OperatorPlacementError):
        parse_path("is_malware_type → exec_common")  # no earlier select
    with pytest.raises(OperatorPlacementError):
        parse_path("is_malware_type → select A B → exec_common → uses_attack_pattern")
    with pytest.raises(OperatorPlacementError):
        parse_path("uses_attack_pattern → is_malware_type")  # seed not first
    with pytest.raises(OperatorPlacementError):
        parse_path("is_malware_type → select A B → select C D → exec_common")


def test_quoted_multiword_select_names():
    text = '<PATH> is_malware_type <SEP> select "Agent Tesla" Emotet <SEP> uses_attack_pattern <SEP> exec_common </PATH>'
    program = parse_path(text)
    select = program.steps[1]
    assert select.names == ("Agent Tesla", "Emotet")
    assert parse_path(render_path(program, "token")) == program
    assert parse_path(render_path(program, "display")) == program


def test_multiword_filter_keyword():
    program = parse_path("is_intrusion_set_type → filter North Korea")
    assert program.steps[1] == Filter("North Korea")


def test_all_fig_paths_parse_validate_profile(registry):
    start_kinds = [EntityKind.CAMPAIGN, None, None, None]
    expected = [("L4+", frozenset()),
                ("L3", frozenset({"filter"})),
                ("L2", frozenset({"select", "exec_common"})),
                ("L2", frozenset({"select", "exec_difference"}))]
    for text, start, (bucket, flags) in zip(FIG_PATHS, start_kinds, expected):
        program = parse_path(text, registry)
        typed = validate_program(program, registry, start_kind=start)
        prof = profile(typed.program)
        assert (prof.bucket, prof.operators) == (bucket, flags)


def test_validate_infers_kind_chain(registry):
    program = parse_path(FIG_PATHS[0], registry)
    typed = validate_program(program, registry, start_kind=EntityKind.CAMPAIGN)
    assert [k.value for k in typed.kinds] == [
        "intrusion-set", "malware", "attack-pattern", "course-of-action"]
    assert typed.answer_kind is EntityKind.COURSE_OF_ACTION


def test_validate_type_flow_error(registry):
    program = parse_path("is_malware_type → mitigated_by_course_of_action", registry)
    with pytest.raises(TypeFlowError):
        validate_program(program, registry)


def test_validate_requires_start_kind(registry):
    program = parse_path("uses_attack_pattern", registry)
    with pytest.raises(MissingStartKind):
        validate_program(program, registry)


def test_validate_resolves_bare_verb_in_context(registry):
    program = parse_path("uses", registry)  # deferred: resolvable from some kind
    typed = validate_program(program, registry, start_kind=EntityKind.MALWARE)
    assert typed.steps == (Traverse("uses_attack_pattern"),)
    with pytest.raises(TypeFlowError):
        validate_program(program, registry, start_kind=EntityKind.INTRUSION_SET)


def test_validate_is_idempotent(registry):
    program = parse_path(FIG_PATHS[1], registry)
    once = validate_program(program, registry)
    twice = validate_program(once.program, registry)
    assert once.program == twice.program
    assert once.kinds == twice.kinds


def test_profile_single_seed():
    prof = profile(parse_path("is_malware_type"))
    assert (prof.bucket, prof.operators) == ("L1", frozenset())


@pytest.mark.parametrize("make, error, message", [
    (lambda: Filter("  "), MalformedOperator, "filter requires a non-empty keyword"),
    (lambda: Select(("a", " ")), MalformedOperator, "select names must be non-empty"),
    (lambda: PathProgram(()), PathSyntaxError, "empty program"),
    (lambda: render_path(PathProgram((TypeSeed(EntityKind.MALWARE),)), "bogus"), ValueError,
     "unknown form 'bogus' (expected 'token' or 'display')"),
    (lambda: PathProgram(("uses_attack_pattern",)), TypeError,
     "not a path step: 'uses_attack_pattern'"),
], ids=["blank-filter", "blank-select-name", "empty-program", "unknown-render-form",
        "non-step-member"])
def test_direct_construction_refusals(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


def test_render_rejects_quote_in_select_name():
    with pytest.raises(MalformedOperator):
        Select(('He said "hi"', "Other"))


@pytest.mark.parametrize("marker", ["<PATH>", "</PATH>", "<SEP>", "→", "->"])
def test_operands_may_not_hold_path_markers(marker):
    with pytest.raises(MalformedOperator):
        Filter(f"a {marker} b")
    with pytest.raises(MalformedOperator):
        Select(("Sys10", f"x{marker}y"))


def test_filter_keyword_with_sep_is_refused_at_parse(registry):
    # Accepted, it rendered to a token form that re-parsed as relation 'b'.
    with pytest.raises(MalformedOperator):
        parse_path("is_malware_type → filter a <SEP> b", registry)


def test_select_resolves_every_node_sharing_a_name(registry):
    # Duplicate names put every matching node into the same branch.
    from titan_kg.executor import step_select
    from titan_kg.kg import KnowledgeGraph, Node

    graph = KnowledgeGraph(
        [Node(id="malware--a", name="Twin", kind=EntityKind.MALWARE),
         Node(id="malware--b", name="Twin", kind=EntityKind.MALWARE),
         Node(id="malware--c", name="Solo", kind=EntityKind.MALWARE)], [])
    frontier = (graph.kind_ranks(EntityKind.MALWARE),)
    out = step_select(graph, frontier, ("Twin", "Solo"))
    assert [[graph.nodes_by_rank[rank].id for rank in branch] for branch in out] == [
        ["malware--a", "malware--b"], ["malware--c"]]


def _random_program(rng: random.Random, registry) -> PathProgram:
    """Random structurally valid program over the registry vocabulary."""
    names_pool = ["Cannon", "LitePower", "Agent Tesla", "Sys10", "njRAT x2"]
    kind = rng.choice(list(EntityKind))
    steps: list = [TypeSeed(kind)]
    current = kind
    for _ in range(rng.randint(0, 3)):
        options = relations_from(registry, current)
        if not options:
            break
        rel = rng.choice(options)
        steps.append(Traverse(rel))
        current = registry.signature_of(current, rel).target_kind
        if rng.random() < 0.3:
            steps.append(Filter(rng.choice(["windows", "russia", "remote access"])))
    if rng.random() < 0.4:
        select = Select(tuple(rng.sample(names_pool, 2)))
        tail_rel = relations_from(registry, current)
        insert_at = 1  # right after the seed
        steps.insert(insert_at, select)
        if tail_rel and rng.random() < 0.8:
            steps.append(Traverse(rng.choice(tail_rel)))
        steps.append(ExecCommon() if rng.random() < 0.5 else ExecDifference())
    return PathProgram(tuple(steps))


def test_round_trip_randomized(registry):
    rng = random.Random(7)
    for _ in range(300):
        program = _random_program(rng, registry)
        token = render_path(program, "token")
        display = render_path(program, "display")
        assert parse_path(token, registry) == program, token
        assert parse_path(display, registry) == program, display
