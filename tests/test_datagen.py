import json
import logging
import random

import pytest

from titan_kg.datagen import (
    DatasetConfig,
    Sample,
    _candidate_bindings,
    dataset_to_jsonl,
    default_template_text,
    generate_dataset,
    instantiate_template,
    load_dataset,
    load_templates,
    read_records,
    synthesize_cot,
)
from titan_kg.errors import MalformedInput, TemplateSchemaError
from titan_kg.executor import run_path
from titan_kg.kg import build_graph, parse_stix_bundle
from titan_kg.ontology import EntityKind
from titan_kg.pathlang import parse_path, profile, render_path, validate_program

from bruteforce import brute_execute, steps_from_program, tables_from_graph
from conftest import FIXTURE_BUNDLE


def _template_line(**overrides) -> str:
    record = {
        "id": "demo",
        "text": "What mitigations counter the techniques used by the malware [malware]?",
        "path": "<PATH> uses_attack_pattern <SEP> mitigated_by_course_of_action </PATH>",
        "start": "[malware]",
        "answer_kind": "course-of-action",
    }
    record.update(overrides)
    return json.dumps(record)


def test_shipped_corpus_loads(core_templates):
    assert len(core_templates) >= 40
    ids = [t.id for t in core_templates]
    assert len(ids) == len(set(ids))
    buckets = {profile(t.typed_path.program).bucket for t in core_templates}
    assert buckets == {"L1", "L2", "L3", "L4+"}
    flags = set()
    for t in core_templates:
        flags |= profile(t.typed_path.program).operators
    assert flags == {"filter", "select", "exec_common", "exec_difference"}


def test_load_single_template(registry):
    templates = load_templates(_template_line(), registry)
    assert len(templates) == 1
    template = templates[0]
    assert template.start_slot == "[malware]"
    assert template.typed_path.answer_kind is EntityKind.COURSE_OF_ACTION
    assert list(template.placeholders.items()) == [("[malware]", EntityKind.MALWARE)]


def test_empty_document_loads_nothing(registry):
    assert load_templates("", registry) == []
    assert load_templates("# only a comment\n", registry) == []


def test_placeholder_kind_mismatch_rejected(registry):
    line = _template_line(text="Which campaigns involve [campaign]?")
    with pytest.raises(TemplateSchemaError):
        load_templates(line, registry)


def test_type_flow_checked(registry):
    line = _template_line(
        path="<PATH> mitigates_attack_pattern </PATH>")
    with pytest.raises(TemplateSchemaError):
        load_templates(line, registry)


def test_answer_kind_cross_checked(registry):
    line = _template_line(answer_kind="malware")
    with pytest.raises(TemplateSchemaError):
        load_templates(line, registry)


def test_select_placeholder_kind_checked(registry):
    line = json.dumps({
        "id": "bad-select",
        "text": "Do [campaign:1] and [campaign:2] share techniques?",
        "path": "<PATH> is_malware_type <SEP> select [campaign:1] [campaign:2] "
                "<SEP> uses_attack_pattern <SEP> exec_common </PATH>",
        "answer_kind": "attack-pattern",
    })
    with pytest.raises(TemplateSchemaError):
        load_templates(line, registry)


@pytest.mark.parametrize("line, reason", [
    ("[1]", "expected a JSON object, got list"),
    ('"x"', "expected a JSON object, got str"),
    (_template_line(text=7), "'text' is not a string"),
    (_template_line(path=7), "'path' is not a string"),
    (_template_line(answer_kind=[1]), "'answer_kind' is not a string"),
    (_template_line(start=["[malware]"]), "'start' is not a string"),
    ("{not json", "not JSON ("),
    (json.dumps({"text": "t", "path": "is_malware_type", "answer_kind": "malware"}),
     "missing template id"),
], ids=["list", "string", "text", "path", "answer_kind", "start", "not-json", "no-id"])
def test_record_of_wrong_json_type_is_schema_error_naming_the_line(line, reason, registry):
    document = "# comment\n" + _template_line(id="ok") + "\n" + line + "\n"
    with pytest.raises(TemplateSchemaError) as err:
        load_templates(document, registry)
    assert str(err.value).startswith(f"line 3: {reason}")


@pytest.mark.parametrize("overrides, reason", [
    ({"text": "Which [foo] is it?", "start": "[foo]", "path": "uses", "answer_kind": "malware"},
     "bad placeholder '[foo]'"),
    ({"path": "uses_attack_pattern stray"}, "path does not parse: unexpected tokens after "
                                             "relation 'uses_attack_pattern': 'stray'"),
    ({"path": "is_malware_type", "answer_kind": "malware"},
     "start slot conflicts with a type-seeded path"),
    ({"text": "Which techniques?", "start": None}, "path needs either a type seed or a start slot"),
], ids=["bad-placeholder", "unparsed-path", "start-and-seed", "no-start"])
def test_bad_template_is_schema_error_naming_the_template(overrides, reason, registry):
    document = _template_line(id="ok") + "\n" + _template_line(id="x", **overrides) + "\n"
    with pytest.raises(TemplateSchemaError) as err:
        load_templates(document, registry)
    assert str(err.value) == f"template x: {reason}"


def test_duplicate_ids_rejected(registry):
    document = _template_line() + "\n" + _template_line()
    with pytest.raises(TemplateSchemaError):
        load_templates(document, registry)


def test_instantiate_start_template(fixture_graph, registry):
    template = load_templates(_template_line(), registry)[0]
    samples = instantiate_template(template, fixture_graph, DatasetConfig(rng_seed=1),
                                   registry)
    assert samples  # Sys10/MarkiRAT/Cannon bind; LitePower's technique is unmitigated
    by_start = {s.start_entities[0]: s for s in samples}
    assert "LitePower" not in by_start  # empty answers are dropped by default
    sys10 = by_start["Sys10"]
    assert sys10.question == ("What mitigations counter the techniques used "
                              "by the malware Sys10?")
    assert sys10.path == ("<PATH> uses_attack_pattern <SEP> "
                          "mitigated_by_course_of_action </PATH>")
    assert sys10.answers == ("Behavior Prevention on Endpoint", "User Training")
    assert sys10.bucket == "L2"


def test_keep_empty_option(fixture_graph, registry):
    template = load_templates(_template_line(), registry)[0]
    samples = instantiate_template(
        template, fixture_graph, DatasetConfig(rng_seed=1, keep_empty=True), registry)
    assert {s.start_entities[0] for s in samples} == {
        "Sys10", "MarkiRAT", "Cannon", "LitePower"}


def test_instantiate_select_template(fixture_graph, registry):
    line = json.dumps({
        "id": "pair",
        "text": "Which techniques does the malware [malware:1] use that [malware:2] does not?",
        "path": "<PATH> is_malware_type <SEP> select [malware:1] [malware:2] "
                "<SEP> uses_attack_pattern <SEP> exec_difference </PATH>",
        "answer_kind": "attack-pattern",
    })
    template = load_templates(line, registry)[0]
    samples = instantiate_template(template, fixture_graph, DatasetConfig(rng_seed=3),
                                   registry)
    wanted = [s for s in samples
              if s.question == ("Which techniques does the malware Sys10 use "
                                "that MarkiRAT does not?")]
    assert len(wanted) == 1
    sample = wanted[0]
    assert sample.answers == ("Spearphishing Attachment",)
    assert "select Sys10 MarkiRAT" in sample.path
    assert sample.start_entities == ()
    assert sample.operators == ("exec_difference", "select")


def test_bound_name_holding_a_placeholder_is_not_substituted_again(registry, core_templates):
    # The first name holds the second slot's placeholder text, which the
    # question keeps as written.
    graph = build_graph(parse_stix_bundle(json.dumps([
        {"type": "malware", "id": "malware--e", "name": "Evil [malware:2]"},
        {"type": "malware", "id": "malware--g", "name": "Good"},
        {"type": "attack-pattern", "id": "attack-pattern--t", "name": "T"},
        *({"type": "relationship", "id": f"relationship--{m}", "relationship_type": "uses",
           "source_ref": f"malware--{m}", "target_ref": "attack-pattern--t"} for m in "eg"),
    ])), registry)
    template = _template(core_templates, "common-techniques")
    samples = instantiate_template(template, graph, DatasetConfig(), registry)
    by_path = {s.path: s.question for s in samples}
    assert by_path['<PATH> is_malware_type <SEP> select "Evil [malware:2]" Good <SEP> '
                   'uses_attack_pattern <SEP> exec_common </PATH>'] == (
        "Which techniques do the malware Evil [malware:2] and Good share?")


def test_question_fills_every_occurrence_of_a_placeholder(fixture_graph, registry):
    # The start slot appears twice and a literal brace pair stays as written.
    template = load_templates(_template_line(
        text="Which mitigations {of} [malware] counter what [malware] uses?"), registry)[0]
    samples = instantiate_template(template, fixture_graph, DatasetConfig(rng_seed=1),
                                   registry)
    assert samples
    for sample in samples:
        name, = sample.start_entities
        assert sample.question == f"Which mitigations {{of}} {name} counter what {name} uses?"


@pytest.fixture(scope="module")
def shared_name_graph(registry):
    """The fixture with tool PsExec renamed to Sys10, a malware's name."""
    bundle = json.loads(FIXTURE_BUNDLE.read_text("utf-8"))
    for obj in bundle["objects"]:
        if obj.get("name") == "PsExec":
            obj["name"] = "Sys10"
    return build_graph(parse_stix_bundle(json.dumps(bundle)), registry)


def _template(core_templates, template_id):
    return next(t for t in core_templates if t.id == template_id)


def test_samples_reexecute_to_recorded_answers(fixture_graph, shared_name_graph, registry,
                                               core_templates):
    # The shared-name graph also checks that a start name matching several
    # kinds re-executes from the kind datagen recorded.
    for graph in (fixture_graph, shared_name_graph):
        nodes, edges = tables_from_graph(graph)
        total = 0
        for template in core_templates:
            for sample in instantiate_template(template, graph, DatasetConfig(rng_seed=11),
                                               registry):
                typed, result = run_path(graph, registry, parse_path(sample.path, registry),
                                         sample.start_entities)
                names = tuple(dict.fromkeys(n.name for n in result.answers))
                assert names == sample.answers, sample.template_id
                # The text fields are what the re-executed program gives, though
                # datagen works the template-only parts out once per template.
                assert sample.cot == synthesize_cot(sample.question, sample.start_entities,
                                                    typed)
                assert sample.path == render_path(typed.program, "token")
                prof = profile(typed.program)
                assert (sample.bucket, sample.operators) == (prof.bucket,
                                                             tuple(sorted(prof.operators)))
                # Independent oracle agrees, from the start nodes of the
                # path's start kind.
                start = {nid for name in sample.start_entities
                         for nid in graph.find_by_name(name)
                         if graph.node(nid).kind is typed.start_kind}
                brute = brute_execute(nodes, edges, steps_from_program(typed.program),
                                      start_ids=start)
                assert {graph.node(nid).name for nid in brute} == set(names)
                total += 1
        assert total > 0


def test_template_over_a_kind_with_no_nodes_yields_no_samples(registry):
    bundle = json.loads(FIXTURE_BUNDLE.read_text("utf-8"))
    bundle["objects"] = [o for o in bundle["objects"] if o["type"] != "campaign"]
    graph = build_graph(parse_stix_bundle(json.dumps(bundle)), registry)
    assert not graph.nodes_of_kind(EntityKind.CAMPAIGN)
    campaign = _template_line(
        id="campaign-groups", text="Which groups is the campaign [campaign] attributed to?",
        path="<PATH> attributed_to_intrusion_set </PATH>", start="[campaign]",
        answer_kind="intrusion-set")
    templates = load_templates(campaign + "\n" + _template_line(), registry)
    assert instantiate_template(templates[0], graph, DatasetConfig(), registry) == []
    split, _ = generate_dataset(templates, graph, DatasetConfig(), registry)
    assert {s.template_id for s in split.train + split.test} == {"demo"}


def test_name_shared_across_kinds_keeps_its_first_kind_bindings(
        fixture_graph, shared_name_graph, registry, core_templates):
    template = _template(core_templates, "malware-techniques")
    before = instantiate_template(template, fixture_graph, DatasetConfig(), registry)
    after = instantiate_template(template, shared_name_graph, DatasetConfig(), registry)
    assert len(after) == len(before) == 4
    assert after == before
    assert ("Sys10",) in {s.start_entities for s in after}


def test_name_shared_across_kinds_drops_later_kind_with_reason(
        shared_name_graph, registry, core_templates, caplog):
    # Re-executing "Sys10" starts from the malware, not the renamed tool.
    template = _template(core_templates, "tool-techniques")
    with caplog.at_level(logging.DEBUG, logger="titan_kg.datagen"):
        assert instantiate_template(template, shared_name_graph, DatasetConfig(), registry) == []
    assert "start name 'Sys10' resolves to kind 'malware' first" in caplog.text


def test_cot_golden_for_l2_program(fixture_graph, registry):
    template = load_templates(_template_line(), registry)[0]
    samples = instantiate_template(template, fixture_graph, DatasetConfig(rng_seed=1),
                                   registry)
    sys10 = [s for s in samples if s.start_entities == ("Sys10",)][0]
    assert sys10.cot == (
        "The question is: What mitigations counter the techniques used by the "
        "malware Sys10? "
        "The reasoning starts from the malware Sys10. "
        "Step 1: Follow the uses_attack_pattern relation from the malware to "
        "the attack pattern. "
        "Step 2: Follow the mitigated_by_course_of_action relation from the "
        "attack pattern to the course of action. "
        "The full reasoning path is: <PATH> uses_attack_pattern <SEP> "
        "mitigated_by_course_of_action </PATH>"
    )


def test_cot_golden_for_common_program(registry):
    program = parse_path(
        "is_malware_type → select Cannon LitePower → uses_attack_pattern → exec_common",
        registry)
    typed = validate_program(program, registry)
    cot = synthesize_cot("Which techniques do Cannon and LitePower share?", (), typed)
    assert cot == (
        "The question is: Which techniques do Cannon and LitePower share? "
        "The reasoning starts from every malware node. "
        "Step 1: Start from all nodes of type malware. "
        "Step 2: Branch the reasoning for Cannon, LitePower. "
        "Step 3: Follow the uses_attack_pattern relation from the malware to "
        "the attack pattern. "
        "Step 4: Take the common results across branches. "
        "The full reasoning path is: <PATH> is_malware_type <SEP> select "
        "Cannon LitePower <SEP> uses_attack_pattern <SEP> exec_common </PATH>"
    )


def test_cot_single_seed_program(registry):
    typed = validate_program(parse_path("is_malware_type", registry), registry)
    cot = synthesize_cot("List every malware family tracked in the knowledge base.",
                         (), typed)
    assert "Step 1: Start from all nodes of type malware." in cot
    assert cot.endswith("<PATH> is_malware_type </PATH>")
    assert "Step 2" not in cot


def test_generate_dataset_deterministic(fixture_graph, registry, core_templates):
    config = DatasetConfig(rng_seed=42, max_per_template=10**9, test_fraction=0.25)
    first, table_one = generate_dataset(core_templates, fixture_graph, config, registry)
    second, table_two = generate_dataset(core_templates, fixture_graph, config, registry)
    assert dataset_to_jsonl(first.train) == dataset_to_jsonl(second.train)
    assert dataset_to_jsonl(first.test) == dataset_to_jsonl(second.test)
    assert table_one == table_two


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_cap_bounds_the_bindings_of_every_shipped_template(cap, fixture_graph, registry,
                                                          core_templates):
    for template in core_templates:
        bindings = _candidate_bindings(template, fixture_graph, random.Random(7), cap)
        assert len(bindings) <= cap, template.id
    if cap == 0:  # a template with no placeholder included
        split, _ = generate_dataset(core_templates, fixture_graph,
                                    DatasetConfig(max_per_template=0), registry)
        assert split.train == split.test == ()


def test_split_has_no_overlapping_combinations(fixture_graph, registry, core_templates):
    config = DatasetConfig(rng_seed=7, max_per_template=10**9, test_fraction=0.25)
    split, _ = generate_dataset(core_templates, fixture_graph, config, registry)
    seen_train = {(s.template_id, s.question) for s in split.train}
    seen_test = {(s.template_id, s.question) for s in split.test}
    assert not (seen_train & seen_test)
    assert split.train and split.test


def test_profile_counts_sum_to_split_sizes(fixture_graph, registry, core_templates):
    config = DatasetConfig(rng_seed=7, max_per_template=10**9, test_fraction=0.25)
    split, table = generate_dataset(core_templates, fixture_graph, config, registry)
    for samples in (split.train, split.test):
        buckets = {}
        for s in samples:
            buckets[s.bucket] = buckets.get(s.bucket, 0) + 1
        assert sum(buckets.values()) == len(samples)
        for s in samples:
            prof = profile(parse_path(s.path, registry))
            assert prof.bucket == s.bucket
            assert tuple(sorted(prof.operators)) == s.operators
    assert table.splitlines()[0].startswith("split")


def test_dataset_jsonl_round_trip(fixture_graph, registry, core_templates):
    split, _ = generate_dataset(core_templates, fixture_graph,
                                DatasetConfig(rng_seed=1), registry)
    text = dataset_to_jsonl(split.train)
    reloaded = load_dataset(text)
    assert list(reloaded) == list(split.train)


def test_dataset_round_trip_with_unicode_line_separators():
    # JSON leaves U+0085, U+2028 and U+2029 unescaped; they must not end a record.
    samples = [Sample(question="what uses a\u2029b?", cot="c\x85d", path="<PATH> p </PATH>",
                      start_entities=("a\u2028b",), answers=(), template_id="t",
                      bucket="L1", operators=()),
               Sample(question="q", cot="", path="<PATH> p </PATH>", start_entities=(),
                      answers=("x",), template_id="t", bucket="L1", operators=())]
    assert load_dataset(dataset_to_jsonl(samples)) == samples


@pytest.mark.parametrize("line, reason", [
    ('["x"]', "expected a JSON object, got list"),
    ('{"question": "q", "path": "is_malware_type", "bucket": "L1"}',
     "'bucket' is not an object"),
    ('{"question": "q", "path": "is_malware_type", "bucket": []}',
     "'bucket' is not an object"),
    ('{"path": "is_malware_type"}', "'question' is not a string"),
    ('{"question": "q", "path": null}', "'path' is not a string"),
    ('{"question": "q", "path": "is_malware_type", "cot": null}', "'cot' is not a string"),
    ("{not json", "not JSON (Expecting property name enclosed in double quotes)"),
], ids=["list", "bucket", "empty-list-bucket", "no-question", "null-path", "null-cot",
        "not-json"])
def test_malformed_dataset_line_names_the_line(line, reason):
    text = '{"question": "a", "path": "is_malware_type"}\n' + line + "\n"
    with pytest.raises(MalformedInput) as err:
        load_dataset(text)
    assert str(err.value) == f"line 2: {reason}"


def test_template_records_end_at_newline_only(registry):
    # A raw U+2028 in a template's text must not end its record.
    lines = default_template_text().split("\n")
    index = next(i for i, line in enumerate(lines) if line.startswith("{"))
    record = json.loads(lines[index])
    record["text"] = record["text"].replace(" ", "\u2028", 1)
    lines[index] = json.dumps(record, ensure_ascii=False)
    templates = load_templates("\n".join(lines), registry)
    assert len(templates) == len(load_templates(default_template_text(), registry))
    assert templates[0].text == record["text"]


def test_default_corpus_text_parses_as_jsonl():
    for line in default_template_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        json.loads(line)


def test_read_records_skips_blank_and_comment_lines_but_counts_them():
    text = "7\r\n\n  # a note\n 8 \n\u2028\nx\n"
    with pytest.raises(TemplateSchemaError, match=r"^line 6: invalid literal"):
        read_records(text, int, TemplateSchemaError, comments=True)
    assert read_records(text[:-2], int, comments=True) == [7, 8]
    with pytest.raises(MalformedInput, match=r"^line 3: invalid literal"):
        read_records(text, int)
