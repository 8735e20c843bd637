import json

import pytest

from titan_kg.datagen import (
    DatasetConfig,
    dataset_to_jsonl,
    default_template_text,
    generate_dataset,
    instantiate_template,
    load_dataset,
    load_templates,
    synthesize_cot,
)
from titan_kg.errors import TemplateSchemaError
from titan_kg.executor import execute
from titan_kg.ontology import EntityKind
from titan_kg.pathlang import parse_path, profile, validate_program

from bruteforce import brute_execute, steps_from_program, tables_from_graph


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
    buckets = {profile(t.path).bucket for t in core_templates}
    assert buckets == {"L1", "L2", "L3", "L4+"}
    flags = set()
    for t in core_templates:
        flags |= profile(t.path).operators
    assert flags == {"filter", "select", "exec_common", "exec_difference"}


def test_load_single_template(registry):
    templates = load_templates(_template_line(), registry)
    assert len(templates) == 1
    template = templates[0]
    assert template.start_slot == "[malware]"
    assert template.answer_kind is EntityKind.COURSE_OF_ACTION
    assert [p.token for p in template.placeholders] == ["[malware]"]


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


def test_duplicate_ids_rejected(registry):
    document = _template_line() + "\n" + _template_line()
    with pytest.raises(TemplateSchemaError):
        load_templates(document, registry)


def test_instantiate_start_template(fixture_graph, registry):
    template = load_templates(_template_line(), registry)[0]
    samples = instantiate_template(template, fixture_graph, rng_seed=1,
                                   registry=registry)
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
    samples = instantiate_template(template, fixture_graph, rng_seed=1,
                                   keep_empty=True, registry=registry)
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
    samples = instantiate_template(template, fixture_graph, rng_seed=3,
                                   registry=registry)
    wanted = [s for s in samples
              if s.question == ("Which techniques does the malware Sys10 use "
                                "that MarkiRAT does not?")]
    assert len(wanted) == 1
    sample = wanted[0]
    assert sample.answers == ("Spearphishing Attachment",)
    assert "select Sys10 MarkiRAT" in sample.path
    assert sample.start_entities == ()
    assert sample.operators == ("exec_difference", "select")


def test_samples_reexecute_to_recorded_answers(fixture_graph, registry, core_templates):
    nodes, edges = tables_from_graph(fixture_graph)
    total = 0
    for template in core_templates:
        for sample in instantiate_template(template, fixture_graph, rng_seed=11,
                                           registry=registry):
            program = parse_path(sample.path, registry)
            start_kind = (fixture_graph.node(
                fixture_graph.find_by_name(sample.start_entities[0])[0]).kind
                if sample.start_entities else None)
            typed = validate_program(program, registry, start_kind=start_kind)
            start_ids = None
            if sample.start_entities:
                start_ids = tuple(nid for name in sample.start_entities
                                  for nid in fixture_graph.find_by_name(name))
            result = execute(fixture_graph, typed, start=start_ids)
            names = tuple(dict.fromkeys(n.name for n in result.answers))
            assert names == sample.answers, sample.template_id
            # Independent oracle agrees.
            brute = brute_execute(nodes, edges, steps_from_program(typed.program),
                                  start_ids=set(start_ids or ()))
            assert {fixture_graph.node(nid).name for nid in brute} == set(names)
            total += 1
    assert total > 0


def test_cot_golden_for_l2_program(fixture_graph, registry):
    template = load_templates(_template_line(), registry)[0]
    samples = instantiate_template(template, fixture_graph, rng_seed=1,
                                   registry=registry)
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
    config = DatasetConfig(rng_seed=42, max_per_template=None, test_fraction=0.25)
    first, table_one = generate_dataset(core_templates, fixture_graph, config, registry)
    second, table_two = generate_dataset(core_templates, fixture_graph, config, registry)
    assert dataset_to_jsonl(first.train) == dataset_to_jsonl(second.train)
    assert dataset_to_jsonl(first.test) == dataset_to_jsonl(second.test)
    assert table_one == table_two


def test_split_has_no_overlapping_combinations(fixture_graph, registry, core_templates):
    config = DatasetConfig(rng_seed=7, max_per_template=None, test_fraction=0.25)
    split, _ = generate_dataset(core_templates, fixture_graph, config, registry)
    seen_train = {(s.template_id, s.question) for s in split.train}
    seen_test = {(s.template_id, s.question) for s in split.test}
    assert not (seen_train & seen_test)
    assert split.train and split.test


def test_profile_counts_sum_to_split_sizes(fixture_graph, registry, core_templates):
    config = DatasetConfig(rng_seed=7, max_per_template=None, test_fraction=0.25)
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


def test_default_corpus_text_parses_as_jsonl():
    for line in default_template_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        json.loads(line)
