"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 2's real-data half needs a local enterprise ATT&CK bundle
(``enterprise-attack.json`` from the MITRE CTI repository).  Point
``TITAN_ATTACK_BUNDLE`` at it, or drop it at ``data/enterprise-attack.json``;
without one that half is skipped, since this environment cannot fetch it.
"""

import itertools
import json
import math
import os
import random
import string
import time
from pathlib import Path

import pytest

from titan_kg.cli import run_question
from titan_kg.datagen import (
    DatasetConfig,
    dataset_to_jsonl,
    default_template_text,
    generate_dataset,
    load_templates,
)
from titan_kg.eval import (
    EvalRecord,
    aggregate_report,
    bleu,
    exact_match,
    rouge_1,
    rouge_l,
)
from titan_kg.executor import execute
from titan_kg.kg import build_graph, node_census, parse_stix_bundle
from titan_kg.ontology import EntityKind, build_default_registry
from titan_kg.pathlang import (
    Filter,
    PathProgram,
    Select,
    Traverse,
    TypeSeed,
    parse_path,
    render_path,
    validate_program,
)
from titan_kg.planner import MockPlanner, PlannerRequest

from bruteforce import (
    brute_execute,
    relations_from,
    steps_from_program,
    successors,
    tables_from_graph,
)

# Reported next to the real-bundle census (release drift tolerance ±15%).
PUBLISHED_KIND_COUNTS = {
    EntityKind.ATTACK_PATTERN: 883,
    EntityKind.COURSE_OF_ACTION: 318,
    EntityKind.MALWARE: 732,
    EntityKind.TOOL: 89,
    EntityKind.CAMPAIGN: 31,
    EntityKind.INTRUSION_SET: 168,
    EntityKind.DATA_COMPONENT: 122,
    EntityKind.DATA_SOURCE: 43,
    EntityKind.ASSET: 14,
}
PUBLISHED_TOTALS = (2350, 48795)

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

FILTER_VOCABULARY = ("windows", "linux", "russia", "iran", "ransomware",
                     "spearphishing", "remote", "process")


def _passed(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def _real_bundle_path() -> Path | None:
    env = os.environ.get("TITAN_ATTACK_BUNDLE")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "enterprise-attack.json"
    return local if local.exists() else None


def test_acceptance_1_ontology_closure(registry):
    started = time.monotonic()
    checked = 0
    for sig in registry.signatures:
        rev = registry.signature_of(sig.target_kind, sig.inverse_name)
        assert rev.target_kind is sig.source_kind
        assert rev.inverse_name == sig.name
        assert registry.signature_of(rev.target_kind, rev.inverse_name) == sig
        assert sig.name.endswith("_" + sig.target_kind.slug)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == len(registry.signatures) > 0
    assert elapsed < 1.0
    _passed(1, "ontology closure", f"{checked} signatures in {elapsed:.3f}s")


def test_acceptance_2_graph_invariants_fixture(fixture_graph, registry):
    started = time.monotonic()
    edge_total = 0
    for src, rel, dst in fixture_graph.all_edges():
        sig = registry.signature_of(fixture_graph.node(src).kind, rel)
        assert fixture_graph.node(dst).kind is sig.target_kind
        assert src in successors(fixture_graph, (dst,), sig.inverse_name)
        edge_total += 1
    census = node_census(fixture_graph)
    assert census.per_kind == FIXTURE_CENSUS
    assert census.total_nodes == 21
    assert census.total_edges == 68 == edge_total
    elapsed = time.monotonic() - started
    _passed(2, "graph invariants (fixture)",
            f"{edge_total} edges bidirectional+typed in {elapsed:.3f}s")


def test_acceptance_2_graph_invariants_real_bundle(registry):
    bundle = _real_bundle_path()
    if bundle is None:
        pytest.skip("no local enterprise ATT&CK bundle: set TITAN_ATTACK_BUNDLE "
                    "or add data/enterprise-attack.json (this sandbox has no "
                    "network access to fetch it)")
    started = time.monotonic()
    graph = build_graph(parse_stix_bundle(bundle.read_bytes()), registry)
    for src, rel, dst in graph.all_edges():
        sig = registry.signature_of(graph.node(src).kind, rel)
        assert graph.node(dst).kind is sig.target_kind
        assert src in successors(graph, (dst,), sig.inverse_name)
    census = node_census(graph)
    print(f"{'kind':<18}{'built':>8}{'published':>11}{'delta%':>8}")
    for kind in EntityKind:
        built = census.per_kind[kind]
        published = PUBLISHED_KIND_COUNTS[kind]
        delta = 100.0 * (built - published) / published
        print(f"{kind.value:<18}{built:>8}{published:>11}{delta:>8.1f}")
    print(f"{'nodes':<18}{census.total_nodes:>8}{PUBLISHED_TOTALS[0]:>11}")
    print(f"{'edges':<18}{census.total_edges:>8}{PUBLISHED_TOTALS[1]:>11}")
    for kind in EntityKind:
        built = census.per_kind[kind]
        published = PUBLISHED_KIND_COUNTS[kind]
        assert abs(built - published) <= 0.15 * published, kind
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed(2, "graph invariants (real bundle)", f"{elapsed:.1f}s")


def test_acceptance_3_example_path_fidelity(fixture_graph, registry):
    started = time.monotonic()
    campaign = fixture_graph.find_by_name("Unitronics Defacement Campaign")
    l4 = validate_program(parse_path(
        "attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
        registry), registry, start_kind=EntityKind.CAMPAIGN)
    l4_result = execute(fixture_graph, l4, start=campaign)
    assert {n.name for n in l4_result.answers} == {
        "User Training", "Behavior Prevention on Endpoint"}

    filt = validate_program(parse_path(
        "is_intrusion_set_type → filter Russia → uses_attack_pattern "
        "→ targets → filter Windows", registry), registry)
    assert [n.name for n in execute(fixture_graph, filt).answers] == ["Windows"]

    common = validate_program(parse_path(
        "is_malware_type → select Cannon LitePower → uses_attack_pattern "
        "→ exec_common", registry), registry)
    assert [n.name for n in execute(fixture_graph, common).answers] == [
        "Data Encrypted for Impact"]

    diff = validate_program(parse_path(
        "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern "
        "→ exec_difference", registry), registry)
    assert [n.name for n in execute(fixture_graph, diff).answers] == [
        "Spearphishing Attachment"]

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(3, "example-path fidelity", f"4 paths in {elapsed:.3f}s")


def _relation_chains(registry, kind, max_hops):
    """All type-valid relation chains from ``kind`` up to ``max_hops``."""
    chains = [[]]
    level = [([], kind)]
    for _ in range(max_hops):
        next_level = []
        for chain, at in level:
            for rel in relations_from(registry, at):
                extended = chain + [rel]
                target = registry.signature_of(at, rel).target_kind
                next_level.append((extended, target))
                chains.append(extended)
        level = next_level
    return chains


def test_acceptance_4_oracle_equivalence(fixture_graph, registry):
    started = time.monotonic()
    nodes, edges = tables_from_graph(fixture_graph)
    programs_run = 0

    def check(program: PathProgram, start_ids=None):
        nonlocal programs_run
        start_kind = (fixture_graph.node(next(iter(start_ids))).kind
                      if start_ids else None)
        typed = validate_program(program, registry, start_kind=start_kind)
        result = execute(fixture_graph, typed,
                         start=tuple(start_ids) if start_ids else None)
        expected = brute_execute(nodes, edges, steps_from_program(typed.program),
                                 start_ids=set(start_ids or ()))
        assert {n.id for n in result.answers} == expected, render_path(program)
        programs_run += 1

    # (a) Type-seeded relation chains, length <= 4 (seed + 3 hops).
    for kind in EntityKind:
        for chain in _relation_chains(registry, kind, 3):
            steps = [TypeSeed(kind)] + [Traverse(rel) for rel in chain]
            check(PathProgram(tuple(steps)))

    # (b) Start-node relation chains, length <= 4 hops, from every node.
    for kind in EntityKind:
        chains = _relation_chains(registry, kind, 4)
        for nid in fixture_graph.nodes_of_kind(kind):
            for chain in chains:
                if not chain:
                    continue
                check(PathProgram(tuple(Traverse(rel) for rel in chain)),
                      start_ids={nid})

    # (c) Filter programs: every vocabulary keyword at every position of
    #     seeded chains of <= 2 hops.
    for kind in EntityKind:
        for chain in _relation_chains(registry, kind, 2):
            for keyword in FILTER_VOCABULARY:
                for position in range(len(chain) + 1):
                    steps = [TypeSeed(kind)]
                    steps += [Traverse(rel) for rel in chain[:position]]
                    steps.append(Filter(keyword))
                    steps += [Traverse(rel) for rel in chain[position:]]
                    check(PathProgram(tuple(steps)))

    # (d) Select programs: all ordered same-kind name pairs, chains of
    #     1..2 hops, both combining operators.
    from titan_kg.pathlang import ExecCommon, ExecDifference
    for kind in EntityKind:
        ids = fixture_graph.nodes_of_kind(kind)
        if len(ids) < 2:
            continue
        names = [fixture_graph.node(nid).name for nid in ids]
        for a, b in itertools.permutations(names, 2):
            for chain in _relation_chains(registry, kind, 2):
                if not chain:
                    continue
                for op in (ExecCommon(), ExecDifference()):
                    steps = ([TypeSeed(kind), Select((a, b))]
                             + [Traverse(rel) for rel in chain] + [op])
                    check(PathProgram(tuple(steps)))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(4, "oracle equivalence", f"{programs_run} programs in {elapsed:.1f}s")


def _binding_key(sample, registry):
    program = parse_path(sample.path, registry)
    select_names = tuple(n for step in program.steps if isinstance(step, Select)
                         for n in step.names)
    return (sample.template_id, sample.start_entities, select_names)


def test_acceptance_5_dataset_executability(scale_graph, registry):
    started = time.monotonic()
    templates = load_templates(default_template_text(), registry)
    config = DatasetConfig(rng_seed=17, max_per_template=60, test_fraction=0.16)
    split, _ = generate_dataset(templates, scale_graph, config, registry)
    generation_elapsed = time.monotonic() - started
    samples = list(split.train) + list(split.test)
    assert len(samples) >= 1000
    assert generation_elapsed < 60.0

    # Every emitted sample re-executes to exactly its recorded answers.
    for sample in samples:
        program = parse_path(sample.path, registry)
        if sample.start_entities:
            start_ids = tuple(nid for name in sample.start_entities
                              for nid in scale_graph.find_by_name(name))
            start_kind = scale_graph.node(start_ids[0]).kind
        else:
            start_ids, start_kind = None, None
        typed = validate_program(program, registry, start_kind=start_kind)
        result = execute(scale_graph, typed, start=start_ids)
        names = tuple(dict.fromkeys(n.name for n in result.answers))
        assert names == sample.answers, sample.template_id

    # Train/test share no (template, entity-binding) combination.
    train_keys = {_binding_key(s, registry) for s in split.train}
    test_keys = {_binding_key(s, registry) for s in split.test}
    assert not (train_keys & test_keys)

    # Same seed, byte-identical output.
    split_again, _ = generate_dataset(templates, scale_graph, config, registry)
    assert dataset_to_jsonl(split.train) == dataset_to_jsonl(split_again.train)
    assert dataset_to_jsonl(split.test) == dataset_to_jsonl(split_again.test)

    elapsed = time.monotonic() - started
    _passed(5, "dataset executability",
            f"{len(samples)} samples, gen {generation_elapsed:.1f}s, "
            f"total {elapsed:.1f}s")


@pytest.fixture(scope="module")
def scale_dataset(scale_graph, registry):
    templates = load_templates(default_template_text(), registry)
    config = DatasetConfig(rng_seed=17, max_per_template=60, test_fraction=0.16)
    split, _ = generate_dataset(templates, scale_graph, config, registry)
    return split


def test_acceptance_6_mock_end_to_end(scale_graph, registry, scale_dataset):
    split = scale_dataset
    planner = MockPlanner(list(split.train) + list(split.test), registry)
    records = []
    for sample in split.test:
        result, program, cot = run_question(scale_graph, planner,
                                            sample.question, registry=registry)
        names = tuple(dict.fromkeys(n.name for n in result.answers))
        assert names == sample.answers, sample.question
        reference = parse_path(sample.path, registry)
        records.append(EvalRecord(
            bucket=sample.bucket, operators=frozenset(sample.operators),
            em=exact_match(program, reference),
            rouge_l=rouge_l(cot or "", sample.cot),
            rouge_1=rouge_1(cot or "", sample.cot),
            bleu=bleu(cot or "", sample.cot),
        ))
    report = aggregate_report(records)
    for name, stats in report.rows.items():
        if stats.count:
            assert stats.em == 1.0, name
    assert report.rows["overall"].count == len(split.test)
    _passed(6, "mock end-to-end", f"{len(split.test)} test samples, EM 1.000")


def test_acceptance_7_metric_oracles():
    assert abs(rouge_l("a b c d", "a c d") - 0.857) < 1e-3
    assert abs(rouge_1("a a b", "a b b") - 0.667) < 1e-3
    assert bleu("identical text here", "identical text here") == 1.0
    rng = random.Random(123)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "uses_attack_pattern", "windows", "graph", "path"]

    def random_text():
        n = rng.randint(0, 15)
        text = " ".join(rng.choice(words) for _ in range(n))
        if rng.random() < 0.2:
            text += rng.choice(string.punctuation)
        return text

    for _ in range(1000):
        cand, ref = random_text(), random_text()
        for metric in (rouge_l, rouge_1, bleu):
            value = metric(cand, ref)
            assert 0.0 <= value <= 1.0
            assert math.isfinite(value)
    _passed(7, "metric oracles", "hand values + 1000 randomized pairs")


def _swap_relation(program: PathProgram, rng: random.Random, registry) -> PathProgram:
    """Corrupt one graph-touching step so the canonical path changes."""
    steps = list(program.steps)
    traverse_at = [i for i, s in enumerate(steps) if isinstance(s, Traverse)]
    all_relations = sorted({sig.name for sig in registry.signatures})
    if traverse_at:
        i = rng.choice(traverse_at)
        others = [r for r in all_relations if r != steps[i].rel]
        steps[i] = Traverse(rng.choice(others))
    else:
        seed = steps[0]
        other_kinds = [k for k in EntityKind if k is not seed.kind]
        steps[0] = TypeSeed(rng.choice(other_kinds))
    return PathProgram(tuple(steps))


def test_acceptance_8_degradation_sanity(registry, scale_dataset):
    samples = list(scale_dataset.test)
    n = len(samples)
    rng = random.Random(2718)
    corrupt = set(rng.sample(range(n), round(0.2 * n)))

    records = []
    corrupted_in_bucket: dict[str, int] = {}
    bucket_sizes: dict[str, int] = {}
    for i, sample in enumerate(samples):
        reference = parse_path(sample.path, registry)
        predicted = reference
        if i in corrupt:
            predicted = _swap_relation(reference, rng, registry)
            assert exact_match(predicted, reference) == 0
        bucket_sizes[sample.bucket] = bucket_sizes.get(sample.bucket, 0) + 1
        if i in corrupt:
            corrupted_in_bucket[sample.bucket] = \
                corrupted_in_bucket.get(sample.bucket, 0) + 1
        records.append(EvalRecord(bucket=sample.bucket,
                                  operators=frozenset(sample.operators),
                                  em=exact_match(predicted, reference)))
    report = aggregate_report(records)
    global_em = report.rows["overall"].em
    assert abs(global_em - 0.80) <= 0.02
    for bucket, size in bucket_sizes.items():
        expected = 1.0 - corrupted_in_bucket.get(bucket, 0) / size
        assert abs(report.rows[bucket].em - expected) < 1e-9, bucket
    _passed(8, "degradation sanity",
            f"global EM {global_em:.3f} after corrupting {len(corrupt)}/{n}")
