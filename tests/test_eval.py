import json
import math
import os
import random
import string
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import titan_kg.eval as ev
from titan_kg.datagen import Sample, dataset_to_jsonl
from titan_kg.errors import MalformedInput
from titan_kg.eval import (
    EvalRecord,
    _coded,
    aggregate_report,
    bleu,
    exact_match,
    load_predictions,
    load_references,
    rouge_1,
    rouge_l,
    score_predictions,
    tokenize,
)
from titan_kg.executor import execute
from titan_kg.kg import KnowledgeGraph, Node
from titan_kg.ontology import EntityKind
from titan_kg.pathlang import parse_path, validate_program


def test_exact_match_identical():
    a = parse_path("uses_attack_pattern → mitigated_by_course_of_action")
    b = parse_path("uses_attack_pattern → mitigated_by_course_of_action")
    assert exact_match(a, b) == 1


def test_exact_match_after_alias_canonicalization():
    a = parse_path("mitigated_by")
    b = parse_path("mitigated_by_course_of_action")
    assert exact_match(a, b) == 1


def test_exact_match_reordered_is_zero():
    a = parse_path("uses_attack_pattern → mitigated_by_course_of_action")
    b = parse_path("mitigated_by_course_of_action → uses_attack_pattern")
    # Second order is type-invalid but still parseable; EM is syntactic.
    assert exact_match(a, b) == 0


def test_exact_match_token_vs_display_form():
    a = parse_path("<PATH> is_malware_type <SEP> filter ransomware </PATH>")
    b = parse_path("is_malware_type → filter ransomware")
    assert exact_match(a, b) == 1


def test_exact_match_case_insensitive_operands():
    a = parse_path("is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern → exec_common")
    b = parse_path("is_malware_type → select sys10 markirat → uses_attack_pattern → exec_common")
    assert exact_match(a, b) == 1


def test_exact_match_folds_operands_as_execution_reads_them(registry):
    # Filters and selects both fold their operands, so "Straße" and
    # "STRASSE" are one filter keyword and one select name.
    graph = KnowledgeGraph([Node("malware--s", "Straße Loader", EntityKind.MALWARE),
                            Node("malware--o", "Other", EntityKind.MALWARE)], [])

    def answers(program):
        typed = validate_program(program, registry)
        return [node.name for node in execute(graph, typed).answers]

    filters = [parse_path(f"is_malware_type → filter {keyword}", registry)
               for keyword in ("Straße", "STRASSE")]
    assert exact_match(*filters) == 1
    assert [answers(p) for p in filters] == [["Straße Loader"]] * 2
    selects = [parse_path(f'is_malware_type → select "{name}" Other', registry)
               for name in ("Straße Loader", "STRASSE LOADER")]
    assert exact_match(*selects) == 1
    assert [answers(p) for p in selects] == [["Other", "Straße Loader"]] * 2


def test_exact_match_symmetry_and_reflexivity():
    texts = ["is_malware_type → filter windows",
             "uses_attack_pattern → targets",
             "is_malware_type → select A B → uses_attack_pattern → exec_difference"]
    programs = [parse_path(t) for t in texts]
    for p in programs:
        assert exact_match(p, p) == 1
    for p in programs:
        for q in programs:
            assert exact_match(p, q) == exact_match(q, p)


def test_tokenizer_keeps_relation_tokens():
    assert tokenize("Follow uses_attack_pattern, then stop!") == [
        "follow", "uses_attack_pattern", "then", "stop"]


def test_rouge_l_hand_example():
    # cand "a b c d" vs ref "a c d": LCS = 3, P = 3/4, R = 1 -> F1 = 6/7.
    assert abs(rouge_l("a b c d", "a c d") - 0.857142857) < 1e-6


def test_rouge_l_bounds():
    assert rouge_l("same text", "same text") == 1.0
    assert rouge_l("alpha beta", "gamma delta") == 0.0
    assert rouge_l("", "anything") == 0.0


def test_rouge_1_hand_example():
    # cand "a a b" vs ref "a b b": clipped overlap 2, P = R = 2/3 -> F1 = 2/3.
    assert abs(rouge_1("a a b", "a b b") - 2 / 3) < 1e-9


def test_rouge_1_bounds():
    assert rouge_1("same text", "same text") == 1.0
    assert rouge_1("alpha", "beta") == 0.0


def test_bleu_identical_is_exactly_one():
    text = "the executor follows the uses_attack_pattern relation"
    assert bleu(text, text) == 1.0


def test_bleu_empty_candidate():
    assert bleu("", "some reference") == 0.0


def test_bleu_hand_worked_example():
    # cand "the cat sat down" (4 tokens) vs ref "the cat sat" (3 tokens).
    # Precisions counted by hand: p1 = 3/4, p2 = 2/3, p3 = 1/2, p4 has no
    # matching 4-gram so it takes the 1e-9 smoothing; |cand| >= |ref| so
    # the brevity penalty is 1.
    expected = math.exp((math.log(3 / 4) + math.log(2 / 3)
                         + math.log(1 / 2) + math.log(1e-9)) / 4)
    assert abs(bleu("the cat sat down", "the cat sat") - expected) < 1e-12


def test_bleu_brevity_penalty_applies():
    # cand "the cat" (2) vs ref "the cat sat" (3): p1 = 1, p2 = 1, and the
    # candidate is too short for 3/4-grams (effective order 2), so only the
    # brevity penalty costs anything.
    expected = math.exp(1 - 3 / 2)
    assert abs(bleu("the cat", "the cat sat") - expected) < 1e-12


def test_bleu_identical_short_text_is_one():
    assert bleu("identical text here", "identical text here") == 1.0
    assert bleu("one", "one") == 1.0


def _random_text(rng: random.Random) -> str:
    words = ["alpha", "beta", "gamma", "delta", "uses_attack_pattern", "windows",
             "the", "a", "node", "path", "filter", "graph", "malware"]
    length = rng.randint(0, 12)
    pieces = [rng.choice(words) for _ in range(length)]
    if rng.random() < 0.3:
        pieces.append(rng.choice(string.punctuation))
    return " ".join(pieces)


def test_metrics_bounded_on_randomized_pairs():
    rng = random.Random(99)
    for _ in range(1000):
        cand, ref = _random_text(rng), _random_text(rng)
        for metric in (rouge_l, rouge_1, bleu):
            value = metric(cand, ref)
            assert 0.0 <= value <= 1.0, (metric.__name__, cand, ref, value)


def test_metrics_ignore_trailing_whitespace():
    assert rouge_l("a b c", "a b c   ") == 1.0
    assert rouge_1("a b c", " a b c") == 1.0
    assert bleu("a b c d", "a b c d  ") == 1.0


def test_interleaved_scorer_calls_match_fresh_computation():
    # The scorers share a one-entry tokenization memo: a call on another
    # pair, on the same candidate with another reference, or on the pair
    # swapped must not see the last pair's tokens.
    a, b = "The cat sat, on the mat.", "the CAT sat on a mat"
    c, d = "uses_malware uses_malware then uses_attack_pattern", "USES_MALWARE"
    calls = [(rouge_l, a, b), (bleu, c, d), (rouge_1, a, b), (bleu, b, a), (rouge_1, a, d),
             (rouge_l, a, b), (bleu, a, b), (rouge_l, d, c), (rouge_1, "", b), (bleu, a, b)]

    def fresh(metric, cand, ref):
        _coded.cache_clear()
        return metric(cand, ref)

    expected = [fresh(*call) for call in calls]
    _coded.cache_clear()
    assert [metric(cand, ref) for metric, cand, ref in calls] == expected


def _sample(path, cot=""):
    return Sample(question="q", cot=cot, path=path, start_entities=(), answers=(),
                  template_id="t", bucket="L1", operators=())


def _references(samples, registry):
    return load_references(dataset_to_jsonl(samples), registry)


def test_score_predictions_parses_each_distinct_path_once(registry, monkeypatch):
    calls = Counter()

    def counted(text, registry=None):
        calls[text] += 1
        return parse_path(text, registry)

    monkeypatch.setattr(ev, "parse_path", counted)
    bogus = "<PATH> bogus_rel </PATH>"
    references = _references([_sample("is_malware_type"), _sample("uses_malware")] * 3,
                             registry)
    predictions = [{"path": bogus}, {"path": "uses_malware"}] * 3
    records = score_predictions(references, predictions, registry)
    assert [r.em for r in records] == [0, 1] * 3
    assert calls == {"is_malware_type": 1, "uses_malware": 1, bogus: 1}


def test_score_predictions_calls_the_scorers_by_module_name(registry, monkeypatch):
    # The benchmark's per-layer timings (bench/layers.py) wrap the scorers
    # where the module holds them, so score_predictions must look them up there.
    monkeypatch.setattr(ev, "rouge_l", lambda cand, ref: 0.25)
    monkeypatch.setattr(ev, "rouge_1", lambda cand, ref: 0.5)
    monkeypatch.setattr(ev, "bleu", lambda cand, ref: 0.75)
    [record] = score_predictions(_references([_sample("uses_malware", cot="a b")], registry),
                                 [{"path": "uses_malware", "cot": "a c"}], registry)
    assert (record.em, record.rouge_l, record.rouge_1, record.bleu) == (1, 0.25, 0.5, 0.75)


def test_scoring_a_row_counts_the_clipped_unigrams_once(monkeypatch):
    # ROUGE-1 and BLEU's order-1 precision read one count: a row whose
    # candidate fills all four BLEU orders makes one call per order.
    calls = []
    clipped = ev._clipped
    monkeypatch.setattr(ev, "_clipped", lambda cand, ref: calls.append(1) or clipped(cand, ref))
    _coded.cache_clear()
    cand, ref = "uses the malware loader", "the malware uses a loader"
    for metric in (rouge_l, rouge_1, bleu):
        metric(cand, ref)
    assert len(calls) == 4


def _record(bucket, em, operators=(), **metrics):
    return EvalRecord(bucket=bucket, operators=frozenset(operators), em=em,
                      **metrics)


def test_aggregate_single_record():
    report = aggregate_report([_record("L1", 1)])
    assert report.rows["L1"].em == 1.0
    assert report.rows["L1"].count == 1
    assert report.rows["overall"].em == 1.0


def test_aggregate_two_records_mean():
    report = aggregate_report([_record("L2", 1), _record("L2", 0)])
    assert report.rows["L2"].em == 0.5


def test_aggregate_recombination_identity():
    rng = random.Random(5)
    records = []
    for _ in range(200):
        bucket = rng.choice(["L1", "L2", "L3", "L4+"])
        operators = [op for op in ("filter", "select") if rng.random() < 0.3]
        records.append(_record(bucket, rng.randint(0, 1), operators))
    report = aggregate_report(records)
    weighted = sum(report.rows[b].count * report.rows[b].em
                   for b in ("L1", "L2", "L3", "L4+") if b in report.rows)
    total = sum(report.rows[b].count
                for b in ("L1", "L2", "L3", "L4+") if b in report.rows)
    assert total == len(records)
    assert abs(weighted / total - report.rows["overall"].em) < 1e-12


def test_operator_buckets_may_overlap():
    records = [_record("L2", 1, ("select", "exec_common"))]
    report = aggregate_report(records)
    assert report.rows["select"].count == 1
    assert report.rows["exec_common"].count == 1


_REPORT_SCRIPT = """
from titan_kg.eval import EvalRecord, aggregate_report
records = [EvalRecord(bucket="L2", operators=frozenset({"filter", "select", "exec_common"}),
                      em=1, rouge_l=0.5)]
print(aggregate_report(records).to_records(), end="")
"""


def test_report_records_do_not_depend_on_hash_seed():
    import titan_kg
    src = str(Path(titan_kg.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", _REPORT_SCRIPT], env=env,
                              capture_output=True, check=True, timeout=60)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert [json.loads(line)["bucket"] for line in outputs.pop().splitlines()] == [
        "L2", "exec_common", "filter", "select", "overall"]


def test_report_text_mentions_unavailable_bertscore():
    report = aggregate_report([_record("L1", 1)])
    assert "BERTScore: not computed" in report.to_text()


def test_empty_report_full_output():
    # No records still make an overall row: count 0, EM 0 and no text metrics.
    report = aggregate_report([])
    assert report.to_text() == (
        "bucket                 n      EM     R-L     R-1    BLEU\n"
        "--------------------------------------------------------\n"
        "overall                0   0.000       -       -       -\n"
        "BERTScore: not computed\n")
    assert report.to_records() == (
        '{"bucket": "overall", "count": 0, "em": 0.0, "rouge_l": null, '
        '"rouge_1": null, "bleu": null}\n')


# Texts that often hold the code points str.splitlines breaks at but JSON
# leaves unescaped.
_PREDICTION_TEXT = st.text(st.sampled_from("\x85\u2028\u2029") | st.characters(
    exclude_categories=("Cs",)), max_size=12)
_PREDICTION = st.fixed_dictionaries({}, optional={"path": st.none() | _PREDICTION_TEXT,
                                                  "cot": st.none() | _PREDICTION_TEXT})


@given(st.lists(st.tuples(_PREDICTION, st.integers(0, 2)), max_size=6))
def test_load_predictions_round_trip(rows):
    text = "".join("\n" * blanks + json.dumps(pred, ensure_ascii=False) + "\n"
                   for pred, blanks in rows)
    assert load_predictions(text) == [pred for pred, _ in rows]


@pytest.mark.parametrize("line, message", [
    ("[1]", "line 4: expected a JSON object, got list"),
    ('{"path": 5}', "line 4: 'path' is not a string"),
    ('{"path": "p", "cot": ["x"]}', "line 4: 'cot' is not a string"),
    ("{not json", "line 4: not JSON ("),
])
def test_load_predictions_error_names_its_line(line, message):
    # Blank lines are skipped but still counted.
    text = '{"path": "p"}\n\n  \n' + line + '\n{"path": "q"}\n'
    with pytest.raises(MalformedInput) as info:
        load_predictions(text)
    assert str(info.value).startswith(message)
