import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from titan_kg import cli, planner
from titan_kg.cli import main

from conftest import FIXTURE_BUNDLE, MISTYPED_TARGETS


@pytest.fixture()
def snapshot(tmp_path) -> Path:
    out = tmp_path / "fixture.snap"
    code = main(["ingest", str(FIXTURE_BUNDLE), "--out", str(out)])
    assert code == 0
    return out


def test_ingest_prints_census_and_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "graph.snap"
    code = main(["ingest", str(FIXTURE_BUNDLE), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "malware\t4" in captured.out
    assert "nodes\t21" in captured.out
    assert "edges\t68" in captured.out
    assert "skipped\t2" in captured.out


CENSUS_TABLE = (
    "attack-pattern\t4\n"
    "course-of-action\t2\n"
    "malware\t4\n"
    "tool\t1\n"
    "campaign\t1\n"
    "intrusion-set\t2\n"
    "data-component\t3\n"
    "data-source\t2\n"
    "asset\t2\n"
    "nodes\t21\n"
    "edges\t68\n"
)


def test_ingest_full_output(tmp_path, capsys):
    out = tmp_path / "graph.snap"
    assert main(["ingest", str(FIXTURE_BUNDLE), "--out", str(out)]) == 0
    assert capsys.readouterr().out == CENSUS_TABLE + f"skipped\t2\nsnapshot\t{out}\n"


@pytest.mark.parametrize("case", sorted(MISTYPED_TARGETS))
def test_ingest_skips_edge_to_a_node_of_the_wrong_kind(case, tmp_path, capsys):
    source, objects = MISTYPED_TARGETS[case]
    bundle, out = tmp_path / "bundle.json", tmp_path / "graph.snap"
    bundle.write_text(json.dumps(objects), "utf-8")
    assert main(["ingest", str(bundle), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "malware\t1" in lines and "edges\t0" in lines
    assert [line for line in lines if line.startswith("skipped")] == ["skipped\t1"]
    assert main(["ingest", str(bundle), "--out", str(out), "--strict"]) == 1
    err = _one_line_error(capsys, "UnknownSignature: ")
    assert f"node {source}: no signature for" in err


SUBTECHNIQUE_BUNDLE = [
    {"type": "attack-pattern", "id": "attack-pattern--p", "name": "Parent"},
    {"type": "attack-pattern", "id": "attack-pattern--c", "name": "Child"},
    {"type": "relationship", "id": "relationship--r", "relationship_type": "subtechnique-of",
     "source_ref": "attack-pattern--c", "target_ref": "attack-pattern--p"}]


def test_ingest_without_subtechniques_skips_subtechnique_edges(tmp_path, capsys):
    bundle, out = tmp_path / "bundle.json", tmp_path / "graph.snap"
    bundle.write_text(json.dumps(SUBTECHNIQUE_BUNDLE), "utf-8")
    assert main(["ingest", str(bundle), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "edges\t2" in lines and not any(line.startswith("skipped") for line in lines)
    assert main(["ingest", str(bundle), "--out", str(out), "--no-subtechniques"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "nodes\t2" in lines and "edges\t0" in lines and "skipped\t1" in lines
    assert main(["ingest", str(bundle), "--out", str(out), "--no-subtechniques",
                 "--strict"]) == 1
    _one_line_error(capsys, "UnknownSignature: relationship relationship--r: no signature "
                            "for (attack-pattern, subtechnique_of, attack-pattern)")


def test_census_full_output(snapshot, capsys):
    assert main(["census", "--snapshot", str(snapshot)]) == 0
    assert capsys.readouterr().out == CENSUS_TABLE


def test_census_with_expected_table_full_output(snapshot, tmp_path, capsys):
    # Rows follow the census order; comments, blank lines and kinds the
    # expected table leaves out are skipped.
    expected = tmp_path / "expected.tsv"
    expected.write_text("# kind<TAB>count\nnodes\t20\n\nmalware\t4\nasset\t2\n", "utf-8")
    assert main(["census", "--snapshot", str(snapshot), "--expected", str(expected)]) == 0
    assert capsys.readouterr().out == (
        "kind                actual  expected  delta%\n"
        "malware                  4         4     0.0\n"
        "asset                    2         2     0.0\n"
        "nodes                   21        20     5.0\n"
    )


def test_ingest_rejects_an_id_that_would_break_the_snapshot(tmp_path, capsys):
    # Ids are written raw, so a tab in one would make a snapshot no load accepts.
    bundle = tmp_path / "bundle.json"
    bundle.write_text('[{"type": "malware", "id": "malware--a\\tb", "name": "Tabby"}]', "utf-8")
    out = tmp_path / "g.snap"
    assert main(["ingest", str(bundle), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"MalformedBundle: {bundle} object #0 id 'malware--a\\tb' holds a tab or line break\n")
    assert not out.exists()


def test_ingest_deterministic_snapshot_bytes(tmp_path):
    a, b = tmp_path / "a.snap", tmp_path / "b.snap"
    assert main(["ingest", str(FIXTURE_BUNDLE), "--out", str(a)]) == 0
    assert main(["ingest", str(FIXTURE_BUNDLE), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_with_expected_table(snapshot, tmp_path, capsys):
    expected = tmp_path / "expected.tsv"
    expected.write_text("malware\t4\nasset\t2\nnodes\t21\n", "utf-8")
    code = main(["census", "--snapshot", str(snapshot), "--expected", str(expected)])
    captured = capsys.readouterr()
    assert code == 0
    assert "malware" in captured.out
    assert "0.0" in captured.out  # zero drift against itself


def test_exec_fig_l4_path(snapshot, capsys):
    code = main(["exec", "--snapshot", str(snapshot),
                 "--path", "attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
                 "--start", "Unitronics Defacement Campaign"])
    captured = capsys.readouterr()
    assert code == 0
    assert "User Training" in captured.out
    assert "Behavior Prevention on Endpoint" in captured.out
    assert "path\t<PATH> attributed_to_intrusion_set" in captured.out


def test_exec_prints_full_trace(snapshot, capsys):
    code = main(["exec", "--snapshot", str(snapshot),
                 "--path", "attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
                 "--start", "Unitronics Defacement Campaign"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "path\t<PATH> attributed_to_intrusion_set <SEP> uses_malware <SEP> "
        "uses_attack_pattern <SEP> mitigated_by_course_of_action </PATH>\n"
        "answers\t2\n"
        "  course-of-action\tBehavior Prevention on Endpoint\tcourse-of-action--0002\n"
        "  course-of-action\tUser Training\tcourse-of-action--0001\n"
        "start\t1\tcampaign--0001\n"
        "trace\n"
        "  step 1\tattributed_to_intrusion_set\tin=1\tout=1\tedges=1\n"
        "    Unitronics Defacement Campaign --attributed_to_intrusion_set--> Sandworm Team\n"
        "  step 2\tuses_malware\tin=1\tout=2\tedges=2\n"
        "    Sandworm Team --uses_malware--> Sys10\n"
        "    Sandworm Team --uses_malware--> MarkiRAT\n"
        "  step 3\tuses_attack_pattern\tin=2\tout=2\tedges=3\n"
        "    Sys10 --uses_attack_pattern--> Spearphishing Attachment\n"
        "    Sys10 --uses_attack_pattern--> Process Injection\n"
        "    MarkiRAT --uses_attack_pattern--> Process Injection\n"
        "  step 4\tmitigated_by_course_of_action\tin=2\tout=2\tedges=2\n"
        "    Spearphishing Attachment --mitigated_by_course_of_action--> User Training\n"
        "    Process Injection --mitigated_by_course_of_action--> "
        "Behavior Prevention on Endpoint\n"
    )


def test_exec_prints_full_trace_of_type_seeded_select(snapshot, capsys):
    code = main(["exec", "--snapshot", str(snapshot), "--path",
                 "is_malware_type → select Cannon LitePower → uses_attack_pattern → exec_common"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "path\t<PATH> is_malware_type <SEP> select Cannon LitePower <SEP> "
        "uses_attack_pattern <SEP> exec_common </PATH>\n"
        "answers\t1\n"
        "  attack-pattern\tData Encrypted for Impact\tattack-pattern--0003\n"
        "start\t4\tmalware--0003 malware--0004 malware--0002 malware--0001\n"
        "trace\n"
        "  step 1\tis_malware_type\tin=4\tout=4\tedges=0\n"
        "  step 2\tselect Cannon LitePower\tin=4\tout=1,1\tedges=0\n"
        "  step 3\tuses_attack_pattern\tin=1,1\tout=2,1\tedges=3\n"
        "    Cannon --uses_attack_pattern--> Process Injection\n"
        "    Cannon --uses_attack_pattern--> Data Encrypted for Impact\n"
        "    LitePower --uses_attack_pattern--> Data Encrypted for Impact\n"
        "  step 4\texec_common\tin=2,1\tout=1\tedges=0\n"
    )


def test_exec_prints_full_trace_of_select_without_combiner(snapshot, capsys):
    # Two branches reach the end; the answers are their union.
    code = main(["exec", "--snapshot", str(snapshot), "--path",
                 "is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "path\t<PATH> is_malware_type <SEP> select Sys10 MarkiRAT <SEP> "
        "uses_attack_pattern </PATH>\n"
        "answers\t2\n"
        "  attack-pattern\tProcess Injection\tattack-pattern--0002\n"
        "  attack-pattern\tSpearphishing Attachment\tattack-pattern--0001\n"
        "start\t4\tmalware--0003 malware--0004 malware--0002 malware--0001\n"
        "trace\n"
        "  step 1\tis_malware_type\tin=4\tout=4\tedges=0\n"
        "  step 2\tselect Sys10 MarkiRAT\tin=4\tout=1,1\tedges=0\n"
        "  step 3\tuses_attack_pattern\tin=1,1\tout=2,1\tedges=3\n"
        "    Sys10 --uses_attack_pattern--> Spearphishing Attachment\n"
        "    Sys10 --uses_attack_pattern--> Process Injection\n"
        "    MarkiRAT --uses_attack_pattern--> Process Injection\n"
    )


def test_exec_prints_full_trace_of_type_seeded_filter(snapshot, capsys):
    code = main(["exec", "--snapshot", str(snapshot), "--path",
                 "is_intrusion_set_type → filter Russia → uses_attack_pattern "
                 "→ targets → filter Windows"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "path\t<PATH> is_intrusion_set_type <SEP> filter Russia <SEP> "
        "uses_attack_pattern <SEP> targets_asset <SEP> filter Windows </PATH>\n"
        "answers\t1\n"
        "  asset\tWindows\tasset--windows\n"
        "start\t2\tintrusion-set--0002 intrusion-set--0001\n"
        "trace\n"
        "  step 1\tis_intrusion_set_type\tin=2\tout=2\tedges=0\n"
        "  step 2\tfilter Russia\tin=2\tout=1\tedges=0\n"
        "  step 3\tuses_attack_pattern\tin=1\tout=2\tedges=2\n"
        "    Sandworm Team --uses_attack_pattern--> Spearphishing Attachment\n"
        "    Sandworm Team --uses_attack_pattern--> Process Injection\n"
        "  step 4\ttargets_asset\tin=2\tout=2\tedges=3\n"
        "    Spearphishing Attachment --targets_asset--> Linux\n"
        "    Spearphishing Attachment --targets_asset--> Windows\n"
        "    Process Injection --targets_asset--> Windows\n"
        "  step 5\tfilter Windows\tin=2\tout=1\tedges=0\n"
    )


def test_exec_unknown_start_is_one_line_error(snapshot, capsys):
    code = main(["exec", "--snapshot", str(snapshot),
                 "--path", "uses_attack_pattern", "--start", "NoSuchThing"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("StartKindMismatch: ")
    assert "\n" not in captured.err.strip()


def test_exec_bad_path_reports_error_class(snapshot, capsys):
    code = main(["exec", "--snapshot", str(snapshot), "--path", "uzes_attack_pattern"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("UnknownRelation: ")


def test_gen_writes_dataset_and_profile(snapshot, tmp_path, capsys):
    outdir = tmp_path / "dataset"
    code = main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir), "--test-fraction", "0.25"])
    assert code == 0
    train = (outdir / "train.jsonl").read_text("utf-8")
    test = (outdir / "test.jsonl").read_text("utf-8")
    profile = (outdir / "profile.txt").read_text("utf-8")
    assert train and test
    assert profile.splitlines()[0].startswith("split")
    record = json.loads(train.splitlines()[0])
    assert set(record) == {"question", "cot", "path", "start_entities",
                           "answers", "template_id", "bucket"}


def test_gen_same_seed_byte_identical(snapshot, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "9",
                 "--out", str(out_a)]) == 0
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "9",
                 "--out", str(out_b)]) == 0
    for name in ("train.jsonl", "test.jsonl", "profile.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_gen_bytes_do_not_depend_on_hash_seed(snapshot, tmp_path):
    import titan_kg
    src = str(Path(titan_kg.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("1", "2", "3", "4"):
        out = tmp_path / f"dataset-{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "titan_kg.cli", "gen", "--snapshot", str(snapshot),
                        "--seed", "7", "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=60)
        outputs.add(tuple((out / name).read_bytes() for name in ("train.jsonl", "test.jsonl")))
    assert len(outputs) == 1
    train, test = outputs.pop()
    assert train and test


def test_gen_drops_select_binding_of_name_with_quote(tmp_path, capsys):
    bundle = json.loads(FIXTURE_BUNDLE.read_text("utf-8"))
    for obj in bundle["objects"]:
        if obj.get("name") == "Sys10":
            obj["name"] = 'Sys10 "Q"'
    (tmp_path / "bundle.json").write_text(json.dumps(bundle), "utf-8")
    snap, outdir = tmp_path / "quoted.snap", tmp_path / "dataset"
    assert main(["ingest", str(tmp_path / "bundle.json"), "--out", str(snap)]) == 0
    code = main(["gen", "--snapshot", str(snap), "--seed", "3", "--out", str(outdir)])
    assert code == 0, capsys.readouterr().err
    rows = [json.loads(line) for name in ("train.jsonl", "test.jsonl")
            for line in (outdir / name).read_text("utf-8").splitlines()]
    # A start entity may hold the quote; a select name may not.
    assert any(row["start_entities"] == ['Sys10 "Q"'] for row in rows)
    assert not any('"Q"' in row["path"] for row in rows)


def test_gen_bad_template_corpus_error_names_the_file(snapshot, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "x", "text": "Which malware?", "path": "is_malware_type",
                                  "answer_kind": "nope"}) + "\n", "utf-8")
    assert main(["gen", "--snapshot", str(snapshot), "--templates", str(corpus),
                 "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys, f"TemplateSchemaError: {corpus} template x: ")
    assert "valid answer_kind" in err


def test_gen_bad_placeholder_error_names_the_template(snapshot, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "x", "text": "Which [foo] is it?", "start": "[foo]",
                                  "path": "uses", "answer_kind": "malware"}) + "\n", "utf-8")
    assert main(["gen", "--snapshot", str(snapshot), "--templates", str(corpus),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"TemplateSchemaError: {corpus} template x: bad placeholder '[foo]'\n")


def test_gen_template_record_of_wrong_json_type_error_names_the_file(snapshot, tmp_path,
                                                                   capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("# a comment\n[1]\n", "utf-8")
    assert main(["gen", "--snapshot", str(snapshot), "--templates", str(corpus),
                 "--out", str(tmp_path / "out")]) == 1
    _one_line_error(capsys, f"TemplateSchemaError: {corpus} line 2: expected a JSON object")


def test_gen_rejects_bad_seed(snapshot, tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--snapshot", str(snapshot), "--seed", "-1",
              "--out", str(tmp_path / "x")])


@pytest.mark.parametrize("option, value", [
    ("--max-per-template", "-1"), ("--test-fraction", "nan"),
    ("--test-fraction", "inf"), ("--test-fraction", "-0.5"), ("--test-fraction", "1.5")])
def test_gen_rejects_bad_count_or_fraction(snapshot, tmp_path, capsys, option, value):
    with pytest.raises(SystemExit):
        main(["gen", "--snapshot", str(snapshot), option, value,
              "--out", str(tmp_path / "x")])
    assert f"argument {option}:" in capsys.readouterr().err


def test_ask_rejects_blank_question(snapshot, capsys):
    with pytest.raises(SystemExit):
        main(["ask", "--snapshot", str(snapshot), "--question", " \t"])
    assert "argument --question: must not be blank" in capsys.readouterr().err


def test_ask_mock_round_trip(snapshot, tmp_path, capsys):
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    train = (outdir / "train.jsonl").read_text("utf-8").splitlines()
    record = json.loads(train[0])
    code = main(["ask", "--snapshot", str(snapshot),
                 "--question", record["question"],
                 "--planner", "mock", "--dataset", str(outdir / "train.jsonl")])
    captured = capsys.readouterr()
    assert code == 0
    assert f"path\t{record['path']}" in captured.out
    for answer in record["answers"]:
        assert answer in captured.out


def test_ask_mock_nocot_uses_entity_linking(snapshot, tmp_path, capsys):
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    records = [json.loads(line) for line in
               (outdir / "train.jsonl").read_text("utf-8").splitlines()]
    record = next(r for r in records if r["start_entities"])
    code = main(["ask", "--snapshot", str(snapshot),
                 "--question", record["question"], "--mode", "nocot",
                 "--planner", "mock", "--dataset", str(outdir / "train.jsonl")])
    captured = capsys.readouterr()
    assert code == 0
    assert "cot\t" not in captured.out
    for answer in record["answers"]:
        assert answer in captured.out


TYPE_SEEDED_ROW = {"question": "Which ransomware malware is like Sys10?",
                   "path": "is_malware_type → filter ransomware"}


@pytest.mark.parametrize("refuse_linking", [False, True])
def test_ask_nocot_type_seeded_full_output(snapshot, tmp_path, capsys, monkeypatch,
                                           refuse_linking):
    # The path ignores the start, so the question's "Sys10" is never linked.
    if refuse_linking:
        def refuse(question, graph):
            raise AssertionError(f"linked {question!r}")
        monkeypatch.setattr(planner, "link_entities", refuse)
    dataset = tmp_path / "seeded.jsonl"
    dataset.write_text(json.dumps(TYPE_SEEDED_ROW) + "\n", "utf-8")
    code = main(["ask", "--snapshot", str(snapshot), "--question", TYPE_SEEDED_ROW["question"],
                 "--mode", "nocot", "--planner", "mock", "--dataset", str(dataset)])
    assert code == 0
    assert capsys.readouterr().out == (
        "path\t<PATH> is_malware_type <SEP> filter ransomware </PATH>\n"
        "answers\t1\n"
        "  malware\tLitePower\tmalware--0004\n"
        "start\t4\tmalware--0003 malware--0004 malware--0002 malware--0001\n"
        "trace\n"
        "  step 1\tis_malware_type\tin=4\tout=4\tedges=0\n"
        "  step 2\tfilter ransomware\tin=4\tout=1\tedges=0\n"
    )


def test_ask_unparseable_stored_path_is_one_line_error(snapshot, tmp_path, capsys):
    # The planner builds over a row whose path does not parse; only
    # planning that row fails.
    dataset = tmp_path / "bad-path.jsonl"
    dataset.write_text(json.dumps(TYPE_SEEDED_ROW) + "\n"
                       + json.dumps({"question": "bad", "path": "uses → → mitigated_by"}) + "\n",
                       "utf-8")
    ask = ["ask", "--snapshot", str(snapshot), "--planner", "mock", "--dataset", str(dataset)]
    assert main(ask + ["--question", TYPE_SEEDED_ROW["question"]]) == 0
    capsys.readouterr()
    assert main(ask + ["--question", "bad"]) == 1
    _one_line_error(capsys, "PathSyntaxError: ")


def test_ask_remote_without_endpoint_config(snapshot, capsys, monkeypatch):
    for var in ("TITAN_LLM_BASE_URL", "TITAN_LLM_MODEL", "TITAN_LLM_API_KEY"):
        monkeypatch.delenv(var, raising=False)
    code = main(["ask", "--snapshot", str(snapshot), "--question", "q",
                 "--planner", "remote"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("PlannerUnavailable: ")


def test_ask_mock_with_empty_dataset_is_one_line_error(snapshot, tmp_path, capsys):
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text("", "utf-8")
    assert main(["ask", "--snapshot", str(snapshot), "--question", "q",
                 "--planner", "mock", "--dataset", str(dataset)]) == 1
    assert capsys.readouterr().err == "UnparseablePlan: planner returned no usable path\n"


def test_ask_mock_needs_dataset(snapshot, capsys):
    code = main(["ask", "--snapshot", str(snapshot), "--question", "q",
                 "--planner", "mock"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("TitanError: ")


def test_eval_dataset_against_itself(snapshot, tmp_path, capsys):
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    test_file = outdir / "test.jsonl"
    predictions = tmp_path / "preds.jsonl"
    lines = []
    for line in test_file.read_text("utf-8").splitlines():
        record = json.loads(line)
        lines.append(json.dumps({"path": record["path"], "cot": record["cot"]}))
    predictions.write_text("\n".join(lines) + "\n", "utf-8")
    report_out = tmp_path / "report.jsonl"
    code = main(["eval", "--dataset", str(test_file),
                 "--predictions", str(predictions), "--out", str(report_out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall" in captured.out
    rows = {json.loads(line)["bucket"]: json.loads(line)
            for line in report_out.read_text("utf-8").splitlines()}
    assert rows["overall"]["em"] == 1.0
    for name, row in rows.items():
        assert row["em"] == 1.0, name
        assert row["rouge_l"] == 1.0


EVAL_ROTATED_STDOUT = """\
bucket                 n      EM     R-L     R-1    BLEU
--------------------------------------------------------
L1                     6   0.000   0.636   0.650   0.395
L2                    12   0.000   0.721   0.739   0.510
L3                     2   0.000   0.738   0.760   0.528
filter                 1   0.000   0.630   0.648   0.323
select                 7   0.000   0.738   0.762   0.558
exec_common            3   0.000   0.728   0.743   0.525
exec_difference        4   0.000   0.745   0.776   0.582
overall               20   0.000   0.697   0.714   0.477
BERTScore: not computed
"""

EVAL_ROTATED_REPORT = """\
{"bucket": "L3", "count": 2, "em": 0.0, "rouge_l": 0.7383168869856638, "rouge_1": 0.7596816235337926, "bleu": 0.5281455701908242}
{"bucket": "exec_common", "count": 3, "em": 0.0, "rouge_l": 0.7282887123093983, "rouge_1": 0.7427170644547422, "bleu": 0.5253168535551568}
{"bucket": "select", "count": 7, "em": 0.0, "rouge_l": 0.7377590915378535, "rouge_1": 0.7619529626239123, "bleu": 0.5578181786149768}
{"bucket": "L2", "count": 12, "em": 0.0, "rouge_l": 0.7212317948693396, "rouge_1": 0.7388721003906195, "bleu": 0.5097034278585039}
{"bucket": "L1", "count": 6, "em": 0.0, "rouge_l": 0.6363449397866369, "rouge_1": 0.6497106676616523, "bleu": 0.39542794885763444}
{"bucket": "exec_difference", "count": 4, "em": 0.0, "rouge_l": 0.7448618759591947, "rouge_1": 0.7763798862507899, "bleu": 0.582194172409842}
{"bucket": "filter", "count": 1, "em": 0.0, "rouge_l": 0.6296296296296297, "rouge_1": 0.6481481481481481, "bleu": 0.322599989009665}
{"bucket": "overall", "count": 20, "em": 0.0, "rouge_l": 0.6974742475561613, "rouge_1": 0.7142046228862468, "bleu": 0.477264998391475}
"""


def test_eval_rotated_predictions_full_output(snapshot, tmp_path, capsys):
    # Each prediction is the next row's path and CoT, so every path and
    # CoT differs from its reference and every score is a partial overlap.
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    test_file = outdir / "test.jsonl"
    rows = [json.loads(line) for line in test_file.read_text("utf-8").splitlines()]
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("".join(
        json.dumps({"path": row["path"], "cot": row["cot"]}) + "\n"
        for row in rows[1:] + rows[:1]), "utf-8")
    report_out = tmp_path / "report.jsonl"
    capsys.readouterr()
    code = main(["eval", "--dataset", str(test_file),
                 "--predictions", str(predictions), "--out", str(report_out)])
    assert code == 0
    assert capsys.readouterr().out == EVAL_ROTATED_STDOUT
    assert report_out.read_text("utf-8") == EVAL_ROTATED_REPORT


EVAL_NEAR_MISS_STDOUT = """\
bucket                 n      EM     R-L     R-1    BLEU
--------------------------------------------------------
L1                     6   1.000   0.918   0.918   0.828
L2                    12   1.000   0.945   0.945   0.878
L3                     2   1.000   0.970   0.970   0.922
filter                 1   1.000   0.956   0.956   0.895
select                 7   1.000   0.946   0.946   0.876
exec_common            3   1.000   0.955   0.955   0.888
exec_difference        4   1.000   0.940   0.940   0.867
overall               20   1.000   0.939   0.939   0.867
BERTScore: not computed
"""

EVAL_NEAR_MISS_REPORT = """\
{"bucket": "L3", "count": 2, "em": 1.0, "rouge_l": 0.9698178533794972, "rouge_1": 0.9698178533794972, "bleu": 0.9219531909120742}
{"bucket": "exec_common", "count": 3, "em": 1.0, "rouge_l": 0.9551781306860833, "rouge_1": 0.9551781306860833, "bleu": 0.888328003219478}
{"bucket": "select", "count": 7, "em": 1.0, "rouge_l": 0.9462637257671339, "rouge_1": 0.9462637257671339, "bleu": 0.8760636859552984}
{"bucket": "L2", "count": 12, "em": 1.0, "rouge_l": 0.9451914631892665, "rouge_1": 0.9451914631892665, "bleu": 0.8778927184404868}
{"bucket": "L1", "count": 6, "em": 1.0, "rouge_l": 0.9176921269944526, "rouge_1": 0.9176921269944526, "bleu": 0.8277315022484633}
{"bucket": "exec_difference", "count": 4, "em": 1.0, "rouge_l": 0.9395779220779221, "rouge_1": 0.9395779220779221, "bleu": 0.8668654480071635}
{"bucket": "filter", "count": 1, "em": 1.0, "rouge_l": 0.9558823529411764, "rouge_1": 0.9558823529411764, "bleu": 0.8950392603090439}
{"bucket": "overall", "count": 20, "em": 1.0, "rouge_l": 0.9394043013498454, "rouge_1": 0.9394043013498454, "bleu": 0.8672504008300386}
"""


def test_eval_near_miss_predictions_full_output(snapshot, tmp_path, capsys):
    # Each prediction is its reference with one entity name in the CoT
    # replaced by the next row's, as a nearest question's CoT differs from
    # the asked one's: each CoT pair shares a prefix and a suffix around
    # short differing middles, and one pair is identical.
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    test_file = outdir / "test.jsonl"
    rows = [json.loads(line) for line in test_file.read_text("utf-8").splitlines()]
    names = [(row["start_entities"] or row["cot"].split("Branch the reasoning for ")[1]
              .split(","))[0] for row in rows]
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("".join(
        json.dumps({"path": row["path"], "cot": row["cot"].replace(name, other)}) + "\n"
        for row, name, other in zip(rows, names, names[1:] + names[:1])), "utf-8")
    report_out = tmp_path / "report.jsonl"
    capsys.readouterr()
    assert main(["eval", "--dataset", str(test_file),
                 "--predictions", str(predictions), "--out", str(report_out)]) == 0
    assert capsys.readouterr().out == EVAL_NEAR_MISS_STDOUT
    assert report_out.read_text("utf-8") == EVAL_NEAR_MISS_REPORT


def test_eval_buckets_rows_by_reference_path_not_dataset_labels(tmp_path, capsys):
    # Row 1 has no bucket and row 2 claims a filter: both paths are one
    # type seed, so both rows are L1 with no operator.
    dataset = tmp_path / "refs.jsonl"
    dataset.write_text(
        '{"question": "a", "path": "is_malware_type"}\n'
        '{"question": "b", "path": "is_malware_type", '
        '"bucket": {"length": "L1", "operators": ["filter"]}}\n', "utf-8")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"path": "is_malware_type"}\n' * 2, "utf-8")
    report_out = tmp_path / "report.jsonl"
    assert main(["eval", "--dataset", str(dataset), "--predictions", str(predictions),
                 "--out", str(report_out)]) == 0
    assert capsys.readouterr().out == (
        "bucket                 n      EM     R-L     R-1    BLEU\n"
        "--------------------------------------------------------\n"
        "L1                     2   1.000       -       -       -\n"
        "overall                2   1.000       -       -       -\n"
        "BERTScore: not computed\n")
    assert report_out.read_text("utf-8") == (
        '{"bucket": "L1", "count": 2, "em": 1.0, "rouge_l": null, "rouge_1": null, "bleu": null}\n'
        '{"bucket": "overall", "count": 2, "em": 1.0, "rouge_l": null, "rouge_1": null, '
        '"bleu": null}\n')


def test_eval_reads_raw_unicode_line_separators_in_cots(snapshot, tmp_path, capsys):
    # JSON leaves U+0085, U+2028 and U+2029 unescaped; a CoT holding one
    # scores as the same CoT written with escapes.
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    test_file = outdir / "test.jsonl"
    rows = [json.loads(line) for line in test_file.read_text("utf-8").splitlines()]
    separators = "\x85\u2028\u2029"
    outputs = []
    for ensure_ascii in (True, False):
        predictions = tmp_path / f"preds-{ensure_ascii}.jsonl"
        predictions.write_text("".join(
            json.dumps({"path": row["path"],
                        "cot": row["cot"].replace(" ", separators[i % 3], 2)},
                       ensure_ascii=ensure_ascii) + "\n"
            for i, row in enumerate(rows)), "utf-8")
        report_out = tmp_path / f"report-{ensure_ascii}.jsonl"
        capsys.readouterr()
        assert main(["eval", "--dataset", str(test_file), "--predictions", str(predictions),
                     "--out", str(report_out)]) == 0
        outputs.append((capsys.readouterr().out, report_out.read_text("utf-8")))
    assert all(ch in predictions.read_text("utf-8") for ch in separators)
    assert outputs[0] == outputs[1]


def test_eval_length_mismatch_fails(snapshot, tmp_path, capsys):
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"path": "<PATH> is_malware_type </PATH>"}\n', "utf-8")
    code = main(["eval", "--dataset", str(outdir / "test.jsonl"),
                 "--predictions", str(predictions)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("TitanError: ")


REGISTRY_TABLE = (
    "asset\ttargeted_by_attack_pattern\tattack-pattern\ttargets_asset\n"
    "attack-pattern\tdetected_by_data_component\tdata-component\tdetects_attack_pattern\n"
    "attack-pattern\thas_subtechnique_attack_pattern\tattack-pattern\tsubtechnique_of_attack_pattern\n"
    "attack-pattern\tmitigated_by_course_of_action\tcourse-of-action\tmitigates_attack_pattern\n"
    "attack-pattern\tsubtechnique_of_attack_pattern\tattack-pattern\thas_subtechnique_attack_pattern\n"
    "attack-pattern\ttargets_asset\tasset\ttargeted_by_attack_pattern\n"
    "attack-pattern\tused_by_campaign\tcampaign\tuses_attack_pattern\n"
    "attack-pattern\tused_by_intrusion_set\tintrusion-set\tuses_attack_pattern\n"
    "attack-pattern\tused_by_malware\tmalware\tuses_attack_pattern\n"
    "attack-pattern\tused_by_tool\ttool\tuses_attack_pattern\n"
    "campaign\tattributed_to_intrusion_set\tintrusion-set\tresponsible_for_campaign\n"
    "campaign\tuses_attack_pattern\tattack-pattern\tused_by_campaign\n"
    "campaign\tuses_malware\tmalware\tused_by_campaign\n"
    "campaign\tuses_tool\ttool\tused_by_campaign\n"
    "course-of-action\tmitigates_attack_pattern\tattack-pattern\tmitigated_by_course_of_action\n"
    "data-component\tdetects_attack_pattern\tattack-pattern\tdetected_by_data_component\n"
    "data-component\tprovided_by_data_source\tdata-source\tprovides_data_component\n"
    "data-source\tprovides_data_component\tdata-component\tprovided_by_data_source\n"
    "intrusion-set\tresponsible_for_campaign\tcampaign\tattributed_to_intrusion_set\n"
    "intrusion-set\tuses_attack_pattern\tattack-pattern\tused_by_intrusion_set\n"
    "intrusion-set\tuses_malware\tmalware\tused_by_intrusion_set\n"
    "intrusion-set\tuses_tool\ttool\tused_by_intrusion_set\n"
    "malware\tused_by_campaign\tcampaign\tuses_malware\n"
    "malware\tused_by_intrusion_set\tintrusion-set\tuses_malware\n"
    "malware\tuses_attack_pattern\tattack-pattern\tused_by_malware\n"
    "tool\tused_by_campaign\tcampaign\tuses_tool\n"
    "tool\tused_by_intrusion_set\tintrusion-set\tuses_tool\n"
    "tool\tuses_attack_pattern\tattack-pattern\tused_by_tool\n"
)


def test_registry_table_output(capsys):
    code = main(["registry"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.out.splitlines() if l]
    assert len(lines) == 28
    assert "malware\tuses_attack_pattern\tattack-pattern\tused_by_malware" in lines
    assert captured.out == REGISTRY_TABLE


def test_missing_file_is_one_line_error(tmp_path, capsys):
    code = main(["census", "--snapshot", str(tmp_path / "nope.snap")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("FileNotFoundError: ")


@pytest.mark.parametrize("command, error", [
    ("ingest", "IsADirectoryError"), ("registry", "IsADirectoryError"),
    ("eval", "IsADirectoryError"), ("gen", "FileExistsError")])
def test_unwritable_out_is_one_line_error(snapshot, tmp_path, capsys, command, error):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"question": "q", "path": "<PATH> uses_malware </PATH>"}\n', "utf-8")
    argv = {
        "ingest": ["ingest", str(FIXTURE_BUNDLE), "--out", str(tmp_path)],
        "registry": ["registry", "--out", str(tmp_path)],
        "eval": ["eval", "--dataset", str(dataset), "--predictions", str(dataset),
                 "--out", str(tmp_path)],
        "gen": ["gen", "--snapshot", str(snapshot), "--out", str(snapshot)],
    }[command]
    assert main(argv) == 1
    _one_line_error(capsys, f"{error}: ")


def test_ingest_checks_out_before_parsing(tmp_path, capsys):
    bundle = tmp_path / "bad.json"
    bundle.write_text("{not json", "utf-8")
    assert main(["ingest", str(bundle), "--out", str(tmp_path)]) == 1
    _one_line_error(capsys, "IsADirectoryError: ")


def test_eval_prints_no_report_when_out_is_unwritable(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"question": "q", "path": "<PATH> uses_malware </PATH>"}\n', "utf-8")
    assert main(["eval", "--dataset", str(dataset), "--predictions", str(dataset),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == ""


def _one_line_error(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix), captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def _eval_with_predictions(snapshot, tmp_path, first_line):
    outdir = tmp_path / "dataset"
    assert main(["gen", "--snapshot", str(snapshot), "--seed", "3",
                 "--out", str(outdir)]) == 0
    test_file = outdir / "test.jsonl"
    rows = test_file.read_text("utf-8").splitlines()
    lines = [first_line] + ['{"path": "<PATH> uses_malware </PATH>"}'] * (len(rows) - 1)
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("\n".join(lines) + "\n", "utf-8")
    return main(["eval", "--dataset", str(test_file), "--predictions", str(predictions)])


def test_eval_null_or_missing_path_scores_as_miss(snapshot, tmp_path, capsys):
    assert _eval_with_predictions(snapshot, tmp_path, '{"path": null, "cot": null}') == 0
    assert "overall" in capsys.readouterr().out


def test_eval_prediction_not_json_is_one_line_error(snapshot, tmp_path, capsys):
    assert _eval_with_predictions(snapshot, tmp_path, "{not json") == 1
    err = _one_line_error(capsys, "MalformedInput: ")
    assert "preds.jsonl line 1" in err


@pytest.mark.parametrize("line", ['["a list"]', '{"path": 5}', '{"cot": ["x"]}'])
def test_eval_prediction_not_object_is_one_line_error(snapshot, tmp_path, capsys, line):
    assert _eval_with_predictions(snapshot, tmp_path, line) == 1
    err = _one_line_error(capsys, "MalformedInput: ")
    assert "preds.jsonl line 1" in err


# Lines that are not a dataset sample: not JSON, a missing path, and fields
# of the wrong JSON type.
MALFORMED_SAMPLES = ["{not json", '{"question": "q"}',
                     '{"question": 5, "path": "is_malware_type"}',
                     '{"question": "q", "path": 7}',
                     '{"question": "q", "path": "is_malware_type", "cot": 3}',
                     '{"question": "q", "path": "is_malware_type", "answers": [1]}',
                     '{"question": "q", "path": "is_malware_type", '
                     '"bucket": {"length": "L1", "operators": [["select"]]}}']


@pytest.mark.parametrize("line", MALFORMED_SAMPLES)
def test_ask_malformed_dataset_is_one_line_error(snapshot, tmp_path, capsys, line):
    # The planner reads the file record by record: a bad line after good
    # ones fails as a first line does, before any question is planned.
    dataset = tmp_path / "bad.jsonl"
    valid = '{"question": "a", "path": "is_malware_type"}\n'
    for before, lineno in (("", 1), (valid * 2, 3)):
        dataset.write_text(before + line + "\n", "utf-8")
        code = main(["ask", "--snapshot", str(snapshot), "--question", "q",
                     "--planner", "mock", "--dataset", str(dataset)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("MalformedInput: "), captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert f"bad.jsonl line {lineno}:" in captured.err


@pytest.mark.parametrize("line, reason", [
    ('["x"]', "expected a JSON object, got list"),
    ('{"question": "q", "path": "is_malware_type", "bucket": "L1"}',
     "'bucket' is not an object"),
], ids=["list", "bucket"])
def test_ask_dataset_row_of_wrong_shape_names_the_line(snapshot, tmp_path, capsys, line,
                                                       reason):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text(line + "\n", "utf-8")
    assert main(["ask", "--snapshot", str(snapshot), "--question", "q",
                 "--planner", "mock", "--dataset", str(dataset)]) == 1
    assert capsys.readouterr().err == f"MalformedInput: {dataset} line 1: {reason}\n"


@pytest.mark.parametrize("line", MALFORMED_SAMPLES)
def test_eval_malformed_dataset_is_one_line_error(tmp_path, capsys, line):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text('{"question": "a", "path": "is_malware_type"}\n' + line + "\n",
                       "utf-8")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"path": "is_malware_type"}\n' * 2, "utf-8")
    code = main(["eval", "--dataset", str(dataset), "--predictions", str(predictions)])
    assert code == 1
    err = _one_line_error(capsys, "MalformedInput: ")
    assert "bad.jsonl line 2" in err


def test_eval_unparseable_reference_path_names_file_and_record(tmp_path, capsys):
    # The first prediction holds the bad path too; the reference on line 2
    # is what fails, as the dataset is read.
    dataset = tmp_path / "refs.jsonl"
    dataset.write_text('{"question": "a", "path": "is_malware_type"}\n'
                       '{"question": "b", "path": "<PATH> bogus_rel </PATH>"}\n', "utf-8")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"path": "<PATH> bogus_rel </PATH>"}\n'
                           '{"path": "is_malware_type"}\n', "utf-8")
    assert main(["eval", "--dataset", str(dataset), "--predictions", str(predictions)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"MalformedInput: {dataset} line 2: unknown relation 'bogus_rel'\n"
    assert captured.out == ""


def test_eval_unparseable_reference_path_is_numbered_by_file_line(tmp_path, capsys):
    # Line 2 is blank, so the bad path is the second record but on line 3.
    dataset = tmp_path / "refs.jsonl"
    dataset.write_text('{"question": "a", "path": "is_malware_type"}\n\n'
                       '{"question": "b", "path": "<PATH> bogus_rel </PATH>"}\n', "utf-8")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"path": "is_malware_type"}\n{"path": "is_malware_type"}\n', "utf-8")
    assert main(["eval", "--dataset", str(dataset), "--predictions", str(predictions)]) == 1
    assert capsys.readouterr().err == (
        f"MalformedInput: {dataset} line 3: unknown relation 'bogus_rel'\n")


def test_census_expected_table_records_end_at_newline_only(snapshot, tmp_path, capsys):
    # A comment holding U+2028 stays one record; str.splitlines breaks it.
    expected = tmp_path / "expected.tsv"
    expected.write_text("# Z\u00e4hlung\u2028Stand 2024\nmalware\t4\n", "utf-8")
    assert main(["census", "--snapshot", str(snapshot), "--expected", str(expected)]) == 0
    assert capsys.readouterr().out == (
        "kind                actual  expected  delta%\n"
        "malware                  4         4     0.0\n"
    )


def test_census_delta_against_an_expected_zero(tmp_path, capsys):
    # 0 of 0 expected is no drift; 1 of 0 expected is infinite drift.
    bundle = tmp_path / "bundle.json"
    bundle.write_text('[{"type": "malware", "id": "malware--m", "name": "M"}]', "utf-8")
    snap = tmp_path / "g.snap"
    assert main(["ingest", str(bundle), "--out", str(snap)]) == 0
    expected = tmp_path / "expected.tsv"
    expected.write_text("malware\t0\ntool\t0\n", "utf-8")
    capsys.readouterr()
    assert main(["census", "--snapshot", str(snap), "--expected", str(expected)]) == 0
    assert capsys.readouterr().out == (
        "kind                actual  expected  delta%\n"
        "malware                  1         0     inf\n"
        "tool                     0         0     0.0\n"
    )


def test_census_expected_unknown_key_is_one_line_error(snapshot, tmp_path, capsys):
    expected = tmp_path / "expected.tsv"
    expected.write_text("malware\t4\n# a comment\nbogus\t3\n", "utf-8")
    code = main(["census", "--snapshot", str(snapshot), "--expected", str(expected)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"MalformedInput: {expected} line 3: unknown census key 'bogus'\n")


@pytest.mark.parametrize("table, reason", [
    ("malware\t4\nmalware\t9\n", "census key 'malware' given twice"),
    ("malware\t4\ntool\t-2\n", "census key 'tool' has a negative count -2"),
], ids=["repeated-key", "negative-count"])
def test_census_expected_bad_row_is_one_line_error(snapshot, tmp_path, capsys, table, reason):
    expected = tmp_path / "expected.tsv"
    expected.write_text(table, "utf-8")
    assert main(["census", "--snapshot", str(snapshot), "--expected", str(expected)]) == 1
    assert capsys.readouterr() == ("", f"MalformedInput: {expected} line 2: {reason}\n")


def test_census_snapshot_directory_is_one_line_error(tmp_path, capsys):
    code = main(["census", "--snapshot", str(tmp_path)])
    assert code == 1
    err = _one_line_error(capsys, "MalformedInput: ")
    assert str(tmp_path) in err


def test_census_expected_line_without_tab_is_one_line_error(snapshot, tmp_path, capsys):
    expected = tmp_path / "expected.tsv"
    expected.write_text("# kind<TAB>count\nmalware\t4\nasset 2\n", "utf-8")
    code = main(["census", "--snapshot", str(snapshot), "--expected", str(expected)])
    assert code == 1
    err = _one_line_error(capsys, "MalformedInput: ")
    assert "expected.tsv line 3" in err


def test_snapshot_not_utf8_is_one_line_error(tmp_path, capsys):
    snap = tmp_path / "binary.snap"
    snap.write_bytes(b"TITAN-SNAPSHOT\t2\n\xff\xfe\n")
    assert main(["census", "--snapshot", str(snap)]) == 1
    err = _one_line_error(capsys, "MalformedInput: ")
    assert "binary.snap" in err


def _census_of_edited_snapshot(snapshot, edit) -> int:
    lines = snapshot.read_text("utf-8").splitlines()
    snapshot.write_text("\n".join(edit(lines)) + "\n", "utf-8")
    return main(["census", "--snapshot", str(snapshot)])


def test_snapshot_duplicate_node_id_is_one_line_error(snapshot, capsys):
    code = _census_of_edited_snapshot(snapshot, lambda lines: [*lines, lines[1]])
    assert code == 1
    err = _one_line_error(capsys, "MalformedBundle: ")
    assert "duplicate node id 'asset--linux'" in err


def test_snapshot_edge_to_missing_node_is_one_line_error(snapshot, capsys):
    code = _census_of_edited_snapshot(
        snapshot, lambda lines: [*lines, "EDGE\tasset--linux\ttargeted_by\tmalware--gone"])
    assert code == 1
    err = _one_line_error(capsys, "MalformedBundle: ")
    assert "(asset--linux, targeted_by, malware--gone)" in err


@pytest.mark.parametrize("edge, why", [
    ("asset--linux\tbogus_rel\tasset--windows",
     "(asset--linux, bogus_rel, asset--windows): no forward relation 'bogus_rel' from kind 'asset'"),
    ("asset--linux\ttargeted_by_attack_pattern\tattack-pattern--0002",
     "(asset--linux, targeted_by_attack_pattern, attack-pattern--0002): "
     "'targeted_by_attack_pattern' is a reverse relation"),
], ids=["untyped", "reverse"])
def test_snapshot_edge_not_typed_forward_is_one_line_error(snapshot, capsys, edge, why):
    code = _census_of_edited_snapshot(snapshot, lambda lines: [*lines, f"EDGE\t{edge}"])
    assert code == 1
    assert capsys.readouterr().err == f"MalformedBundle: {snapshot} snapshot: edge {why}\n"


def test_version_one_snapshot_is_one_line_error_naming_titan_ingest(snapshot, capsys):
    code = _census_of_edited_snapshot(snapshot, lambda lines: ["TITAN-SNAPSHOT\t1", *lines[1:]])
    assert code == 1
    assert capsys.readouterr().err == (
        f"MalformedBundle: {snapshot} snapshot line 1: a version-1 snapshot is no longer "
        "read; re-run titan ingest to write this version\n")


@pytest.mark.parametrize("field, value", [(3, "5"), (4, "[5]")])
def test_snapshot_node_field_of_wrong_type_is_one_line_error(snapshot, capsys, field, value):
    def edit(lines):
        parts = lines[1].split("\t")
        parts[field] = value
        return [lines[0], "\t".join(parts), *lines[2:]]

    code = _census_of_edited_snapshot(snapshot, edit)
    assert code == 1
    err = _one_line_error(capsys, "MalformedBundle: ")
    assert "snapshot line 2:" in err


def test_ingest_error_names_the_bundle_it_is_in(tmp_path, capsys):
    bad, out = tmp_path / "bad.json", tmp_path / "graph.snap"
    bad.write_text('[{"name": "no type or id"}]', "utf-8")
    assert main(["ingest", str(FIXTURE_BUNDLE), str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"MalformedBundle: {bad} object #0 lacks a usable type/id\n")
    assert not out.exists()


def test_ingest_id_used_by_two_kinds_names_the_bundles_using_it(tmp_path, capsys):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "graph.snap"
    a.write_text('[{"type": "malware", "id": "malware--x", "name": "X"}]', "utf-8")
    b.write_text('[{"type": "tool", "id": "malware--x", "name": "X"}]', "utf-8")
    argv = ["ingest", str(FIXTURE_BUNDLE), str(a), str(b), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"MalformedBundle: {a}, {b}: id 'malware--x' is used by objects of kinds "
        "'malware' and 'tool'\n")
    assert not out.exists()


def test_ingest_bundle_not_utf8_names_the_file(tmp_path, capsys):
    bundle = tmp_path / "binary.json"
    bundle.write_bytes(b"[\xff]")
    assert main(["ingest", str(bundle), "--out", str(tmp_path / "graph.snap")]) == 1
    assert capsys.readouterr().err == (
        f"MalformedInput: {bundle}: not UTF-8 text (invalid start byte at byte 1)\n")


def test_snapshot_bad_record_error_names_the_file_and_line(snapshot, capsys):
    code = _census_of_edited_snapshot(
        snapshot, lambda lines: [lines[0], "BOGUS\trecord", *lines[1:]])
    assert code == 1
    assert capsys.readouterr().err == (
        f"MalformedBundle: {snapshot} snapshot line 2: unrecognized record\n")


# Two rows that read both as dataset samples and as predictions.
LINE_RECORD_ROWS = [
    json.dumps({"question": "Which malware is there?", "path": "<PATH> is_malware_type </PATH>",
                "cot": "Start from all malware."}),
    json.dumps({"question": "Which tools are there?", "path": "<PATH> is_tool_type </PATH>",
                "cot": "Start from all tools."}),
]

LINE_RECORDS = {
    "dataset": LINE_RECORD_ROWS,
    "predictions": LINE_RECORD_ROWS,
    "corpus": [
        json.dumps({"id": "m", "text": "Which attack patterns does the malware [malware] use?",
                    "path": "<PATH> uses_attack_pattern </PATH>", "start": "[malware]",
                    "answer_kind": "attack-pattern"}),
        json.dumps({"id": "t", "text": "Which tools are there?",
                    "path": "<PATH> is_tool_type </PATH>", "answer_kind": "tool"}),
    ],
    "census": ["malware\t4", "nodes\t21"],
}


@pytest.mark.parametrize("fmt", sorted(LINE_RECORDS))
def test_line_record_files_share_one_line_rule(fmt, snapshot, tmp_path, capsys):
    path, rows = tmp_path / f"{fmt}.txt", tmp_path / "rows.jsonl"
    rows.write_text("\n".join(LINE_RECORD_ROWS) + "\n", "utf-8")
    argv = {"dataset": ["eval", "--dataset", str(path), "--predictions", str(rows)],
            "predictions": ["eval", "--dataset", str(rows), "--predictions", str(path)],
            "corpus": ["gen", "--snapshot", str(snapshot), "--templates", str(path),
                       "--out", str(tmp_path / "out")],
            "census": ["census", "--snapshot", str(snapshot), "--expected", str(path)]}[fmt]

    def run(lines, end="\n"):
        path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    records = LINE_RECORDS[fmt]
    plain = run(records)
    assert plain[0] == 0 and plain[1], plain
    assert run(records, "\r\n") == plain
    commented = run([records[0], "# a note", records[1]])
    if fmt in ("corpus", "census"):
        assert commented == plain
    else:
        assert commented == (1, "", f"MalformedInput: {path} line 2: not JSON (Expecting value)\n")


def test_eval_predictions_one_line_short_is_one_line_error(tmp_path, capsys):
    dataset, predictions = tmp_path / "refs.jsonl", tmp_path / "preds.jsonl"
    dataset.write_text("\n".join(LINE_RECORD_ROWS) + "\n", "utf-8")
    predictions.write_text(LINE_RECORD_ROWS[0] + "\n", "utf-8")
    assert main(["eval", "--dataset", str(dataset), "--predictions", str(predictions)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "TitanError: predictions (1) and dataset (2) have different lengths\n"
    assert captured.out == ""


_IMPORT_SCRIPT = """
import sys
before = set(sys.modules)
import titan_kg.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"titan_kg"})))
"""


def test_cli_imports_only_the_standard_library():
    # Modules loaded before the import (site hooks may preload some) do not count.
    import titan_kg
    src = str(Path(titan_kg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == ""


def _raises(exc: Exception):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, command, outcome", [
    (["registry"], None, 0),
    (["census", "--snapshot", "."], None, 1),  # a directory: MalformedInput
    (["census", "--snapshot", "missing.snap"], None, 1),  # FileNotFoundError
    (["registry"], _raises(RuntimeError("unexpected")), RuntimeError),
    (["no-such-command"], None, SystemExit),  # argparse refuses it
], ids=["exit-0", "titan-error", "os-error", "unexpected-error", "usage-error"])
def test_main_leaves_the_collector_as_it_found_it(argv, command, outcome, collecting,
                                                   tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if command:
        monkeypatch.setattr(cli, "cmd_registry", command)
    if not collecting:
        gc.disable()
    try:
        try:
            result = main(argv)
        except (RuntimeError, SystemExit) as exc:
            result = type(exc)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert result == outcome
    assert after is collecting


def test_main_runs_the_command_with_the_collector_paused(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "cmd_registry", lambda args: seen.append(gc.isenabled()) or 0)
    assert main(["registry"]) == 0
    assert seen == [False]
    assert gc.isenabled()
