"""The ``titan`` contract as a property, over mutated copies of the fixture inputs.

Each example runs one of ``ingest``, ``census --expected``, ``exec``,
``ask``, ``gen --templates`` and ``eval --out`` in-process.  Each input
file of the command is mutated with probability 0.7: a line deleted,
doubled or swapped with another, the file truncated, or one to three
hostile strings spliced in (tab, CR, NUL, BOM, an invalid UTF-8 byte,
NBSP, U+2028, JSON tokens, path tags and template placeholders).

An exit of 1 must print exactly one stderr line ``ErrorClass: message``
and no traceback.  An exit of 0 must be right, as each command's oracle
checks:

* ``ingest``: the snapshot loads, and every edge in it is typed and paired;
* ``census --expected``: the snapshot loads, every edge in it is typed and
  paired, and the table holds no repeated key and no negative count;
* ``gen``: every sample re-executes to its answers under the brute-force
  interpreter;
* ``exec`` and ``ask``: the printed answers are the brute-force
  interpreter's for the printed path and start ids;
* ``eval``: the ``overall`` record counts every dataset row, and its
  ROUGE-L, ROUGE-1 and BLEU are the means of the brute-force oracles' scores
  over the rows whose prediction and reference both carry a CoT.

A snapshot holds forward edges only, and its load types each one and
derives its reverse, so no mutated snapshot loads with an edge that is
untyped or unpaired.
"""

from __future__ import annotations

import io
import json
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from titan_kg.cli import main
from titan_kg.datagen import default_template_text, load_dataset
from titan_kg.executor import run_path
from titan_kg.kg import KnowledgeGraph
from titan_kg.ontology import build_default_registry
from titan_kg.pathlang import parse_path

from bruteforce import (
    bad_edges,
    bleu,
    brute_execute,
    rouge_1,
    rouge_l,
    steps_from_program,
    tables_from_graph,
    tokenize,
)
from conftest import FIXTURE_BUNDLE

HOSTILE = [b"\t", b"\r", b"\x00", "\ufeff".encode(), b"\xff", "\u00a0".encode(),
           "\u2028".encode(), b'"', b"{", b"}", b"[", b"]", b",", b":", b"null", b"\\",
           b"<PATH>", b"</PATH>", b"<SEP>", "\u2192".encode(), b"[malware:2]"]

# (path, start names) pairs for ``exec``.
EXEC_PATHS = [
    ("attributed_to → uses_malware → uses_attack_pattern → mitigated_by",
     ["Unitronics Defacement Campaign"]),
    ("uses → mitigated_by", ["Sys10"]),
    ("is_malware_type → filter ransomware", []),
    ("is_malware_type → select Cannon LitePower → uses_attack_pattern → exec_common", []),
    ("is_malware_type → select Sys10 MarkiRAT → uses_attack_pattern → exec_difference", []),
]

ONE_LINE_ERROR = re.compile(r"[A-Z]\w*: [^\n]+\n")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@cache
def _inputs() -> dict[str, bytes]:
    """The unmutated input files, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        snapshot, dataset = Path(tmp) / "fixture.snap", Path(tmp) / "dataset"
        assert _run(["ingest", str(FIXTURE_BUNDLE), "--out", str(snapshot)])[0] == 0
        code, census, _ = _run(["census", "--snapshot", str(snapshot)])
        assert code == 0
        assert _run(["gen", "--snapshot", str(snapshot), "--seed", "3",
                     "--out", str(dataset)])[0] == 0
        test = (dataset / "test.jsonl").read_bytes()
        predictions = "".join(json.dumps({"path": row["path"], "cot": row["cot"]}) + "\n"
                              for row in map(json.loads, test.decode("utf-8").splitlines()))
        return {"bundle": FIXTURE_BUNDLE.read_bytes(), "snapshot": snapshot.read_bytes(),
                "census": census.encode("utf-8"),
                "train": (dataset / "train.jsonl").read_bytes(), "test": test,
                "predictions": predictions.encode("utf-8"),
                "templates": default_template_text().encode("utf-8")}


def _mutate(rng, data: bytes) -> bytes:
    how = rng.choice(("delete", "double", "swap", "truncate", "splice"))
    if how == "truncate":
        return data[:rng.randrange(len(data) + 1)]
    if how == "splice":
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(HOSTILE) + data[at:]
        return data
    lines = data.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if how == "delete":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _answers_match_oracle(snapshot: Path, stdout: str) -> None:
    """The ``answers`` ids printed for the ``path`` and ``start`` lines are
    the brute-force interpreter's."""
    lines = stdout.split("\n")
    path = next(line for line in lines if line.startswith("path\t")).split("\t", 1)[1]
    at = next(i for i, line in enumerate(lines) if line.startswith("answers\t"))
    count = int(lines[at].split("\t")[1])
    answers = {line.rsplit("\t", 1)[1] for line in lines[at + 1:at + 1 + count]}
    start = [nid for nid in lines[at + 1 + count].split("\t")[2].split(" ") if nid]
    nodes, edges = tables_from_graph(_graph(snapshot))
    assert brute_execute(nodes, edges, steps_from_program(parse_path(path)),
                         start_ids=start) == answers


def _graph(snapshot: Path) -> KnowledgeGraph:
    return KnowledgeGraph.load_snapshot(snapshot.read_bytes().decode("utf-8"))


def _records(text: str, comments: bool = False) -> list[str]:
    """The records of a line-record file, as docs/formats.md defines them."""
    return [line.strip() for line in text.split("\n") if line.strip()
            and not (comments and line.strip().startswith("#"))]


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_cli_exit_is_one_error_line_or_a_right_result(seed):
    rng, inputs = random.Random(seed), _inputs()
    command = rng.choice(("ingest", "census", "exec", "ask", "gen", "eval"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def given_file(name: str) -> Path:
            path = work / name
            content = inputs[name]
            path.write_bytes(_mutate(rng, content) if rng.random() < 0.7 else content)
            return path

        registry = build_default_registry()
        if command == "ingest":
            argv = ["ingest", str(given_file("bundle")), "--out", str(work / "out.snap")]
        elif command == "census":
            expected = given_file("census")
            argv = ["census", "--snapshot", str(given_file("snapshot")),
                    "--expected", str(expected)]
        elif command == "exec":
            path, starts = rng.choice(EXEC_PATHS)
            argv = ["exec", "--snapshot", str(given_file("snapshot")), "--path", path,
                    *(arg for name in starts for arg in ("--start", name))]
        elif command == "ask":
            question = rng.choice([*(json.loads(line)["question"] for line in
                                     inputs["train"].decode("utf-8").splitlines()),
                                   "Which techniques does the malware Sys10 use?"])
            argv = ["ask", "--snapshot", str(given_file("snapshot")), "--question", question,
                    "--mode", rng.choice(("cot", "nocot")), "--planner", "mock",
                    "--dataset", str(given_file("train"))]
        elif command == "gen":
            argv = ["gen", "--snapshot", str(given_file("snapshot")), "--templates",
                    str(given_file("templates")), "--seed", "3", "--out", str(work / "out")]
        else:
            dataset, predictions = given_file("test"), given_file("predictions")
            argv = ["eval", "--dataset", str(dataset), "--predictions",
                    str(predictions), "--out", str(work / "report.jsonl")]

        code, stdout, stderr = _run(argv)
        assert code in (0, 1)
        if code == 1:
            assert ONE_LINE_ERROR.fullmatch(stderr), stderr
            return
        if command == "ingest":
            assert not bad_edges(_graph(work / "out.snap"), registry)
        elif command == "census":
            assert not bad_edges(_graph(work / "snapshot"), registry)
            rows = [row.split("\t") for row in
                    _records(expected.read_bytes().decode("utf-8"), comments=True)]
            keys = [key for key, _ in rows]
            assert len(keys) == len(set(keys)), keys
            assert all(int(count) >= 0 for _, count in rows), rows
        elif command in ("exec", "ask"):
            _answers_match_oracle(work / "snapshot", stdout)
        elif command == "gen":
            graph = _graph(work / "snapshot")
            nodes, edges = tables_from_graph(graph)
            for split in ("train", "test"):
                text = (work / "out" / f"{split}.jsonl").read_text("utf-8")
                for sample in load_dataset(text):
                    typed, _ = run_path(graph, registry, parse_path(sample.path, registry),
                                        sample.start_entities)
                    start = {nid for name in sample.start_entities
                             for nid in graph.find_by_name(name)
                             if graph.node(nid).kind is typed.start_kind}
                    answers = brute_execute(nodes, edges, steps_from_program(typed.program),
                                            start_ids=start)
                    assert {graph.node(nid).name for nid in answers} == set(sample.answers)
        else:
            report = [json.loads(line) for line in
                      (work / "report.jsonl").read_text("utf-8").splitlines()]
            overall = next(row for row in report if row["bucket"] == "overall")
            references = [json.loads(line).get("cot", "")
                          for line in _records(dataset.read_bytes().decode("utf-8"))]
            cots = [json.loads(line).get("cot") or ""
                    for line in _records(predictions.read_bytes().decode("utf-8"))]
            assert overall["count"] == len(references)
            pairs = [(tokenize(cot), tokenize(ref)) for cot, ref in zip(cots, references)
                     if cot and ref]
            for name, oracle in (("rouge_l", rouge_l), ("rouge_1", rouge_1), ("bleu", bleu)):
                scores = [oracle(cand, ref) for cand, ref in pairs]
                assert overall[name] == (sum(scores) / len(scores) if scores else None), name
