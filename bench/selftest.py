"""Quick self-test of the benchmark, at k=1 (one copy of the scale bundle).

Run from the repository root::

    python3 bench/selftest.py

It checks that the output checks can fail (each is shown a wrong output),
then runs both workloads, timed and traced, and checks that each run
reports every metric, runs every output check and fails no operation.
Exits non-zero on the first problem.  Takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets up the import path for the package below)

run._import_program()

from checks import Oracle, bundle_census, missing_reverses, oracle_disagreements  # noqa: E402
from inputs import bundle_objects, bundle_text  # noqa: E402
from layers import PER_LAYER  # noqa: E402

from titan_kg import datagen  # noqa: E402
from titan_kg.kg import KnowledgeGraph, build_graph, node_census, parse_stix_bundle  # noqa: E402
from titan_kg.ontology import EntityKind, build_default_registry  # noqa: E402
from titan_kg.pathlang import parse_path  # noqa: E402

CHECKS = {
    "unseen-k20": {"census", "reverse edges", "snapshot round trip", "ingest repeats",
                   "gen repeats", "samples vs oracle", "asks vs oracle", "unseen guessed",
                   "eval count"},
    "indexed-k20": {"census", "reverse edges", "snapshot round trip", "ingest repeats",
                    "gen repeats", "samples vs oracle", "asks vs oracle", "indexed answers",
                    "eval count", "indexed scores"},
}


def check_checks() -> None:
    """Each output check tells a right output from a wrong one."""
    registry = build_default_registry()
    objects = bundle_objects(seed=5, k=1)
    graph = build_graph(parse_stix_bundle(bundle_text(objects)), registry)

    census = node_census(graph)
    assert bundle_census(objects)["edges"] == census.total_edges
    assert bundle_census(objects)["nodes"] == census.total_nodes
    fewer = [o for o in objects if o["type"] != "relationship"] + [
        o for o in objects if o["type"] == "relationship"][1:]
    assert bundle_census(fewer)["edges"] == census.total_edges - 2

    assert missing_reverses(graph, registry) == 0
    nodes = [graph.node(nid) for kind in EntityKind for nid in graph.nodes_of_kind(kind)]
    broken = KnowledgeGraph(nodes, list(graph.all_edges())[1:])
    assert missing_reverses(broken, registry) == 1

    templates = datagen.load_templates(datagen.default_template_text(), registry)
    split, _ = datagen.generate_dataset(
        templates, graph, datagen.DatasetConfig(rng_seed=5, max_per_template=5), registry)
    oracle = Oracle(graph, registry)
    samples = split.train + split.test
    assert all(oracle.sample_agrees(s) for s in samples)
    for sample in samples[:50]:
        wrong = dataclasses.replace(sample, answers=sample.answers[:-1])
        assert not oracle.sample_agrees(wrong), sample.question

    lines = [s.to_json() for s in samples[:20]]
    asks = []
    for key, sample in enumerate(samples[:20]):
        program = parse_path(sample.path, registry)
        start = tuple(n for name in sample.start_entities for n in graph.find_by_name(name))
        asks.append((key, program, start, sample.answers if key % 2 else sample.answers[1:]))
    wrong_lines = lines[:5] + [dataclasses.replace(samples[5], answers=()).to_json()]
    bad_samples, bad_asks = oracle_disagreements(graph.export_snapshot(), wrong_lines, asks)
    assert bad_samples == [samples[5].question], bad_samples
    assert bad_asks == list(range(0, 20, 2)), bad_asks
    print("selftest: output checks reject wrong outputs")


def check_run(workload: str, trace: int) -> None:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--k", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    names = PER_LAYER if trace else run.END_TO_END
    expected = {name: (spec[0] if trace else spec) for name, spec in names.items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (got, expected)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    line = next(l for l in proc.stderr.splitlines() if "; checks run: " in l)
    ran = json.loads(line.split("; checks run: ", 1)[1])
    missing = CHECKS[workload] - {name for name, n in ran.items() if n > 0}
    assert not missing, f"{workload}: checks that did not run: {missing}"
    print(f"selftest: {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} operations, checks {sorted(ran)}")


def main() -> int:
    check_checks()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
