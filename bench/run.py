"""Full-loop benchmark: ingest -> gen -> ask -> eval on an ATT&CK-sized graph.

Run from the repository root::

    python3 bench/run.py --workload unseen-k20 --seed 1 --seconds 25 --trace 0

The input is ``bench/inputs.py``'s k-copy bundle (k=20 by default, about
6.9k nodes and 42k edges), made from ``--seed``.  A run repeats rounds until
``--seconds`` have passed, and at least ``MIN_ROUNDS`` of them.  A round is
the steps of ``ROUND``, in order:

* ``ingest``: ``titan ingest`` of the bundle;
* ``gen``: ``titan gen`` on the snapshot;
* ``setup``: what ``titan ask`` does before its first question (load the
  snapshot, load the planner's dataset file, build the mock planner's index);
* ``ask``: a batch of asks through ``titan_kg.cli.run_question`` with the
  last set-up's graph and planner, one client, closed loop; each question
  of the workload's pool has its ``cot`` or ``nocot`` mode, half and half by
  seeded draw, and every round asks every question once;
* ``eval``: ``titan eval`` of the last ask batch's predictions.

The passes of each step are spread through the round, so that a burst of
load on the shared machine hits few passes of any one metric.  The CLI
commands are called in-process through ``titan_kg.cli.main``.  Each
metric is the median over its passes; ask latency percentiles are over the
questions of the pool, each at the median of its latencies over the rounds.
Timings are reported at a reference machine speed, measured by a fixed loop
timed before every step (``bench/reference.py``).  The outputs are checked
after the last round (see ``bench/checks.py``), outside the timed sections;
a failed check marks its operation failed.  With ``--trace 1`` the same run
is made with the package's layers wrapped (``bench/layers.py``) and the
per-layer metrics are printed instead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

WORKLOADS = {
    # The planner indexes the train split; asks are distinct test questions,
    # so every ask misses the index and the planner scans for the nearest one.
    "unseen-k20": "train",
    # The planner indexes every sample; every ask hits its index, so ask
    # time goes to path parsing, start resolution, linking and execution.
    "indexed-k20": "all",
}
K = 20
MAX_PER_TEMPLATE = 80
TEST_FRACTION = 0.45
# indexed-k20 asks about this many distinct questions, drawn from the whole
# dataset: about as many as unseen-k20's test split holds, and enough for
# at least 10 questions beyond the p99.
INDEXED_POOL = 1100
ROUND = ("ingest", "gen", "setup", "ask", "eval",
         "setup", "ask", "eval", "ingest", "eval",
         "setup", "ask", "eval", "eval")
MIN_ROUNDS = 3
# Every round asks every question of the pool once, in this many batches cut
# from a fresh seeded permutation: the ask mix is the dataset's whatever the
# seed, and each question is asked once per round.
BATCHES_PER_POOL = ROUND.count("ask")
REFS_PER_STEP = 2

END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "snapshot_mb": "MiB",
    "gen_samples_per_s": "samples/s",
    "asks_per_s": "asks/s",
    "ask_p50_ms": "ms",
    "ask_p99_ms": "ms",
    "eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
}


def _import_program():
    """Import the package and the test helpers from this checkout's sources."""
    for need in ("src/titan_kg/__init__.py", "tests/scalegen.py", "tests/bruteforce.py"):
        if not (ROOT / need).is_file():
            print(f"bench: {need} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]


def _answer_names(result) -> tuple[str, ...]:
    """An execution's answer names, deduplicated in answer order, as datagen
    records them in a sample."""
    return tuple(dict.fromkeys(node.name for node in result.answers))


def _settle(full: bool = False) -> None:
    """Collect garbage, then freeze what is left, so that the collections
    inside a timed operation traverse only the objects it makes, as in a
    fresh ``titan`` process.  Only a ``full`` settle also collects what was
    frozen before; it runs once a round."""
    if full:
        gc.unfreeze()
    gc.collect()
    gc.freeze()


class Run:
    """One workload's rounds, their timings and the operations they attempted."""

    def __init__(self, workload: str, seed: int, k: int, workdir: Path):
        from titan_kg import cli, datagen, ontology
        from titan_kg.kg import KnowledgeGraph
        from titan_kg.planner import MockPlanner

        from inputs import bundle_objects, bundle_text

        # Program calls go through module and class attributes, so that a
        # traced run sees them; the benchmark's own parsing of the dataset
        # files uses this binding, taken before any tracing is installed.
        self.cli, self.datagen, self.ontology = cli, datagen, ontology
        self.KnowledgeGraph, self.MockPlanner = KnowledgeGraph, MockPlanner
        self.load_samples = datagen.load_dataset
        self.workload, self.seed = workload, seed
        self.rng = random.Random(f"bench-run:{workload}:{seed}")
        self.dir = workdir
        self.bundle = workdir / "bundle.json"
        self.snapshot = workdir / "graph.snap"
        self.dataset = workdir / "dataset"
        self.objects = bundle_objects(seed, k)
        self.bundle.write_text(bundle_text(self.objects), "utf-8")

        self.times: dict[str, list[float]] = {"ingest": [], "setup": []}
        self.gen_rates: list[float] = []
        self.ask_rates: list[float] = []
        self.eval_rates: list[float] = []
        self.reference: list[float] = []   # reference loop times, see reference.py
        self.peak_rss_mb = 0.0
        self.ops: list[str] = []            # the kind of each attempted operation
        self.failed_ops: set[int] = set()
        self.checked: Counter = Counter()   # how often each check ran
        self.first: dict[str, object] = {}  # outputs of the first ingest and gen
        self.asks: list[tuple] = []         # (op, question, program, start ids, answers)
        self.evals: list[tuple] = []        # (op, predictions, overall report row)
        self.pool: list[tuple] = []         # (sample, mode) of each question
        self.latency: list[list[float]] = []  # each question's ask times
        self.batches: list[list[int]] = []
        self.planner_file = workdir / "planner.jsonl"

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _op(self, kind: str) -> int:
        self.ops.append(kind)
        return len(self.ops) - 1

    def _failed(self, ops, message: str) -> None:
        print(f"bench: failed: {message}", file=sys.stderr)
        self.failed_ops.update(ops)

    def _ops_of(self, kind: str) -> list[int]:
        return [i for i, k in enumerate(self.ops) if k == kind]

    # --- timed operations ---------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int, float, int, str]:
        op = self._op(argv[0])
        _settle()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            self._failed([op], f"titan {argv[0]} exited {code}: {err.getvalue().strip()}")
        return op, elapsed, code, out.getvalue()

    def ingest(self) -> None:
        op, elapsed, code, out = self._cli(
            ["ingest", str(self.bundle), "--out", str(self.snapshot)])
        self.times["ingest"].append(elapsed)
        snap = self.snapshot.read_bytes() if code == 0 else b""
        if "snapshot" not in self.first:
            self.first["snapshot"], self.first["ingest_stdout"] = snap, out
        else:
            self.checked["ingest repeats"] += 1
            if snap != self.first["snapshot"]:
                self._failed([op], "a repeated ingest wrote different snapshot bytes")

    def gen(self) -> None:
        op, elapsed, code, _ = self._cli([
            "gen", "--snapshot", str(self.snapshot), "--seed", str(self.seed),
            "--out", str(self.dataset), "--max-per-template", str(MAX_PER_TEMPLATE),
            "--test-fraction", str(TEST_FRACTION)])
        files = ((self.dataset / "train.jsonl").read_text("utf-8"),
                 (self.dataset / "test.jsonl").read_text("utf-8")) if code == 0 else ("", "")
        self.gen_rates.append(sum(text.count("\n") for text in files) / elapsed)
        if "dataset" not in self.first:
            self.first["dataset"] = files
            self._make_pool(*files)
        else:
            self.checked["gen repeats"] += 1
            if files != self.first["dataset"]:
                self._failed([op], "a repeated gen wrote different dataset files")

    def _make_pool(self, train_text: str, test_text: str) -> None:
        train = self.load_samples(train_text)
        test = self.load_samples(test_text)
        if WORKLOADS[self.workload] == "train":
            self.planner_file.write_text(train_text, "utf-8")
            questions = test
        else:
            self.planner_file.write_text(train_text + test_text, "utf-8")
            questions = self._draw(train + test, INDEXED_POOL)
        modes = (["cot", "nocot"] * len(questions))[:len(questions)]
        self.rng.shuffle(modes)
        self.pool = list(zip(questions, modes))
        self.latency = [[] for _ in questions]

    def _draw(self, samples: list, size: int) -> list:
        """About ``size`` samples, the same share of each template's: ask
        latency differs by template far more than within one, so a plain
        draw would move the latency percentiles from seed to seed."""
        by_template: dict[str, list] = {}
        for sample in samples:
            by_template.setdefault(sample.template_id, []).append(sample)
        share = min(1.0, size / len(samples))
        return [drawn for _, group in sorted(by_template.items())
                for drawn in self.rng.sample(group, round(len(group) * share))]

    def setup(self):
        """What ``titan ask`` does before its first question."""
        self._op("setup")
        _settle()
        start = time.perf_counter()
        graph = self.KnowledgeGraph.load_snapshot(self.snapshot.read_text("utf-8"))
        registry = self.ontology.build_default_registry()
        samples = self.datagen.load_dataset(self.planner_file.read_text("utf-8"))
        planner = self.MockPlanner(samples, registry)
        self.times["setup"].append(time.perf_counter() - start)
        return graph, registry, planner

    def _next_batch(self) -> list[int]:
        """The pool indices of the next distinct questions.

        A seeded permutation of the pool is cut into ``BATCHES_PER_POOL``
        batches, one round's; each round starts a new permutation.
        """
        if not self.batches:
            order, n = self.rng.sample(range(len(self.pool)), len(self.pool)), BATCHES_PER_POOL
            self.batches = [order[i * len(order) // n:(i + 1) * len(order) // n]
                            for i in range(n)]
        return self.batches.pop(0)

    def ask_batch(self, graph, registry, planner) -> list[tuple]:
        """Ask a batch; returns its ``(sample, program, cot)`` for eval."""
        from titan_kg.errors import TitanError

        run_question = self.cli.run_question
        batch = self._next_batch()
        done, latencies = [], []
        _settle()
        begin = time.perf_counter()
        for question in batch:
            sample, mode = self.pool[question]
            start = time.perf_counter()
            try:
                result, program, cot = run_question(graph, planner, sample.question,
                                                    mode=mode, registry=registry)
                error = None
            except TitanError as exc:
                result = program = cot = None
                error = exc
            latencies.append(time.perf_counter() - start)
            op = self._op("ask")
            if error is not None:
                self._failed([op], f"ask {sample.question!r} ({mode}): {error}")
            else:
                self.asks.append((op, question, program, result.start_nodes,
                                  _answer_names(result)))
            done.append((sample, program, cot))
        self.ask_rates.append(len(batch) / (time.perf_counter() - begin))
        for question, latency in zip(batch, latencies):
            self.latency[question].append(latency)
        return done

    def evaluate(self, asked: list[tuple]) -> None:
        from titan_kg.pathlang import render_path

        refs, preds, report = (self.dir / f"{name}.jsonl"
                               for name in ("refs", "preds", "report"))
        refs.write_text("".join(sample.to_json() + "\n" for sample, _, _ in asked), "utf-8")
        preds.write_text("".join(
            json.dumps({"path": render_path(program, "token") if program else "",
                        "cot": cot or ""}) + "\n"
            for _, program, cot in asked), "utf-8")
        op, elapsed, code, _ = self._cli(["eval", "--dataset", str(refs), "--predictions",
                                          str(preds), "--out", str(report)])
        self.eval_rates.append(len(asked) / elapsed)
        overall = {}
        if code == 0:
            rows = [json.loads(line) for line in report.read_text("utf-8").splitlines()]
            overall = next((r for r in rows if r["bucket"] == "overall"), {})
        self.evals.append((op, len(asked), overall))

    # --- checks ---------------------------------------------------------------

    def check(self) -> None:
        """Check every output against an independent computation or property.

        A failed check fails the operations that produced the output: every
        ingest for a snapshot check (repeats are checked byte-equal to the
        first), every gen for a sample check, and the one ask or eval for
        theirs.  Everything runs in this process, after the timed rounds, so
        that the run starts no other process.
        """
        from checks import oracle_disagreements

        from titan_kg.pathlang import render_path

        snapshot_text = self.first["snapshot"].decode("utf-8")
        sample_lines = "".join(self.first["dataset"]).splitlines()
        # The oracle sees each distinct output of a question once; the asks
        # that gave it share its verdict.
        outputs: dict[tuple, list[int]] = {}
        programs = {}
        for op, question, program, start, names in self.asks:
            key = (question, render_path(program, "token"), start, names)
            outputs.setdefault(key, []).append(op)
            programs.setdefault(key, program)
        asks = [(key, programs[key], key[2], key[3]) for key in outputs]
        self.checked["samples vs oracle"] += len(sample_lines)
        self.checked["asks vs oracle"] += len(self.asks)
        self._check_graph(snapshot_text)
        self._check_asks_and_evals()
        wrong_samples, wrong_outputs = oracle_disagreements(snapshot_text, sample_lines, asks)
        wrong_asks = [op for key in wrong_outputs for op in outputs[key]]
        if wrong_samples or not sample_lines:
            self._failed(self._ops_of("gen"),
                         f"{len(wrong_samples)} of {len(sample_lines)} generated samples "
                         f"disagree with the oracle, e.g. {wrong_samples[:3]}")
        if wrong_asks:
            self._failed(wrong_asks, f"{len(wrong_asks)} asks' answers disagree with the "
                                     f"oracle for their returned path and start nodes")

    def _check_graph(self, snapshot_text: str) -> None:
        from checks import bundle_census, missing_reverses, printed_census

        ingests = self._ops_of("ingest")
        graph = self.KnowledgeGraph.load_snapshot(snapshot_text)
        self.checked["census"] += 1
        census = printed_census(self.first["ingest_stdout"])
        expected = bundle_census(self.objects)
        if census != expected:
            self._failed(ingests, f"ingest census {census} != bundle counts {expected}")
        self.checked["reverse edges"] += 1
        if bad := missing_reverses(graph, self.ontology.build_default_registry()):
            self._failed(ingests, f"{bad} snapshot edge(s) lack their registry reverse")
        self.checked["snapshot round trip"] += 1
        if graph.export_snapshot() != snapshot_text:
            self._failed(ingests, "load_snapshot(export) does not re-export the same bytes")

    def _check_asks_and_evals(self) -> None:
        from titan_kg.planner import PlannerRequest

        indexed = WORKLOADS[self.workload] == "all"
        planner = self.MockPlanner(self.load_samples(self.planner_file.read_text("utf-8")),
                                   self.ontology.build_default_registry())
        ops_of: dict[int, list[int]] = {}
        for op, question, _, _, names in self.asks:
            ops_of.setdefault(question, []).append(op)
            sample = self.pool[question][0]
            if indexed:
                self.checked["indexed answers"] += 1
                if names != sample.answers:
                    self._failed([op], f"indexed ask answers differ from the sample's: "
                                       f"{sample.question!r}")
        if not indexed:
            # The plan depends only on the question and its mode, so it is
            # checked once for all the asks of a question.
            for question, ops in ops_of.items():
                sample, mode = self.pool[question]
                self.checked["unseen guessed"] += len(ops)
                response = planner.plan(PlannerRequest(question=sample.question, mode=mode))
                if not response.guessed:
                    self._failed(ops, f"unseen ask not flagged guessed: {sample.question!r}")

        for op, count, overall in self.evals:
            self.checked["eval count"] += 1
            if overall.get("count") != count:
                self._failed([op], f"eval overall count {overall.get('count')} != {count}")
            elif indexed:
                self.checked["indexed scores"] += 1
                if not all(abs((overall.get(m) or 0.0) - 1.0) < 5e-4
                           for m in ("em", "rouge_l", "rouge_1", "bleu")):
                    self._failed([op], f"indexed eval does not score 1.000: {overall}")

    # --- report -----------------------------------------------------------------

    def end_to_end(self, measured: bool = False) -> dict[str, float]:
        """The end-to-end metrics, with timings scaled to the reference speed
        (or as measured, when ``measured``)."""
        asks_ms = [1e3 * statistics.median(t) for t in self.latency]
        values = {
            "setup_s": statistics.median(self.times["setup"]),
            "ingest_s": statistics.median(self.times["ingest"]),
            "snapshot_mb": len(self.first["snapshot"]) / 2 ** 20,
            "gen_samples_per_s": statistics.median(self.gen_rates),
            "asks_per_s": statistics.median(self.ask_rates),
            "ask_p50_ms": statistics.median(asks_ms),
            "ask_p99_ms": statistics.quantiles(asks_ms, n=100, method="inclusive")[98],
            "eval_samples_per_s": statistics.median(self.eval_rates),
            "peak_rss_mb": self.peak_rss_mb,
        }
        if measured:
            return values
        from reference import REF_SECONDS

        slower = statistics.median(self.reference) / REF_SECONDS
        for name, unit in END_TO_END.items():
            if unit in ("s", "ms"):
                values[name] /= slower
            elif unit.endswith("/s"):
                values[name] *= slower
        return values


def run(workload: str, seed: int, seconds: float, trace: bool, k: int) -> dict:
    from reference import REF_SECONDS, time_reference

    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Run(workload, seed, k, workdir)
        tracer = None
        if trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        begin = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - begin < seconds:
            if tracer is not None and rounds:
                tracer.new_round()
            _settle(full=True)
            for step in ROUND:
                bench.reference += [time_reference() for _ in range(REFS_PER_STEP)]
                if step == "setup":
                    state = None  # let the last set-up's graph go first
                    state = bench.setup()
                elif step == "ask":
                    asked = bench.ask_batch(*state)
                elif step == "eval":
                    bench.evaluate(asked)
                else:
                    getattr(bench, step)()
            rounds += 1
        measured = time.perf_counter() - begin
        bench.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            layer_values = tracer.metrics()  # before the checks add calls
        checks_began = time.perf_counter()
        bench.check()
        checking = time.perf_counter() - checks_began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(f"bench: {workload} seed {seed}: {rounds} rounds in {measured:.1f} s, "
          f"{len(bench.pool)} questions in the ask pool", file=sys.stderr)
    print(f"bench: checks took {checking:.1f} s; checks run: {json.dumps(bench.checked)}",
          file=sys.stderr)

    if tracer is not None:
        from layers import PER_LAYER

        metrics = {name: {"value": layer_values[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        print(f"bench: reference loop median "
              f"{1e3 * statistics.median(bench.reference):.2f} ms "
              f"(scaled to {1e3 * REF_SECONDS:.1f} ms); as measured: "
              f"{json.dumps(bench.end_to_end(measured=True))}", file=sys.stderr)
        values = bench.end_to_end()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--k", type=int, default=K,
                        help="copies of the scale bundle (the quick self-test uses 1)")
    args = parser.parse_args(argv)
    _import_program()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Name-keyed sets and dicts iterate in hash order; fix it per run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.k)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
