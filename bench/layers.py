"""Per-layer tracing for the benchmark's traced run.

Wraps the package's public functions at every module that holds them (the
defining module and each module that imported the name), so calls are
seen whichever module makes them.  The package's source is not touched.
Each wrapped call records its wall time and its self time: the time minus
the part spent in wrapped calls nested inside it.  Counters are kept per
round; ``metrics`` reduces the rounds to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

from titan_kg import cli, datagen, eval as ev, executor, kg, ontology, pathlang, planner
from titan_kg.errors import TitanError

# (layer name, owner, attribute) of every wrapped function or method.
_MODULE_FUNCTIONS = [
    ("ontology.build_default_registry", ontology, "build_default_registry"),
    ("kg.parse_stix_bundle", kg, "parse_stix_bundle"),
    ("kg.build_graph", kg, "build_graph"),
    ("kg.link_entities", kg, "link_entities"),
    ("pathlang.parse_path", pathlang, "parse_path"),
    ("pathlang.validate_program", pathlang, "validate_program"),
    ("executor.execute", executor, "execute"),
    ("executor.step_select", executor, "step_select"),
    ("executor.step_filter", executor, "step_filter"),
    ("executor.step_exec_common", executor, "step_exec_common"),
    ("executor.step_exec_difference", executor, "step_exec_difference"),
    ("datagen.load_templates", datagen, "load_templates"),
    ("datagen.generate_dataset", datagen, "generate_dataset"),
    ("datagen.synthesize_cot", datagen, "synthesize_cot"),
    ("datagen.dataset_to_jsonl", datagen, "dataset_to_jsonl"),
    ("datagen.load_dataset", datagen, "load_dataset"),
    ("eval.exact_match", ev, "exact_match"),
    ("eval.rouge_l", ev, "rouge_l"),
    ("eval.rouge_1", ev, "rouge_1"),
    ("eval.bleu", ev, "bleu"),
    ("eval.aggregate_report", ev, "aggregate_report"),
    ("cli.run_question", cli, "run_question"),
]
_METHODS = [
    ("kg.export_snapshot", kg.KnowledgeGraph, "export_snapshot"),
    ("kg.sort_ids", kg.KnowledgeGraph, "sort_ids"),
    ("kg.find_by_name", kg.KnowledgeGraph, "find_by_name"),
    ("planner.index_build", planner.MockPlanner, "__init__"),
    ("planner.plan", planner.MockPlanner, "plan"),
]

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "kg.parse_stix_bundle_s": ("s", "lower"),
    "kg.build_graph_s": ("s", "lower"),
    "kg.export_snapshot_s": ("s", "lower"),
    "kg.load_snapshot_s": ("s", "lower"),
    "kg.sort_ids_calls": ("count", "lower"),
    "kg.sort_ids_s": ("s", "lower"),
    "kg.find_by_name_calls": ("count", "lower"),
    "kg.link_entities_calls": ("count", "lower"),
    "kg.link_entities_us": ("us", "lower"),
    "pathlang.parse_path_calls": ("count", "lower"),
    "pathlang.parse_path_us": ("us", "lower"),
    "pathlang.validate_program_calls": ("count", "lower"),
    "pathlang.validate_program_rejected": ("count", "lower"),
    "pathlang.validate_program_us": ("us", "lower"),
    "executor.execute_calls": ("count", "lower"),
    "executor.execute_self_s": ("s", "lower"),
    "executor.step_select_s": ("s", "lower"),
    "executor.step_filter_s": ("s", "lower"),
    "executor.step_exec_common_s": ("s", "lower"),
    "executor.step_exec_difference_s": ("s", "lower"),
    "executor.edges_traversed": ("count", "lower"),
    "executor.nodes_in_per_answer": ("ratio", "lower"),
    "datagen.load_templates_s": ("s", "lower"),
    "datagen.generate_dataset_s": ("s", "lower"),
    "datagen.generate_dataset_self_s": ("s", "lower"),
    "datagen.synthesize_cot_s": ("s", "lower"),
    "datagen.dataset_to_jsonl_s": ("s", "lower"),
    "datagen.bindings_attempted": ("count", "lower"),
    "datagen.samples_kept": ("count", "higher"),
    "datagen.load_dataset_s": ("s", "lower"),
    "planner.index_build_s": ("s", "lower"),
    "planner.plan_calls": ("count", "lower"),
    "planner.plan_self_us": ("us", "lower"),
    "planner.guessed": ("count", "lower"),
    "eval.exact_match_us": ("us", "lower"),
    "eval.rouge_l_us": ("us", "lower"),
    "eval.rouge_1_us": ("us", "lower"),
    "eval.bleu_us": ("us", "lower"),
    "eval.aggregate_report_s": ("s", "lower"),
    "cli.run_question_s": ("s", "lower"),
    "cli.run_question_self_us": ("us", "lower"),
    "ontology.build_default_registry_calls": ("count", "lower"),
}


class Tracer:
    """Call times and counters of the wrapped layers, one record per round."""

    def __init__(self):
        self._stack: list[list] = []  # [layer name, time in nested wrapped calls]
        self.rounds: list[dict[str, Counter]] = []
        self.new_round()

    def new_round(self) -> None:
        self.total, self.own, self.calls, self.events = (
            Counter(), Counter(), Counter(), Counter())
        self.rounds.append({"total": self.total, "self": self.own,
                            "calls": self.calls, "events": self.events})

    def _wrap(self, name: str, fn, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call()
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except TitanError:
                tracer.events[name + ".raised"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                tracer.total[name] += elapsed
                tracer.own[name] += elapsed - frame[1]
                tracer.calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _on_execute(self, result) -> None:
        self.events["edges_traversed"] += sum(len(rec.edges) for rec in result.trace)
        self.events["nodes_in"] += sum(sum(rec.input_sizes) for rec in result.trace)
        self.events["answers"] += len(result.answers)

    def _on_validate(self) -> None:
        # generate_dataset validates each template binding exactly once.
        if self._inside("datagen.generate_dataset"):
            self.events["bindings_attempted"] += 1

    def _on_generate(self, result) -> None:
        split, _table = result
        self.events["samples_kept"] += len(split.train) + len(split.test)

    def _on_plan(self, response) -> None:
        self.events["guessed"] += int(response.guessed)

    def install(self) -> None:
        """Wrap every traced layer, at every ``titan_kg`` module that holds it."""
        on_call = {"pathlang.validate_program": self._on_validate}
        on_result = {
            "executor.execute": self._on_execute,
            "datagen.generate_dataset": self._on_generate,
            "planner.plan": self._on_plan,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "titan_kg" or n.startswith("titan_kg."))]
        for name, owner, attr in _MODULE_FUNCTIONS:
            original = getattr(owner, attr)
            traced = self._wrap(name, original, on_call.get(name), on_result.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)
        for name, cls, attr in _METHODS:
            setattr(cls, attr, self._wrap(name, getattr(cls, attr),
                                          on_result=on_result.get(name)))
        load = kg.KnowledgeGraph.__dict__["load_snapshot"].__func__
        kg.KnowledgeGraph.load_snapshot = classmethod(self._wrap("kg.load_snapshot", load))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: ``_s`` and counts are per round (median over
        rounds), ``_us`` is microseconds per call over the whole run."""
        rounds = [r for r in self.rounds if r["calls"]]

        def per_round(value) -> float:
            return statistics.median(value(r) for r in rounds)

        def per_call_us(name: str, field: str = "total") -> float:
            calls = sum(r["calls"][name] for r in rounds)
            return 1e6 * sum(r[field][name] for r in rounds) / calls if calls else 0.0

        def ratio(r) -> float:
            return r["events"]["nodes_in"] / max(1, r["events"]["answers"])

        out: dict[str, float] = {}
        for metric in PER_LAYER:
            layer, _, what = metric.rpartition("_")
            if metric == "executor.nodes_in_per_answer":
                out[metric] = per_round(ratio)
            elif what == "calls":
                out[metric] = per_round(lambda r, n=layer: r["calls"][n])
            elif metric.endswith("_self_s"):
                name = metric[:-len("_self_s")]
                out[metric] = per_round(lambda r, n=name: r["self"][n])
            elif metric.endswith("_self_us"):
                out[metric] = per_call_us(metric[:-len("_self_us")], "self")
            elif what == "s":
                out[metric] = per_round(lambda r, n=layer: r["total"][n])
            elif what == "us":
                out[metric] = per_call_us(layer)
            elif metric == "pathlang.validate_program_rejected":
                out[metric] = per_round(
                    lambda r: r["events"]["pathlang.validate_program.raised"])
            else:
                event = metric.split(".", 1)[1]
                out[metric] = per_round(lambda r, e=event: r["events"][e])
        return out
