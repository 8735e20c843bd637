"""Command-line front-end: ingest, census, exec, ask, gen, eval, registry.

Every failure exits non-zero with a single machine-parseable line on
stderr of the form ``ErrorClass: message``.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import chain
from pathlib import Path

from . import datagen
from .errors import MalformedBundle, MalformedInput, TitanError
from .eval import aggregate_report, load_predictions, load_references, score_predictions
from .executor import run_path
from .kg import KnowledgeGraph, build_graph, node_census, parse_stix_bundle
from .ontology import build_default_registry
from .pathlang import parse_path, render_path
from .planner import EndpointConfig, MockPlanner, RemotePlanner, run_question


def _checked(convert, accept, message: str):
    """An argparse ``type``: ``convert`` the text, then reject a value that
    ``accept`` refuses with ``message``."""
    def parse(value: str):
        result = convert(value)
        if not accept(result):
            raise argparse.ArgumentTypeError(message)
        return result
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _load(path: str, reader):
    """``reader`` of the file's text; a MalformedInput it raises is raised
    again naming the file, as is a file that is a directory or not UTF-8."""
    try:  # bytes, then decode: text mode would read a lone "\r" as a newline
        text = Path(path).read_bytes().decode("utf-8")
    except IsADirectoryError as exc:
        raise MalformedInput(f"{path}: is a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})") from exc
    try:
        return reader(text)
    except MalformedInput as exc:
        raise type(exc)(f"{path} {exc}") from exc


def _census_table(text: str, census: dict[str, int]) -> dict[str, int]:
    """An expected-census table: ``key<TAB>count`` records, ``#`` comments;
    a key is one of ``census``'s, given once with a count >= 0."""
    table: dict[str, int] = {}

    def row(line: str) -> None:
        try:
            key, count = line.split("\t")
            count = int(count)
        except ValueError as exc:
            raise ValueError(f"expected kind<TAB>count, got {line!r}") from exc
        if key not in census:
            raise ValueError(f"unknown census key {key!r}")
        if key in table:
            raise ValueError(f"census key {key!r} given twice")
        if count < 0:
            raise ValueError(f"census key {key!r} has a negative count {count}")
        table[key] = count
    datagen.read_records(text, row, comments=True)
    return table


def cmd_ingest(args) -> int:
    if Path(args.out).is_dir():  # the error the write would raise, before the parse
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    bundles = [(path, _load(path, parse_stix_bundle)) for path in args.bundles]
    registry = build_default_registry(include_subtechniques=not args.no_subtechniques)
    try:
        graph = build_graph(chain.from_iterable(objects for _, objects in bundles), registry,
                            drop_revoked=not args.keep_revoked, lenient=not args.strict)
    except MalformedBundle as exc:  # an id two kinds share: name the bundles using it
        holders = [path for path, objects in bundles
                   if any(obj.id == exc.object_id for obj in objects)]
        raise MalformedBundle(f"{', '.join(holders)}: {exc}") from exc
    Path(args.out).write_text(graph.export_snapshot(), "utf-8")
    for key, count in node_census(graph).items():
        print(f"{key}\t{count}")
    if graph.skipped:
        print(f"skipped\t{len(graph.skipped)}")
    print(f"snapshot\t{args.out}")
    return 0


def cmd_census(args) -> int:
    graph = _load(args.snapshot, KnowledgeGraph.load_snapshot)
    actual = node_census(graph)
    if not args.expected:
        for key, count in actual.items():
            print(f"{key}\t{count}")
        return 0
    expected = _load(args.expected, lambda text: _census_table(text, actual))
    print(f"{'kind':<18}{'actual':>8}{'expected':>10}{'delta%':>8}")
    for key, actual_count in actual.items():
        if key not in expected:
            continue
        want = expected[key]
        delta = 100.0 * (actual_count - want) / want if want else (
            float("inf") if actual_count else 0.0)
        print(f"{key:<18}{actual_count:>8}{want:>10}{delta:>8.1f}")
    return 0


def cmd_exec(args) -> int:
    graph = _load(args.snapshot, KnowledgeGraph.load_snapshot)
    registry = build_default_registry()
    program = parse_path(args.path, registry)
    typed, result = run_path(graph, registry, program, args.start)
    print(f"path\t{render_path(typed.program, 'token')}")
    print(result.to_text(graph), end="")
    return 0


def cmd_ask(args) -> int:
    graph = _load(args.snapshot, KnowledgeGraph.load_snapshot)
    registry = build_default_registry()
    if args.planner == "mock":
        if not args.dataset:
            raise TitanError("the mock planner needs --dataset to build its index")
        samples = _load(args.dataset, datagen.load_dataset)
        planner = MockPlanner(samples, registry)
    else:
        planner = RemotePlanner(EndpointConfig.from_env(), registry)
    result, program, cot = run_question(graph, planner, args.question,
                                        mode=args.mode, registry=registry)
    if cot:
        print(f"cot\t{cot}")
    print(f"path\t{render_path(program, 'token')}")
    print(result.to_text(graph), end="")
    return 0


def cmd_gen(args) -> int:
    graph = _load(args.snapshot, KnowledgeGraph.load_snapshot)
    registry = build_default_registry()
    read = lambda document: datagen.load_templates(document, registry)
    templates = (_load(args.templates, read) if args.templates
                 else read(datagen.default_template_text()))
    config = datagen.DatasetConfig(rng_seed=args.seed, max_per_template=args.max_per_template,
                                   test_fraction=args.test_fraction, keep_empty=args.keep_empty)
    split, table = datagen.generate_dataset(templates, graph, config, registry)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "train.jsonl").write_text(datagen.dataset_to_jsonl(split.train), "utf-8")
    (outdir / "test.jsonl").write_text(datagen.dataset_to_jsonl(split.test), "utf-8")
    (outdir / "profile.txt").write_text(table, "utf-8")
    print(table, end="")
    print(f"out\t{outdir}")
    return 0


def cmd_eval(args) -> int:
    registry = build_default_registry()
    references = _load(args.dataset, lambda text: load_references(text, registry))
    predictions = _load(args.predictions, load_predictions)
    report = aggregate_report(score_predictions(references, predictions, registry))
    if args.out:
        Path(args.out).write_text(report.to_records(), "utf-8")
    print(report.to_text(), end="")
    return 0


def cmd_registry(args) -> int:
    table = build_default_registry().to_table()
    if args.out:
        Path(args.out).write_text(table, "utf-8")
    else:
        print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="titan",
        description="CTI knowledge graph: ingest STIX, run relational paths, "
                    "generate datasets, evaluate planners.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a graph snapshot from STIX bundles")
    p.add_argument("bundles", nargs="+", help="STIX bundle JSON file(s)")
    p.add_argument("--out", required=True, help="snapshot output path")
    p.add_argument("--strict", action="store_true",
                   help="fail on edges with no registry signature")
    p.add_argument("--keep-revoked", action="store_true",
                   help="keep revoked/deprecated objects")
    p.add_argument("--no-subtechniques", action="store_true",
                   help="drop the subtechnique relation from the registry")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("census", help="per-kind node counts of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--expected", help="expected-count table (kind<TAB>count lines)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("exec", help="execute a literal path")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--path", required=True, help="token or display form path")
    p.add_argument("--start", action="append", default=[],
                   help="start entity name (repeatable)")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("ask", help="plan a question, then execute the path")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--question", required=True,
                   type=_checked(str, str.strip, "must not be blank"))
    p.add_argument("--planner", choices=("mock", "remote"), default="mock")
    p.add_argument("--mode", choices=("cot", "nocot"), default="cot")
    p.add_argument("--dataset", help="dataset file backing the mock planner")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("gen", help="generate a question/CoT/path dataset")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--templates", help="template corpus (default: shipped corpus)")
    p.add_argument("--seed", default=0, type=_checked(
        int, lambda n: 0 <= n < 2 ** 64, "seed must be an unsigned 64-bit integer"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-per-template", default=40,
                   type=_checked(int, lambda n: n >= 0, "must be an integer >= 0"))
    p.add_argument("--test-fraction", default=0.2,  # the check also refuses nan
                   type=_checked(float, lambda x: 0 <= x <= 1, "must be a number in [0, 1]"))
    p.add_argument("--keep-empty", action="store_true",
                   help="keep samples whose answer set is empty")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="score predictions against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True,
                   help="JSONL with one {\"path\": ..., \"cot\": ...} per dataset row")
    p.add_argument("--out", help="also write the report as JSONL records")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("registry", help="print the relation signature table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_registry)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TitanError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
