"""Command line entrypoint wiring generation, pipeline runs, dataset
building and evaluation.

Configuration precedence: command line flags override environment variables
(GRAPHSTAGE_ENDPOINT, GRAPHSTAGE_API_KEY, GRAPHSTAGE_MODEL), which override
the optional JSON config file passed with --config.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
from contextlib import closing
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .backends import (
    CompletionConfig,
    FaultBackend,
    FaultPlan,
    HttpBackend,
    OracleBackend,
)
from .dataset import build_dataset, export_alpaca
from .evaluation import aggregate, evaluate_traces, render_report
from .generator import (
    ALL_KINDS,
    GenConfig,
    SizeClass,
    TaskKind,
    generate_corpus,
    generate_planned,
    parse_instance_id,
)
from .pipeline import run_corpus
from .codec import format_el_graph
# load_traces is unused here, but the traced benchmark run wraps
# `graphstage.cli.load_traces` and fails on a missing name
from .serialize import (  # noqa: F401
    MANIFEST_NAME,
    atomic_write_text,
    instance_to_json,
    load_corpus,
    load_traces,
    manifest_text,
    read_corpus,
    read_corpus_checked,
    trace_to_json,
    walk_traces,
    write_jsonl,
)


class UsageError(ValueError):
    pass


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _parse_tasks(spec: str) -> Tuple[str, ...]:
    """An argparse ``type``: 'all' or a comma list of tools and kind labels."""
    if spec.strip() == "all":
        return tuple(k.label for k in ALL_KINDS)
    labels: List[str] = []
    for token in filter(None, (t.strip() for t in spec.split(","))):
        chosen = [k.label for k in ALL_KINDS if token in (k.tool, k.label)]
        if not chosen:
            raise argparse.ArgumentTypeError(f"unknown task {token!r}")
        labels.extend(chosen)
    if not labels:
        raise argparse.ArgumentTypeError("no tasks selected")
    return tuple(labels)


def _load_config_file(path: Optional[str]) -> Dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _resolve(flag, env_name: str, file_cfg: Dict, key: str):
    return flag if flag is not None else os.environ.get(env_name, file_cfg.get(key))


def _settings(cls, args, **resolved):
    """``cls`` built from the given flags whose dest names one of its fields,
    and from ``resolved``; a field left unset keeps the default that ``cls``
    declares. A value that ``cls`` rejects is a usage error."""
    values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    values.update(resolved)
    try:
        return cls(**{name: value for name, value in values.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_generate(args) -> int:
    """The corpus, its EL graph files, and the manifest of their SHA-256
    digests, taken from the bytes as they are written: a later load of the
    same corpus bytes need not validate them again, and ``sha256sum -c``
    checks every file."""
    config = _settings(GenConfig, args)
    out_dir = Path(args.out)
    corpus_path = out_dir / "corpus.jsonl"
    corpus_digest = hashlib.sha256()
    graph_digests = {}

    def lines():
        for instance in generate_corpus(config):
            digest = _write_graph_file(out_dir, instance)
            if digest is not None:
                graph_digests[instance.graph_file] = digest
            yield instance_to_json(instance)

    total = write_jsonl(corpus_path, lines(), corpus_digest)
    digests = {corpus_path.name: corpus_digest.hexdigest(), **graph_digests}
    atomic_write_text(out_dir / MANIFEST_NAME, manifest_text(digests))
    print(f"wrote {total} instances to {corpus_path}")
    return 0


def _write_graph_file(corpus_dir: Path, instance) -> Optional[str]:
    """An EL instance's graph goes to its file, relative to the corpus
    directory; returns the SHA-256 of the bytes written, None for a WL one."""
    if instance.graph_file is None:
        return None
    text = format_el_graph(instance.graph)
    atomic_write_text(corpus_dir / instance.graph_file, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _backend_for(args):
    """The function that makes the backend from the corpus. Every backend
    setting is checked here, so a bad one is reported before the corpus is
    read; only the oracle and fault backends need the corpus."""
    if args.backend == "oracle":
        return OracleBackend
    if args.backend == "fault":
        plan = _settings(FaultPlan, args)
        seed = {} if args.seed is None else {"seed": args.seed}
        return lambda corpus: FaultBackend(OracleBackend(corpus), plan, **seed)
    file_cfg = _load_config_file(args.config)
    endpoint = _resolve(args.endpoint, "GRAPHSTAGE_ENDPOINT", file_cfg, "endpoint")
    if not endpoint:
        raise UsageError("http backend needs --endpoint or GRAPHSTAGE_ENDPOINT")
    model = _resolve(args.model, "GRAPHSTAGE_MODEL", file_cfg, "model")
    api_key = _resolve(args.api_key, "GRAPHSTAGE_API_KEY", file_cfg, "api_key")
    backend = HttpBackend(_settings(CompletionConfig, args, endpoint=endpoint, model=model, api_key=api_key))
    return lambda corpus: backend


def _cmd_run(args) -> int:
    """Each trace is written as its turn in corpus order comes. Over HTTP the
    corpus is read as the run goes, after a full check when the manifest
    does not vouch for it; the oracle and fault backends look instances up
    by id (ROADMAP item 3), so they load it whole."""
    make_backend = _backend_for(args)
    corpus = read_corpus_checked(args.corpus) if args.backend == "http" else load_corpus(args.corpus)
    backend = make_backend(corpus)
    base_dir = Path(args.corpus).parent
    # closed at once when a write fails, which stops the lanes of an HTTP run
    with closing(run_corpus(corpus, backend, workers=args.workers, base_dir=base_dir)) as traces:
        count = write_jsonl(args.out, map(trace_to_json, traces))
    if args.fault_labels:
        atomic_write_text(
            args.fault_labels, json.dumps(backend.injected, indent=2, sort_keys=True) + "\n"
        )
    print(f"wrote {count} traces to {args.out}")
    return 0


def _cmd_build_dataset(args) -> int:
    """The corpus and the traces are walked one instance at a time."""
    corpus, top_up = read_corpus(args.corpus), None
    if args.fill_quota:
        next_index: Dict[str, int] = {}
        corpus = _noting_next_index(corpus, next_index)
        top_up = partial(_fill_quota, args, next_index)
    entries, stats = build_dataset(walk_traces(args.traces, corpus), top_up)
    export_alpaca(entries, args.out)
    if args.stats:
        atomic_write_text(args.stats, json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(
        f"retained {stats['retained_instances']}/{stats['traces']} instances "
        f"({stats['entries']} entries) -> {args.out}"
    )
    return 0


def _noting_next_index(instances: Iterable, next_index: Dict[str, int]) -> Iterator:
    """``instances``, noting in ``next_index`` one past the highest plan
    index of each kind label."""
    for instance in instances:
        kind, _, index = parse_instance_id(instance.id)[:3]
        next_index[kind.label] = max(next_index.get(kind.label, 0), 1 + index)
        yield instance


def _fill_quota(args, next_index: Dict[str, int], per_kind: Dict[str, Dict[str, int]]) -> Iterable:
    """(instance, trace) pairs of fresh instances for each kind that retains
    fewer than --fill-quota, run through the oracle. The oracle's traces are
    always retained, so one pass reaches the quota. Fresh indexes follow each
    kind's highest plan index in the corpus (``next_index``); with --size both
    the size alternates by plan index. Fresh EL graph files go next to the
    corpus."""
    config = _settings(GenConfig, args)
    sizes = (SizeClass.WL, SizeClass.EL) if config.sizes == "both" else (SizeClass(config.sizes),)
    plan = []
    for label, kind_stats in sorted(per_kind.items()):
        start = next_index.get(label, 0)
        for index in range(start, start + args.fill_quota - kind_stats["retained"]):
            plan.append((TaskKind.parse(label), sizes[index % len(sizes)], index))
    if not plan:
        return ()
    corpus_dir = Path(args.corpus).parent
    fresh = list(generate_planned(plan, config))
    for instance in fresh:
        _write_graph_file(corpus_dir, instance)
    return zip(fresh, run_corpus(fresh, OracleBackend(fresh), base_dir=corpus_dir))


def _cmd_evaluate(args) -> int:
    """The corpus and the traces are walked one instance at a time."""
    records = evaluate_traces(walk_traces(args.traces, read_corpus(args.corpus)))
    report = aggregate(records)
    out_dir = Path(args.out)
    write_jsonl(out_dir / "records.jsonl", records)
    atomic_write_text(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
    atomic_write_text(out_dir / "report.txt", render_report(report, "txt"))
    print(f"evaluated {len(records)} traces -> {out_dir}")
    return 0


def _cmd_report(args) -> int:
    """A report.json that is not JSON or not of the shape that ``evaluate``
    writes raises ``ValueError`` prefixed with its path, naming a missing key."""
    path = Path(args.in_dir) / "report.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = render_report(json.load(handle), args.format)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    sys.stdout.write(text)
    return 0


# Flags that only some modes of a command read, by command: a function naming
# the mode of the parsed arguments, the flags every mode reads, and the flags
# that only each mode reads. main rejects a flag given outside its mode before
# the command runs. A command not listed reads all its flags in one mode.
FLAG_SCOPE = {
    "run": (
        lambda args: f"--backend {args.backend}",
        # --workers stays with every backend: the benchmark's offline_oracle
        # workload passes it to an oracle run (ROADMAP item 1); only http reads it
        ("--corpus", "--backend", "--workers", "--out"),
        {
            "--backend oracle": (),
            "--backend fault": ("--seed", "--fault-drop", "--fault-name", "--fault-swap",
                                "--fault-garbage", "--fault-labels"),
            "--backend http": ("--endpoint", "--model", "--api-key", "--max-tokens", "--top-p",
                               "--temperature", "--retries", "--timeout-ms", "--config"),
        },
    ),
    "build-dataset": (
        lambda args: "--fill-quota N" if args.fill_quota else "--fill-quota 0",
        ("--traces", "--corpus", "--out", "--stats", "--fill-quota"),
        {"--fill-quota 0": (), "--fill-quota N": ("--seed", "--size")},
    ),
}


def _flags(parser: argparse.ArgumentParser, command: str) -> Dict[str, argparse.Action]:
    """Long option -> action for each flag of ``command``."""
    (commands,) = parser._subparsers._group_actions  # argparse has no public handle
    actions = commands.choices[command]._actions
    return {option: a for a in actions for option in a.option_strings if option.startswith("--")}


def _check_scope(parser: argparse.ArgumentParser, args) -> None:
    """A scoped flag (its default is None) given outside its mode is a usage error."""
    if args.command in FLAG_SCOPE:
        pick, _, modes = FLAG_SCOPE[args.command]
        mode, flags = pick(args), _flags(parser, args.command)
        for other, scoped in modes.items():
            for flag in scoped:
                if flag not in modes[mode] and getattr(args, flags[flag].dest) is not None:
                    raise UsageError(f"{flag} is read only with {other}, not {mode}")


def build_parser() -> argparse.ArgumentParser:
    """The command line. A flag whose dest names a field of GenConfig,
    CompletionConfig or FaultPlan defaults to None: the field's default is
    declared only in its dataclass (see _settings)."""
    parser = argparse.ArgumentParser(
        prog="graphstage",
        description="Graph-reasoning task generation, staged pipeline runs, "
        "dataset building and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a task corpus")
    p.add_argument("--tasks", dest="kinds", type=_parse_tasks,
                   help="'all' (the default) or comma list, e.g. shortest_path:directed")
    p.add_argument("--count", type=_int_at_least(0), help="instances per task kind")
    p.add_argument("--seed", type=int)
    p.add_argument("--size", dest="sizes", choices=("wl", "el", "both"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the staged pipeline over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--backend", choices=("http", "oracle", "fault"), default="oracle")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--api-key")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="keep-alive connections, a request in flight on each (http backend only)")
    p.add_argument("--seed", type=int, help="fault backend seed")
    p.add_argument("--fault-drop", dest="drop_graph_edges", type=float)
    p.add_argument("--fault-name", dest="wrong_tool_name", type=float)
    p.add_argument("--fault-swap", dest="swap_parameters", type=float)
    p.add_argument("--fault-garbage", dest="emit_garbage", type=float)
    p.add_argument("--fault-labels", help="write injected fault labels to this file")
    p.add_argument("--max-tokens", dest="max_new_tokens", type=_int_at_least(1))
    p.add_argument("--top-p", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--retries", dest="retry_count", type=_int_at_least(0))
    p.add_argument("--timeout-ms", type=_int_at_least(1))
    p.add_argument("--config", help="optional JSON config file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("build-dataset", help="filter traces and export Alpaca triples")
    p.add_argument("--traces", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--fill-quota", type=_int_at_least(0), default=0,
                   help="generate fresh instances until each kind retains this many")
    p.add_argument("--seed", type=int, help="with --fill-quota")
    p.add_argument("--size", dest="sizes", choices=("wl", "el", "both"), help="with --fill-quota")
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("evaluate", help="score traces and write accuracy reports")
    p.add_argument("--traces", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="render a stored report")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--format", choices=("md", "txt"), default="txt")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # a command builds no reference cycles (what it loads is freed by reference
    # counting), so collector passes would only re-scan the loaded corpus
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_scope(parser, args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # one actionable line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
