"""Command line entrypoint wiring generation, pipeline runs, dataset
building and evaluation.

Configuration precedence: command line flags override environment variables
(GRAPHSTAGE_ENDPOINT, GRAPHSTAGE_API_KEY, GRAPHSTAGE_MODEL), which override
the optional JSON config file passed with --config.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__
from .backends import (
    CompletionConfig,
    FaultBackend,
    FaultPlan,
    HttpBackend,
    OracleBackend,
)
from .dataset import build_dataset, export_alpaca
from .evaluation import aggregate, evaluate_traces, record_to_json, render_report, Report
from .generator import (
    ALL_KINDS,
    GenConfig,
    SizeClass,
    TaskKind,
    generate_corpus,
    generate_instance,
    _derived_rng,
)
from .pipeline import run_corpus
from .codec import format_el_graph
from .serialize import (
    atomic_write_text,
    instance_to_json,
    load_corpus,
    load_traces,
    trace_to_json,
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


def _parse_tasks(spec: str) -> List[str]:
    if spec.strip() == "all":
        return [k.label for k in ALL_KINDS]
    labels: List[str] = []
    valid = {k.label for k in ALL_KINDS}
    tools = {k.tool for k in ALL_KINDS}
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        if ":" in token:
            if token not in valid:
                raise UsageError(f"unknown task {token!r}")
            labels.append(token)
        elif token in tools:
            labels.extend(k.label for k in ALL_KINDS if k.tool == token)
        else:
            raise UsageError(f"unknown task {token!r}")
    if not labels:
        raise UsageError("no tasks selected")
    return labels


def _load_config_file(path: Optional[str]) -> Dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _resolve(flag, env_name: str, file_cfg: Dict, key: str, default=None):
    if flag is not None:
        return flag
    env = os.environ.get(env_name)
    if env is not None:
        return env
    return file_cfg.get(key, default)


def _cmd_generate(args) -> int:
    config = GenConfig(
        count=args.count,
        seed=args.seed,
        kinds=tuple(_parse_tasks(args.tasks)),
        sizes=args.size,
        token_budget=args.budget,
    )
    out_dir = Path(args.out)
    corpus_path = out_dir / "corpus.jsonl"
    total = 0

    def lines():
        nonlocal total
        for instance in generate_corpus(config):
            _write_graph_file(out_dir, instance)
            total += 1
            yield instance_to_json(instance)

    write_jsonl(corpus_path, lines())
    print(f"wrote {total} instances to {corpus_path}")
    return 0


def _write_graph_file(corpus_dir: Path, instance) -> None:
    """An EL instance's graph goes to its file, relative to the corpus directory."""
    if instance.graph_file is not None:
        atomic_write_text(corpus_dir / instance.graph_file, format_el_graph(instance.graph))


def _make_backend(args, file_cfg: Dict, corpus):
    if args.backend == "oracle":
        return OracleBackend(corpus)
    if args.backend == "fault":
        plan = FaultPlan(
            drop_graph_edges=args.fault_drop,
            wrong_tool_name=args.fault_name,
            swap_parameters=args.fault_swap,
            emit_garbage=args.fault_garbage,
        )
        return FaultBackend(OracleBackend(corpus), plan, seed=args.seed or 0)
    if args.backend == "http":
        endpoint = _resolve(args.endpoint, "GRAPHSTAGE_ENDPOINT", file_cfg, "endpoint")
        if not endpoint:
            raise UsageError("http backend needs --endpoint or GRAPHSTAGE_ENDPOINT")
        model = _resolve(args.model, "GRAPHSTAGE_MODEL", file_cfg, "model", "local-model")
        api_key = _resolve(args.api_key, "GRAPHSTAGE_API_KEY", file_cfg, "api_key", "")
        return HttpBackend(
            CompletionConfig(
                model=model,
                endpoint=endpoint,
                api_key=api_key,
                max_new_tokens=args.max_tokens,
                top_p=args.top_p,
                temperature=args.temperature,
                retry_count=args.retries,
                timeout_ms=args.timeout_ms,
            )
        )
    raise UsageError(f"unknown backend {args.backend!r}")


def _cmd_run(args) -> int:
    if args.backend != "fault" and (
        any((args.fault_drop, args.fault_name, args.fault_swap, args.fault_garbage))
        or args.fault_labels
    ):
        raise UsageError(f"--fault-* flags need --backend fault, not {args.backend}")
    if args.backend != "fault" and args.seed is not None:
        raise UsageError(f"--seed needs --backend fault, not {args.backend}")
    file_cfg = _load_config_file(args.config)
    corpus = load_corpus(args.corpus)
    backend = _make_backend(args, file_cfg, corpus)
    base_dir = Path(args.corpus).parent
    traces = run_corpus(corpus, backend, workers=args.workers, base_dir=base_dir)
    write_jsonl(args.out, (trace_to_json(t) for t in traces))
    if args.fault_labels:
        atomic_write_text(
            args.fault_labels, json.dumps(backend.injected, indent=2, sort_keys=True) + "\n"
        )
    print(f"wrote {len(traces)} traces to {args.out}")
    return 0


def _cmd_build_dataset(args) -> int:
    fill_flags = {"--seed": args.seed, "--size": args.size, "--fill-rounds": args.fill_rounds}
    given = [flag for flag, value in fill_flags.items() if value is not None]
    if given and not args.fill_quota:
        raise UsageError(f"{', '.join(given)} need --fill-quota")
    corpus = load_corpus(args.corpus)
    traces = load_traces(args.traces)
    entries, stats = build_dataset(traces, corpus)

    if args.fill_quota:
        entries, stats = _fill_quota(args, corpus, traces, entries, stats)

    export_alpaca(entries, args.out)
    if args.stats:
        atomic_write_text(args.stats, json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(
        f"retained {stats['retained_instances']}/{stats['traces']} instances "
        f"({stats['entries']} entries) -> {args.out}"
    )
    return 0


def _fill_quota(args, corpus, traces, entries, stats):
    """Regenerate-and-retry until each kind holds the requested number of
    retained instances (oracle backend only; bounded rounds). Fresh EL
    instances get their graph files next to the corpus, and with --size both
    the size alternates by plan index."""
    quota = args.fill_quota
    base_config = GenConfig(seed=args.seed or 0, sizes=args.size or "wl")
    corpus_dir = Path(args.corpus).parent
    corpus = list(corpus)
    traces = list(traces)
    kind_counts: Dict[str, int] = {}
    for label, kind_stats in stats["per_kind"].items():
        kind_counts[label] = kind_stats["retained"]
    next_index: Dict[str, int] = {}
    for inst in corpus:
        next_index[inst.kind.label] = max(next_index.get(inst.kind.label, 0), 1 + _plan_index(inst))
    for _ in range(5 if args.fill_rounds is None else args.fill_rounds):
        missing = {label: quota - kind_counts.get(label, 0) for label in kind_counts}
        missing = {label: n for label, n in missing.items() if n > 0}
        if not missing:
            break
        fresh = []
        for label, needed in sorted(missing.items()):
            kind = TaskKind.parse(label)
            for _ in range(needed):
                index = next_index.get(label, 0)
                next_index[label] = index + 1
                if base_config.sizes == "both":
                    size = (SizeClass.WL, SizeClass.EL)[index % 2]
                else:
                    size = SizeClass(base_config.sizes)
                rng = _derived_rng(base_config.seed, kind, size, index)
                instance = generate_instance(kind, size, rng, base_config, index=index)
                _write_graph_file(corpus_dir, instance)
                fresh.append(instance)
        fresh_traces = run_corpus(fresh, OracleBackend(fresh), base_dir=corpus_dir)
        corpus.extend(fresh)
        traces.extend(fresh_traces)
        entries, stats = build_dataset(traces, corpus)
        kind_counts = {k: v["retained"] for k, v in stats["per_kind"].items()}
    return entries, stats


def _plan_index(instance) -> int:
    return int(instance.id.rsplit("-", 1)[1])


def _cmd_evaluate(args) -> int:
    corpus = load_corpus(args.corpus)
    traces = load_traces(args.traces)
    records = evaluate_traces(traces, corpus)
    report = aggregate(records, corpus)
    out_dir = Path(args.out)
    write_jsonl(out_dir / "records.jsonl", (record_to_json(r) for r in records))
    atomic_write_text(out_dir / "report.json", json.dumps(report.to_json(), indent=2) + "\n")
    atomic_write_text(out_dir / "report.txt", render_report(report, "txt"))
    print(f"evaluated {len(records)} traces -> {out_dir}")
    return 0


def _cmd_report(args) -> int:
    with open(Path(args.in_dir) / "report.json", "r", encoding="utf-8") as handle:
        report = Report.from_json(json.load(handle))
    sys.stdout.write(render_report(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphstage",
        description="Graph-reasoning task generation, staged pipeline runs, "
        "dataset building and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a task corpus")
    p.add_argument("--tasks", default="all", help="'all' or comma list, e.g. shortest_path:directed")
    p.add_argument("--count", type=_int_at_least(0), default=2000, help="instances per task kind")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("wl", "el", "both"), default="wl")
    p.add_argument("--budget", type=_int_at_least(1), default=4096,
                   help="token budget for size classification")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the staged pipeline over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--backend", choices=("http", "oracle", "fault"), default="oracle")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--api-key", default=None)
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="keep-alive connections, a request in flight on each (http backend only)")
    p.add_argument("--seed", type=int, default=None, help="fault backend seed (default 0)")
    p.add_argument("--fault-drop", type=float, default=0.0)
    p.add_argument("--fault-name", type=float, default=0.0)
    p.add_argument("--fault-swap", type=float, default=0.0)
    p.add_argument("--fault-garbage", type=float, default=0.0)
    p.add_argument("--fault-labels", default=None, help="write injected fault labels to this file")
    p.add_argument("--max-tokens", type=_int_at_least(1), default=4096)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=0.7)
    p.add_argument("--retries", type=_int_at_least(0), default=2)
    p.add_argument("--timeout-ms", type=_int_at_least(1), default=60_000)
    p.add_argument("--config", default=None, help="optional JSON config file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("build-dataset", help="filter traces and export Alpaca triples")
    p.add_argument("--traces", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--fill-quota", type=_int_at_least(0), default=0,
                   help="regenerate and retry until each kind retains this many instances")
    p.add_argument("--fill-rounds", type=_int_at_least(0), default=None, help="with --fill-quota (default 5)")
    p.add_argument("--seed", type=int, default=None, help="with --fill-quota (default 0)")
    p.add_argument("--size", choices=("wl", "el", "both"), default=None,
                   help="with --fill-quota (default wl)")
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
