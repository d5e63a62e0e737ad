"""Spans for the traced benchmark run, recorded from outside the package.

Each public function the CLI steps reach is wrapped where it is looked up: a
module calls ``build_graph`` through its own global name, so the wrapper
replaces ``graphstage.generator.build_graph`` and not ``graphs.build_graph``.
The untraced run never calls :func:`install`, so it runs the package as is.

A span records its name, start, end, parent and thread. Parents come from a
thread-local stack; a span opened on a worker thread with an empty stack takes
the benchmark's current CLI step span as its parent. The instance id is set on
the span that knows it (``run_pipeline``, ``generate_instance``) and resolved
for the others through their parents. Spans stay in memory until
:meth:`Recorder.write` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

TOOLS = (
    "cycle_detection", "max_triangle_sum", "edge_count", "node_count",
    "topological_sort", "degree_count", "edge_existence", "node_existence",
    "maximum_flow", "path_existence", "shortest_path",
)
CODEC_EXTRACTORS = (
    "extract_graph", "read_el_graph_file", "extract_tool_name",
    "extract_parameters", "extract_file_path",
)
STEPS = ("generate", "run", "build_dataset", "evaluate")


class Span:
    __slots__ = ("sid", "name", "parent", "thread", "start", "end", "instance", "attrs", "error")

    def __init__(self, sid, name, parent, thread, start=0.0, end=0.0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.instance: Optional[str] = None
        self.attrs: Dict[str, object] = {}
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def instance_id(self) -> Optional[str]:
        span = self
        while span is not None:
            if span.instance is not None:
                return span.instance
            span = span.parent
        return None

    def has_ancestor(self, name: str) -> bool:
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Recorder:
    def __init__(self):
        self.spans: List[Span] = []
        self.step: Optional[Span] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.step
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.sid, "parent": s.parent.sid if s.parent else None,
                    "name": s.name, "thread": s.thread, "start": s.start, "end": s.end,
                    "instance": s.instance_id(), "attrs": s.attrs, "error": s.error,
                }) + "\n")


def wrap(recorder: Recorder, fn: Callable, name: str, after: Optional[Callable] = None):
    """``fn`` inside a span; ``after(span, args, result)`` may annotate it."""

    def wrapped(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapped


def wrap_iterator(recorder: Recorder, fn: Callable, name: str):
    """A generator function whose every ``next`` step is one span."""

    def wrapped(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            span = recorder.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.close(span)
            yield item

    return wrapped


def _on_generate_instance(span, args, result):
    span.instance = result.id
    span.attrs = {"kind": result.kind.label, "size": result.size_class.value}


def _on_run_pipeline(span, args, result):
    span.instance = result.instance_id


def _on_dispatch(span, args, result):
    span.attrs = {"tool": str(args[0]).strip().lower()}


def _on_complete(span, args, result):
    span.attrs = {"prompt_bytes": len(args[1].encode("utf-8"))}


# (module or class, attribute, span name, annotator): every import site of a
# public function that the CLI steps reach
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("graphstage.cli", "load_corpus", "serialize.load_corpus", None),
    ("graphstage.cli", "load_traces", "serialize.load_traces", None),
    ("graphstage.cli", "write_jsonl", "serialize.write_jsonl", None),
    ("graphstage.cli", "atomic_write_text", "serialize.atomic_write_text", None),
    ("graphstage.cli", "format_el_graph", "codec.format_el_graph", None),
    ("graphstage.cli", "run_corpus", "pipeline.run_corpus", None),
    ("graphstage.cli", "build_dataset", "dataset.build_dataset", None),
    ("graphstage.cli", "export_alpaca", "dataset.export_alpaca", None),
    ("graphstage.cli", "evaluate_traces", "evaluation.evaluate_traces", None),
    ("graphstage.cli", "aggregate", "evaluation.aggregate", None),
    ("graphstage.generator", "generate_instance", "generator.generate_instance",
     _on_generate_instance),
    ("graphstage.generator", "build_graph", "graphs.build_graph", None),
    ("graphstage.generator", "dispatch", "tools.dispatch", _on_dispatch),
    ("graphstage.generator", "render_edge_list", "codec.render_edge_list", None),
    ("graphstage.pipeline", "run_pipeline", "pipeline.run_pipeline", _on_run_pipeline),
    ("graphstage.pipeline", "dispatch", "tools.dispatch", _on_dispatch),
    *(("graphstage.pipeline", fn, f"codec.{fn}", None) for fn in CODEC_EXTRACTORS),
    ("graphstage.codec", "build_graph", "graphs.build_graph", None),
    ("graphstage.serialize", "build_graph", "graphs.build_graph", None),
    ("graphstage.backends", "render_edge_list", "codec.render_edge_list", None),
    ("graphstage.backends.OracleBackend", "complete", "backends.oracle.complete", _on_complete),
    ("graphstage.backends.HttpBackend", "complete", "backends.http.complete", _on_complete),
    ("graphstage.dataset", "graphs_equal", "graphs.graphs_equal", None),
    ("graphstage.dataset", "atomic_write_text", "serialize.atomic_write_text", None),
    ("graphstage.evaluation", "graphs_equal", "graphs.graphs_equal", None),
)
# generate_corpus is a generator function: one span per instance it yields
ITERATOR_WRAPS = (("graphstage.cli", "generate_corpus", "generator.generate_corpus"),)


def _owner(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every wrap site; returns the function that restores them."""
    saved = []
    for path, attr, name, after in WRAPS:
        owner = _owner(path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(recorder, original, name, after))
    for path, attr, name in ITERATOR_WRAPS:
        owner = _owner(path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap_iterator(recorder, original, name))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# arithmetic


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent.sid].append((s.start, s.end))
    return {s.sid: s.duration - covered(s.start, s.end, children[s.sid]) for s in spans}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def kind_metric_name(label: str, size: str) -> str:
    return f"generator.ms_per_instance.{label.replace(':', '-')}.{size}"


def layer_metrics(spans: List[Span], passes: int, kinds: Iterable[str]) -> Dict[str, float]:
    """Per-layer figures from the spans of ``passes`` traced passes over the
    same inputs. Seconds and calls are per pass."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name, pick=lambda s: True):
        return sum(selfs[s.sid] for s in by_name[name] if pick(s)) / passes

    def total_s(name):
        return sum(s.duration for s in by_name[name]) / passes

    def calls(name):
        return len(by_name[name]) / passes

    def ms(name):
        return [s.duration * 1000.0 for s in by_name[name]]

    def ratio(a, b):
        return a / b if b else 0.0

    out: Dict[str, float] = {f"cli.{step}_s": total_s(f"cli.{step}") for step in STEPS}

    made = by_name["generator.generate_instance"]
    out["generator.self_s"] = self_s("generator.generate_instance") + self_s("generator.generate_corpus")
    for label in kinds:
        for size in ("wl", "el"):
            values = [s.duration * 1000.0 for s in made
                      if s.attrs.get("kind") == label and s.attrs.get("size") == size]
            out[kind_metric_name(label, size)] = statistics.median(values) if values else 0.0
    for metric, name in (("build_graph", "graphs.build_graph"), ("dispatch", "tools.dispatch")):
        inside = sum(1 for s in by_name[name] if s.has_ancestor("generator.generate_instance"))
        out[f"generator.{metric}_per_instance"] = ratio(inside, len(made))

    out["graphs.build_graph.self_s"] = self_s("graphs.build_graph")
    out["graphs.build_graph.calls"] = calls("graphs.build_graph")
    out["graphs.graphs_equal.self_s"] = self_s("graphs.graphs_equal")

    for tool in TOOLS:
        out[f"tools.dispatch.{tool}.self_s"] = self_s("tools.dispatch", lambda s, t=tool: s.attrs.get("tool") == t)
    out["tools.dispatch.calls"] = calls("tools.dispatch")

    for fn in ("render_edge_list", "format_el_graph") + CODEC_EXTRACTORS:
        out[f"codec.{fn}.self_s"] = self_s(f"codec.{fn}")

    completes = by_name["backends.oracle.complete"] + by_name["backends.http.complete"]
    pipeline_ms = ms("pipeline.run_pipeline")
    out["pipeline.run_pipeline.self_s"] = self_s("pipeline.run_pipeline")
    out["pipeline.run_pipeline.ms_p50"] = percentile(pipeline_ms, 50)
    out["pipeline.run_pipeline.ms_p99"] = percentile(pipeline_ms, 99)
    out["pipeline.backend_wait_s"] = sum(s.duration for s in completes) / passes
    out["pipeline.prompt_bytes_per_instance"] = ratio(
        sum(s.attrs.get("prompt_bytes", 0) for s in completes), len(by_name["pipeline.run_pipeline"])
    )

    http = ms("backends.http.complete")
    out["backends.oracle.complete.self_s"] = self_s("backends.oracle.complete")
    out["backends.http.call_ms_p50"] = percentile(http, 50)
    out["backends.http.call_ms_p99"] = percentile(http, 99)
    out["backends.http.calls"] = calls("backends.http.complete")
    out["backends.http.failed_calls"] = sum(s.error for s in by_name["backends.http.complete"]) / passes

    out["serialize.load_corpus_s"] = total_s("serialize.load_corpus")
    out["serialize.load_traces_s"] = total_s("serialize.load_traces")
    out["serialize.write_jsonl_s"] = self_s("serialize.write_jsonl")
    out["serialize.atomic_write_text_s"] = total_s("serialize.atomic_write_text")
    out["serialize.atomic_write_text.calls"] = calls("serialize.atomic_write_text")

    out["dataset.build_dataset.self_s"] = self_s("dataset.build_dataset")
    out["dataset.export_alpaca_s"] = total_s("dataset.export_alpaca")
    out["evaluation.evaluate_traces.self_s"] = self_s("evaluation.evaluate_traces")
    out["evaluation.aggregate_s"] = total_s("evaluation.aggregate")
    return out
