"""JSON codecs for corpus, trace and record files, plus atomic file writing.

Corpus and trace files are line-delimited JSON, one object per line, with a
fixed key order so that regeneration under the same seed is byte-identical.
Each loader reads the one format that its writer writes, and requires every
key that the writer writes.

A graph's ``edges`` is one flat array of integers, ``[u0, v0, u1, v1, …]``
for an unweighted graph and ``[u0, v0, w0, u1, v1, w1, …]`` otherwise (the
width follows ``weight_kind``). The loader validates it column-wise through
:func:`~graphstage.graphs.build_graph` without building a row per edge.

Trace lines are written in format 4 (``"format": 4``): the task text is
stored once per trace, and a stage stores its instruction as a key of
:data:`~graphstage.pipeline.INSTRUCTION_TEXTS` (``""`` when it made no call),
its raw output, what was parsed from it and its latency. The loader rebuilds
each prompt from the key, the instance id and the task text. A line of any
other format is rejected; a line without a ``format`` key is format 1.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .codec import ExtractionResult
from .generator import SizeClass, TaskInstance, TaskKind
from .graphs import Graph, WeightKind, build_graph, flat_columns
from .pipeline import INSTRUCTION_TEXTS, PipelineTrace, StageKind, StageRecord, layout_prompt
from .tools import Answer


def graph_to_json(g: Graph) -> dict:
    """``edges`` is one flat array ``[u0, v0, (w0,) u1, v1, …]``, two values
    per edge when the graph is unweighted and three otherwise."""
    rows = g.edges if g.weighted else map(itemgetter(0, 1), g.edges)
    return {
        "directed": g.directed,
        "node_count": g.node_count,
        "weight_kind": g.weight_kind.value,
        "edges": list(chain.from_iterable(rows)),
    }


def graph_from_json(obj: dict) -> Graph:
    """A graph whose ``edges`` is the flat array :func:`graph_to_json` writes."""
    kind = WeightKind(obj["weight_kind"])
    edges = obj["edges"]
    if type(edges) is not list:
        raise ValueError(f"edges must be an array, got {type(edges).__name__}")
    if edges and type(edges[0]) is list:
        raise ValueError("edges must be a flat integer array, not a list of [u, v(, w)] rows")
    width = 2 if kind is WeightKind.NONE else 3
    if len(edges) % width:
        raise ValueError(
            f"flat edge array of a {kind.value} graph holds {len(edges)} values, "
            f"not a multiple of {width}"
        )
    return build_graph(obj["directed"], obj["node_count"], flat_columns(edges, width), kind, columns=True)


def answer_to_json(a: Answer) -> dict:
    value = list(a.value) if a.kind == "node_seq" else a.value
    return {"kind": a.kind, "value": value}


def answer_from_json(obj: dict) -> Answer:
    kind, value = obj["kind"], obj["value"]
    if kind == "node_seq":
        return Answer.node_seq(value)
    if kind == "bool":
        return Answer.bool_(value)
    if kind == "count":
        return Answer.count(value)
    if kind == "value":
        return Answer.value(value)
    raise ValueError(f"unknown answer kind {kind!r}")


def instance_to_json(inst: TaskInstance) -> dict:
    return {
        "id": inst.id,
        "kind": {"tool": inst.kind.tool, "directed": inst.kind.directed},
        "graph": graph_to_json(inst.graph),
        "params": list(inst.params),
        "description_variant": inst.description_variant,
        "size_class": inst.size_class.value,
        "task_text": inst.task_text,
        "graph_file": inst.graph_file,
        "gold_answer": answer_to_json(inst.gold_answer),
    }


def instance_from_json(obj: dict) -> TaskInstance:
    return TaskInstance(
        id=obj["id"],
        kind=TaskKind(obj["kind"]["tool"], obj["kind"]["directed"]),
        graph=graph_from_json(obj["graph"]),
        params=tuple(obj["params"]),
        description_variant=obj["description_variant"],
        size_class=SizeClass(obj["size_class"]),
        task_text=obj["task_text"],
        graph_file=obj["graph_file"],
        gold_answer=answer_from_json(obj["gold_answer"]),
    )


def extraction_to_json(res: ExtractionResult) -> dict:
    if res.kind == "graph":
        return {"kind": "graph", "graph": graph_to_json(res.graph)}
    if res.kind == "name":
        return {"kind": "name", "name": res.name}
    if res.kind == "params":
        return {"kind": "params", "params": list(res.params)}
    return {"kind": "failure", "reason": res.reason}


def extraction_from_json(obj: dict) -> ExtractionResult:
    kind = obj["kind"]
    if kind == "graph":
        return ExtractionResult.of_graph(graph_from_json(obj["graph"]))
    if kind == "name":
        return ExtractionResult.of_name(obj["name"])
    if kind == "params":
        return ExtractionResult.of_params(obj["params"])
    if kind == "failure":
        return ExtractionResult.failure(obj["reason"])
    raise ValueError(f"unknown parsed kind {kind!r}")


def dump_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def write_jsonl(path: str | Path, objects: Iterable[dict]) -> int:
    """Atomically write one JSON object per line; returns the line count."""
    count = 0

    def emit(handle):
        nonlocal count
        for obj in objects:
            handle.write(dump_line(obj))
            handle.write("\n")
            count += 1

    atomic_write_text(path, emit)
    return count


def read_jsonl(path: str | Path, convert: Callable[[dict], object] | None = None) -> Iterator:
    """Each non-blank line's object, passed through ``convert`` if given. A
    line that is not JSON, or that ``convert`` rejects with ``ValueError``,
    ``TypeError`` or ``KeyError`` (a missing key, which is named), raises
    ``ValueError`` prefixed with ``<path>:<line number>:``."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line:
                try:
                    obj = json.loads(line)
                    if convert is not None:
                        obj = convert(obj)
                except KeyError as exc:
                    raise ValueError(f"{path}:{number}: missing key {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from exc
                yield obj


def atomic_write_text(path: str | Path, writer: Callable | str) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if callable(writer):
                writer(handle)
            else:
                handle.write(writer)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def unique_ids(convert: Callable, id_of: Callable[[object], str]) -> Callable:
    """``convert``, rejecting a result whose instance id an earlier one had:
    every lookup by instance id would keep only one of them."""
    seen = set()

    def checked(obj):
        item = convert(obj)
        ident = id_of(item)
        if ident in seen:
            raise ValueError(f"duplicate instance id {ident!r}")
        seen.add(ident)
        return item

    return checked


def load_corpus(path: str | Path) -> list:
    """The instances of a corpus file; a line that repeats an earlier line's
    instance id is rejected."""
    return list(read_jsonl(path, unique_ids(instance_from_json, attrgetter("id"))))


TRACE_FORMAT = 4


def _stage_to_json(record: StageRecord) -> dict:
    return {
        "stage": record.stage.value,
        "instruction": record.instruction,
        "raw_output": record.raw_output,
        "parsed": extraction_to_json(record.parsed),
        "latency_ms": round(record.latency_ms, 3),
    }


def trace_to_json(trace: PipelineTrace) -> dict:
    return {
        "format": TRACE_FORMAT,
        "instance_id": trace.instance_id,
        "task_text": trace.task_text,
        "stages": [_stage_to_json(r) for r in trace.stages],
        "tool_result": None if trace.tool_result is None else answer_to_json(trace.tool_result),
        "tool_error": trace.tool_error,
    }


def _stage_from_json(rec: dict, instance_id: str, task_text: str) -> StageRecord:
    stage = StageKind(rec["stage"])
    key = rec["instruction"]
    if key and key not in INSTRUCTION_TEXTS:
        raise ValueError(f"unknown instruction key {key!r}")
    prompt = layout_prompt(INSTRUCTION_TEXTS[key], instance_id, stage, task_text) if key else ""
    parsed = extraction_from_json(rec["parsed"])
    return StageRecord(stage, key, prompt, rec["raw_output"], parsed, rec["latency_ms"])


def trace_from_json(obj: dict) -> PipelineTrace:
    """A format-4 trace line; any other format (a line without ``format`` is
    format 1) or an unknown instruction key raises ``ValueError``."""
    version = obj.get("format", 1)
    if version != TRACE_FORMAT:
        raise ValueError(f"unknown trace format {version!r}")
    instance_id = obj["instance_id"]
    task_text = obj["task_text"]
    if type(task_text) is not str:
        raise ValueError(f"task_text must be a string, got {type(task_text).__name__}")
    result = obj["tool_result"]
    return PipelineTrace(
        instance_id=instance_id,
        task_text=task_text,
        stages=[_stage_from_json(rec, instance_id, task_text) for rec in obj["stages"]],
        tool_result=None if result is None else answer_from_json(result),
        tool_error=obj["tool_error"],
    )


def load_traces(path: str | Path) -> list:
    """The traces of a trace file; a line that repeats an earlier line's
    instance id is rejected."""
    return list(read_jsonl(path, unique_ids(trace_from_json, attrgetter("instance_id"))))
