"""JSON codecs for corpus, trace and record files, plus atomic file writing.

Corpus and trace files are line-delimited JSON, one object per line, with a
fixed key order so that regeneration under the same seed is byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .codec import ExtractionResult
from .generator import SizeClass, TaskInstance, TaskKind
from .graphs import Graph, WeightKind, build_graph
from .pipeline import PipelineTrace, StageKind, StageRecord
from .tools import Answer


def graph_to_json(g: Graph) -> dict:
    edges = [[u, v] if w is None else [u, v, w] for u, v, w in g.edges]
    return {
        "directed": g.directed,
        "node_count": g.node_count,
        "weight_kind": g.weight_kind.value,
        "edges": edges,
    }


def graph_from_json(obj: dict) -> Graph:
    return build_graph(
        obj["directed"], obj["node_count"], obj["edges"], WeightKind(obj["weight_kind"])
    )


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
        graph_file=obj.get("graph_file"),
        gold_answer=answer_from_json(obj["gold_answer"]),
    )


def extraction_to_json(res: ExtractionResult) -> dict:
    if res.kind == "graph":
        return {"kind": "graph", "graph": graph_to_json(res.graph)}
    if res.kind == "name":
        return {"kind": "name", "name": res.name}
    if res.kind == "params":
        return {"kind": "params", "params": list(res.params)}
    if res.kind == "path":
        return {"kind": "path", "path": res.path}
    return {"kind": "failure", "reason": res.reason}


def extraction_from_json(obj: dict) -> ExtractionResult:
    kind = obj["kind"]
    if kind == "graph":
        return ExtractionResult.of_graph(graph_from_json(obj["graph"]))
    if kind == "name":
        return ExtractionResult.of_name(obj["name"])
    if kind == "params":
        return ExtractionResult.of_params(obj["params"])
    if kind == "path":
        return ExtractionResult.of_path(obj["path"])
    return ExtractionResult.failure(obj["reason"])


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


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


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


def load_corpus(path: str | Path) -> list:
    return [instance_from_json(obj) for obj in read_jsonl(path)]


def trace_to_json(trace) -> dict:
    return {
        "instance_id": trace.instance_id,
        "stages": [
            {
                "stage": record.stage.value,
                "instruction_text": record.instruction_text,
                "prompt": record.prompt,
                "raw_output": record.raw_output,
                "parsed": extraction_to_json(record.parsed),
                "latency_ms": round(record.latency_ms, 3),
                "file_path": record.file_path,
            }
            for record in trace.stages
        ],
        "tool_result": None if trace.tool_result is None else answer_to_json(trace.tool_result),
        "tool_error": trace.tool_error,
        "skipped_parameter_stage": trace.skipped_parameter_stage,
    }


def trace_from_json(obj: dict) -> PipelineTrace:
    stages = [
        StageRecord(
            stage=StageKind(rec["stage"]),
            instruction_text=rec["instruction_text"],
            prompt=rec["prompt"],
            raw_output=rec["raw_output"],
            parsed=extraction_from_json(rec["parsed"]),
            latency_ms=rec["latency_ms"],
            file_path=rec.get("file_path"),
        )
        for rec in obj["stages"]
    ]
    result = obj.get("tool_result")
    return PipelineTrace(
        instance_id=obj["instance_id"],
        stages=stages,
        tool_result=None if result is None else answer_from_json(result),
        tool_error=obj.get("tool_error"),
        skipped_parameter_stage=obj["skipped_parameter_stage"],
    )


def load_traces(path: str | Path) -> list:
    return [trace_from_json(obj) for obj in read_jsonl(path)]
