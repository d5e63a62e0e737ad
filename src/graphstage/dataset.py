"""Filtered instruction-tuning dataset construction and Alpaca export.

A pipeline trace is retained only when every extracted subtask value matches
its gold label and the executed tool reproduces the gold answer; retention is
all-or-nothing per instance, so an exported instance always contributes one
entry per executed stage.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .evaluation import Category, evaluate_traces
from .generator import TaskInstance
# unused here, but the traced benchmark run wraps `graphstage.dataset.graphs_equal`
# and fails on a missing name; it can go when that wrap site does
from .graphs import graphs_equal  # noqa: F401
from .pipeline import PipelineTrace
from .serialize import atomic_write_text


def build_dataset(
    traces: Sequence[PipelineTrace], corpus: Sequence[TaskInstance]
) -> Tuple[List[dict], Dict]:
    """The Alpaca entries ``{instruction, input, output}`` of every trace that
    scores Correct with the gold answer, one per stage, ordered by instance id
    and then stage; plus retention statistics."""
    by_id = {inst.id: inst for inst in corpus}
    kept: List[Tuple[TaskInstance, PipelineTrace]] = []
    per_kind: Dict[str, Dict[str, int]] = {}
    for trace, record in zip(traces, evaluate_traces(traces, corpus)):
        instance = by_id[trace.instance_id]
        kind_stats = per_kind.setdefault(instance.kind.label, {"total": 0, "retained": 0})
        kind_stats["total"] += 1
        if record["category"] == Category.CORRECT and record["answer_match"]:
            kind_stats["retained"] += 1
            kept.append((instance, trace))
    entries = [
        {"instruction": stage.instruction_text, "input": instance.task_text, "output": stage.raw_output}
        for instance, trace in sorted(kept, key=lambda pair: pair[0].id)
        for stage in trace.stages  # graph, name, then parameters
    ]
    stats = {
        "traces": len(traces),
        "retained_instances": len(kept),
        "retained_fraction": (len(kept) / len(traces)) if traces else 0.0,
        "entries": len(entries),
        "per_kind": {label: per_kind[label] for label in sorted(per_kind)},
    }
    return entries, stats


def export_alpaca(entries: Sequence[dict], path: str | Path) -> None:
    """Write the entries of :func:`build_dataset` as a JSON array."""
    atomic_write_text(path, json.dumps(entries, ensure_ascii=False, indent=2) + "\n")
