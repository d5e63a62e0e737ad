"""Filtered instruction-tuning dataset construction and Alpaca export.

A pipeline trace is retained only when every extracted subtask value matches
its gold label and the executed tool reproduces the gold answer; retention is
all-or-nothing per instance, so an exported instance always contributes one
entry per executed stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .evaluation import Category, evaluate_traces
from .generator import TaskInstance
# unused here, but the traced benchmark run wraps `graphstage.dataset.graphs_equal`
# and fails on a missing name; it can go when that wrap site does
from .graphs import graphs_equal  # noqa: F401
from .pipeline import PipelineTrace, StageKind
from .serialize import atomic_write_text


@dataclass(frozen=True)
class DatasetEntry:
    instruction: str
    input: str
    output: str
    stage: StageKind
    instance_id: str


_STAGE_RANK = {StageKind.GRAPH: 0, StageKind.NAME: 1, StageKind.PARAMS: 2}


def build_dataset(
    traces: Sequence[PipelineTrace], corpus: Sequence[TaskInstance]
) -> Tuple[List[DatasetEntry], Dict]:
    """Entries for every trace that scores Correct with the gold answer, plus
    retention statistics."""
    by_id = {inst.id: inst for inst in corpus}
    entries: List[DatasetEntry] = []
    retained = 0
    per_kind: Dict[str, Dict[str, int]] = {}
    for trace, record in zip(traces, evaluate_traces(traces, corpus)):
        instance = by_id[trace.instance_id]
        kind_stats = per_kind.setdefault(instance.kind.label, {"total": 0, "retained": 0})
        kind_stats["total"] += 1
        if record.category is not Category.CORRECT or not record.answer_match:
            continue
        retained += 1
        kind_stats["retained"] += 1
        for stage in trace.stages:
            entries.append(
                DatasetEntry(
                    instruction=stage.instruction_text,
                    input=instance.task_text,
                    output=stage.raw_output,
                    stage=stage.stage,
                    instance_id=instance.id,
                )
            )
    entries.sort(key=lambda e: (e.instance_id, _STAGE_RANK[e.stage]))
    stats = {
        "traces": len(traces),
        "retained_instances": retained,
        "retained_fraction": (retained / len(traces)) if traces else 0.0,
        "entries": len(entries),
        "per_kind": {label: per_kind[label] for label in sorted(per_kind)},
    }
    return entries, stats


def export_alpaca(entries: Sequence[DatasetEntry], path: str | Path) -> None:
    """Write the instruction/input/output triples as a JSON array."""
    payload = [
        {"instruction": e.instruction, "input": e.input, "output": e.output}
        for e in entries
    ]
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    atomic_write_text(path, text)
