"""Filtered instruction-tuning dataset construction and Alpaca export.

A pipeline trace is retained only when every extracted subtask value matches
its gold label and the executed tool reproduces the gold answer; retention is
all-or-nothing per instance, so an exported instance always contributes one
entry per executed stage.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .evaluation import Category, score_trace
from .generator import TaskInstance
# unused here, but the traced benchmark run wraps `graphstage.dataset.graphs_equal`
# and fails on a missing name; it can go when that wrap site does
from .graphs import graphs_equal  # noqa: F401
from .pipeline import PipelineTrace
from .serialize import atomic_write_text

Pairs = Iterable[Tuple[TaskInstance, PipelineTrace]]


def build_dataset(
    pairs: Pairs, top_up: Optional[Callable[[Dict[str, Dict[str, int]]], Pairs]] = None
) -> Tuple[List[dict], Dict]:
    """The Alpaca entries ``{instruction, input, output}`` of every trace that
    scores Correct with the gold answer, one per stage, ordered by instance id
    and then stage; plus retention statistics. ``pairs`` gives each trace with
    its instance, and is read one pair at a time: only the entries are kept.

    ``top_up``, when given, is called once after the last pair with the
    counts so far, ``{"total": …, "retained": …}`` by kind label, and returns
    more pairs, which are filtered and counted with the rest."""
    kept: List[Tuple[str, List[dict]]] = []  # (instance id, its entries)
    per_kind: Dict[str, Dict[str, int]] = {}

    def add(pairs: Pairs) -> None:
        for instance, trace in pairs:
            record = score_trace(trace, instance)
            kind_stats = per_kind.setdefault(instance.kind.label, {"total": 0, "retained": 0})
            kind_stats["total"] += 1
            if record["category"] == Category.CORRECT and record["answer_match"]:
                kind_stats["retained"] += 1
                kept.append((instance.id, [
                    {"instruction": stage.instruction_text, "input": instance.task_text, "output": stage.raw_output}
                    for stage in trace.stages  # graph, name, then parameters
                ]))

    add(pairs)
    if top_up is not None:
        add(top_up(per_kind))
    kept.sort(key=itemgetter(0))
    entries = [entry for _, own in kept for entry in own]
    traces = sum(kind_stats["total"] for kind_stats in per_kind.values())
    stats = {
        "traces": traces,
        "retained_instances": len(kept),
        "retained_fraction": (len(kept) / traces) if traces else 0.0,
        "entries": len(entries),
        "per_kind": {label: per_kind[label] for label in sorted(per_kind)},
    }
    return entries, stats


def export_alpaca(entries: Sequence[dict], path: str | Path) -> None:
    """Write the entries of :func:`build_dataset` as a JSON array, entry by
    entry: the array is never held as one string."""

    def write(handle) -> None:
        json.dump(entries, handle, ensure_ascii=False, indent=2)
        handle.write("\n")

    atomic_write_text(path, write)
