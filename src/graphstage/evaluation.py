"""Per-trace scoring, accuracy aggregation and the five-way error taxonomy.

A trace gets exactly one category, assigned by the first failing check in
priority order: syntax error (a stage that would not parse, or a tool that
errored), then graph mismatch, name mismatch, parameter mismatch, and
finally correct. Mismatches are recorded even when the final answer happens
to be right, so answer accuracy can exceed the per-subtask accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

from .generator import TaskInstance
from .graphs import graphs_equal
from .pipeline import PipelineTrace, StageKind


class Category(str, Enum):
    CORRECT = "Correct"
    SYNTAX = "SyntaxError"
    GRAPH = "GraphMismatch"
    NAME = "NameMismatch"
    PARA = "ParaMismatch"


@dataclass(frozen=True)
class EvalRecord:
    instance_id: str
    graph_match: bool
    name_match: bool
    param_match: Optional[bool]  # None for tasks without a parameter stage
    answer_match: bool
    category: Category
    fault_count: int


class EmptyInput(ValueError):
    pass


def score_trace(trace: PipelineTrace, instance: TaskInstance) -> EvalRecord:
    if trace.instance_id != instance.id:
        raise ValueError(f"trace {trace.instance_id!r} does not belong to {instance.id!r}")
    graph_stage = trace.stage(StageKind.GRAPH)
    name_stage = trace.stage(StageKind.NAME)
    param_stage = trace.stage(StageKind.PARAMS)

    parse_failed = any(not s.parsed.ok for s in trace.stages)
    dispatch_failed = not parse_failed and trace.tool_error is not None
    syntax = parse_failed or dispatch_failed

    graph_match = bool(
        graph_stage and graph_stage.parsed.ok
        and graphs_equal(graph_stage.parsed.graph, instance.gold_graph)
    )
    name_match = bool(
        name_stage and name_stage.parsed.ok
        and name_stage.parsed.name.strip().lower() == instance.gold_tool
    )
    if not instance.kind.parametric:
        param_match: Optional[bool] = None
    else:
        param_match = bool(
            param_stage and param_stage.parsed.ok
            and tuple(param_stage.parsed.params) == tuple(instance.gold_params)
        )
    answer_match = trace.tool_result is not None and trace.tool_result == instance.gold_answer

    if syntax:
        category = Category.SYNTAX
    elif not graph_match:
        category = Category.GRAPH
    elif not name_match:
        category = Category.NAME
    elif param_match is False:
        category = Category.PARA
    else:
        category = Category.CORRECT

    fault_count = (
        int(syntax) + int(not graph_match) + int(not name_match) + int(param_match is False)
    )
    return EvalRecord(
        instance_id=instance.id,
        graph_match=graph_match,
        name_match=name_match,
        param_match=param_match,
        answer_match=answer_match,
        category=category,
        fault_count=fault_count,
    )


@dataclass
class ReportRow:
    kind: str
    size_class: str
    count: int
    answer_acc: float
    graph_acc: float
    name_acc: float
    param_acc: Optional[float]
    histogram: Dict[str, int]
    multi_fault: int  # records with more than one failing dimension


@dataclass
class Report:
    rows: List[ReportRow]
    overall: Dict[str, Dict[str, Optional[float]]]  # size class -> mean accuracies

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "kind": r.kind,
                    "size_class": r.size_class,
                    "count": r.count,
                    "answer_acc": r.answer_acc,
                    "graph_acc": r.graph_acc,
                    "name_acc": r.name_acc,
                    "param_acc": r.param_acc,
                    "histogram": r.histogram,
                    "multi_fault": r.multi_fault,
                }
                for r in self.rows
            ],
            "overall": self.overall,
        }

    @staticmethod
    def from_json(obj: dict) -> "Report":
        rows = [
            ReportRow(
                kind=r["kind"],
                size_class=r["size_class"],
                count=r["count"],
                answer_acc=r["answer_acc"],
                graph_acc=r["graph_acc"],
                name_acc=r["name_acc"],
                param_acc=r.get("param_acc"),
                histogram=r["histogram"],
                multi_fault=r["multi_fault"],
            )
            for r in obj["rows"]
        ]
        return Report(rows=rows, overall=obj["overall"])


def _percent(hits: int, count: int) -> float:
    return 100.0 * hits / count


def aggregate(records: Sequence[EvalRecord], corpus: Sequence[TaskInstance]) -> Report:
    """Per kind and size class percentages; the overall row is the unweighted
    mean across task kinds within each size class."""
    if not records:
        raise EmptyInput("no records to aggregate")
    by_id: Dict[str, TaskInstance] = {inst.id: inst for inst in corpus}
    groups: Dict[tuple, List[EvalRecord]] = {}
    for record in records:
        instance = by_id.get(record.instance_id)
        if instance is None:
            raise EmptyInput(f"record for unknown instance {record.instance_id!r}")
        groups.setdefault((instance.kind.label, instance.size_class.value), []).append(record)

    rows: List[ReportRow] = []
    for (kind, size), recs in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        n = len(recs)
        has_params = any(r.param_match is not None for r in recs)
        histogram = {cat.value: 0 for cat in Category}
        for r in recs:
            histogram[r.category.value] += 1
        rows.append(
            ReportRow(
                kind=kind,
                size_class=size,
                count=n,
                answer_acc=_percent(sum(r.answer_match for r in recs), n),
                graph_acc=_percent(sum(r.graph_match for r in recs), n),
                name_acc=_percent(sum(r.name_match for r in recs), n),
                param_acc=(
                    _percent(sum(bool(r.param_match) for r in recs), n) if has_params else None
                ),
                histogram=histogram,
                multi_fault=sum(r.fault_count > 1 for r in recs),
            )
        )

    overall: Dict[str, Dict[str, Optional[float]]] = {}
    for size in sorted({row.size_class for row in rows}):
        size_rows = [row for row in rows if row.size_class == size]
        param_rows = [row for row in size_rows if row.param_acc is not None]
        overall[size] = {
            "answer_acc": sum(r.answer_acc for r in size_rows) / len(size_rows),
            "graph_acc": sum(r.graph_acc for r in size_rows) / len(size_rows),
            "name_acc": sum(r.name_acc for r in size_rows) / len(size_rows),
            "param_acc": (
                sum(r.param_acc for r in param_rows) / len(param_rows) if param_rows else None
            ),
            "kinds": len(size_rows),
        }
    return Report(rows=rows, overall=overall)


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1f}"


def render_report(report: Report, format: str = "txt") -> str:
    """Human-readable accuracy table, plain text or markdown."""
    if format not in ("txt", "md"):
        raise ValueError(f"unknown report format {format!r}")
    headers = ["kind", "size", "n", "answer", "graph", "name", "param", "correct", "syntax",
               "graph_mis", "name_mis", "para_mis", "multi"]
    table: List[List[str]] = []
    for row in report.rows:
        table.append([
            row.kind,
            row.size_class,
            str(row.count),
            _fmt(row.answer_acc),
            _fmt(row.graph_acc),
            _fmt(row.name_acc),
            _fmt(row.param_acc),
            str(row.histogram.get(Category.CORRECT.value, 0)),
            str(row.histogram.get(Category.SYNTAX.value, 0)),
            str(row.histogram.get(Category.GRAPH.value, 0)),
            str(row.histogram.get(Category.NAME.value, 0)),
            str(row.histogram.get(Category.PARA.value, 0)),
            str(row.multi_fault),
        ])
    for size, means in report.overall.items():
        table.append([
            "Overall",
            size,
            str(means["kinds"]),
            _fmt(means["answer_acc"]),
            _fmt(means["graph_acc"]),
            _fmt(means["name_acc"]),
            _fmt(means["param_acc"]),
            "", "", "", "", "", "",
        ])

    if format == "md":
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in table]
        return "\n".join(lines) + "\n"

    widths = [max(len(headers[i]), *(len(row[i]) for row in table)) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in table]
    return "\n".join(lines) + "\n"


def record_to_json(record: EvalRecord) -> dict:
    return {
        "instance_id": record.instance_id,
        "graph_match": record.graph_match,
        "name_match": record.name_match,
        "param_match": record.param_match,
        "answer_match": record.answer_match,
        "category": record.category.value,
        "fault_count": record.fault_count,
    }


def evaluate_traces(
    traces: Iterable[PipelineTrace], corpus: Sequence[TaskInstance]
) -> List[EvalRecord]:
    by_id = {inst.id: inst for inst in corpus}
    records = []
    for trace in traces:
        instance = by_id.get(trace.instance_id)
        if instance is None:
            raise EmptyInput(f"trace for unknown instance {trace.instance_id!r}")
        records.append(score_trace(trace, instance))
    return records
