"""Per-trace scoring, accuracy aggregation and the five-way error taxonomy.

A trace gets exactly one category, assigned by the first failing check in
priority order: syntax error (a stage that would not parse, or a tool that
errored), then graph mismatch, name mismatch, parameter mismatch, and
finally correct. Mismatches are recorded even when the final answer happens
to be right, so answer accuracy can exceed the per-subtask accuracies.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .generator import TaskInstance, parse_instance_id
from .graphs import graphs_equal
from .pipeline import PipelineTrace
from .serialize import unique_ids


class Category(str, Enum):
    CORRECT = "Correct"
    SYNTAX = "SyntaxError"
    GRAPH = "GraphMismatch"
    NAME = "NameMismatch"
    PARA = "ParaMismatch"


class EmptyInput(ValueError):
    pass


class OrphanTrace(ValueError):
    """A trace names an instance id missing from the corpus."""


def score_trace(trace: PipelineTrace, instance: TaskInstance) -> dict:
    """The record of one trace, as a line of ``records.jsonl`` holds it.
    ``param_match`` is None for a task without a parameter stage, and
    ``category`` is a :class:`Category` value. A trace of another instance,
    or one run on another task text (another corpus's), raises ``ValueError``."""
    if trace.instance_id != instance.id:
        raise ValueError(f"trace {trace.instance_id!r} does not belong to {instance.id!r}")
    if trace.task_text != instance.task_text:
        raise ValueError(f"trace {trace.instance_id!r} was run on another task text than the corpus holds")
    # graph, name, then parameters iff the kind takes any: the pipeline and loader see to it
    graph, name, *param = (stage.parsed for stage in trace.stages)

    parse_failed = not all(parsed.ok for parsed in (graph, name, *param))
    dispatch_failed = not parse_failed and trace.tool_error is not None
    syntax = parse_failed or dispatch_failed

    graph_match = graph.ok and graphs_equal(graph.graph, instance.graph)
    name_match = name.ok and name.name.strip().lower() == instance.kind.tool
    param_match = param[0].ok and param[0].params == tuple(instance.params) if param else None
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
    return {
        "instance_id": instance.id,
        "graph_match": graph_match,
        "name_match": name_match,
        "param_match": param_match,
        "answer_match": answer_match,
        "category": category.value,
        "fault_count": fault_count,
    }


_ACCURACIES = ("answer_acc", "graph_acc", "name_acc", "param_acc")


def _percent(hits: int, count: int) -> float:
    return 100.0 * hits / count


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def aggregate(records: Iterable[dict]) -> dict:
    """The report, as ``report.json`` holds it: ``rows`` gives percentages per
    kind and size class, and ``overall`` maps each size class to the
    unweighted mean across task kinds (``param_acc`` over the parametric
    kinds alone, None without any). A record's kind and size class are those
    of its instance id, as they are of a corpus instance."""
    groups: Dict[tuple, List[dict]] = {}
    for record in records:
        kind, size = parse_instance_id(record["instance_id"])[:2]
        groups.setdefault((kind.label, size.value), []).append(record)
    if not groups:
        raise EmptyInput("no records to aggregate")

    rows = []
    for (kind, size), recs in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        n = len(recs)
        has_params = any(r["param_match"] is not None for r in recs)
        histogram = {cat.value: 0 for cat in Category}
        for r in recs:
            histogram[r["category"]] += 1
        rows.append({
            "kind": kind,
            "size_class": size,
            "count": n,
            "answer_acc": _percent(sum(r["answer_match"] for r in recs), n),
            "graph_acc": _percent(sum(r["graph_match"] for r in recs), n),
            "name_acc": _percent(sum(r["name_match"] for r in recs), n),
            "param_acc": _percent(sum(bool(r["param_match"]) for r in recs), n) if has_params else None,
            "histogram": histogram,
            "multi_fault": sum(r["fault_count"] > 1 for r in recs),  # more than one failing dimension
        })

    overall: Dict[str, Dict[str, Optional[float]]] = {}
    for size in sorted({row["size_class"] for row in rows}):
        size_rows = [row for row in rows if row["size_class"] == size]
        overall[size] = {
            **{key: _mean([row[key] for row in size_rows if row[key] is not None]) for key in _ACCURACIES},
            "kinds": len(size_rows),
        }
    return {"rows": rows, "overall": overall}


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1f}"


def render_report(report: dict, format: str = "txt") -> str:
    """Human-readable accuracy table of a report from :func:`aggregate` or
    ``report.json``, plain text or markdown."""
    if format not in ("txt", "md"):
        raise ValueError(f"unknown report format {format!r}")
    headers = ["kind", "size", "n", "answer", "graph", "name", "param", "correct", "syntax",
               "graph_mis", "name_mis", "para_mis", "multi"]
    table: List[List[str]] = []
    for row in report["rows"]:
        table.append([
            row["kind"],
            row["size_class"],
            str(row["count"]),
            *(_fmt(row[key]) for key in _ACCURACIES),
            *(str(row["histogram"].get(cat.value, 0)) for cat in Category),
            str(row["multi_fault"]),
        ])
    for size, means in report["overall"].items():
        table.append([
            "Overall", size, str(means["kinds"]), *(_fmt(means[key]) for key in _ACCURACIES),
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


def pair_traces(
    traces: Iterable[PipelineTrace], corpus: Iterable[TaskInstance]
) -> Iterator[Tuple[TaskInstance, PipelineTrace]]:
    """Each trace with its instance, in trace order, for traces and a corpus
    in memory (:func:`~graphstage.serialize.walk_traces` pairs the traces of
    a file). A trace whose instance id is not in ``corpus`` raises
    :class:`OrphanTrace`, and one that repeats an earlier trace's instance id
    raises ``ValueError``."""
    by_id = {inst.id: inst for inst in corpus}

    def pair(trace: PipelineTrace) -> Tuple[TaskInstance, PipelineTrace]:
        instance = by_id.get(trace.instance_id)
        if instance is None:
            raise OrphanTrace(f"trace for unknown instance {trace.instance_id!r}")
        return instance, trace

    return map(unique_ids(pair, lambda paired: paired[1].instance_id), traces)


def evaluate_traces(pairs: Iterable[Tuple[TaskInstance, PipelineTrace]]) -> List[dict]:
    """One :func:`score_trace` record per (instance, trace) pair, in order,
    reading one pair at a time; a trace whose task text is not its
    instance's raises ``ValueError``."""
    return [score_trace(trace, instance) for instance, trace in pairs]
