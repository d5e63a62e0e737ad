"""Per-trace scoring, aggregation and the error taxonomy.

Counting a ``None`` ``param_match`` as a hit in ``aggregate``'s ``param_acc``
is an equivalent mutant (``tests/mutants.py`` lists it): a row holds the
records of one kind, whose ``param_match`` is None exactly when the kind has
no parameter stage, and then the row's ``param_acc`` is None. So the sum
behind a parametric row never sees a ``None``.
"""

import dataclasses
import json
import random

import pytest

from graphstage import (
    ALL_KINDS,
    Category,
    FaultBackend,
    FaultPlan,
    OracleBackend,
    SizeClass,
    aggregate,
    build_dataset,
    evaluate_traces,
    generate_instance,
    pair_traces,
    render_report,
    run_corpus,
    run_pipeline,
    score_trace,
)
from graphstage.evaluation import EmptyInput, OrphanTrace


def _corpus(per_kind=2, seed=0):
    out = []
    for k, kind in enumerate(ALL_KINDS):
        for index in range(per_kind):
            out.append(
                generate_instance(kind, SizeClass.WL, random.Random(seed + 47 * k + index), index=index)
            )
    return out


def test_oracle_trace_scores_correct():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    for inst in corpus:
        record = score_trace(run_pipeline(inst, backend), inst)
        assert record["category"] == Category.CORRECT
        assert record["graph_match"] and record["name_match"] and record["answer_match"]
        assert record["param_match"] is (None if not inst.kind.parametric else True)
        assert record["fault_count"] == 0


def test_unregistered_tool_name_is_syntax_error():
    inst = _corpus(1)[0]
    oracle = OracleBackend([inst])

    class Wrapper:
        def complete(self, prompt):
            out = oracle.complete(prompt)
            return "API_name: banana" if out.startswith("API_name:") else out

    record = score_trace(run_pipeline(inst, Wrapper()), inst)
    assert record["category"] == Category.SYNTAX
    assert not record["name_match"]


def test_tool_name_is_matched_without_case():
    """``extract_tool_name`` accepts ``API_name: Shortest_Path``, and dispatch
    folds its case: the name is scored as a match."""
    inst = next(i for i in _corpus(1) if i.kind.tool == "shortest_path")
    oracle = OracleBackend([inst])

    class Wrapper:
        def complete(self, prompt):
            out = oracle.complete(prompt)
            return "API_name: Shortest_Path" if out.startswith("API_name:") else out

    record = score_trace(run_pipeline(inst, Wrapper()), inst)
    assert record["name_match"] and record["answer_match"]
    assert record["category"] == Category.CORRECT


def test_mismatched_ids_rejected():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    trace = run_pipeline(corpus[0], backend)
    with pytest.raises(ValueError):
        score_trace(trace, corpus[1])


def test_trace_of_another_task_text_is_rejected():
    inst = _corpus(1)[0]
    trace = run_pipeline(inst, OracleBackend([inst]))
    other = dataclasses.replace(inst, task_text=inst.task_text + " ")
    message = f"^trace '{inst.id}' was run on another task text than the corpus holds$"
    with pytest.raises(ValueError, match=message):
        evaluate_traces(pair_traces([trace], [other]))


def _fault_records(plan, per_kind=3, seed=21):
    corpus = _corpus(per_kind, seed=seed)
    oracle = OracleBackend(corpus)
    fault = FaultBackend(oracle, plan, seed=seed)
    traces = list(run_corpus(corpus, fault))
    by_id = {i.id: i for i in corpus}
    return corpus, traces, fault, by_id


def test_single_fault_categories_match_injected_labels():
    expected = {
        "drop_graph_edges": Category.GRAPH,
        "wrong_tool_name": Category.NAME,
        "swap_parameters": Category.PARA,
        "emit_garbage": Category.SYNTAX,
    }
    plans = {
        "drop_graph_edges": FaultPlan(drop_graph_edges=1.0),
        "wrong_tool_name": FaultPlan(wrong_tool_name=1.0),
        "swap_parameters": FaultPlan(swap_parameters=1.0),
        "emit_garbage": FaultPlan(emit_garbage=1.0, garbage_stages=("name",)),
    }
    for mode, plan in plans.items():
        corpus, traces, fault, by_id = _fault_records(plan)
        checked = 0
        for trace in traces:
            injected = fault.injected.get(trace.instance_id, {})
            if len(injected) != 1:
                continue
            checked += 1
            record = score_trace(trace, by_id[trace.instance_id])
            assert record["category"] == expected[mode], (trace.instance_id, injected)
        assert checked >= 20, mode


def test_priority_graph_beats_name_and_multi_fault_counted():
    plan = FaultPlan(drop_graph_edges=1.0, wrong_tool_name=1.0)
    corpus, traces, fault, by_id = _fault_records(plan)
    seen_double = 0
    for trace in traces:
        injected = fault.injected.get(trace.instance_id, {})
        if set(injected.values()) == {"drop_graph_edges", "wrong_tool_name"}:
            record = score_trace(trace, by_id[trace.instance_id])
            assert record["category"] == Category.GRAPH
            assert record["fault_count"] >= 2
            seen_double += 1
    assert seen_double > 10


def test_matching_implies_correct_category():
    plan = FaultPlan(drop_graph_edges=0.4, wrong_tool_name=0.4, swap_parameters=0.4, emit_garbage=0.2)
    corpus, traces, fault, by_id = _fault_records(plan, per_kind=4)
    retained = {t.instance_id for t in traces
                if build_dataset(pair_traces([t], [by_id[t.instance_id]]))[1]["retained_instances"]}
    assert retained and len(retained) < len(traces)
    for trace in traces:
        record = score_trace(trace, by_id[trace.instance_id])
        if trace.instance_id in retained:
            assert record["category"] == Category.CORRECT
    records = [score_trace(t, by_id[t.instance_id]) for t in traces]
    answer_rate = sum(r["answer_match"] for r in records) / len(records)
    correct_rate = sum(r["category"] == Category.CORRECT for r in records) / len(records)
    assert answer_rate >= correct_rate


def test_aggregate_all_correct():
    corpus = _corpus(2)
    backend = OracleBackend(corpus)
    traces = list(run_corpus(corpus, backend))
    records = evaluate_traces(pair_traces(traces, corpus))
    report = aggregate(records)
    assert len(report["rows"]) == 20
    for row in report["rows"]:
        assert row["answer_acc"] == 100.0
        assert row["graph_acc"] == 100.0
        assert row["name_acc"] == 100.0
        assert row["histogram"][Category.CORRECT.value] == row["count"]
        if row["kind"].split(":")[0] in ("cycle_detection", "max_triangle_sum", "edge_count", "node_count", "topological_sort"):
            assert row["param_acc"] is None
        else:
            assert row["param_acc"] == 100.0
    assert report["overall"]["wl"]["answer_acc"] == 100.0
    assert report["overall"]["wl"]["kinds"] == 20


def test_aggregate_overall_is_unweighted_mean():
    corpus = _corpus(2)
    oracle = OracleBackend(corpus)
    fault = FaultBackend(oracle, FaultPlan(drop_graph_edges=0.5), seed=3)
    traces = list(run_corpus(corpus, fault))
    records = evaluate_traces(pair_traces(traces, corpus))
    report = aggregate(records)
    mean = sum(r["answer_acc"] for r in report["rows"]) / len(report["rows"])
    assert report["overall"]["wl"]["answer_acc"] == pytest.approx(mean)


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_unknown_instance_raises_orphan_trace():
    corpus = _corpus(1)
    trace = run_pipeline(corpus[0], OracleBackend(corpus))
    with pytest.raises(OrphanTrace, match="trace for unknown instance"):
        evaluate_traces(pair_traces([trace], corpus[1:]))
    record = dict(score_trace(trace, corpus[0]), instance_id="edge_count-x-wl-00000")
    with pytest.raises(ValueError, match="malformed instance id 'edge_count-x-wl-00000'"):
        aggregate([record])


def test_repeated_trace_id_raises():
    inst = _corpus(1)[0]
    trace = run_pipeline(inst, OracleBackend([inst]))
    with pytest.raises(ValueError, match=f"^duplicate instance id '{inst.id}'$"):
        aggregate(evaluate_traces(pair_traces([trace, trace], [inst])))


def test_report_rendering_and_roundtrip():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    traces = list(run_corpus(corpus, backend))
    records = evaluate_traces(pair_traces(traces, corpus))
    report = aggregate(records)
    txt = render_report(report, "txt")
    md = render_report(report, "md")
    assert "Overall" in txt and "100.0" in txt and "n/a" in txt
    assert md.startswith("| kind |")
    with pytest.raises(ValueError):
        render_report(report, "html")
    assert render_report(json.loads(json.dumps(report)), "txt") == txt


def test_record_json_roundtrip():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    record = score_trace(run_pipeline(corpus[0], backend), corpus[0])
    assert list(record) == ["instance_id", "graph_match", "name_match", "param_match",
                            "answer_match", "category", "fault_count"]
    assert type(record["category"]) is str
    assert json.loads(json.dumps(record)) == record
