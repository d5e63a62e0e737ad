import random

import pytest

from graphstage import (
    ALL_KINDS,
    Category,
    FaultBackend,
    FaultPlan,
    OracleBackend,
    SizeClass,
    TaskKind,
    aggregate,
    build_dataset,
    evaluate_traces,
    generate_instance,
    render_report,
    run_corpus,
    run_pipeline,
    score_trace,
)
from graphstage.evaluation import EmptyInput, EvalRecord, Report, record_to_json


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
        assert record.category is Category.CORRECT
        assert record.graph_match and record.name_match and record.answer_match
        assert record.param_match is (None if not inst.kind.parametric else True)
        assert record.fault_count == 0


def test_unregistered_tool_name_is_syntax_error():
    inst = _corpus(1)[0]
    oracle = OracleBackend([inst])

    class Wrapper:
        def complete(self, prompt):
            out = oracle.complete(prompt)
            return "API_name: banana" if out.startswith("API_name:") else out

    record = score_trace(run_pipeline(inst, Wrapper()), inst)
    assert record.category is Category.SYNTAX
    assert not record.name_match


def test_mismatched_ids_rejected():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    trace = run_pipeline(corpus[0], backend)
    with pytest.raises(ValueError):
        score_trace(trace, corpus[1])


def _fault_records(plan, per_kind=3, seed=21):
    corpus = _corpus(per_kind, seed=seed)
    oracle = OracleBackend(corpus)
    fault = FaultBackend(oracle, plan, seed=seed)
    traces = run_corpus(corpus, fault)
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
            assert record.category is expected[mode], (trace.instance_id, injected)
        assert checked >= 20, mode


def test_priority_graph_beats_name_and_multi_fault_counted():
    plan = FaultPlan(drop_graph_edges=1.0, wrong_tool_name=1.0)
    corpus, traces, fault, by_id = _fault_records(plan)
    seen_double = 0
    for trace in traces:
        injected = fault.injected.get(trace.instance_id, {})
        if set(injected.values()) == {"drop_graph_edges", "wrong_tool_name"}:
            record = score_trace(trace, by_id[trace.instance_id])
            assert record.category is Category.GRAPH
            assert record.fault_count >= 2
            seen_double += 1
    assert seen_double > 10


def test_matching_implies_correct_category():
    plan = FaultPlan(drop_graph_edges=0.4, wrong_tool_name=0.4, swap_parameters=0.4, emit_garbage=0.2)
    corpus, traces, fault, by_id = _fault_records(plan, per_kind=4)
    entries, _ = build_dataset(traces, corpus)
    retained = {e.instance_id for e in entries}
    assert retained and len(retained) < len(traces)
    for trace in traces:
        record = score_trace(trace, by_id[trace.instance_id])
        if trace.instance_id in retained:
            assert record.category is Category.CORRECT
    records = [score_trace(t, by_id[t.instance_id]) for t in traces]
    answer_rate = sum(r.answer_match for r in records) / len(records)
    correct_rate = sum(r.category is Category.CORRECT for r in records) / len(records)
    assert answer_rate >= correct_rate


def test_aggregate_all_correct():
    corpus = _corpus(2)
    backend = OracleBackend(corpus)
    traces = run_corpus(corpus, backend)
    records = evaluate_traces(traces, corpus)
    report = aggregate(records, corpus)
    assert len(report.rows) == 20
    for row in report.rows:
        assert row.answer_acc == 100.0
        assert row.graph_acc == 100.0
        assert row.name_acc == 100.0
        assert row.histogram[Category.CORRECT.value] == row.count
        if row.kind.split(":")[0] in ("cycle_detection", "max_triangle_sum", "edge_count", "node_count", "topological_sort"):
            assert row.param_acc is None
        else:
            assert row.param_acc == 100.0
    assert report.overall["wl"]["answer_acc"] == 100.0
    assert report.overall["wl"]["kinds"] == 20


def test_aggregate_overall_is_unweighted_mean():
    corpus = _corpus(2)
    oracle = OracleBackend(corpus)
    fault = FaultBackend(oracle, FaultPlan(drop_graph_edges=0.5), seed=3)
    traces = run_corpus(corpus, fault)
    records = evaluate_traces(traces, corpus)
    report = aggregate(records, corpus)
    mean = sum(r.answer_acc for r in report.rows) / len(report.rows)
    assert report.overall["wl"]["answer_acc"] == pytest.approx(mean)


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([], [])


def test_report_rendering_and_roundtrip():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    traces = run_corpus(corpus, backend)
    records = evaluate_traces(traces, corpus)
    report = aggregate(records, corpus)
    txt = render_report(report, "txt")
    md = render_report(report, "md")
    assert "Overall" in txt and "100.0" in txt and "n/a" in txt
    assert md.startswith("| kind |")
    with pytest.raises(ValueError):
        render_report(report, "html")
    rebuilt = Report.from_json(report.to_json())
    assert render_report(rebuilt, "txt") == txt


def test_record_json_roundtrip():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    record = score_trace(run_pipeline(corpus[0], backend), corpus[0])
    obj = record_to_json(record)
    assert EvalRecord(**{**obj, "category": Category(obj["category"])}) == record
