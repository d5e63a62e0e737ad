import json
import random

import pytest

from graphstage import (
    ALL_KINDS,
    FaultBackend,
    FaultPlan,
    OracleBackend,
    SizeClass,
    TaskKind,
    build_dataset,
    default_registry,
    export_alpaca,
    generate_instance,
    run_corpus,
    run_pipeline,
)
from graphstage.evaluation import OrphanTrace
from graphstage.codec import extract_graph, extract_parameters, extract_tool_name
from graphstage.graphs import graphs_equal
from graphstage.pipeline import StageKind
from graphstage.tools import ToolError, dispatch

REGISTRY = default_registry()


def _corpus(per_kind=2):
    out = []
    for k, kind in enumerate(ALL_KINDS):
        for index in range(per_kind):
            out.append(generate_instance(kind, SizeClass.WL, random.Random(31 * k + index), index=index))
    return out


def _retained(trace, inst) -> bool:
    """Whether build_dataset keeps the trace's instance."""
    _, stats = build_dataset([trace], [inst])
    return stats["retained_instances"] == 1


class _Rewriter:
    """Oracle wrapper that rewrites one stage's output."""

    def __init__(self, corpus, stage, rewrite):
        self.oracle = OracleBackend(corpus)
        self.stage = stage
        self.rewrite = rewrite

    def complete(self, prompt):
        from graphstage.pipeline import parse_prompt_meta

        instance_id, stage = parse_prompt_meta(prompt)
        out = self.oracle.complete(prompt)
        if stage is self.stage:
            return self.rewrite(self.oracle.by_id[instance_id], out)
        return out


def test_oracle_traces_match():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    for inst in corpus:
        trace = run_pipeline(inst, backend)
        assert _retained(trace, inst)


def test_dropped_edge_with_correct_answer_is_rejected():
    # two triangles sharing node 0: dropping one edge of the second triangle
    # keeps the graph cyclic, so the answer stays true while the graph differs
    from graphstage.graphs import build_graph
    from graphstage.generator import TaskInstance, render_task_text

    kind = TaskKind.parse("cycle_detection:undirected")
    graph = build_graph(False, 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    text = render_task_text(kind, graph, (), 0, SizeClass.WL, None)
    inst = TaskInstance(
        id="cycle_detection-u-wl-90000",
        kind=kind,
        graph=graph,
        params=(),
        description_variant=0,
        size_class=SizeClass.WL,
        task_text=text,
        graph_file=None,
        gold_answer=dispatch("cycle_detection", graph, ()),
    )

    def drop_last_edge(instance, out):
        return out.replace(", (0, 4)", "")

    backend = _Rewriter([inst], StageKind.GRAPH, drop_last_edge)
    trace = run_pipeline(inst, backend)
    assert trace.tool_result == inst.gold_answer  # answer is still right
    assert not _retained(trace, inst)  # but the graph label is not


def test_swapped_endpoints_same_answer_rejected():
    inst = generate_instance(
        TaskKind.parse("shortest_path:undirected"), SizeClass.WL, random.Random(77), index=0
    )

    def swap(instance, out):
        a, b = instance.gold_params
        return f"source={b}, target={a}"

    backend = _Rewriter([inst], StageKind.PARAMS, swap)
    trace = run_pipeline(inst, backend)
    assert trace.tool_result == inst.gold_answer  # undirected distance is symmetric
    assert not _retained(trace, inst)


def test_parse_failure_rejects():
    inst = _corpus(1)[0]
    backend = _Rewriter([inst], StageKind.GRAPH, lambda i, out: "nothing useful")
    trace = run_pipeline(inst, backend)
    assert not _retained(trace, inst)


def test_build_dataset_oracle_counts_and_order():
    corpus = _corpus(2)
    backend = OracleBackend(corpus)
    traces = run_corpus(corpus, backend)
    entries, stats = build_dataset(traces, corpus)
    assert stats["retained_instances"] == len(corpus)
    assert stats["retained_fraction"] == 1.0
    expected_entries = sum(2 if not i.kind.parametric else 3 for i in corpus)
    assert len(entries) == expected_entries
    by_id = {inst.id: inst for inst in corpus}
    assert entries == [
        {"instruction": stage.instruction_text, "input": by_id[trace.instance_id].task_text,
         "output": stage.raw_output}
        for trace in sorted(traces, key=lambda t: t.instance_id)
        for stage in trace.stages
    ]


def test_build_dataset_empty():
    entries, stats = build_dataset([], [])
    assert entries == [] and stats["traces"] == 0


def test_orphan_trace_raises():
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    trace = run_pipeline(corpus[0], backend)
    with pytest.raises(OrphanTrace):
        build_dataset([trace], corpus[1:])


def test_repeated_trace_id_raises():
    inst = _corpus(1)[0]
    trace = run_pipeline(inst, OracleBackend([inst]))
    with pytest.raises(ValueError, match=f"^duplicate instance id '{inst.id}'$"):
        build_dataset([trace, trace], [inst])


def _reexecute_matches(trace, instance) -> bool:
    """Independent survival check: re-parse raw stage text and re-run the tool."""
    graph_stage = trace.stage(StageKind.GRAPH)
    name_stage = trace.stage(StageKind.NAME)
    g = extract_graph(graph_stage.raw_output, instance.graph.weight_kind, instance.kind.directed)
    if not g.ok or not graphs_equal(g.graph, instance.gold_graph):
        return False
    name = extract_tool_name(name_stage.raw_output)
    if not name.ok or name.name.strip().lower() != instance.gold_tool:
        return False
    params = ()
    if instance.kind.parametric:
        param_stage = trace.stage(StageKind.PARAMS)
        spec = REGISTRY.get(instance.gold_tool)
        parsed = extract_parameters(param_stage.raw_output, spec)
        if not parsed.ok or parsed.params != instance.gold_params:
            return False
        params = parsed.params
    try:
        result = dispatch(name.name, g.graph, params)
    except ToolError:
        return False
    return result == instance.gold_answer


def test_fault_retention_matches_reexecution():
    corpus = _corpus(3)
    oracle = OracleBackend(corpus)
    plan = FaultPlan(drop_graph_edges=0.3, wrong_tool_name=0.3, swap_parameters=0.3)
    fault = FaultBackend(oracle, plan, seed=13)
    traces = run_corpus(corpus, fault)
    _, stats = build_dataset(traces, corpus)
    by_id = {i.id: i for i in corpus}
    survivors = sum(_reexecute_matches(t, by_id[t.instance_id]) for t in traces)
    assert stats["retained_instances"] == survivors
    for trace in traces:
        if _retained(trace, by_id[trace.instance_id]):
            assert _reexecute_matches(trace, by_id[trace.instance_id])


def test_export_alpaca_shape_and_idempotence(tmp_path):
    corpus = _corpus(1)
    backend = OracleBackend(corpus)
    traces = run_corpus(corpus, backend)
    entries, _ = build_dataset(traces, corpus)
    out = tmp_path / "alpaca.json"
    export_alpaca(entries, out)
    first = out.read_bytes()
    payload = json.loads(first)
    assert isinstance(payload, list) and payload
    for item in payload:
        assert set(item) == {"instruction", "input", "output"}
    export_alpaca(entries, out)
    assert out.read_bytes() == first


def test_export_alpaca_escapes_tricky_text(tmp_path):
    entry = {
        "instruction": 'say "hi"\nplease',
        "input": "line1\nline2\twith\ttabs",
        "output": "done \\ and unicode: é",
    }
    out = tmp_path / "alpaca.json"
    export_alpaca([entry], out)
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert loaded[0]["instruction"] == 'say "hi"\nplease'
    assert loaded[0]["output"].endswith("é")
