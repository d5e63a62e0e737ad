import asyncio
import inspect
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from graphstage import (
    ALL_KINDS,
    FaultBackend,
    FaultPlan,
    OracleBackend,
    SizeClass,
    TaskKind,
    WeightKind,
    default_registry,
    generate_instance,
    run_corpus,
    run_pipeline,
)
from graphstage import codec
from graphstage.codec import extract_file_path, extract_graph, format_el_graph
from graphstage.evaluation import Category, score_trace
from graphstage.pipeline import (
    StageKind,
    assemble_prompt,
    graph_instruction_text,
    parameter_instruction_text,
    parse_prompt_meta,
    run_blocking,
    task_instruction_text,
)
from graphstage.serialize import atomic_write_text, trace_to_json
from graphstage.tools import TOOL_NAMES, UnknownTool, tool_arity

REGISTRY = default_registry()


def _instance(label="shortest_path:undirected", index=0, size=SizeClass.WL):
    kind = TaskKind.parse(label)
    return generate_instance(kind, size, random.Random(42 + index), index=index)


def _prompts(inst):
    """The prompt run_pipeline records for each stage, under the oracle backend."""
    trace = run_pipeline(inst, OracleBackend([inst]))
    return {record.stage: record.prompt for record in trace.stages}


def _without_latency(traces):
    stored = [trace_to_json(t) for t in traces]
    for trace in stored:
        for stage in trace["stages"]:
            del stage["latency_ms"]
    return stored


def test_prompt_builders_are_pure():
    inst = _instance()
    first = _prompts(inst)
    assert set(first) == {StageKind.GRAPH, StageKind.NAME, StageKind.PARAMS}
    assert _prompts(inst) == first


def test_each_stage_names_the_instruction_it_sent():
    for index, kind in enumerate(ALL_KINDS):
        for size in SizeClass:
            inst = _instance(kind.label, index, size)
            sent = {
                StageKind.GRAPH: graph_instruction_text(size, kind.weight_kind),
                StageKind.NAME: task_instruction_text(REGISTRY),
            }
            if kind.parametric:
                sent[StageKind.PARAMS] = parameter_instruction_text(REGISTRY.get(kind.tool))
            trace = run_pipeline(inst, OracleBackend([inst]))
            assert [r.stage for r in trace.stages] == list(sent)
            for record in trace.stages:
                assert record.instruction_text == sent[record.stage]
                assert record.prompt == assemble_prompt(sent[record.stage], inst, record.stage)


def test_graph_prompt_has_both_exemplars_and_task():
    inst = _instance()
    prompt = _prompts(inst)[StageKind.GRAPH]
    assert "Example 1 (unweighted):" in prompt
    assert "Example 2 (weighted):" in prompt
    assert inst.task_text in prompt


def test_el_graph_prompt_is_one_shot_path():
    inst = _instance("cycle_detection:directed", size=SizeClass.EL)
    prompt = _prompts(inst)[StageKind.GRAPH]
    assert "file path" in prompt.lower()
    assert "Example:" in prompt
    assert "Example 2" not in prompt


def test_task_prompt_lists_every_tool_and_anchor():
    inst = _instance()
    prompt = _prompts(inst)[StageKind.NAME]
    for spec in REGISTRY:
        assert spec.name in prompt
        assert spec.description in prompt
    assert "API_name:" in prompt


def test_default_registry_has_exactly_eleven_tools():
    assert len(REGISTRY) == 11


def test_default_registry_matches_the_tool_table():
    assert [spec.name for spec in REGISTRY] == list(TOOL_NAMES)
    for spec in REGISTRY:
        assert len(spec.parameters) == tool_arity(spec.name), spec.name
        # the graph, then one argument per declared parameter
        assert len(inspect.signature(spec.function).parameters) == 1 + len(spec.parameters), spec.name


def test_default_registry_is_one_object():
    assert default_registry() is default_registry() is REGISTRY


def test_prompts_do_not_leak_gold_labels():
    inst = _instance("topological_sort:directed")
    order = list(inst.gold_answer.value)
    assert len(order) >= 3
    rendered = [str(order), str(tuple(order))]
    prompts = _prompts(inst)
    for prompt in (prompts[StageKind.GRAPH], prompts[StageKind.NAME]):
        head, _, tail = prompt.rpartition(inst.task_text)
        assert tail == ""  # the task text is the suffix; nothing follows it
        for leak in rendered:
            assert leak not in head


def test_parameter_prompt_demands_named_format():
    prompt = _prompts(_instance())[StageKind.PARAMS]
    assert "source=<int>, target=<int>" in prompt
    single = _prompts(_instance("degree_count:directed"))[StageKind.PARAMS]
    assert "node=<int>" in single


def test_registry_get_case_folds():
    assert REGISTRY.get("shortest_path").name == "shortest_path"
    assert REGISTRY.get(" Shortest_Path ").name == "shortest_path"
    with pytest.raises(UnknownTool):
        REGISTRY.get("dijkstra")


def test_prompt_meta_roundtrip():
    inst = _instance()
    prompt = assemble_prompt("do the thing", inst, StageKind.PARAMS)
    assert parse_prompt_meta(prompt) == (inst.id, StageKind.PARAMS)
    assert parse_prompt_meta("no meta here") is None


def test_prompt_is_exactly_instruction_meta_task():
    inst = _instance()
    prompt = _prompts(inst)[StageKind.NAME]
    head, _, tail = prompt.rpartition(f"[task {inst.id} | stage N]\n")
    assert tail == inst.task_text
    assert head.endswith("\n\n")


def test_stage_counts_by_category():
    corpus = [
        _instance("cycle_detection:undirected", 0),
        _instance("degree_count:directed", 1),
    ]
    backend = OracleBackend(corpus)
    traces = [run_pipeline(i, backend) for i in corpus]
    assert len(traces[0].stages) == 2 and traces[0].stage(StageKind.PARAMS) is None
    assert len(traces[1].stages) == 3 and traces[1].stage(StageKind.PARAMS) is not None
    assert [s.stage for s in traces[1].stages] == [StageKind.GRAPH, StageKind.NAME, StageKind.PARAMS]


def test_oracle_run_reaches_gold_answer():
    corpus = [_instance(k.label, i) for i, k in enumerate(ALL_KINDS)]
    backend = OracleBackend(corpus)
    for inst in corpus:
        trace = run_pipeline(inst, backend)
        assert trace.tool_result == inst.gold_answer
        assert trace.tool_error is None


def test_unregistered_name_short_circuits():
    inst = _instance("cycle_detection:undirected")
    oracle = OracleBackend([inst])

    class Wrapper:
        def complete(self, prompt):
            out = oracle.complete(prompt)
            return "API_name: banana" if out.startswith("API_name:") else out

    trace = run_pipeline(inst, Wrapper())
    assert trace.tool_result is None
    assert "banana" in trace.tool_error


def test_failed_name_stage_fails_parameter_stage_without_call():
    inst = _instance("shortest_path:directed")
    oracle = OracleBackend([inst])
    calls = []

    class Wrapper:
        def complete(self, prompt):
            calls.append(parse_prompt_meta(prompt)[1])
            out = oracle.complete(prompt)
            return "no anchor at all" if out.startswith("API_name:") else out

    trace = run_pipeline(inst, Wrapper())
    assert StageKind.PARAMS not in calls
    param_stage = trace.stage(StageKind.PARAMS)
    assert not param_stage.parsed.ok
    assert trace.tool_result is None
    assert len(trace.stages) == 3


def test_backend_exception_recorded_not_raised():
    inst = _instance("edge_count:undirected")

    class Exploding:
        def complete(self, prompt):
            raise RuntimeError("socket closed")

    trace = run_pipeline(inst, Exploding())
    assert trace.tool_result is None
    assert all(not s.parsed.ok for s in trace.stages)
    assert "socket closed" in trace.stages[0].parsed.reason


@pytest.mark.parametrize("faults", [False, True])
def test_run_corpus_runs_in_process_backends_serially_in_order(faults):
    corpus = [_instance(k.label, i) for i, k in enumerate(ALL_KINDS)]
    plan = FaultPlan(drop_graph_edges=0.3, wrong_tool_name=0.3, swap_parameters=0.3, emit_garbage=0.1)

    class OnThread:
        def __init__(self):
            oracle = OracleBackend(corpus)
            self.backend = FaultBackend(oracle, plan, seed=3) if faults else oracle
            self.threads = set()

        def complete(self, prompt):
            self.threads.add(threading.get_ident())
            return self.backend.complete(prompt)

    runs = {}
    for workers in (1, 8):
        backend = OnThread()
        traces = list(run_corpus(corpus, backend, workers=workers))
        assert backend.threads == {threading.get_ident()}
        assert [t.instance_id for t in traces] == [i.id for i in corpus]
        runs[workers] = _without_latency(traces), getattr(backend.backend, "injected", None)
    assert runs[8] == runs[1]
    if faults:
        assert runs[1][1]  # some faults fired
    else:
        assert all(t.tool_result == i.gold_answer for t, i in zip(traces, corpus))


def test_run_pipeline_inside_a_running_event_loop():
    inst = _instance()
    backend = OracleBackend([inst])

    async def in_a_notebook():
        return run_pipeline(inst, backend)

    outside = run_pipeline(inst, backend)
    assert _without_latency([asyncio.run(in_a_notebook())]) == _without_latency([outside])


def test_run_blocking_refuses_a_coroutine_that_suspends():
    finished = []

    async def suspends():
        try:
            await asyncio.sleep(0)
        finally:
            finished.append(True)

    coroutine = suspends()
    with pytest.raises(RuntimeError, match="suspended"):
        run_blocking(coroutine)
    assert finished == [True]
    assert inspect.getcoroutinestate(coroutine) == inspect.CORO_CLOSED


def test_number_answers_that_do_not_parse_are_syntax_errors():
    weighted = _instance("shortest_path:undirected")
    parametric = _instance("degree_count:directed", 1)
    corpus = [weighted, parametric]
    assert weighted.graph.weight_kind.value == "weight"
    oracle = OracleBackend(corpus)

    class BadNumbers:
        def complete(self, prompt):
            instance_id, stage = parse_prompt_meta(prompt)
            if instance_id == weighted.id and stage is StageKind.GRAPH:
                return "The edges are: (0, 1, {'weight': 0})"
            if instance_id == parametric.id and stage is StageKind.PARAMS:
                return "node=" + "9" * 5000
            return oracle.complete(prompt)

    traces = list(run_corpus(corpus, BadNumbers()))
    failed = [traces[0].stage(StageKind.GRAPH), traces[1].stage(StageKind.PARAMS)]
    assert [not record.parsed.ok for record in failed] == [True, True]
    for trace, inst in zip(traces, corpus):
        assert trace.tool_result is None
        assert score_trace(trace, inst)["category"] == Category.SYNTAX


def _naming_node(node, weight_kind):
    """A graph reply of ``weight_kind`` whose second edge names ``node``."""
    if weight_kind is WeightKind.NONE:
        return f"The edges are: (0, 1), (1, {node})"
    key = weight_kind.value
    return f"The edges are: (0, 1, {{'{key}': 3}}), (1, {node}, {{'{key}': 2}})"


def test_a_graph_reply_naming_a_huge_node_id_is_a_syntax_error_of_every_kind():
    corpus = [_instance(k.label, i) for i, k in enumerate(ALL_KINDS)]
    by_id = {inst.id: inst for inst in corpus}
    huge = 10**9
    # the extraction refuses it first: a graph of a billion nodes must never reach a tool
    for inst in corpus:
        found = extract_graph(_naming_node(huge, inst.kind.weight_kind), inst.kind.weight_kind, inst.kind.directed)
        assert not found.ok, f"{inst.kind.label}: a graph of {found.graph.node_count} nodes"
        assert found.reason == f"node id {huge} is not below the bound {codec.NODE_ID_BOUND}"
    oracle = OracleBackend(corpus)
    for node in (huge, codec.NODE_ID_BOUND - 1):

        class NamingNode:
            def complete(self, prompt):
                instance_id, stage = parse_prompt_meta(prompt)
                if stage is StageKind.GRAPH:
                    return _naming_node(node, by_id[instance_id].kind.weight_kind)
                return oracle.complete(prompt)

        start = time.perf_counter()
        traces = list(run_corpus(corpus, NamingNode()))
        assert time.perf_counter() - start < 10.0  # a few ms per trace, tools included, below the bound
        for trace, inst in zip(traces, corpus):
            category = score_trace(trace, inst)["category"]
            if node == huge:
                assert trace.tool_error.startswith(f"stage graph parse failure: node id {huge}")
                assert category == Category.SYNTAX
            else:  # below the bound the reply is a graph, and the tool runs on it
                assert trace.stages[0].parsed.graph.node_count == codec.NODE_ID_BOUND
                assert category != Category.CORRECT


def test_importing_the_cli_leaves_asyncio_out():
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, graphstage.cli; print(sorted({'asyncio', 'graphstage.cli'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['graphstage.cli']"


def test_el_pipeline_reads_graph_file(tmp_path):
    inst = _instance("maximum_flow:directed", size=SizeClass.EL)
    atomic_write_text(tmp_path / inst.graph_file, format_el_graph(inst.graph))
    backend = OracleBackend([inst])
    trace = run_pipeline(inst, backend, base_dir=tmp_path)
    assert extract_file_path(trace.stage(StageKind.GRAPH).raw_output).path == inst.graph_file
    assert trace.tool_result == inst.gold_answer


def test_el_pipeline_missing_file_is_parse_failure(tmp_path):
    inst = _instance("maximum_flow:directed", size=SizeClass.EL)
    backend = OracleBackend([inst])
    trace = run_pipeline(inst, backend, base_dir=tmp_path)
    graph_stage = trace.stage(StageKind.GRAPH)
    assert not graph_stage.parsed.ok
    assert "file read" in graph_stage.parsed.reason
    assert trace.tool_result is None



@pytest.mark.parametrize(
    "answer, failure",
    [
        ("{outside}", "escapes the corpus directory"),  # absolute
        ("graphs/../../outside.edges", "escapes the corpus directory"),
        ("graphs/\x00.edges", "file read"),  # a path the OS cannot take
        ("graphs/../{graph_file}", None),  # dot segments that stay in the directory
    ],
)
def test_el_path_must_stay_in_corpus_dir(tmp_path, answer, failure):
    inst = _instance("maximum_flow:directed", size=SizeClass.EL)
    corpus_dir = tmp_path / "corpus"
    atomic_write_text(corpus_dir / inst.graph_file, format_el_graph(inst.graph))
    outside = tmp_path / "outside.edges"
    # readable and well formed: only the path is wrong
    atomic_write_text(outside, format_el_graph(inst.graph))
    path = answer.format(outside=outside, graph_file=inst.graph_file)
    oracle = OracleBackend([inst])

    class PathAnswer:
        def complete(self, prompt):
            if parse_prompt_meta(prompt)[1] is StageKind.GRAPH:
                return f"The graph file path is: {path}"
            return oracle.complete(prompt)

    trace = run_pipeline(inst, PathAnswer(), base_dir=corpus_dir)
    graph_stage = trace.stage(StageKind.GRAPH)
    assert extract_file_path(graph_stage.raw_output).path == path
    if failure is None:
        assert trace.tool_result == inst.gold_answer
    else:
        assert failure in graph_stage.parsed.reason
        assert trace.tool_result is None
        assert score_trace(trace, inst)["category"] == Category.SYNTAX
