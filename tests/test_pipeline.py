import random

import pytest

from graphstage import (
    ALL_KINDS,
    OracleBackend,
    SizeClass,
    TaskKind,
    default_registry,
    generate_instance,
    run_corpus,
    run_pipeline,
)
from graphstage.pipeline import (
    StageKind,
    assemble_prompt,
    parse_prompt_meta,
    serialize_registry,
)
from graphstage.tools import TOOL_NAMES, UnknownTool, tool_arity

REGISTRY = default_registry()


def _instance(label="shortest_path:undirected", index=0, size=SizeClass.WL):
    kind = TaskKind.parse(label)
    return generate_instance(kind, size, random.Random(42 + index), index=index)


def _prompts(inst):
    """The prompt run_pipeline records for each stage, under the oracle backend."""
    trace = run_pipeline(inst, OracleBackend([inst]), REGISTRY)
    return {record.stage: record.prompt for record in trace.stages}


def test_prompt_builders_are_pure():
    inst = _instance()
    first = _prompts(inst)
    assert set(first) == {StageKind.GRAPH, StageKind.NAME, StageKind.PARAMS}
    assert _prompts(inst) == first


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


def test_registry_extension_appears_in_prompt():
    from graphstage.toolset import ToolRegistry, ToolSpec

    extended = ToolRegistry(list(REGISTRY))
    extended.register(ToolSpec("bipartite_matching", "Match the two sides.", (), "integer"))
    assert "bipartite_matching" in serialize_registry(extended)


def test_default_registry_has_exactly_eleven_tools():
    assert len(REGISTRY) == 11


def test_default_registry_matches_the_tool_table():
    assert [spec.name for spec in REGISTRY] == list(TOOL_NAMES)
    for spec in REGISTRY:
        assert len(spec.parameters) == tool_arity(spec.name), spec.name


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
    traces = [run_pipeline(i, backend, REGISTRY) for i in corpus]
    assert len(traces[0].stages) == 2 and traces[0].skipped_parameter_stage
    assert len(traces[1].stages) == 3 and not traces[1].skipped_parameter_stage
    assert [s.stage for s in traces[1].stages] == [StageKind.GRAPH, StageKind.NAME, StageKind.PARAMS]


def test_oracle_run_reaches_gold_answer():
    corpus = [_instance(k.label, i) for i, k in enumerate(ALL_KINDS)]
    backend = OracleBackend(corpus)
    for inst in corpus:
        trace = run_pipeline(inst, backend, REGISTRY)
        assert trace.tool_result == inst.gold_answer
        assert trace.tool_error is None


def test_unregistered_name_short_circuits():
    inst = _instance("cycle_detection:undirected")
    oracle = OracleBackend([inst])

    class Wrapper:
        def complete(self, prompt):
            out = oracle.complete(prompt)
            return "API_name: banana" if out.startswith("API_name:") else out

    trace = run_pipeline(inst, Wrapper(), REGISTRY)
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

    trace = run_pipeline(inst, Wrapper(), REGISTRY)
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

    trace = run_pipeline(inst, Exploding(), REGISTRY)
    assert trace.tool_result is None
    assert all(not s.parsed.ok for s in trace.stages)
    assert "socket closed" in trace.stages[0].parsed.reason


def test_run_corpus_parallel_preserves_order():
    corpus = [_instance(k.label, i) for i, k in enumerate(ALL_KINDS)]
    backend = OracleBackend(corpus)
    traces = run_corpus(corpus, backend, REGISTRY, workers=8)
    assert [t.instance_id for t in traces] == [i.id for i in corpus]
    assert all(t.tool_result == i.gold_answer for t, i in zip(traces, corpus))


def test_el_pipeline_reads_graph_file(tmp_path):
    from graphstage import write_el_graph_file

    inst = _instance("maximum_flow:directed", size=SizeClass.EL)
    (tmp_path / "graphs").mkdir()
    write_el_graph_file(inst.graph, tmp_path / inst.graph_file)
    backend = OracleBackend([inst])
    trace = run_pipeline(inst, backend, REGISTRY, base_dir=tmp_path)
    assert trace.stage(StageKind.GRAPH).file_path == inst.graph_file
    assert trace.tool_result == inst.gold_answer


def test_el_pipeline_missing_file_is_parse_failure(tmp_path):
    inst = _instance("maximum_flow:directed", size=SizeClass.EL)
    backend = OracleBackend([inst])
    trace = run_pipeline(inst, backend, REGISTRY, base_dir=tmp_path)
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
    from graphstage import write_el_graph_file
    from graphstage.evaluation import Category, score_trace

    inst = _instance("maximum_flow:directed", size=SizeClass.EL)
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "graphs").mkdir(parents=True)
    write_el_graph_file(inst.graph, corpus_dir / inst.graph_file)
    outside = tmp_path / "outside.edges"
    write_el_graph_file(inst.graph, outside)  # readable and well formed: only the path is wrong
    path = answer.format(outside=outside, graph_file=inst.graph_file)
    oracle = OracleBackend([inst])

    class PathAnswer:
        def complete(self, prompt):
            if parse_prompt_meta(prompt)[1] is StageKind.GRAPH:
                return f"The graph file path is: {path}"
            return oracle.complete(prompt)

    trace = run_pipeline(inst, PathAnswer(), REGISTRY, base_dir=corpus_dir)
    graph_stage = trace.stage(StageKind.GRAPH)
    assert graph_stage.file_path == path
    if failure is None:
        assert trace.tool_result == inst.gold_answer
    else:
        assert failure in graph_stage.parsed.reason
        assert trace.tool_result is None
        assert score_trace(trace, inst).category is Category.SYNTAX
