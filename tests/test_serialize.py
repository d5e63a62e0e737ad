"""Corpus and trace files: graphs are stored with one flat ``edges`` array,
and trace lines in format 4 store instruction keys and the task text once;
the loader rebuilds every record exactly. Nested-edge corpus lines and
trace lines of formats 1 to 3 still load, to the same objects, unless they
hold an instruction text or prompt that the pipeline does not send."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from graphstage.backends import CompletionConfig, FaultBackend, FaultPlan, HttpBackend, OracleBackend
from graphstage.cli import main
from graphstage.codec import extract_file_path
from graphstage.generator import SizeClass
from graphstage.graphs import WeightKind, build_graph
from graphstage.pipeline import (
    INSTRUCTION_TEXTS,
    StageKind,
    graph_instruction_text,
    parameter_instruction_text,
    run_corpus,
    task_instruction_text,
)
from graphstage.serialize import (
    TRACE_FORMAT,
    dump_line,
    graph_from_json,
    graph_to_json,
    load_corpus,
    load_traces,
    read_jsonl,
    trace_from_json,
    trace_to_json,
)
from graphstage.toolset import default_registry

REGISTRY = default_registry()
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_V1 = FIXTURES / "traces_v1.jsonl"
FAULT_MODES = ("drop_graph_edges", "wrong_tool_name", "swap_parameters", "emit_garbage")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--count", "2", "--size", "both", "--seed", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corpus(corpus_dir):
    return load_corpus(corpus_dir / "corpus.jsonl")


def _rounded(trace):
    return dataclasses.replace(
        trace,
        stages=[dataclasses.replace(r, latency_ms=round(r.latency_ms, 3)) for r in trace.stages],
    )


def _without_latency(traces):
    return [
        dataclasses.replace(t, stages=[dataclasses.replace(r, latency_ms=0.0) for r in t.stages])
        for t in traces
    ]


def _assert_round_trips(traces):
    for trace in traces:
        assert trace_from_json(json.loads(dump_line(trace_to_json(trace)))) == _rounded(trace)


def test_instruction_table_holds_each_distinct_text_once():
    texts = list(INSTRUCTION_TEXTS.values())
    assert len(texts) == len(set(texts)) == 10
    for size in SizeClass:
        for weight in WeightKind:
            assert graph_instruction_text(size, weight) in texts
    assert task_instruction_text(REGISTRY) in texts
    assert {parameter_instruction_text(s) for s in REGISTRY if s.parameters} <= set(texts)


def test_oracle_traces_of_both_sizes_round_trip(corpus, corpus_dir):
    traces = run_corpus(corpus, OracleBackend(corpus), base_dir=corpus_dir)
    assert {i.size_class for i in corpus} == {SizeClass.WL, SizeClass.EL}
    assert [t.task_text for t in traces] == [i.task_text for i in corpus]
    _assert_round_trips(traces)


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_fault_traces_round_trip(corpus, corpus_dir, mode):
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(**{mode: 1.0}), seed=3)
    traces = run_corpus(corpus, backend, base_dir=corpus_dir)
    assert any(mode in stages.values() for stages in backend.injected.values())
    _assert_round_trips(traces)


def test_parameter_stage_without_a_call_round_trips_with_an_empty_key(corpus, corpus_dir):
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(emit_garbage=1.0), seed=3)
    traces = run_corpus(corpus, backend, base_dir=corpus_dir)
    uncalled = [(t, r) for t in traces for r in t.stages if not r.prompt]
    assert uncalled and all(r.stage is StageKind.PARAMS and not r.instruction_text for _, r in uncalled)
    for trace, _ in uncalled:
        (stored,) = [s for s in trace_to_json(trace)["stages"] if s["stage"] == "params"]
        assert stored["instruction"] == ""
    _assert_round_trips(t for t, _ in uncalled)


def test_backend_error_traces_round_trip(corpus):
    config = CompletionConfig(endpoint="http://127.0.0.1:1/v1/chat/completions", retry_count=0)
    traces = run_corpus(corpus[:4], HttpBackend(config))
    assert all(r.parsed.reason.startswith("backend error") for t in traces for r in t.stages)
    _assert_round_trips(traces)


def test_trace_line_stores_only_what_the_loader_cannot_rebuild(corpus, corpus_dir):
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(emit_garbage=0.5), seed=3)
    traces = run_corpus(corpus, backend, base_dir=corpus_dir)
    assert {len(t.stages) for t in traces} == {2, 3}
    for trace in traces:
        obj = json.loads(dump_line(trace_to_json(trace)))
        assert list(obj) == ["format", "instance_id", "task_text", "stages", "tool_result", "tool_error"]
        for stage in obj["stages"]:
            assert list(stage) == ["stage", "instruction", "raw_output", "parsed", "latency_ms"]


def test_wl_oracle_line_holds_no_instruction_and_the_task_text_once(corpus):
    inst = next(i for i in corpus if i.size_class is SizeClass.WL and i.kind.parametric)
    (trace,) = run_corpus([inst], OracleBackend([inst]))
    line = dump_line(trace_to_json(trace))
    for text in INSTRUCTION_TEXTS.values():
        assert json.dumps(text, ensure_ascii=False)[1:-1] not in line
    assert line.count(json.dumps(inst.task_text, ensure_ascii=False)[1:-1]) == 1
    assert '"prompt"' not in line and '"instruction_text"' not in line
    assert json.loads(line)["format"] == TRACE_FORMAT


def test_format_1_fixture_loads_to_the_objects_of_a_fresh_run(tmp_path):
    """The fixture was written in format 1 by these two commands."""
    out = tmp_path / "d"
    assert main([
        "generate", "--tasks", "degree_count:undirected,edge_existence:directed,node_count:undirected",
        "--count", "2", "--size", "both", "--seed", "1", "--out", str(out),
    ]) == 0
    assert main([
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "fault", "--fault-name", "0.3",
        "--fault-garbage", "0.2", "--seed", "8", "--out", str(out / "traces.jsonl"),
    ]) == 0
    assert all("format" not in obj for obj in read_jsonl(FIXTURE_V1))
    assert all(obj["format"] == TRACE_FORMAT for obj in read_jsonl(out / "traces.jsonl"))

    old = load_traces(FIXTURE_V1)
    assert _without_latency(old) == _without_latency(load_traces(out / "traces.jsonl"))
    stages = [r for t in old for r in t.stages]
    assert any(r.instruction == "G:el" and extract_file_path(r.raw_output).ok for r in stages)
    assert any(r.stage is StageKind.PARAMS and not r.prompt for r in stages)  # a stage without a call
    _assert_round_trips(old)


def test_unknown_instruction_key_names_the_key_file_and_line(tmp_path, corpus):
    (trace,) = run_corpus(corpus[:1], OracleBackend(corpus))
    good = trace_to_json(trace)
    bad = json.loads(dump_line(good))
    bad["stages"][0]["instruction"] = "G:xl"
    path = tmp_path / "traces.jsonl"
    path.write_text(dump_line(good) + "\n\n" + dump_line(bad) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: unknown instruction key 'G:xl'$"):
        load_traces(path)


def test_unknown_trace_format_is_rejected(corpus):
    (trace,) = run_corpus(corpus[:1], OracleBackend(corpus))
    obj = dict(trace_to_json(trace), format=TRACE_FORMAT + 1)
    with pytest.raises(ValueError, match=f"unknown trace format {TRACE_FORMAT + 1}"):
        trace_from_json(obj)


def test_format_2_fixture_with_nested_edges_loads_to_the_objects_of_a_fresh_run(tmp_path):
    """``corpus_nested.jsonl`` (edges as ``[u, v(, w)]`` rows) and
    ``traces_v2.jsonl`` (format 2, nested parsed graphs) were written before
    edges were stored flat, by these two commands with ``--out`` set to the
    fixture files."""
    out = tmp_path / "d"
    assert main([
        "generate", "--tasks", "cycle_detection:undirected,shortest_path:directed,maximum_flow:undirected",
        "--count", "2", "--size", "both", "--seed", "3", "--out", str(out),
    ]) == 0
    assert main([
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "fault", "--fault-drop", "0.5",
        "--fault-name", "0.3", "--seed", "5", "--out", str(out / "traces.jsonl"),
    ]) == 0
    nested_corpus, v2_traces = FIXTURES / "corpus_nested.jsonl", FIXTURES / "traces_v2.jsonl"
    assert all(type(edge) is list for obj in read_jsonl(nested_corpus) for edge in obj["graph"]["edges"])
    assert all(obj["format"] == 2 for obj in read_jsonl(v2_traces))
    assert all(type(x) is int for obj in read_jsonl(out / "corpus.jsonl") for x in obj["graph"]["edges"])

    corpus = load_corpus(nested_corpus)
    assert {i.graph.weight_kind for i in corpus} == set(WeightKind)
    assert {i.size_class for i in corpus} == {SizeClass.WL, SizeClass.EL}
    assert corpus == load_corpus(out / "corpus.jsonl")
    old = load_traces(v2_traces)
    assert _without_latency(old) == _without_latency(load_traces(out / "traces.jsonl"))
    parsed = [r.parsed.graph for t in old for r in t.stages if r.parsed.kind == "graph"]
    assert {g.weight_kind for g in parsed} == set(WeightKind)
    _assert_round_trips(old)


@pytest.mark.parametrize(
    "kind, rows",
    [
        (WeightKind.NONE, [(0, 1), (2, 0), (1, 3)]),
        (WeightKind.WEIGHT, [(0, 1, 5), (2, 0, 1), (1, 3, 9)]),
        (WeightKind.CAPACITY, [(3, 1, 2)]),
        (WeightKind.WEIGHT, []),
    ],
)
def test_graph_edges_are_stored_as_one_flat_array(kind, rows):
    g = build_graph(True, 4, rows, kind)
    obj = json.loads(dump_line(graph_to_json(g)))
    assert obj["edges"] == [x for row in rows for x in row]
    assert graph_from_json(obj) == g
    nested = dict(obj, edges=[list(row) for row in rows])
    assert graph_from_json(nested) == g


def _with_line_2_edited(source, path, edit):
    """``path``, written as a copy of ``source`` whose second line ``edit``
    has changed."""
    lines = source.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = dump_line(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.pop("task_text"), "missing key 'task_text'"),
        (lambda o: o["graph"].pop("weight_kind"), "missing key 'weight_kind'"),
        (lambda o: o["graph"].update(edges=[[0, 1], 7]), "object of type 'int' has no len()"),
        (lambda o: o["graph"].update(edges=7), "edges must be an array, got int"),
        (lambda o: o["graph"]["edges"].pop(), "flat edge array of a {k} graph holds {n} values, not a multiple of {w}"),
        (lambda o: o.update(params=None), "'NoneType' object is not iterable"),
    ],
)
def test_malformed_corpus_line_names_file_and_line(corpus_dir, tmp_path, edit, message):
    path = _with_line_2_edited(corpus_dir / "corpus.jsonl", tmp_path / "corpus.jsonl", edit)
    graph = json.loads(path.read_text(encoding="utf-8").splitlines()[1])["graph"]
    if "{n}" in message:
        kind = graph["weight_kind"]
        message = message.format(k=kind, n=len(graph["edges"]), w=2 if kind == "none" else 3)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}"):
        load_corpus(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.pop("tool_error"), "missing key 'tool_error'"),
        (lambda o: o.update(task_text=None), "task_text must be a string, got NoneType"),
    ],
)
def test_malformed_trace_line_names_file_and_line(corpus, tmp_path, edit, message):
    traces = run_corpus(corpus[:2], OracleBackend(corpus))
    lines = [trace_to_json(t) for t in traces]
    edit(lines[1])
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(dump_line(obj) + "\n" for obj in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_traces(path)


def test_format_3_keys_that_follow_from_the_rest_are_ignored(corpus, corpus_dir):
    """A format-3 line stored ``skipped_parameter_stage``, an EL graph
    stage's ``file_path``, and a prompt that the layout did not rebuild."""
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(emit_garbage=0.5), seed=3)
    traces = run_corpus(corpus, backend, base_dir=corpus_dir)
    assert any(not r.instruction for t in traces for r in t.stages)
    for trace in traces:
        obj = dict(trace_to_json(trace), format=3, skipped_parameter_stage=len(trace.stages) == 2)
        for stage, record in zip(obj["stages"], trace.stages):
            if record.instruction:
                stage["prompt"] = record.prompt
            else:  # a stage that made no call stored neither
                del stage["instruction"]
            if record.instruction == "G:el":
                stage["file_path"] = extract_file_path(record.raw_output).path
        assert trace_from_json(json.loads(dump_line(obj))) == _rounded(trace)


def _set_stage(index, key, value):
    return lambda obj: obj["stages"][index].update({key: value})


@pytest.mark.parametrize(
    "fixture, edit, message",
    [
        (FIXTURE_V1, _set_stage(1, "instruction_text", "Name the tool."),
         "name stage instruction text is not one that the pipeline sends"),
        (FIXTURE_V1, _set_stage(1, "prompt", "Name the tool."),
         "name stage prompt is not one that the pipeline sends"),
        (FIXTURE_V1, _set_stage(0, "prompt", "A prompt of its own"),
         "graph stage prompt is not one that the pipeline sends"),
        (FIXTURE_V1, _set_stage(0, "prompt", 5), "graph stage prompt is not one that the pipeline sends"),
        (FIXTURES / "traces_v2.jsonl", _set_stage(1, "instruction_text", "Name the tool."),
         "name stage instruction text is not one that the pipeline sends"),
        (FIXTURES / "traces_v2.jsonl", _set_stage(0, "prompt", "A prompt of its own"),
         "graph stage prompt is not one that the pipeline sends"),
        (FIXTURE_V1, lambda obj: obj.update(stages=[]), "a format-1 trace without stages has no task text"),
    ],
)
def test_old_line_with_a_text_or_prompt_the_pipeline_does_not_send_is_rejected(tmp_path, fixture, edit, message):
    path = _with_line_2_edited(fixture, tmp_path / "traces.jsonl", edit)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_traces(path)
