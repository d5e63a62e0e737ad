"""Corpus and trace files: graphs are stored with one flat ``edges`` array,
corpus lines in format 2 store the id, params, task text, edges and gold
answer, and trace lines in format 4 store instruction keys and the task text
once; the loaders rebuild every record exactly. Each loader reads only what
its writer writes and requires every key that it writes: corpus lines of
format 1 and trace lines of formats 1 to 3 are rejected."""

import dataclasses
import json
import re

import pytest

from graphstage.backends import CompletionConfig, FaultBackend, FaultPlan, HttpBackend, OracleBackend
from graphstage.cli import main
from graphstage.codec import extract_file_path
from graphstage.generator import ALL_KINDS, GenConfig, SizeClass, generate_corpus, parse_instance_id
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
    CORPUS_FORMAT,
    TRACE_FORMAT,
    dump_line,
    graph_from_json,
    graph_to_json,
    instance_from_json,
    load_corpus,
    load_traces,
    trace_from_json,
    trace_to_json,
    write_jsonl,
)
from graphstage.toolset import default_registry

REGISTRY = default_registry()
FAULT_MODES = ("drop_graph_edges", "wrong_tool_name", "swap_parameters", "emit_garbage")


CORPUS_CONFIG = GenConfig(count=2, seed=4, sizes="both")  # one WL and one EL instance of each kind


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--count", "2", "--size", "both", "--seed", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corpus(corpus_dir):
    return load_corpus(corpus_dir / "corpus.jsonl")


@pytest.fixture(scope="module")
def traces_file(corpus, corpus_dir):
    path = corpus_dir / "traces.jsonl"
    write_jsonl(path, map(trace_to_json, run_corpus(corpus, OracleBackend(corpus), base_dir=corpus_dir)))
    return path


def _rounded(trace):
    return dataclasses.replace(
        trace,
        stages=[dataclasses.replace(r, latency_ms=round(r.latency_ms, 3)) for r in trace.stages],
    )


def _assert_round_trips(traces):
    for trace in traces:
        assert trace_from_json(json.loads(dump_line(trace_to_json(trace)))) == _rounded(trace)


def test_corpus_line_stores_six_keys_and_loads_what_was_generated(corpus_dir, corpus):
    lines = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {tuple(line) for line in lines} == {("format", "id", "params", "task_text", "edges", "gold_answer")}
    assert {line["format"] for line in lines} == {CORPUS_FORMAT}
    assert {(i.kind, i.size_class) for i in corpus} == {(k, s) for k in ALL_KINDS for s in SizeClass}
    assert corpus == list(generate_corpus(CORPUS_CONFIG))


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


def test_unknown_instruction_key_names_the_key_file_and_line(tmp_path, corpus):
    (trace,) = run_corpus(corpus[:1], OracleBackend(corpus))
    good = trace_to_json(trace)
    bad = json.loads(dump_line(good))
    bad["stages"][0]["instruction"] = "G:xl"
    path = tmp_path / "traces.jsonl"
    path.write_text(dump_line(good) + "\n\n" + dump_line(bad) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: unknown instruction key 'G:xl'$"):
        load_traces(path)


@pytest.mark.parametrize("load", [load_traces, load_corpus])
@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "null"])
def test_line_that_is_not_an_object_names_file_and_line(tmp_path, load, line):
    path = tmp_path / "lines.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: ')}"):
        load(path)


def test_unknown_trace_format_is_rejected(corpus):
    (trace,) = run_corpus(corpus[:1], OracleBackend(corpus))
    obj = dict(trace_to_json(trace), format=TRACE_FORMAT + 1)
    with pytest.raises(ValueError, match=f"unknown trace format {TRACE_FORMAT + 1}"):
        trace_from_json(obj)


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
    if rows:  # rows, as older files held them, are not read
        with pytest.raises(ValueError, match=re.escape(f"edges must be a flat integer array, found {list(rows[0])}")):
            graph_from_json(dict(obj, edges=[list(row) for row in rows]))


@pytest.mark.parametrize("bad", [[2], "x", None, {"u": 2}])
def test_a_non_integer_anywhere_in_a_flat_edge_array_is_named(bad):
    obj = {"directed": False, "node_count": 4, "weight_kind": "none", "edges": [0, 1, bad, 3]}
    with pytest.raises(ValueError, match=f"^{re.escape(f'edges must be a flat integer array, found {bad!r}')}$"):
        graph_from_json(obj)


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
        (lambda o: o.pop("edges"), "missing key 'edges'"),
        (lambda o: o.update(format=3), "unknown corpus format 3"),
        (lambda o: o.update(id="edge_count-x-wl-00001"), "malformed instance id 'edge_count-x-wl-00001'"),
        (lambda o: o.update(id="edge_count-d-wl-1"), "malformed instance id 'edge_count-d-wl-1'"),
        (lambda o: o.update(id="topological_sort-u-wl-00000"),
         "malformed instance id 'topological_sort-u-wl-00000'"),
        (lambda o: o.update(id="nope-d-wl-00000"), "malformed instance id 'nope-d-wl-00000'"),
        (lambda o: o.update(id=7), "malformed instance id 7"),
        (lambda o: o.update(edges=[]), "a corpus graph has at least one edge, got none"),
        (lambda o: o.update(edges=[[0, 1], 7]), "edges must be a flat integer array, found [0, 1]"),
        (lambda o: o.update(edges=[0, 1, [2], 3]), "edges must be a flat integer array, found [2]"),
        (lambda o: o.update(edges=7), "edges must be an array, got int"),
        (lambda o: o["edges"].pop(), "flat edge array of a {k} graph holds {n} values, not a multiple of {w}"),
        (lambda o: o.update(edges=[0, -1]), "edge (0, -1) references a node outside 0..inf"),
        (lambda o: o.update(params=None), "'NoneType' object is not iterable"),
    ],
)
def test_malformed_corpus_line_names_file_and_line(corpus_dir, tmp_path, edit, message):
    path = _with_line_2_edited(corpus_dir / "corpus.jsonl", tmp_path / "corpus.jsonl", edit)
    line = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    if "{n}" in message:
        kind = parse_instance_id(line["id"])[0].weight_kind.value
        message = message.format(k=kind, n=len(line["edges"]), w=2 if kind == "none" else 3)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_corpus(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.pop("tool_error"), "missing key 'tool_error'"),
        (lambda o: o.update(task_text=None), "task_text must be a string, got NoneType"),
        (lambda o: o["stages"][0].pop("instruction"), "missing key 'instruction'"),
        (lambda o: o["stages"][1].update(parsed={"kind": "path", "path": "graphs/x.edges"}),
         "unknown parsed kind 'path'"),
        (lambda o: o["stages"][0].update(parsed={"kind": "graph", "graph": {
            "directed": False, "node_count": 4, "weight_kind": "none", "edges": [0, 1, [2], 3]}}),
         "edges must be a flat integer array, found [2]"),
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


def _nest_edges(graph):
    """``graph``'s flat ``edges`` as the ``[u, v(, w)]`` rows that older files held."""
    width = 2 if graph["weight_kind"] == "none" else 3
    flat = graph["edges"]
    graph["edges"] = [flat[i:i + width] for i in range(0, len(flat), width)]


def _as_format(version):
    """An edit of a format-4 trace line into the line that format ``version``
    wrote for the same trace: format 1 stored each stage's instruction text
    and prompt instead of a key, and no task text; formats 1 to 3 stored
    ``skipped_parameter_stage`` and an EL graph stage's ``file_path``; and
    format 2 stored a parsed graph's edges as rows."""
    def edit(obj):
        trace = trace_from_json(dict(obj))
        obj.update(format=version, skipped_parameter_stage=trace.stage(StageKind.PARAMS) is None)
        for stage, record in zip(obj["stages"], trace.stages):
            if record.instruction == "G:el":
                stage["file_path"] = extract_file_path(record.raw_output).path
            if version == 1:
                del stage["instruction"]
                stage.update(instruction_text=record.instruction_text, prompt=record.prompt)
            if version == 2 and stage["parsed"]["kind"] == "graph":
                _nest_edges(stage["parsed"]["graph"])
        if version == 1:
            del obj["format"], obj["task_text"]
    return edit


def _as_corpus_format_1(obj):
    """An edit of a format-2 corpus line into the line that format 1 wrote
    for the same instance: no ``format`` key, and the kind, size class,
    description variant, graph file and the graph's other fields stored."""
    inst = instance_from_json(dict(obj))
    del obj["format"], obj["edges"]
    obj.update(
        kind={"tool": inst.kind.tool, "directed": inst.kind.directed},
        graph=graph_to_json(inst.graph),
        description_variant=inst.description_variant,
        size_class=inst.size_class.value,
        graph_file=inst.graph_file,
    )


@pytest.mark.parametrize(
    "artifact, edit, message",
    [
        ("traces", _as_format(1), "unknown trace format 1"),
        ("traces", _as_format(2), "unknown trace format 2"),
        ("traces", _as_format(3), "unknown trace format 3"),
        ("corpus", _as_corpus_format_1, "unknown corpus format 1"),
    ],
)
def test_line_of_an_older_format_is_rejected(corpus_dir, traces_file, tmp_path, artifact, edit, message):
    source = traces_file if artifact == "traces" else corpus_dir / "corpus.jsonl"
    path = _with_line_2_edited(source, tmp_path / source.name, edit)
    line_2 = [p.read_text(encoding="utf-8").splitlines()[1] for p in (source, path)]
    assert line_2[0] != line_2[1]
    load = load_traces if artifact == "traces" else load_corpus
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load(path)

