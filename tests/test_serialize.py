"""Corpus and trace files: graphs are stored with one flat ``edges`` array,
corpus lines in format 2 store the id, params, task text, edges and gold
answer, and trace lines in format 5 store instruction keys, replies and the
task text once; the loaders rebuild every record exactly, replaying each
trace line through the pipeline's own stages. Each loader requires every key
that its writer writes: corpus lines of format 1 and trace lines of formats 1
to 4 are rejected."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from graphstage.backends import CompletionConfig, FaultBackend, FaultPlan, HttpBackend, OracleBackend
from graphstage.cli import main
from graphstage.codec import ExtractionResult, extract_file_path
from graphstage.dataset import build_dataset
from graphstage.evaluation import evaluate_traces
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
    edges_to_json,
    graph_from_edges,
    instance_from_json,
    load_corpus,
    load_traces,
    read_jsonl,
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
        assert trace_to_json(trace)["stages"][2]["instruction"] == ""
    _assert_round_trips(t for t, _ in uncalled)


def test_backend_error_traces_round_trip(corpus):
    config = CompletionConfig(endpoint="http://127.0.0.1:1/v1/chat/completions", retry_count=0)
    traces = run_corpus(corpus[:4], HttpBackend(config))
    assert all(r.parsed.reason.startswith("backend error: ") for t in traces for r in t.stages)
    for trace in traces:
        for stage, record in zip(trace_to_json(trace)["stages"], trace.stages):
            assert stage["error"] == record.parsed.reason[len("backend error: "):]
            assert list(stage) == ["instruction", "raw_output", "latency_ms", "error"]
    _assert_round_trips(traces)


def test_trace_line_stores_only_what_the_loader_cannot_rebuild(corpus, corpus_dir, tmp_path):
    # half the replies are garbage; the graph file of one EL instance is gone
    missing = next(i for i in corpus if i.size_class is SizeClass.EL)
    base = tmp_path / "corpus"
    (base / "graphs").mkdir(parents=True)
    for inst in corpus:
        if inst.graph_file and inst is not missing:
            (base / inst.graph_file).write_bytes((corpus_dir / inst.graph_file).read_bytes())
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(emit_garbage=0.5), seed=3)
    traces = run_corpus(corpus, backend, base_dir=base)
    assert {len(t.stages) for t in traces} == {2, 3}
    files = []
    for trace in traces:
        obj = json.loads(dump_line(trace_to_json(trace)))
        assert list(obj) == ["format", "instance_id", "task_text", "stages", "tool_result", "tool_error"]
        for stage, record in zip(obj["stages"], trace.stages):
            read = record.instruction == "G:el" and (record.parsed.ok or record.parsed.reason.startswith("file read: "))
            assert list(stage) == ["instruction", "raw_output", "latency_ms", *["file"] * read]
            if read:
                files.append(stage["file"])
                graph = record.parsed.graph
                assert stage["file"] == (
                    {"directed": graph.directed, "edges": edges_to_json(graph)} if graph
                    else {"error": record.parsed.reason[len("file read: "):]}
                )
    assert {tuple(f) for f in files} == {("directed", "edges"), ("error",)}
    _assert_round_trips(traces)


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
    message = _keys_differ(["G:xl", "N"], ["G:wl", "N"])
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
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
    g = build_graph(True, None, rows, kind)
    edges = json.loads(json.dumps(edges_to_json(g)))
    assert edges == [x for row in rows for x in row]
    assert graph_from_edges(edges, True, kind) == g
    if rows:  # rows, as older files held them, are not read
        with pytest.raises(ValueError, match=re.escape(f"edges must be a flat integer array, found {list(rows[0])}")):
            graph_from_edges([list(row) for row in rows], True, kind)


@pytest.mark.parametrize(
    "edges, bad",
    [
        *(([0, 1, bad, 3], bad) for bad in ([2], "x", None, {"u": 2}, 2.5)),
        ([True, 2], True),
        (["3", 1], "3"),
        ([0, 1, 2, 3.0], 3.0),
        ([0, 1.5, 2.5, 3], 1.5),  # the first in the array, not in its column
        ([0, -1, 2.5, 3], 2.5),  # a value before an edge that fails
        ([0, 1, 2.5], 2.5),  # and before a length that is not a whole number of edges
    ],
)
def test_a_non_integer_anywhere_in_a_flat_edge_array_is_named(edges, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'edges must be a flat integer array, found {bad!r}')}$"):
        graph_from_edges(edges, False, WeightKind.NONE)


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
        (lambda o: o.update(edges=[0, 1, 2.5, 3]), "edges must be a flat integer array, found 2.5"),
        (lambda o: o.update(edges=[True, 2]), "edges must be a flat integer array, found True"),
        (lambda o: o.update(edges=["3", 1]), "edges must be a flat integer array, found '3'"),
        (lambda o: o.update(edges=[0, 1, 2, 3.0]), "edges must be a flat integer array, found 3.0"),
        (lambda o: o.update(edges=[0, -1]), "edge (0, -1) references a node outside 0..inf"),
        (lambda o: o.update(params=None), "cycle_detection takes 0 integer parameters, got None"),
        (lambda o: o.update(params=[1]), "cycle_detection takes 0 integer parameters, got [1]"),
        *((lambda o, p=params: o.update(id="degree_count-u-wl-00000", params=p),
           f"degree_count takes 1 integer parameter, got {params!r}")
          for params in (["7"], [7.5], [True], [7, 7], [], 7)),
        (lambda o: o.update(id="shortest_path-u-wl-00000", params=[1]),
         "shortest_path takes 2 integer parameters, got [1]"),
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


def _as_degree_count(name_reply, key, raw):
    """An edit that makes line 2 a degree_count trace whose name stage replied
    ``name_reply`` and whose parameter stage sent ``key`` and got ``raw``."""

    def edit(obj):
        obj.update(instance_id="degree_count-u-el-00001")
        obj["stages"][1]["raw_output"] = name_reply
        obj["stages"].append({"instruction": key, "raw_output": raw, "latency_ms": 0.0})

    return edit


def _keys_differ(stored, sent):
    return f"the stages store the instruction keys {stored!r}, but on these replies the pipeline sends {sent!r}"


def _with_parameter_stage(change):
    """An edit that makes line 2 a degree_count trace whose parameter stage
    was sent, then applies ``change`` to that stage."""

    def edit(obj):
        _as_degree_count("API_name: degree_count", "P:degree_count", "node=0")(obj)
        change(obj["stages"][2])

    return edit


_STAGE_TRAPS = (
    (lambda s: s.pop("raw_output"), "missing key 'raw_output'"),
    (lambda s: s.pop("latency_ms"), "missing key 'latency_ms'"),
    (lambda s: s.update(raw_output=None), "raw_output must be a string, got NoneType"),
    (lambda s: s.update(error=None), "error must be a string, got NoneType"),
    (lambda s: s.update(error=["refused"]), "error must be a string, got list"),
    (lambda s: s.update(latency_ms="abc"), "latency_ms must be a finite number, got 'abc'"),
    (lambda s: s.update(latency_ms=None), "latency_ms must be a finite number, got None"),
    (lambda s: s.update(latency_ms=[1]), "latency_ms must be a finite number, got [1]"),
    (lambda s: s.update(latency_ms=True), "latency_ms must be a finite number, got True"),
    (lambda s: s.update(latency_ms=float("inf")), "latency_ms must be a finite number, got inf"),
)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.pop("tool_error"), "missing key 'tool_error'"),
        (lambda o: o.update(tool_error=5), "tool_error must be a string or null, got int"),
        (lambda o: o.update(tool_error=["x"]), "tool_error must be a string or null, got list"),
        (lambda o: o.update(task_text=None), "task_text must be a string, got NoneType"),
        (lambda o: o["stages"][0].pop("instruction"), "missing key 'instruction'"),
        (lambda o: o["stages"][1].pop("raw_output"), "missing key 'raw_output'"),
        (lambda o: o.update(instance_id="nope-u-wl-00000"), "malformed instance id 'nope-u-wl-00000'"),
        # line 2 is an EL instance: its graph stage stores what reading the file gave
        (lambda o: o["stages"][0].pop("file"), "missing key 'file'"),
        (lambda o: o["stages"][0]["file"].pop("edges"), "missing key 'edges'"),
        (lambda o: o["stages"][0]["file"].update(edges=[0, 1, [2], 3]),
         "edges must be a flat integer array, found [2]"),
        (lambda o: o["stages"][0]["file"].update(edges=[0, 1, 2.5, 3]),
         "edges must be a flat integer array, found 2.5"),
        (lambda o: o["stages"][0]["file"].update(directed=1), "directed must be true or false, got 1"),
        (lambda o: o["stages"][0].update(file={"error": 5}), "file error must be a string, got int"),
        (lambda o: o["stages"][0].update(file=5), "file must be an object, got int"),
        (lambda o: o["stages"][0].update(file=[]), "file must be an object, got list"),
        # one rule for every stage: the stored keys are the ones that the
        # pipeline sends when it is given the stored replies
        (lambda o: o["stages"].pop(), _keys_differ(["G:el"], ["G:el", "N"])),
        (lambda o: o["stages"].append(dict(o["stages"][1], instruction="")),
         _keys_differ(["G:el", "N", ""], ["G:el", "N"])),
        (lambda o: o["stages"].reverse(), _keys_differ(["N", "G:el"], ["G:el", "N"])),
        (_as_degree_count("API_name: degree_count", "", ""),
         _keys_differ(["G:el", "N", ""], ["G:el", "N", "P:degree_count"])),
        (_as_degree_count("API_name: shortest_path", "P:degree_count", "node=0"),
         _keys_differ(["G:el", "N", "P:degree_count"], ["G:el", "N", "P:shortest_path"])),
        (_as_degree_count("API_name: cycle_detection", "P:degree_count", "node=0"),
         _keys_differ(["G:el", "N", "P:degree_count"], ["G:el", "N", ""])),
        # a stored field that the replay's complete would read fails the line,
        # on every stage, rather than loading as a backend error
        *(pytest.param(edit, message, id=f"{stage} stage: {message}")
          for change, message in _STAGE_TRAPS for stage, edit in (
              ("graph", lambda o, c=change: c(o["stages"][0])),
              ("name", lambda o, c=change: c(o["stages"][1])),
              ("parameter", _with_parameter_stage(change)),
          )),
    ],
)
def test_malformed_trace_line_names_file_and_line(corpus, corpus_dir, tmp_path, edit, message):
    traces = run_corpus(corpus[:2], OracleBackend(corpus), base_dir=corpus_dir)
    lines = [trace_to_json(t) for t in traces]
    edit(lines[1])
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(dump_line(obj) + "\n" for obj in lines), encoding="utf-8")
    for known in (None, corpus):  # the corpus changes no message
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_traces(path, known)


def _loaded(path, corpus=None):
    """The traces of the file ``path``, or the message its load fails with."""
    try:
        return load_traces(path, corpus)
    except ValueError as exc:
        return str(exc)


def test_traces_load_the_same_with_and_without_their_corpus(corpus, corpus_dir, traces_file, tmp_path):
    faults = tmp_path / "faults.jsonl"
    backend = FaultBackend(OracleBackend(corpus), FaultPlan(0.2, 0.2, 0.2, 0.2), seed=5)
    write_jsonl(faults, map(trace_to_json, run_corpus(corpus, backend, base_dir=corpus_dir)))
    # the frozen format-5 file ran on this corpus too
    for path in (traces_file, faults, FORMAT_5_FILE):
        assert load_traces(path, corpus) == load_traces(path)
    assert load_traces(traces_file, corpus[::2]) == load_traces(traces_file)  # no EL instance known


def _el_graphs(traces):
    """The graph that each EL graph stage of ``traces`` read, by instance id."""
    return {t.instance_id: t.stages[0].parsed.graph for t in traces if t.stages[0].instruction == "G:el"}


def test_an_el_file_record_of_its_instance_graph_loads_as_that_graph(corpus, traces_file):
    gold = {inst.id: inst.graph for inst in corpus}
    read = _el_graphs(load_traces(traces_file, corpus))
    assert len(read) == len(corpus) // 2
    assert all(graph is gold[ident] for ident, graph in read.items())
    # without the corpus, or with one that lacks the EL instances, each is built again
    for known in (None, corpus[::2]):
        rebuilt = _el_graphs(load_traces(traces_file, known))
        assert rebuilt == read
        assert not any(graph is gold[ident] for ident, graph in rebuilt.items())


def _swap_first_edge(file):  # as many values, of the same types: one edge reversed
    edges = file["edges"]
    edges[0], edges[1] = edges[1], edges[0]


def _flip_direction(file):
    file["directed"] = not file["directed"]


def _first_as_float(file):  # equal to an int, but not one
    file["edges"][0] = float(file["edges"][0])


def _first_0_or_1_as_bool(file):
    edges = file["edges"]
    at = next(n for n, value in enumerate(edges) if value in (0, 1))
    edges[at] = bool(edges[at])


@pytest.mark.parametrize("change", [_swap_first_edge, _flip_direction, _first_as_float, _first_0_or_1_as_bool])
def test_a_file_record_other_than_its_instance_graph_is_validated(corpus, traces_file, tmp_path, change):
    path = _with_line_2_edited(traces_file, tmp_path / "traces.jsonl", lambda o: change(o["stages"][0]["file"]))
    line = list(read_jsonl(path))[1]
    instance = corpus[1]
    assert line["instance_id"] == instance.id and instance.graph_file
    file = line["stages"][0]["file"]
    loaded = _loaded(path, corpus)
    assert loaded == _loaded(path)
    try:
        want = graph_from_edges(file["edges"], file["directed"], instance.kind.weight_kind)
    except ValueError as exc:
        assert loaded == f"{path}:2: {exc}"
    else:
        assert loaded[1].stages[0].parsed.graph == want != instance.graph


@pytest.mark.parametrize("artifact", ["traces", "corpus"])
@pytest.mark.parametrize(
    "answer, message",
    [
        ({"kind": "value", "value": float("inf")}, "a value answer holds an integer, got inf"),
        ({"kind": "count", "value": 2.5}, "a count answer holds an integer, got 2.5"),
        ({"kind": "count", "value": "3"}, "a count answer holds an integer, got '3'"),
        ({"kind": "count", "value": True}, "a count answer holds an integer, got True"),
        ({"kind": "bool", "value": "no"}, "a bool answer holds true or false, got 'no'"),
        ({"kind": "bool", "value": 1}, "a bool answer holds true or false, got 1"),
        ({"kind": "node_seq", "value": [1.9, True]}, "a node_seq answer holds an array of integers, got [1.9, True]"),
        ({"kind": "node_seq", "value": {"0": 1}}, "a node_seq answer holds an array of integers, got {'0': 1}"),
    ],
)
def test_a_stored_answer_of_another_type_names_file_and_line(corpus_dir, traces_file, tmp_path, artifact, answer,
                                                            message):
    source, key = (traces_file, "tool_result") if artifact == "traces" else (corpus_dir / "corpus.jsonl", "gold_answer")
    path = _with_line_2_edited(source, tmp_path / source.name, lambda o: o.update({key: answer}))
    load = load_traces if artifact == "traces" else load_corpus
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load(path)


def _nest_edges(graph):
    """``graph``'s flat ``edges`` as the ``[u, v(, w)]`` rows that older files held."""
    width = 2 if graph["weight_kind"] == "none" else 3
    flat = graph["edges"]
    graph["edges"] = [flat[i:i + width] for i in range(0, len(flat), width)]


def _parsed_to_json(res):
    """A stage's parse as format 4 stored it."""
    if res.graph:
        g = res.graph
        graph = {"directed": g.directed, "node_count": g.node_count, "weight_kind": g.weight_kind.value}
        return {"kind": "graph", "graph": dict(graph, edges=edges_to_json(g))}
    if res.name is not None:
        return {"kind": "name", "name": res.name}
    if res.params is not None:
        return {"kind": "params", "params": list(res.params)}
    return {"kind": "failure", "reason": res.reason}


def _format_4_line(trace):
    """The line that format 4 wrote for ``trace``: each stage also stored its
    stage name and its parse, and no backend error or file record."""
    stages = [
        {"stage": r.stage.value, "instruction": r.instruction, "raw_output": r.raw_output,
         "parsed": _parsed_to_json(r.parsed), "latency_ms": round(r.latency_ms, 3)}
        for r in trace.stages
    ]
    return dict(trace_to_json(trace), format=4, stages=stages)


def _as_format(version):
    """An edit of a format-5 trace line into the line that format ``version``
    wrote for the same trace: format 4 is :func:`_format_4_line`; format 1
    stored each stage's instruction text and prompt instead of a key, and no
    task text; formats 1 to 3 stored ``skipped_parameter_stage`` and an EL
    graph stage's ``file_path``; and format 2 stored a parsed graph's edges as
    rows."""
    def edit(obj):
        trace = trace_from_json(dict(obj))
        obj.update(_format_4_line(trace))
        if version == 4:
            return
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
    graph = {"directed": inst.graph.directed, "node_count": inst.graph.node_count,
             "weight_kind": inst.graph.weight_kind.value, "edges": obj.pop("edges")}
    del obj["format"]
    obj.update(
        kind={"tool": inst.kind.tool, "directed": inst.kind.directed},
        graph=graph,
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
        ("traces", _as_format(4), "unknown trace format 4"),
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



# written by the format-4 writer (the release before format 5) over a corpus
# of `generate --count 2 --size both --seed 4`, then loaded and written again
# as format 5: WL stages of all three weight kinds, fault-injected replies, an
# EL graph read, a missing EL graph file, a path outside the corpus directory,
# a reply without a path, backend errors, and every reason for a parameter
# stage that made no call
FORMAT_5_FILE = Path(__file__).parent / "fixtures" / "traces-format-5.jsonl"


def test_frozen_format_5_file_loads_and_dumps_byte_for_byte():
    lines = FORMAT_5_FILE.read_text(encoding="utf-8").splitlines()
    traces = load_traces(FORMAT_5_FILE)
    assert len(traces) == len(lines) == 25
    assert [dump_line(trace_to_json(t)) for t in traces] == lines
    reasons = {r.parsed.reason.split(":")[0] for t in traces for r in t.stages if not r.parsed.ok}
    assert {"backend error", "file read", "file path escapes the corpus directory", "no file path token",
            "no edge matches", "tool template unavailable", "tool template for 'edge_count' takes no parameters",
            "arity"} <= reasons
    stored = [stage for line in map(json.loads, lines) for stage in line["stages"]]
    assert sum("error" in stage for stage in stored) == 2
    assert sum("file" in stage for stage in stored) == 2


def test_edited_reply_is_what_a_format_5_line_loads_scores_and_exports(corpus, corpus_dir):
    traces = run_corpus(corpus, OracleBackend(corpus), base_dir=corpus_dir)
    # a kind without parameters, so that naming another such tool sends no parameter stage either
    index, trace = next(
        (n, t) for n, t in enumerate(traces) if not t.stages[0].parsed.graph.weighted and not corpus[n].kind.parametric
    )
    line = trace_to_json(trace)
    other = next(k.tool for k in ALL_KINDS if k.tool != corpus[index].kind.tool and not k.parametric)
    line["stages"][1]["raw_output"] = f"API_name: {other}"
    edited = trace_from_json(line)
    assert edited.stages[1].parsed == ExtractionResult(name=other)
    (record,) = evaluate_traces([edited], [corpus[index]])
    assert record["category"] == "NameMismatch"
    entries, stats = build_dataset([*traces[:index], edited, *traces[index + 1:]], corpus)
    assert stats["retained_instances"] == len(corpus) - 1
    assert corpus[index].task_text not in {e["input"] for e in entries}
