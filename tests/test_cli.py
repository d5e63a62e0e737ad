import gc
import importlib.util
import json
import re
import shlex
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from graphstage.backends import CompletionConfig, FaultPlan, OracleBackend
from graphstage.cli import FLAG_SCOPE, _check_scope, _flags, build_parser, main
from graphstage.generator import GenConfig, SizeClass, parse_instance_id
from graphstage.serialize import load_corpus, read_jsonl


def run_cli(*argv):
    return main(list(argv))


def test_generate_arithmetic(tmp_path):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "all", "--count", "10", "--seed", "7", "--out", str(out)) == 0
    corpus = load_corpus(out / "corpus.jsonl")
    assert len(corpus) == 200  # 10 instances for each of the 20 kinds


def test_generate_selected_tool_expands_directions(tmp_path):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "cycle_detection", "--count", "3", "--out", str(out)) == 0
    corpus = load_corpus(out / "corpus.jsonl")
    assert {i.kind.label for i in corpus} == {
        "cycle_detection:directed",
        "cycle_detection:undirected",
    }


def test_generate_writes_el_graph_files(tmp_path):
    out = tmp_path / "d"
    assert run_cli(
        "generate", "--tasks", "edge_count:directed", "--count", "2", "--size", "el",
        "--out", str(out),
    ) == 0
    corpus = load_corpus(out / "corpus.jsonl")
    for inst in corpus:
        assert (out / inst.graph_file).exists()


def test_unknown_task_is_usage_error(tmp_path):
    assert run_cli("generate", "--tasks", "nope", "--out", str(tmp_path)) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("frobnicate") == 2


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "graphstage" in capsys.readouterr().out


def test_full_oracle_loop_reports_100(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "all", "--count", "2", "--seed", "3", "--out", str(out)) == 0
    assert run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "oracle",
        "--out", str(out / "traces.jsonl"), "--workers", "4",
    ) == 0
    assert run_cli(
        "build-dataset", "--traces", str(out / "traces.jsonl"),
        "--corpus", str(out / "corpus.jsonl"),
        "--out", str(out / "alpaca.json"), "--stats", str(out / "stats.json"),
    ) == 0
    assert run_cli(
        "evaluate", "--traces", str(out / "traces.jsonl"),
        "--corpus", str(out / "corpus.jsonl"), "--out", str(out / "eval"),
    ) == 0
    assert run_cli("report", "--in", str(out / "eval"), "--format", "md") == 0
    rendered = capsys.readouterr().out
    assert "| Overall | wl |" in rendered

    stats = json.loads((out / "stats.json").read_text())
    assert stats["retained_fraction"] == 1.0
    report = json.loads((out / "eval" / "report.json").read_text())
    assert report["overall"]["wl"]["answer_acc"] == 100.0
    assert (out / "eval" / "records.jsonl").exists()
    assert (out / "eval" / "report.txt").exists()


def test_fault_run_writes_labels_and_lowers_retention(tmp_path):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "all", "--count", "4", "--seed", "5", "--out", str(out)) == 0
    assert run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "fault",
        "--fault-drop", "0.5", "--fault-garbage", "0.3", "--seed", "11",
        "--fault-labels", str(out / "labels.json"),
        "--out", str(out / "traces.jsonl"),
    ) == 0
    labels = json.loads((out / "labels.json").read_text())
    assert labels  # some corruption happened
    assert run_cli(
        "build-dataset", "--traces", str(out / "traces.jsonl"),
        "--corpus", str(out / "corpus.jsonl"),
        "--out", str(out / "alpaca.json"), "--stats", str(out / "stats.json"),
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["retained_instances"] < stats["traces"]


def test_fill_quota_reaches_target(tmp_path):
    out = tmp_path / "d"
    quota = 3
    assert run_cli("generate", "--tasks", "degree_count", "--count", "4", "--seed", "2", "--out", str(out)) == 0
    assert run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "fault",
        "--fault-name", "0.6", "--seed", "4",
        "--out", str(out / "traces.jsonl"),
    ) == 0
    assert run_cli(
        "build-dataset", "--traces", str(out / "traces.jsonl"),
        "--corpus", str(out / "corpus.jsonl"),
        "--out", str(out / "alpaca.json"), "--stats", str(out / "stats.json"),
        "--fill-quota", str(quota), "--seed", "2",
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    for kind_stats in stats["per_kind"].values():
        assert kind_stats["retained"] >= quota


def test_fill_quota_reaches_target_with_el_instances(tmp_path):
    out = tmp_path / "d"
    quota = 3
    assert run_cli(
        "generate", "--tasks", "degree_count:directed", "--count", "4", "--size", "el",
        "--seed", "2", "--out", str(out),
    ) == 0
    assert run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "fault",
        "--fault-garbage", "1.0", "--seed", "4", "--out", str(out / "traces.jsonl"),
    ) == 0
    assert run_cli(
        "build-dataset", "--traces", str(out / "traces.jsonl"),
        "--corpus", str(out / "corpus.jsonl"),
        "--out", str(out / "alpaca.json"), "--stats", str(out / "stats.json"),
        "--fill-quota", str(quota), "--size", "el", "--seed", "2",
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["per_kind"]["degree_count:directed"]["retained"] >= quota
    # every retained instance is a fresh EL one whose graph file was written
    inputs = {entry["input"] for entry in json.loads((out / "alpaca.json").read_text())}
    assert len(inputs) == stats["retained_instances"]
    for text in inputs:
        path = text.split("graphs/", 1)[1].split(".edges", 1)[0]
        assert "-el-" in path
        assert (out / "graphs" / f"{path}.edges").exists()


def test_fill_quota_with_both_sizes_alternates_size(tmp_path):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "node_count:directed", "--count", "2", "--out", str(out)) == 0
    assert run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "fault",
        "--fault-garbage", "1.0", "--out", str(out / "traces.jsonl"),
    ) == 0
    assert run_cli(
        "build-dataset", "--traces", str(out / "traces.jsonl"),
        "--corpus", str(out / "corpus.jsonl"), "--out", str(out / "alpaca.json"),
        "--stats", str(out / "stats.json"), "--fill-quota", "4", "--size", "both",
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["per_kind"]["node_count:directed"]["retained"] == 4
    inputs = [entry["input"] for entry in json.loads((out / "alpaca.json").read_text())]
    file_backed = {text for text in inputs if ".edges" in text}
    assert len(file_backed) == 2  # plan indexes 3 and 5 of fresh indexes 2..5
    fresh = sorted(parse_instance_id(path.stem) for path in (out / "graphs").glob("*.edges"))
    assert [(kind.label, size, index) for kind, size, index, *_ in fresh] == [
        ("node_count:directed", SizeClass.EL, 3), ("node_count:directed", SizeClass.EL, 5)]


def test_run_http_without_endpoint_is_usage_error(tmp_path):
    out = tmp_path / "d"
    run_cli("generate", "--tasks", "node_count:directed", "--count", "1", "--out", str(out))
    code = run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", "http",
        "--out", str(out / "traces.jsonl"),
    )
    assert code == 2


def _traces_without_latency(path):
    traces = list(read_jsonl(path))
    for trace in traces:
        for stage in trace["stages"]:
            del stage["latency_ms"]
    return traces


def test_in_process_backends_run_serially_whatever_the_workers(tmp_path, monkeypatch):
    out = tmp_path / "d"
    assert run_cli("generate", "--count", "2", "--size", "both", "--seed", "6", "--out", str(out)) == 0
    threads = set()
    gold_output = OracleBackend.gold_output

    def recording_gold_output(self, instance, stage):
        threads.add(threading.current_thread())
        return gold_output(self, instance, stage)

    monkeypatch.setattr(OracleBackend, "gold_output", recording_gold_output)
    for backend in (["oracle"], ["fault", "--fault-drop", "0.4", "--fault-swap", "0.4", "--seed", "8"]):
        traces = {}
        for workers in ("1", "4"):
            path = out / f"traces-{backend[0]}-{workers}.jsonl"
            assert run_cli(
                "run", "--corpus", str(out / "corpus.jsonl"), "--backend", *backend,
                "--workers", workers, "--out", str(path),
            ) == 0
            traces[workers] = _traces_without_latency(path)
        assert traces["4"] == traces["1"]
    assert threads == {threading.current_thread()}


def test_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path):
    """Every command leaves the same cyclic garbage (argparse's) at N and 4N
    instances, so pausing the collector for a command cannot grow memory."""

    def garbage_left(*argv):
        gc.collect()
        gc.disable()
        try:
            assert run_cli(*argv) == 0
        finally:
            found = gc.collect()
            gc.enable()
        return found

    def per_command(count):
        out = tmp_path / f"n{count}"
        corpus = str(out / "corpus.jsonl")
        faults = ["--fault-drop", "0.3", "--fault-name", "0.3", "--fault-garbage", "0.3", "--seed", "5"]
        closed = "http://127.0.0.1:1/v1/chat/completions"
        return {
            "generate": garbage_left(
                "generate", "--count", str(count), "--size", "both", "--seed", "3", "--out", str(out)
            ),
            "run oracle": garbage_left(
                "run", "--corpus", corpus, "--backend", "oracle", "--out", str(out / "oracle.jsonl")
            ),
            "run fault": garbage_left(
                "run", "--corpus", corpus, "--backend", "fault", *faults,
                "--fault-labels", str(out / "labels.json"), "--out", str(out / "fault.jsonl"),
            ),
            "run http": garbage_left(
                "run", "--corpus", corpus, "--backend", "http", "--endpoint", closed,
                "--retries", "0", "--out", str(out / "http.jsonl"),
            ),
            "build-dataset": garbage_left(
                "build-dataset", "--traces", str(out / "fault.jsonl"), "--corpus", corpus,
                "--out", str(out / "alpaca.json"), "--fill-quota", str(count), "--size", "both",
                "--seed", "3",
            ),
            "evaluate": garbage_left(
                "evaluate", "--traces", str(out / "fault.jsonl"), "--corpus", corpus,
                "--out", str(out / "eval"),
            ),
        }

    assert per_command(4) == per_command(1)


@pytest.mark.parametrize("backend", [["oracle"], ["http", "--endpoint", "http://127.0.0.1:1/v1"]])
@pytest.mark.parametrize(
    "fault_flag",
    [["--fault-drop", "0.5"], ["--fault-drop", "0"], ["--fault-labels", "labels.json"],
     ["--seed", "5"], ["--seed", "0"]],
)
def test_fault_flags_need_the_fault_backend(tmp_path, capsys, backend, fault_flag):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "2", "--out", str(out)) == 0
    fault_flag = [str(out / a) if a.endswith(".json") else a for a in fault_flag]
    code = run_cli(
        "run", "--corpus", str(out / "corpus.jsonl"), "--backend", *backend, *fault_flag,
        "--out", str(out / "traces.jsonl"),
    )
    assert code == 2
    assert f"{fault_flag[0]} is read only with --backend fault, not --backend {backend[0]}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "corpus.sha256"]


def test_generate_reports_the_instances_it_wrote(tmp_path, capsys):
    assert run_cli("generate", "--count", "2", "--size", "both", "--seed", "3", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == f"wrote 40 instances to {tmp_path / 'corpus.jsonl'}\n"
    assert len((tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()) == 40


@pytest.mark.parametrize("backend", [["oracle"], ["fault", "--fault-garbage", "0.5", "--seed", "2"]])
def test_run_reports_the_traces_it_wrote(tmp_path, capsys, backend):
    assert run_cli("generate", "--count", "2", "--size", "both", "--seed", "3", "--out", str(tmp_path)) == 0
    traces = tmp_path / "traces.jsonl"
    capsys.readouterr()
    assert run_cli("run", "--corpus", str(tmp_path / "corpus.jsonl"), "--backend", *backend, "--out", str(traces)) == 0
    assert capsys.readouterr().out == f"wrote 40 traces to {traces}\n"
    assert len(traces.read_text(encoding="utf-8").splitlines()) == 40


def test_truncated_corpus_line_is_reported_with_file_and_line(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "4", "--out", str(out)) == 0
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:60] + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert run_cli("run", "--corpus", str(corpus), "--out", str(out / "traces.jsonl")) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}:3: Unterminated string")


@pytest.mark.parametrize(
    "backend",
    [
        ["http", "--endpoint", "http://127.0.0.1:1/v1", "--top-p", "7"],
        ["fault", "--fault-drop", "2"],
        ["http"],
    ],
)
def test_run_checks_backend_settings_before_reading_the_corpus(tmp_path, capsys, monkeypatch, backend):
    monkeypatch.delenv("GRAPHSTAGE_ENDPOINT", raising=False)
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "4", "--out", str(out)) == 0
    corpus = out / "corpus.jsonl"
    corpus.write_bytes(corpus.read_bytes()[:200])
    capsys.readouterr()
    assert run_cli("run", "--corpus", str(corpus), "--backend", *backend, "--out", str(out / "traces.jsonl")) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "corpus.sha256"]


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_trace_for_an_instance_missing_from_the_corpus_is_an_error(tmp_path, capsys, command):
    out = tmp_path / "d"
    corpus, traces = out / "corpus.jsonl", out / "traces.jsonl"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "2", "--out", str(out)) == 0
    assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
    corpus.write_text(corpus.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    capsys.readouterr()
    target = out / ("alpaca.json" if command == "build-dataset" else "eval")
    assert run_cli(command, "--traces", str(traces), "--corpus", str(corpus), "--out", str(target)) == 1
    assert capsys.readouterr().err == f"error: {traces}:2: trace for unknown instance 'edge_count-d-wl-00001'\n"
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "corpus.sha256", "traces.jsonl"]


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_trace_scored_against_another_corpus_is_an_error(tmp_path, capsys, command):
    """Corpora of two seeds share their ids but not their task texts: traces
    of one are not scored against the other."""
    first, second = tmp_path / "seed1", tmp_path / "seed2"
    for seed, out in ((1, first), (2, second)):
        assert run_cli("generate", "--count", "3", "--size", "both", "--seed", str(seed), "--out", str(out)) == 0
    traces = first / "traces.jsonl"
    assert run_cli("run", "--corpus", str(first / "corpus.jsonl"), "--out", str(traces)) == 0
    capsys.readouterr()
    target = tmp_path / ("alpaca.json" if command == "build-dataset" else "eval")
    argv = [command, "--traces", str(traces), "--corpus", str(second / "corpus.jsonl"), "--out", str(target)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        "error: trace 'cycle_detection-u-wl-00000' was run on another task text than the corpus holds\n"
    )
    assert not target.exists()


@pytest.mark.parametrize("flag", [["--seed", "9"], ["--seed", "0"], ["--size", "el"]])
def test_fill_flags_need_fill_quota(tmp_path, capsys, flag):
    out = tmp_path / "d"
    corpus, traces = str(out / "corpus.jsonl"), str(out / "traces.jsonl")
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "2", "--out", str(out)) == 0
    assert run_cli("run", "--corpus", corpus, "--out", traces) == 0
    capsys.readouterr()
    code = run_cli(
        "build-dataset", "--traces", traces, "--corpus", corpus, "--out", str(out / "alpaca.json"),
        "--stats", str(out / "stats.json"), *flag,
    )
    assert code == 2
    assert f"{flag[0]} is read only with --fill-quota N" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "corpus.sha256", "traces.jsonl"]


@pytest.mark.parametrize("command", ["run", "build-dataset", "evaluate"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.pop("task_text"), "missing key 'task_text'"),
        (lambda o: o.update(edges=[[0, 1], 7]), "edges must be a flat integer array, found [0, 1]"),
        (lambda o: o["edges"].pop(), "not a multiple of 2"),
        (lambda o: o.pop("format"), "unknown corpus format 1"),
        (lambda o: o.update(id="edge_count-d-wl-2"), "malformed instance id 'edge_count-d-wl-2'"),
        (lambda o: o.update(id="edge_count-d-wl-00000"), "duplicate instance id 'edge_count-d-wl-00000'"),
    ],
)
def test_malformed_corpus_line_is_reported_with_file_and_line(tmp_path, capsys, command, edit, message):
    out = tmp_path / "d"
    corpus, traces = out / "corpus.jsonl", out / "traces.jsonl"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "4", "--out", str(out)) == 0
    assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
    lines = corpus.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[2])
    edit(obj)
    lines[2] = json.dumps(obj)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = {
        "run": ["run", "--corpus", str(corpus), "--out", str(out / "again.jsonl")],
        "build-dataset": ["build-dataset", "--traces", str(traces), "--corpus", str(corpus),
                          "--out", str(out / "alpaca.json")],
        "evaluate": ["evaluate", "--traces", str(traces), "--corpus", str(corpus), "--out", str(out / "eval")],
    }[command]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}:3: ") and message in err, err
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "corpus.sha256", "traces.jsonl"]


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_malformed_trace_line_is_reported_with_file_and_line(tmp_path, capsys, command):
    out = tmp_path / "d"
    corpus, traces = out / "corpus.jsonl", out / "traces.jsonl"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "4", "--out", str(out)) == 0
    assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
    lines = traces.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    del obj["stages"][0]["raw_output"]
    lines[1] = json.dumps(obj)
    traces.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    target = out / ("alpaca.json" if command == "build-dataset" else "eval")
    assert run_cli(command, "--traces", str(traces), "--corpus", str(corpus), "--out", str(target)) == 1
    assert capsys.readouterr().err == f"error: {traces}:2: missing key 'raw_output'\n"


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_duplicate_trace_id_is_reported_with_file_and_line(tmp_path, capsys, command):
    out = tmp_path / "d"
    corpus, traces = out / "corpus.jsonl", out / "traces.jsonl"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "2", "--out", str(out)) == 0
    assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
    lines = traces.read_text(encoding="utf-8").splitlines(keepends=True)
    traces.write_text("".join([*lines, lines[0]]), encoding="utf-8")
    capsys.readouterr()
    target = out / ("alpaca.json" if command == "build-dataset" else "eval")
    assert run_cli(command, "--traces", str(traces), "--corpus", str(corpus), "--out", str(target)) == 1
    assert capsys.readouterr().err == f"error: {traces}:3: duplicate instance id 'edge_count-d-wl-00000'\n"
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "corpus.sha256", "traces.jsonl"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rows": [{"kind": "x"}], "overall": {}}', "missing key 'size_class'"),
        ('{"rows": 5, "overall": {}}', "'int' object is not iterable"),
        ('{"rows": [], "overall": []}', "'list' object has no attribute 'items'"),
        ('{"rows": [], ', "Expecting property name enclosed in double quotes: line 1 column 14 (char 13)"),
    ],
)
def test_malformed_report_json_is_reported_with_its_path(tmp_path, capsys, text, message):
    (tmp_path / "report.json").write_text(text, encoding="utf-8")
    assert run_cli("report", "--in", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {tmp_path / 'report.json'}: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--count", "-1"],
        ["run", "--workers", "0"],
        ["run", "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1", "--workers", "-2", "--timeout-ms", "-5"],
        ["run", "--timeout-ms", "0"],
        ["run", "--max-tokens", "0"],
        ["run", "--retries", "-3"],
        ["build-dataset", "--fill-quota", "-4"],
        ["run", "--workers", "two"],
        ["run", "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1", "--top-p", "7"],
        ["run", "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1", "--temperature", "-1"],
        ["run", "--backend", "fault", "--fault-drop", "2"],
    ],
)
def test_config_value_out_of_range_is_usage_error(tmp_path, capsys, argv):
    corpus_dir = tmp_path / "corpus"
    corpus, traces = corpus_dir / "corpus.jsonl", corpus_dir / "traces.jsonl"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "1", "--out", str(corpus_dir)) == 0
    assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    inputs = {
        "generate": [],
        "run": ["--corpus", str(corpus)],
        "build-dataset": ["--corpus", str(corpus), "--traces", str(traces), "--stats", str(tmp_path / "stats.json")],
    }[argv[0]]
    assert run_cli(*argv, *inputs, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("usage")  # argparse's "usage:" or main's "usage error:"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


REPO = Path(__file__).resolve().parents[1]
CLOSED_ENDPOINT = "http://127.0.0.1:1/v1/chat/completions"


def _commands(parser):
    (commands,) = parser._subparsers._group_actions
    return commands.choices


def _scope_cases():
    """(command, mode, flag) for every flag of a scoped command that the
    table does not give to the mode: its common flags or the mode's own."""
    parser = build_parser()
    for command, (_, common, modes) in FLAG_SCOPE.items():
        for mode, own in modes.items():
            for flag in sorted(set(_flags(parser, command)) - {"--help", *common, *own}):
                yield command, mode, flag


def test_scope_table_classifies_every_flag_once():
    parser = build_parser()
    backends = _flags(parser, "run")["--backend"].choices
    assert set(FLAG_SCOPE["run"][2]) == {f"--backend {b}" for b in backends}
    for command, (_, common, modes) in FLAG_SCOPE.items():
        listed = [*common, *(flag for own in modes.values() for flag in own)]
        assert sorted(listed) == sorted(set(_flags(parser, command)) - {"--help"}), command


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    corpus, traces = out / "corpus.jsonl", out / "traces.jsonl"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "2", "--out", str(out)) == 0
    assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
    return corpus, traces


@pytest.mark.parametrize("command, mode, flag", list(_scope_cases()))
def test_flag_outside_its_mode_is_usage_error(small_run, tmp_path, monkeypatch, capsys, command, mode, flag):
    corpus, traces = small_run
    monkeypatch.chdir(tmp_path)  # a relative path in a probe value would land here
    option, value = mode.split()
    argv = [command, "--corpus", str(corpus), "--out", "out", option, "1" if value == "N" else value]
    if command == "build-dataset":
        argv += ["--traces", str(traces), "--stats", "stats.json"]
    if value == "http":
        argv += ["--endpoint", CLOSED_ENDPOINT]
    parser = build_parser()
    assert FLAG_SCOPE[command][0](parser.parse_args(argv)) == mode
    action = _flags(parser, command)[flag]
    probe = action.choices[0] if action.choices else "1"
    capsys.readouterr()
    assert run_cli(*argv, flag, probe) == 2
    assert f"usage error: {flag} is read only with " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dataclass_backed_flags_default_to_none():
    """Each default of a GenConfig, CompletionConfig or FaultPlan field is
    declared in its dataclass only, never again in the parser."""
    names = {f.name for cls in (GenConfig, CompletionConfig, FaultPlan) for f in fields(cls)}
    parser = build_parser()
    defaults = {
        f"{command} {option}": action.default
        for command in _commands(parser)
        for option, action in _flags(parser, command).items()
        if action.dest in names
    }
    assert {"generate --count", "run --max-tokens", "run --fault-drop", "build-dataset --size"} <= set(defaults)
    assert {flag: default for flag, default in defaults.items() if default is not None} == {}


def _readme_commands():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["graphstage"]:
                yield words[1:]


def _load_benchmark_module(monkeypatch, name):
    """``perfbench/<name>.py``, loaded by path: perfbench/tests has a conftest
    of its own, so tier-1 cannot collect that directory."""
    spec = importlib.util.spec_from_file_location(name, REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _benchmark_commands(monkeypatch):
    workloads = _load_benchmark_module(monkeypatch, "workloads")
    out = Path("bench")
    yield workloads.generate_argv(10, 1, out)
    for workload in workloads.WORKLOADS.values():
        corpus_dir = out / "corpus" if workload.corpus_in_setup else None
        for _, argv in workloads.steps(workload, 1, out, corpus_dir, CLOSED_ENDPOINT):
            yield argv


def test_documented_and_benchmark_commands_pass_the_parser_and_scope_check(monkeypatch):
    parser = build_parser()
    readme, bench = list(_readme_commands()), list(_benchmark_commands(monkeypatch))
    assert len(readme) >= 7 and len(bench) == 8
    for argv in readme + bench:
        try:
            _check_scope(parser, parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}")


def test_benchmark_imports_and_wraps_resolve(tmp_path, monkeypatch):
    """Every name that the benchmark's modules import from the package, or
    wrap in place for its traced run, exists; a traced oracle chain records
    the CLI-level spans, restoring puts every original back, and the
    benchmark's output checks pass on that chain's files."""
    tracing = _load_benchmark_module(monkeypatch, "tracing")
    checks = _load_benchmark_module(monkeypatch, "checks")
    _load_benchmark_module(monkeypatch, "stub")
    sites = [(tracing._owner(path), attr) for path, attr, *_ in (*tracing.WRAPS, *tracing.ITERATOR_WRAPS)]
    originals = [owner.__dict__.get(attr) for owner, attr in sites]
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        corpus, traces = tmp_path / "corpus.jsonl", tmp_path / "traces.jsonl"
        assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "2", "--size", "both",
                       "--out", str(tmp_path)) == 0
        assert run_cli("run", "--corpus", str(corpus), "--out", str(traces)) == 0
        assert run_cli("build-dataset", "--traces", str(traces), "--corpus", str(corpus),
                       "--out", str(tmp_path / "alpaca.json"), "--stats", str(tmp_path / "stats.json")) == 0
        assert run_cli("evaluate", "--traces", str(traces), "--corpus", str(corpus),
                       "--out", str(tmp_path / "eval")) == 0
    finally:
        restore()
    assert [owner.__dict__.get(attr) for owner, attr in sites] == originals
    recorded = {span.name for span in recorder.spans}
    assert {"generator.generate_instance", "pipeline.run_pipeline", "dataset.build_dataset",
            "evaluation.evaluate_traces", "evaluation.aggregate"} <= recorded
    # what the benchmark reads of the corpus and of each loaded trace
    checks.check_corpus(tmp_path, 2)
    assert checks.check_pipeline(tmp_path, tmp_path, None) == 2
    assert checks.backend_calls(tmp_path) == (4, 0)
