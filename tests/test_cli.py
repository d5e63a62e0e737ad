import gc
import json
import threading

import pytest

from graphstage.backends import OracleBackend
from graphstage.cli import main
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
    "fault_flag", [["--fault-drop", "0.5"], ["--fault-labels", "labels.json"], ["--seed", "5"]]
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
    assert "--backend fault" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl"]


def test_truncated_corpus_line_is_reported_with_file_and_line(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("generate", "--tasks", "edge_count:directed", "--count", "4", "--out", str(out)) == 0
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:60] + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert run_cli("run", "--corpus", str(corpus), "--out", str(out / "traces.jsonl")) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}:3: Unterminated string")


@pytest.mark.parametrize("flag", [["--seed", "9"], ["--size", "el"], ["--fill-rounds", "3"]])
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
    assert f"{flag[0]} need --fill-quota" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "traces.jsonl"]


@pytest.mark.parametrize("command", ["run", "build-dataset", "evaluate"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.pop("task_text"), "missing key 'task_text'"),
        (lambda o: o["graph"].update(edges=[[0, 1], 7]), "object of type 'int' has no len()"),
        (lambda o: o["graph"]["edges"].pop(), "not a multiple of 2"),
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
    assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl", "traces.jsonl"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--count", "-1"],
        ["generate", "--budget", "0"],
        ["run", "--workers", "0"],
        ["run", "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1", "--workers", "-2", "--timeout-ms", "-5"],
        ["run", "--timeout-ms", "0"],
        ["run", "--max-tokens", "0"],
        ["run", "--retries", "-3"],
        ["build-dataset", "--fill-quota", "-4"],
        ["build-dataset", "--fill-quota", "1", "--fill-rounds", "-1"],
        ["run", "--workers", "two"],
    ],
)
def test_integer_flag_out_of_range_is_usage_error(tmp_path, capsys, argv):
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
    assert "usage:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]
