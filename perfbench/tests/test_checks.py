import json
import shutil
import threading
from contextlib import redirect_stdout
from io import StringIO

import pytest

from checks import CheckFailed, backend_calls, check_corpus, check_pipeline, output_digest
from graphstage import cli
from graphstage.backends import FaultPlan
from graphstage.generator import ALL_KINDS
from graphstage.serialize import load_corpus
from stub import StubServer, build_table, control
from workloads import FAULT_PLAN, FAULT_SEED, WORKLOADS, generate_argv, pipeline_steps, steps

COUNT = 4  # instances per kind
N = len(ALL_KINDS) * COUNT


def _cli(argv):
    with redirect_stdout(StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    _cli(generate_argv(COUNT, 5, out))
    return out


@pytest.fixture
def corpus_dir(pristine, tmp_path):
    out = tmp_path / "corpus"
    shutil.copytree(pristine, out)
    return out


def _labels(corpus_dir):
    _, labels = build_table(load_corpus(corpus_dir / "corpus.jsonl"), FaultPlan(**FAULT_PLAN), FAULT_SEED)
    return {instance_id for instance_id, _ in labels}


def _pick(corpus_dir, size, avoid=()):
    for inst in load_corpus(corpus_dir / "corpus.jsonl"):
        if inst.size_class.value == size and inst.id not in avoid:
            return inst
    raise AssertionError("no instance to corrupt")


def corrupt_gold_answer(corpus_dir, avoid=()):
    target = _pick(corpus_dir, "wl", avoid).id
    path = corpus_dir / "corpus.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if row["id"] == target:
            answer = row["gold_answer"]
            if answer["kind"] == "bool":
                answer["value"] = not answer["value"]
            elif answer["kind"] == "node_seq":
                answer["value"] = answer["value"][::-1]
            else:
                answer["value"] += 1
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def corrupt_el_file(corpus_dir, avoid=()):
    inst = _pick(corpus_dir, "el", avoid)
    path = corpus_dir / inst.graph_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last edge


CORRUPTIONS = [corrupt_gold_answer, corrupt_el_file]


def test_corpus_check_passes_on_generated_output(corpus_dir, pristine):
    check_corpus(corpus_dir, N)
    assert output_digest(corpus_dir) == output_digest(pristine)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_corpus_check_fails_on_one_corrupted_file(corpus_dir, pristine, corrupt):
    corrupt(corpus_dir)
    with pytest.raises(CheckFailed):
        check_corpus(corpus_dir, N)
    assert output_digest(corpus_dir) != output_digest(pristine)


def _run_oracle(corpus_dir, out):
    for _, argv in pipeline_steps(WORKLOADS["offline_oracle"], out, corpus_dir, None):
        _cli(argv)


def test_offline_chain_generates_its_corpus_then_checks(tmp_path):
    out = tmp_path / "out"
    names = []
    for name, argv in steps(WORKLOADS["offline_oracle"], 5, out, None, None):
        names.append(name)
        _cli(argv)
    assert names == ["generate", "run", "build_dataset", "evaluate"]
    n = len(ALL_KINDS) * WORKLOADS["offline_oracle"].count
    check_corpus(out, n)
    assert check_pipeline(out, out, None) == n


def test_oracle_check_passes(corpus_dir, tmp_path):
    _run_oracle(corpus_dir, tmp_path / "out")
    assert check_pipeline(corpus_dir, tmp_path / "out", None) == N
    parametric = sum(kind.parametric for kind in ALL_KINDS)
    assert backend_calls(tmp_path / "out") == (2 * N + COUNT * parametric, 0)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_oracle_check_fails_on_one_corrupted_file(corpus_dir, tmp_path, corrupt):
    corrupt(corpus_dir)
    _run_oracle(corpus_dir, tmp_path / "out")
    with pytest.raises(CheckFailed):
        check_pipeline(corpus_dir, tmp_path / "out", None)


def _run_http(corpus_dir, out):
    """The http_fault steps against an in-process stub; returns its labels."""
    table, labels = build_table(load_corpus(corpus_dir / "corpus.jsonl"), FaultPlan(**FAULT_PLAN), FAULT_SEED)
    server = StubServer(("127.0.0.1", 0), table, labels)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        for _, argv in pipeline_steps(WORKLOADS["http_fault"], out, corpus_dir, endpoint):
            _cli(argv)
        return control(endpoint, "GET", "/stats")["labels"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_http_check_passes_with_faults_landed(corpus_dir, tmp_path):
    labels = _run_http(corpus_dir, tmp_path / "out")
    assert labels and 0 < check_pipeline(corpus_dir, tmp_path / "out", labels) < N
    assert backend_calls(tmp_path / "out")[1] == 0


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_http_check_fails_on_one_corrupted_file(corpus_dir, tmp_path, corrupt):
    corrupt(corpus_dir, avoid=_labels(corpus_dir))
    labels = _run_http(corpus_dir, tmp_path / "out")
    with pytest.raises(CheckFailed):
        check_pipeline(corpus_dir, tmp_path / "out", labels)


def test_http_check_fails_on_a_false_retention(corpus_dir, tmp_path):
    labels = _run_http(corpus_dir, tmp_path / "out")
    inst = next(i for i in load_corpus(corpus_dir / "corpus.jsonl") if i.id in labels)
    alpaca_path = tmp_path / "out" / "alpaca.json"
    alpaca = json.loads(alpaca_path.read_text())
    alpaca.append({"instruction": "", "input": inst.task_text, "output": ""})
    alpaca_path.write_text(json.dumps(alpaca))
    with pytest.raises(CheckFailed, match="Alpaca"):
        check_pipeline(corpus_dir, tmp_path / "out", labels)
