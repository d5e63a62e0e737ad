"""Every seeded output of the command line chain, pinned by digest.

One small corpus goes through ``run``, ``build-dataset`` and ``evaluate``
five ways: the oracle backend, a four-fault plan with its labels, the HTTP
backend at one and at three connections against a local stub that answers
from the same fault plan, and ``build-dataset --fill-quota``. Each output
file, and what ``report`` prints for the fault run in either format, is
hashed against :data:`DIGESTS`. A change that moves a digest re-pins
it and says in its change notes which artifact moved and why.
"""

import hashlib
import json

import pytest

from graphstage.backends import FaultBackend, FaultPlan, OracleBackend
from graphstage.cli import main
from graphstage.serialize import load_corpus, read_jsonl
from test_backends import _KeepAliveHandler, _serve, _StubHandler

PLAN = FaultPlan(drop_graph_edges=0.3, wrong_tool_name=0.3, swap_parameters=0.3, emit_garbage=0.1)
FAULT_FLAGS = ["--fault-drop", PLAN.drop_graph_edges, "--fault-name", PLAN.wrong_tool_name,
               "--fault-swap", PLAN.swap_parameters, "--fault-garbage", PLAN.emit_garbage]
FAULT_SEED = 5

# relative path -> SHA-256, pinned at the tree where this test was added.
# Traces are hashed without their latencies, and the EL graph files of one
# directory as one digest (see _digests). The HTTP runs are not listed: each
# of their files must equal the fault run's.
DIGESTS = {
    "corpus/corpus.jsonl": "90ba72d20f4461f3aacc31d13544113b2d58ef05f27847c7993a8255480144fc",
    "corpus/corpus.sha256": "dd06d88aa04bcfcbf9174458fe68af272e65f0a87dae71e8a1a9022a55a0518d",
    "corpus/graphs/*.edges": "bc157d0617df5aab2079ce7c783045ed5ead24b2898283a3f612d64c9c972280",
    "fault/alpaca.json": "3c3976743b88346c9929dddcfd619d64a4cf8812bf5637c41f1a45c067a12419",
    "fault/eval/records.jsonl": "800b011892aa5b05216bf00a268f1b9d0b3842ec8962eb422fcec8e78d2127d3",
    "fault/eval/report.json": "9239ec2e089369e1e4cd4071b3f80ca7d944f9ab942b8fe1c91f63cd77789652",
    "fault/eval/report.txt": "7648d8d4bf3cbcf98eb80af14936eeb5365d4d499fe52fda99614089f12a4de0",
    "fault/labels.json": "fc2b43cd7a064ecc2fb475782daf453507fcac0e30d4ed329bc223526793881e",
    "fault/report --format md": "4f75be66559be95c250dbc3a8496cb7d80927f171accb02151e75600c76c8b18",
    "fault/report --format txt": "7648d8d4bf3cbcf98eb80af14936eeb5365d4d499fe52fda99614089f12a4de0",
    "fault/stats.json": "47c0fe0d461949741abe485b68ae08337dfa0ac0ebfa0a2038037b3eadb83552",
    "fault/traces.jsonl": "33c6b0a210f9d7f55e5e2dc05ae500726a0d2f41dacd940ab732b00c968e6508",
    "fill/alpaca.json": "51a43cb952b05384e65ae09b9d72d2268e317415d35234a555df2f04178bf66a",
    "fill/stats.json": "7aa29fae52c039a01b97067ee667f94cf30f87add37c8ef7edff658ce88a8bb3",
    "oracle/alpaca.json": "d4a56c2a5f72a6d99ee135abb8d1d612486e571a3adbee292271eee2f6cd8ba7",
    "oracle/eval/records.jsonl": "278cfa36fe6007a83df69d4effe47bfb64f77d1fe38b1a13472e8b2fd200309c",
    "oracle/eval/report.json": "c8eec77a02fd57dbe7fd1efb27242a429d5eb91931b89885070366fe6bfad681",
    "oracle/eval/report.txt": "b7add63e5100b604b9691f9df77eaff56855e6a455b1f619db3bb79e22b0cda1",
    "oracle/stats.json": "c19790703a3b7fa2624d96423e4cbc4644c67c093f13bfcaca5e6c2e47c58bff",
    "oracle/traces.jsonl": "335ac53c93b9e3ef2a95d3a48bbaaa9a11fb37d1785c44e4233a04ee59f75546",
}


@pytest.fixture()
def keepalive_server():
    yield from _serve(_KeepAliveHandler)


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _trace_digest(path):
    digest = hashlib.sha256()
    for trace in read_jsonl(path):
        for stage in trace["stages"]:
            del stage["latency_ms"]
        digest.update(json.dumps(trace).encode() + b"\n")
    return digest.hexdigest()


def _digests(root):
    """Relative path -> digest of every file under root; the .edges files of
    one directory are hashed together, in name order."""
    found = {}
    graph_dirs = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        if path.suffix == ".edges":
            graph_dirs.setdefault(path.parent.relative_to(root).as_posix() + "/*.edges", []).append(path)
        elif path.name == "traces.jsonl":
            found[name] = _trace_digest(path)
        else:
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for name, paths in graph_dirs.items():
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        found[name] = digest.hexdigest()
    return found


def test_seeded_outputs_match_pinned_digests(tmp_path, keepalive_server, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus = corpus_dir / "corpus.jsonl"
    _run("generate", "--tasks", "all", "--count", 3, "--size", "both", "--seed", 11, "--out", corpus_dir)
    instances = load_corpus(corpus)
    http = ["--backend", "http", "--endpoint", keepalive_server]
    runs = {
        "oracle": ["--backend", "oracle"],
        "fault": ["--backend", "fault", *FAULT_FLAGS, "--seed", FAULT_SEED,
                  "--fault-labels", tmp_path / "fault" / "labels.json"],
        "http-1": [*http, "--workers", 1],
        "http-3": [*http, "--workers", 3],
    }
    stub_labels = {}
    for name, backend in runs.items():
        out = tmp_path / name
        out.mkdir()
        # the stub answers as a fresh fault backend with the fault run's plan and seed
        answers = FaultBackend(OracleBackend(instances), PLAN, seed=FAULT_SEED)
        _StubHandler.respond = answers.complete
        stub_labels[name] = answers.injected
        _run("run", "--corpus", corpus, *backend, "--out", out / "traces.jsonl")
        _run("build-dataset", "--traces", out / "traces.jsonl", "--corpus", corpus,
             "--out", out / "alpaca.json", "--stats", out / "stats.json")
        _run("evaluate", "--traces", out / "traces.jsonl", "--corpus", corpus, "--out", out / "eval")
    fill = tmp_path / "fill"
    _run("build-dataset", "--traces", tmp_path / "fault" / "traces.jsonl", "--corpus", corpus,
         "--fill-quota", 4, "--seed", 7, "--size", "both",
         "--out", fill / "alpaca.json", "--stats", fill / "stats.json")

    found = _digests(tmp_path)
    labels = json.loads((tmp_path / "fault" / "labels.json").read_text())
    for name in ("http-1", "http-3"):
        assert stub_labels[name] == labels
        over_http = {key.split("/", 1)[1]: found.pop(key) for key in list(found) if key.startswith(f"{name}/")}
        assert over_http == {
            key.split("/", 1)[1]: digest for key, digest in found.items()
            if key.startswith("fault/") and key != "fault/labels.json"
        }, name
    for fmt in ("md", "txt"):
        capsys.readouterr()
        _run("report", "--in", tmp_path / "fault" / "eval", "--format", fmt)
        found[f"fault/report --format {fmt}"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert found == DIGESTS
