"""``build-dataset`` and ``evaluate`` walk the corpus and the traces side by
side, one instance at a time (``serialize.walk_traces``): a trace file over
part of a corpus scores as the whole-file loaders score it, a trace out of
corpus order or of an instance the corpus lacks is named with its file and
line, a trace line's own id fault is named before the corpus is read on, the
corpus after the last trace is still checked, and the walk holds less than
the corpus file's size."""

import json
import tracemalloc

import pytest

from graphstage import serialize
from graphstage.cli import main
from graphstage.dataset import build_dataset
from graphstage.evaluation import evaluate_traces, pair_traces
from graphstage.serialize import load_corpus, load_traces, read_corpus, walk_traces


def _chain(out, count=2, seed=4):
    """A corpus of ``20 * count`` instances and its oracle traces."""
    assert main(["generate", "--count", str(count), "--size", "both", "--seed", str(seed), "--out", str(out)]) == 0
    corpus, traces = out / "corpus.jsonl", out / "traces.jsonl"
    assert main(["run", "--corpus", str(corpus), "--out", str(traces)]) == 0
    return corpus, traces


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return _chain(tmp_path_factory.mktemp("chain"))


def test_traces_of_part_of_the_corpus_score_as_the_loaded_files_do(chain, tmp_path):
    corpus, traces = chain
    part = tmp_path / "part.jsonl"
    part.write_text("".join(_lines(traces)[1::3]), encoding="utf-8")
    instances = load_corpus(corpus)
    loaded = load_traces(part, instances)
    assert 0 < len(loaded) < len(instances)

    walked = list(walk_traces(part, read_corpus(corpus)))
    assert [trace for _, trace in walked] == loaded
    assert evaluate_traces(walk_traces(part, read_corpus(corpus))) == evaluate_traces(pair_traces(loaded, instances))
    assert build_dataset(walk_traces(part, read_corpus(corpus))) == build_dataset(pair_traces(loaded, instances))


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_a_trace_out_of_corpus_order_is_named_with_its_file_and_line(chain, tmp_path, capsys, command):
    corpus, traces = chain
    lines = _lines(traces)
    swapped = tmp_path / "swapped.jsonl"
    swapped.write_text("".join([lines[0], lines[2], lines[1], *lines[3:]]), encoding="utf-8")
    second = json.loads(lines[1])["instance_id"]
    capsys.readouterr()
    out = tmp_path / ("alpaca.json" if command == "build-dataset" else "eval")
    assert main([command, "--traces", str(swapped), "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {swapped}:3: trace for instance {second!r} is out of corpus order\n"
    assert not out.exists()


def test_a_trace_of_an_instance_the_corpus_lacks_is_named_with_its_file_and_line(chain, tmp_path):
    corpus, traces = chain
    lines = _lines(corpus)
    fewer = tmp_path / "corpus.jsonl"
    fewer.write_text("".join([*lines[:4], *lines[5:]]), encoding="utf-8")
    missing = json.loads(lines[4])["id"]
    with pytest.raises(ValueError, match=f"^{traces}:5: trace for unknown instance {missing!r}$"):
        list(walk_traces(traces, read_corpus(fewer)))


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_a_malformed_corpus_line_after_the_last_trace_still_fails(chain, tmp_path, capsys, command):
    corpus, traces = chain
    lines = _lines(corpus)
    broken = tmp_path / "corpus.jsonl"
    broken.write_text("".join([*lines[:-1], lines[-1][:40] + "\n"]), encoding="utf-8")
    first = tmp_path / "first.jsonl"
    first.write_text("".join(_lines(traces)[:3]), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / ("alpaca.json" if command == "build-dataset" else "eval")
    assert main([command, "--traces", str(first), "--corpus", str(broken), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {broken}:{len(lines)}: Unterminated string")
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-dataset", "evaluate"])
def test_a_trace_line_without_its_id_is_named_before_the_corpus_is_read_on(tmp_path, capsys, command):
    """The line's own id fault is reported, not the malformed corpus line
    that reading on to look for its instance would meet."""
    corpus, traces = _chain(tmp_path, count=1)
    lines = _lines(corpus)
    assert len(lines) == 20
    corpus.write_text("".join([*lines[:-1], lines[-1][:40] + "\n"]), encoding="utf-8")
    trace_lines = _lines(traces)
    first = json.loads(trace_lines[0])
    del first["instance_id"]
    traces.write_text("".join([json.dumps(first) + "\n", *trace_lines[1:]]), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / ("alpaca.json" if command == "build-dataset" else "eval")
    assert main([command, "--traces", str(traces), "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {traces}:1: missing key 'instance_id'\n"


def test_a_trusted_corpus_whose_bytes_change_while_read_fails(chain, tmp_path, monkeypatch):
    """The corpus is hashed, then parsed: bytes that differ from the hashed
    ones fail the read once they are read, so no graph that skipped
    validation is trusted on a stale digest."""
    corpus, _ = chain
    expected = serialize.read_manifest(corpus.parent)["corpus.jsonl"]
    instances = load_corpus(corpus)
    edited = tmp_path / "corpus.jsonl"
    edited.write_text("".join(_lines(corpus)[:-1]), encoding="utf-8")
    # the first pass saw the bytes that the manifest lists, the second reads others
    monkeypatch.setattr(serialize, "read_manifest", lambda directory: {"corpus.jsonl": expected})
    monkeypatch.setattr(serialize, "_sha256_of", lambda handle: expected)
    read = []
    with pytest.raises(ValueError, match=f"^{edited}: its bytes changed while it was read$"):
        read.extend(read_corpus(edited))
    assert read == instances[:-1]


def test_evaluate_holds_less_than_its_corpus_file(tmp_path):
    """Loading every instance of a corpus takes about ten times its file's
    size; the walk holds one instance and the records."""
    corpus, traces = _chain(tmp_path, count=8, seed=3)
    argv = ["evaluate", "--traces", str(traces), "--corpus", str(corpus), "--out", str(tmp_path / "eval")]
    assert main(argv) == 0  # imports and caches are filled outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < corpus.stat().st_size, (peak, corpus.stat().st_size)
