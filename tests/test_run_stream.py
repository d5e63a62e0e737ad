"""``run`` over HTTP is a stream (``pipeline.run_corpus``): the lanes take
the corpus one instance at a time as ``serialize.read_corpus_checked`` reads
it, a finished trace waits in a bounded reorder buffer until its turn in
corpus order comes, and each is written as it is given out. These tests run
against ``test_backends``'s in-test server, with a handler that keeps only
the instance id of each request, so that what the server holds does not
count against the client's memory."""

import asyncio
import collections
import gc
import hashlib
import json
import re
import threading
import time
import tracemalloc
import warnings
from contextlib import closing
from itertools import chain

import pytest
from test_backends import _KeepAliveHandler, _ok, _serve

from graphstage import cli
from graphstage.backends import CompletionConfig, HttpBackend, OracleBackend
from graphstage.pipeline import WINDOW_PER_LANE, parse_prompt_meta, run_corpus
from graphstage.serialize import MANIFEST_NAME, load_corpus, read_corpus, trace_to_json, write_jsonl

WORKERS = 2
WINDOW = WINDOW_PER_LANE * WORKERS


class _LaneHandler(_KeepAliveHandler):
    """Answers each prompt through ``answer`` after ``hold(instance id)``
    returns, and records the instance id of each request and the number of
    connections open."""

    answer = None
    hold = None
    instances = []  # instance id of each request, in arrival order
    last_request = 0.0  # time.monotonic() of the latest request
    open_connections = 0
    lock = threading.Lock()

    def setup(self):
        super().setup()
        with _LaneHandler.lock:
            _LaneHandler.open_connections += 1

    def handle(self):
        try:
            super().handle()
        except ConnectionError:  # a client that stops aborts its connections mid-exchange
            pass

    def finish(self):
        super().finish()
        with _LaneHandler.lock:
            _LaneHandler.open_connections -= 1

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["messages"][-1]["content"]
        ident = parse_prompt_meta(prompt)[0]
        with _LaneHandler.lock:
            _LaneHandler.instances.append(ident)
            _LaneHandler.last_request = time.monotonic()
        _LaneHandler.hold(ident)
        body = json.dumps(_ok(_LaneHandler.answer(prompt))).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 40-instance corpus with its manifest."""
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["generate", "--count", "2", "--size", "both", "--seed", "12", "--out", str(out)]) == 0
    return out / "corpus.jsonl"


@pytest.fixture()
def server(corpus):
    """The endpoint of a server that answers as the oracle on ``corpus``."""
    _LaneHandler.answer = OracleBackend(load_corpus(corpus)).complete
    _LaneHandler.hold = lambda ident: None
    _LaneHandler.instances = []
    _LaneHandler.open_connections = 0
    yield from _serve(_LaneHandler)


def _run(corpus, endpoint, out, *more):
    return cli.main([
        "run", "--corpus", str(corpus), "--backend", "http", "--endpoint", endpoint,
        "--workers", str(WORKERS), "--out", str(out), *more,
    ])


def _without_latency(text):
    return re.sub(r'"latency_ms": [^,}]+', '"latency_ms": 0', text)


def _connections_closed(timeout=2.0):
    """Whether the server has seen every connection closed within ``timeout``."""
    deadline = time.monotonic() + timeout
    while _LaneHandler.open_connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return _LaneHandler.open_connections == 0


@pytest.fixture()
def loops(monkeypatch):
    """The event loops made while the test runs."""
    made = []
    new_event_loop = asyncio.new_event_loop

    def recording():
        made.append(new_event_loop())
        return made[-1]

    monkeypatch.setattr(asyncio, "new_event_loop", recording)
    return made


def test_lanes_that_finish_out_of_order_give_out_corpus_order(server, corpus, tmp_path):
    """The first instance's replies are slow, so the other lane finishes
    instances after it first; the traces come out in corpus order, each as
    soon as its turn comes, and are what one lane writes."""
    ids = [instance.id for instance in read_corpus(corpus)]
    assert _run(corpus, server, tmp_path / "one.jsonl", "--workers", "1") == 0
    _LaneHandler.instances = []
    _LaneHandler.hold = lambda ident: time.sleep(0.05 if ident == ids[0] else 0)
    backend = HttpBackend(CompletionConfig(endpoint=server))
    with closing(run_corpus(read_corpus(corpus), backend, workers=WORKERS, base_dir=corpus.parent)) as traces:
        first = next(traces)
        requested_at_first = list(_LaneHandler.instances)
        assert first.instance_id == ids[0]
        write_jsonl(tmp_path / "two.jsonl", map(trace_to_json, chain([first], traces)))

    # the first trace's slot is free once it is given out: the lanes may
    # take up to the instance before index 1 + WINDOW
    assert len(set(requested_at_first)) <= WINDOW + 1
    # another instance was asked for all its stages before the first one was done
    last_of_first = max(k for k, ident in enumerate(requested_at_first) if ident == ids[0])
    assert len(set(requested_at_first[:last_of_first]) - {ids[0]}) > 1
    one, two = ((tmp_path / name).read_text(encoding="utf-8") for name in ("one.jsonl", "two.jsonl"))
    assert _without_latency(two) == _without_latency(one)
    assert [json.loads(line)["instance_id"] for line in two.splitlines()] == ids


def test_an_http_run_grows_less_than_its_corpus_file(server, tmp_path):
    """Loading every instance of a corpus takes about ten times its file's
    size. The run holds one instance per lane, the reorder buffer and the
    instance ids, so from 40 to 160 instances its peak grows by less than the
    corpus file does. The peak itself is above a 160-instance file's size:
    asyncio reads a socket into a 256 KiB buffer."""
    _LaneHandler.instances = collections.deque(maxlen=0)  # the server holds no ids
    peaks, sizes = [], []
    for count in ("2", "8"):
        out = tmp_path / count
        assert cli.main(["generate", "--count", count, "--size", "both", "--seed", "3", "--out", str(out)]) == 0
        corpus = out / "corpus.jsonl"
        _LaneHandler.answer = OracleBackend(load_corpus(corpus)).complete
        if not peaks:  # imports and caches are filled outside the measurement
            assert _run(corpus, server, out / "traces.jsonl") == 0
        tracemalloc.start()
        try:
            assert _run(corpus, server, out / "traces.jsonl") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(corpus.stat().st_size)
        assert len((out / "traces.jsonl").read_text(encoding="utf-8").splitlines()) == 20 * int(count)
    assert peaks[1] - peaks[0] < sizes[1] - sizes[0], (peaks, sizes)


def test_a_stalled_lane_holds_the_others_within_the_window(server, corpus, tmp_path):
    """The first instance's first reply waits until the other lane has
    asked for the instances up to the window's end and then sent nothing for
    0.3 s (5 s at most): it takes no more."""
    ids = [instance.id for instance in read_corpus(corpus)]
    ahead = []

    def others():
        with _LaneHandler.lock:
            return len(set(_LaneHandler.instances) - {ids[0]})

    def hold(ident):
        if ident != ids[0] or ahead:
            return
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and (
            others() < WINDOW - 1 or time.monotonic() - _LaneHandler.last_request < 0.3
        ):
            time.sleep(0.02)
        ahead.append(others())

    _LaneHandler.hold = hold
    out = tmp_path / "traces.jsonl"
    assert _run(corpus, server, out) == 0
    assert ahead == [WINDOW - 1]
    assert [json.loads(line)["instance_id"] for line in out.read_text(encoding="utf-8").splitlines()] == ids


@pytest.mark.parametrize("manifest", ["none", "rebuilt by hand"])
def test_a_malformed_corpus_line_fails_the_run_with_its_location(server, corpus, tmp_path, capsys, manifest):
    """A corpus that the manifest does not vouch for is checked in full
    before the first request. One that it vouches for, here after an edit
    and a manifest rebuilt by hand, streams as it is: the fault stops the
    run where the lanes reach it, and no trace file is written either way."""
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    broken = tmp_path / "corpus.jsonl"
    broken.write_text("".join([*lines[:-1], lines[-1][:40] + "\n"]), encoding="utf-8")
    (tmp_path / "graphs").symlink_to(corpus.parent / "graphs")
    if manifest != "none":
        digest = hashlib.sha256(broken.read_bytes()).hexdigest()
        (tmp_path / MANIFEST_NAME).write_text(f"{digest}  corpus.jsonl\n", encoding="utf-8")
    capsys.readouterr()
    assert _run(broken, server, tmp_path / "traces.jsonl") == 1
    assert capsys.readouterr().err.startswith(f"error: {broken}:{len(lines)}: Unterminated string")
    assert not (tmp_path / "traces.jsonl").exists()
    if manifest == "none":
        assert _LaneHandler.instances == []
    else:
        assert len(set(_LaneHandler.instances)) == len(lines) - 1


@pytest.mark.parametrize("stop", ["close", "drop"])
def test_a_consumer_that_stops_after_the_first_trace_leaves_nothing_open(server, corpus, loops, stop):
    first = next(iter(load_corpus(corpus))).id
    backend = HttpBackend(CompletionConfig(endpoint=server))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traces = run_corpus(read_corpus(corpus), backend, workers=WORKERS, base_dir=corpus.parent)
        assert next(traces).instance_id == first
        if stop == "close":
            traces.close()
        else:
            del traces
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    (loop,) = loops
    assert loop.is_closed() and not asyncio.all_tasks(loop)
    assert _connections_closed()
    assert len(set(_LaneHandler.instances)) <= WINDOW + 1


def test_a_write_that_raises_stops_the_lanes_and_leaves_nothing_open(
    server, corpus, tmp_path, loops, monkeypatch, capsys
):
    written = []

    def failing(trace):
        if written:
            raise OSError("disk full")
        written.append(trace.instance_id)
        return trace_to_json(trace)

    monkeypatch.setattr(cli, "trace_to_json", failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(corpus, server, tmp_path / "traces.jsonl") == 1
        gc.collect()
    assert capsys.readouterr().err == "error: disk full\n"
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    (loop,) = loops
    assert loop.is_closed() and not asyncio.all_tasks(loop)
    assert _connections_closed()
    assert len(set(_LaneHandler.instances)) <= WINDOW + 2
    assert list(tmp_path.iterdir()) == []
