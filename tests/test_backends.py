import asyncio
import contextlib
import http.server
import json
import random
import socket
import socketserver
import ssl
import threading
import time
from pathlib import Path

import pytest

from graphstage import (
    ALL_KINDS,
    CompletionConfig,
    FaultBackend,
    FaultPlan,
    HttpBackend,
    OracleBackend,
    SizeClass,
    TaskKind,
    default_registry,
    extract_graph,
    extract_parameters,
    extract_tool_name,
    generate_instance,
    graphs_equal,
)
from graphstage import cli
from graphstage.backends import AuthError, BackendError, CompletionTimeout, _retry_after_seconds
from graphstage.codec import extract_file_path
from graphstage.pipeline import StageKind, assemble_prompt, run_corpus, run_pipeline
from graphstage.serialize import load_corpus, read_jsonl, trace_to_json

REGISTRY = default_registry()
# a self-signed certificate for localhost and 127.0.0.1, valid 2000-2099
CERT = Path(__file__).parent / "fixtures" / "localhost-cert.pem"
KEY = Path(__file__).parent / "fixtures" / "localhost-key.pem"


def _corpus(per_kind=3, size=SizeClass.WL):
    out = []
    for k, kind in enumerate(ALL_KINDS):
        for index in range(per_kind):
            out.append(
                generate_instance(kind, size, random.Random(1000 * k + index), index=index)
            )
    return out


def _prompt(instance, stage):
    return assemble_prompt("instruction", instance, stage)


class TestOracle:
    def test_graph_stage_embeds_gold_render(self):
        corpus = _corpus(1)
        oracle = OracleBackend(corpus)
        for inst in corpus:
            out = oracle.complete(_prompt(inst, StageKind.GRAPH))
            res = extract_graph(out, inst.graph.weight_kind, inst.kind.directed)
            assert res.ok and graphs_equal(res.graph, inst.graph)

    def test_name_stage_emits_gold_anchor(self):
        inst = _corpus(1)[0]
        oracle = OracleBackend([inst])
        out = oracle.complete(_prompt(inst, StageKind.NAME))
        assert extract_tool_name(out).name == inst.gold_tool

    def test_param_stage_emits_named_gold_values(self):
        inst = generate_instance(
            TaskKind.parse("shortest_path:directed"), SizeClass.WL, random.Random(9), index=0
        )
        oracle = OracleBackend([inst])
        out = oracle.complete(_prompt(inst, StageKind.PARAMS))
        res = extract_parameters(out, REGISTRY.get("shortest_path"))
        assert res.params == inst.gold_params

    def test_el_graph_stage_emits_path(self):
        inst = generate_instance(
            TaskKind.parse("edge_count:directed"), SizeClass.EL, random.Random(4), index=0
        )
        oracle = OracleBackend([inst])
        out = oracle.complete(_prompt(inst, StageKind.GRAPH))
        assert extract_file_path(out).path == inst.graph_file

    def test_unknown_instance_and_determinism(self):
        corpus = _corpus(1)
        oracle = OracleBackend(corpus)
        inst = corpus[0]
        prompt = _prompt(inst, StageKind.GRAPH)
        assert oracle.complete(prompt) == oracle.complete(prompt)
        bogus_prompt = prompt.replace(inst.id, "nope-u-wl-99999")
        with pytest.raises(BackendError):
            oracle.complete(bogus_prompt)
        with pytest.raises(BackendError):
            oracle.complete("a prompt without metadata")


class TestFault:
    def test_zero_probabilities_match_oracle(self):
        corpus = _corpus(2)
        oracle = OracleBackend(corpus)
        fault = FaultBackend(oracle, FaultPlan(), seed=3)
        for inst in corpus:
            for stage in (StageKind.GRAPH, StageKind.NAME):
                prompt = _prompt(inst, stage)
                assert fault.complete(prompt) == oracle.complete(prompt)
        assert fault.injected == {}

    def test_drop_removes_edges_but_stays_executable(self):
        corpus = _corpus(2)
        oracle = OracleBackend(corpus)
        fault = FaultBackend(oracle, FaultPlan(drop_graph_edges=1.0), seed=5)
        from graphstage.tools import dispatch

        dropped = 0
        for inst in corpus:
            out = fault.complete(_prompt(inst, StageKind.GRAPH))
            labels = fault.injected.get(inst.id, {})
            if "graph" not in labels:
                continue
            dropped += 1
            res = extract_graph(out, inst.graph.weight_kind, inst.kind.directed)
            assert res.ok
            assert not graphs_equal(res.graph, inst.graph)
            assert len(res.graph.edges) < len(inst.graph.edges)
            dispatch(inst.gold_tool, res.graph, inst.gold_params)  # must not raise
        assert dropped > 20

    def test_wrong_name_is_another_registered_tool(self):
        corpus = _corpus(2)
        oracle = OracleBackend(corpus)
        fault = FaultBackend(oracle, FaultPlan(wrong_tool_name=1.0), seed=5)
        by_id = {i.id: i for i in corpus}
        flipped = 0
        for inst in corpus:
            out = fault.complete(_prompt(inst, StageKind.NAME))
            if "name" not in fault.injected.get(inst.id, {}):
                continue
            flipped += 1
            name = extract_tool_name(out).name
            assert REGISTRY.get(name).name == name
            assert name != by_id[inst.id].gold_tool
        assert flipped > 20

    def test_swap_reverses_parameter_values(self):
        inst = generate_instance(
            TaskKind.parse("maximum_flow:undirected"), SizeClass.WL, random.Random(7), index=0
        )
        oracle = OracleBackend([inst])
        fault = FaultBackend(oracle, FaultPlan(swap_parameters=1.0), seed=1)
        out = fault.complete(_prompt(inst, StageKind.PARAMS))
        res = extract_parameters(out, REGISTRY.get("maximum_flow"))
        assert res.params == (inst.gold_params[1], inst.gold_params[0])
        assert fault.injected[inst.id]["params"] == "swap_parameters"

    def test_garbage_matches_no_pattern(self):
        inst = _corpus(1)[0]
        oracle = OracleBackend([inst])
        fault = FaultBackend(
            oracle, FaultPlan(emit_garbage=1.0, garbage_stages=("graph",)), seed=2
        )
        out = fault.complete(_prompt(inst, StageKind.GRAPH))
        assert not extract_graph(out, inst.graph.weight_kind).ok
        assert not extract_tool_name(out).ok
        assert not extract_file_path(out).ok

    def test_fault_decisions_are_reproducible_across_instances(self):
        corpus = _corpus(3)
        oracle = OracleBackend(corpus)
        outs = []
        for _ in range(2):
            fault = FaultBackend(oracle, FaultPlan(drop_graph_edges=0.5), seed=9)
            outs.append([fault.complete(_prompt(i, StageKind.GRAPH)) for i in corpus])
        assert outs[0] == outs[1]


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """HTTP/1.0: the server closes the connection after every response."""

    script = []  # list of (status, payload[, headers]) consumed per request
    requests_seen = []
    targets_seen = []  # request targets, as sent on the request line
    prompts_by_connection = {}  # client (host, port) -> user prompts it carried
    close_after_reply = False  # HTTP/1.1: close without telling the client
    respond = None  # prompt -> answer when no script entry is left; None echoes
    delay_s = 0.0  # wait before each answer
    thread_counts = []  # threading.active_count() at each request
    lock = threading.Lock()
    disable_nagle_algorithm = True  # headers and body are separate writes

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        sent = json.loads(self.rfile.read(length))
        prompt = sent["messages"][-1]["content"]
        with _StubHandler.lock:
            _StubHandler.requests_seen.append(sent)
            _StubHandler.targets_seen.append(self.path)
            _StubHandler.prompts_by_connection.setdefault(self.client_address, []).append(prompt)
            _StubHandler.thread_counts.append(threading.active_count())
            answer = _StubHandler.respond(prompt) if _StubHandler.respond else prompt
            entry = _StubHandler.script.pop(0) if _StubHandler.script else (200, _ok(answer))
        time.sleep(_StubHandler.delay_s)
        status, payload, headers = (*entry, {})[:3]
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if _StubHandler.close_after_reply:
            self.close_connection = True

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    """HTTP/1.1: the connection stays open until the client closes it."""

    protocol_version = "HTTP/1.1"


def _ok(text):
    return {"choices": [{"message": {"content": text}}]}


def _serve(handler, tls=False):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(CERT, KEY)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests_seen = []
    _StubHandler.targets_seen = []
    _StubHandler.prompts_by_connection = {}
    _StubHandler.close_after_reply = False
    _StubHandler.respond = None
    _StubHandler.delay_s = 0.0
    _StubHandler.thread_counts = []
    scheme = "https" if tls else "http"
    yield f"{scheme}://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture()
def stub_server():
    yield from _serve(_StubHandler)


@pytest.fixture()
def keepalive_server():
    yield from _serve(_KeepAliveHandler)


@pytest.fixture()
def https_server():
    yield from _serve(_KeepAliveHandler, tls=True)


def _pump(source, sink):
    try:
        while data := source.recv(65536):
            sink.sendall(data)
    except OSError:
        pass
    try:
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


class _TunnelHandler(socketserver.BaseRequestHandler):
    """A CONNECT proxy: it records each tunnel's target and relays bytes."""

    def handle(self):
        head = b""
        while b"\r\n\r\n" not in head:
            data = self.request.recv(4096)
            if not data:
                return
            head += data
        method, target, _ = head.split(b"\r\n", 1)[0].decode().split(" ")
        assert method == "CONNECT"
        self.server.targets.append(target)
        host, port = target.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            back = threading.Thread(target=_pump, args=(upstream, self.request))
            back.start()
            _pump(self.request, upstream)
            back.join(timeout=10)


@pytest.fixture()
def connect_proxy():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TunnelHandler)
    server.daemon_threads = True
    server.targets = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


VIA = ("complete", "run_corpus")


def _exchanges(backend, via, calls=3):
    """(prompt, answer) of each call the backend made: ``calls`` blocking
    calls, or every stage of a run over ``calls`` instances with two
    connections. A stage's recorded backend error is raised again."""
    if via == "complete":
        return [(f"call {k}", backend.complete(f"call {k}")) for k in range(calls)]
    traces = run_corpus(_corpus(1)[:calls], backend, workers=2)
    stages = [s for t in traces for s in t.stages if s.prompt]
    for stage in stages:
        if not stage.raw_output:
            raise BackendError(stage.parsed.reason)
    return [(s.prompt, s.raw_output) for s in stages]


class TestHttpBackend:
    def test_success_and_wire_shape(self, stub_server):
        _StubHandler.script = [(200, _ok("API_name: edge_count"))]
        backend = HttpBackend(CompletionConfig(endpoint=stub_server, api_key="sk-secret"))
        assert backend.complete("pick a tool") == "API_name: edge_count"
        sent = _StubHandler.requests_seen[-1]
        assert sent["max_tokens"] == 4096
        assert sent["top_p"] == 1.0
        assert sent["temperature"] == 0.7
        roles = [m["role"] for m in sent["messages"]]
        assert roles == ["system", "user"]
        assert sent["messages"][1]["content"] == "pick a tool"

    def test_retries_then_succeeds(self, stub_server):
        _StubHandler.script = [(500, {}), (503, {}), (200, _ok("ok"))]
        backend = HttpBackend(CompletionConfig(endpoint=stub_server, retry_count=2))
        assert backend.complete("x") == "ok"

    def test_exhausted_retries_raise(self, stub_server):
        _StubHandler.script = [(500, {})] * 3
        backend = HttpBackend(CompletionConfig(endpoint=stub_server, retry_count=2))
        with pytest.raises(BackendError):
            backend.complete("x")
        assert len(_StubHandler.requests_seen) == 3

    def test_auth_error_immediate(self, stub_server):
        _StubHandler.script = [(401, {})]
        backend = HttpBackend(CompletionConfig(endpoint=stub_server, retry_count=5))
        with pytest.raises(AuthError):
            backend.complete("x")
        assert len(_StubHandler.requests_seen) == 1

    def test_malformed_body(self, stub_server):
        _StubHandler.script = [(200, {"choices": []})]
        backend = HttpBackend(CompletionConfig(endpoint=stub_server))
        with pytest.raises(BackendError):
            backend.complete("x")

    def test_unreachable_endpoint(self):
        backend = HttpBackend(
            CompletionConfig(endpoint="http://127.0.0.1:1/v1/chat/completions", retry_count=1)
        )
        with pytest.raises(BackendError):
            backend.complete("x")

    def test_api_key_not_in_repr(self):
        config = CompletionConfig(api_key="sk-very-secret")
        assert "sk-very-secret" not in repr(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompletionConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            CompletionConfig(top_p=0)
        with pytest.raises(ValueError):
            CompletionConfig(temperature=-1)
        for timeout_ms in (0, -5):  # a deadline that has passed fails every call
            with pytest.raises(ValueError, match="timeout_ms"):
                CompletionConfig(timeout_ms=timeout_ms)

    @pytest.mark.parametrize(
        "retry_after, low, high",
        [
            ("1", 0.95, 2.0),  # the header's whole seconds replace the backoff
            ("Wed, 21 Oct 2015 07:28:00 GMT", 0.45, 0.95),  # not seconds: 0.5 s backoff
        ],
    )
    def test_retry_after_sets_the_wait(self, stub_server, retry_after, low, high):
        _StubHandler.script = [(503, {}, {"Retry-After": retry_after}), (200, _ok("ok"))]
        backend = HttpBackend(CompletionConfig(endpoint=stub_server, retry_count=1))
        start = time.perf_counter()
        assert backend.complete("x") == "ok"
        assert low <= time.perf_counter() - start < high
        assert len(_StubHandler.requests_seen) == 2

    def test_retry_after_is_capped_at_the_backoff_ceiling(self):
        assert _retry_after_seconds("120") == 8.0
        assert _retry_after_seconds(" 3 ") == 3.0
        for value in (None, "", "-1", "1.5", "soon", "\u0663"):
            assert _retry_after_seconds(value) is None

    def test_timeout_raises_completion_timeout(self):
        # the listener queues the connection and never answers it
        with socket.create_server(("127.0.0.1", 0)) as silent:
            endpoint = f"http://127.0.0.1:{silent.getsockname()[1]}/v1/chat/completions"
            backend = HttpBackend(CompletionConfig(endpoint=endpoint, retry_count=0, timeout_ms=200))
            with pytest.raises(CompletionTimeout):
                backend.complete("x")

    def test_timeout_on_the_event_loop_is_recorded_per_stage(self):
        with socket.create_server(("127.0.0.1", 0)) as silent:
            endpoint = f"http://127.0.0.1:{silent.getsockname()[1]}/v1/chat/completions"
            backend = HttpBackend(CompletionConfig(endpoint=endpoint, retry_count=0, timeout_ms=200))
            start = time.perf_counter()
            traces = run_corpus(_corpus(1)[:4], backend, workers=4)
            elapsed = time.perf_counter() - start
        reasons = {s.parsed.reason for t in traces for s in t.stages if s.prompt}
        assert reasons == {"backend error: no response after 1 attempt(s): timed out"}
        assert elapsed < 4 * 0.2  # two calls per lane, not eight in a row

    def test_rejects_non_http_endpoint(self):
        for endpoint in ("localhost:8000/v1/chat/completions", "ftp://host/x", "http:///x"):
            with pytest.raises(ValueError):
                HttpBackend(CompletionConfig(endpoint=endpoint))

    def test_rejects_what_a_request_head_cannot_carry(self, monkeypatch):
        with pytest.raises(ValueError, match="endpoint path"):
            HttpBackend(CompletionConfig(endpoint="http://127.0.0.1:8000/v1/chat completions"))
        with pytest.raises(ValueError, match="Authorization header") as raised:
            HttpBackend(CompletionConfig(api_key="sk-1\r\nX-Injected: 1"))
        assert "sk-1" not in str(raised.value)
        for name in ("http_proxy", "https_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        for scheme, proxy in [
            ("https", "https://u:p@proxy.example"),  # would carry the credentials in plain text to port 80
            ("http", "socks5://u:p@proxy.example:1080"),
            ("http", "http://:8080"),
            ("http", "http://u:p@:8080"),
        ]:
            monkeypatch.setenv(f"{scheme.upper()}_PROXY", proxy)
            with pytest.raises(ValueError, match="proxy must be an http:// URL with a host") as raised:
                HttpBackend(CompletionConfig(endpoint=f"{scheme}://api.example/v1/chat/completions"))
            assert "u:p" not in str(raised.value) and "dTpw" not in str(raised.value)
            monkeypatch.delenv(f"{scheme.upper()}_PROXY")


class TestHttpConnections:
    def test_each_blocking_call_opens_its_own_connection(self, keepalive_server):
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server))
        for k in range(5):
            assert backend.complete(f"call {k}") == f"call {k}"
        carried = sorted(_StubHandler.prompts_by_connection.values())
        assert carried == [[f"call {k}"] for k in range(5)]

    def test_run_pipeline_keeps_one_connection_per_instance(self, keepalive_server):
        instance = next(i for i in _corpus(1) if i.kind.arity == 2)
        _StubHandler.respond = OracleBackend([instance]).complete
        trace = run_pipeline(instance, HttpBackend(CompletionConfig(endpoint=keepalive_server)))
        assert trace.tool_result == instance.gold_answer
        assert [len(p) for p in _StubHandler.prompts_by_connection.values()] == [3]

    def test_idle_connection_closed_by_server_is_resent_once(self, keepalive_server):
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server, retry_count=0))
        # every reply leaves the lane's kept connection closed at the server's end
        _StubHandler.close_after_reply = True
        (trace,) = run_corpus(_corpus(1)[:1], backend, workers=1)
        prompts = [s.prompt for s in trace.stages if s.prompt]
        assert len(prompts) >= 2
        assert [s.raw_output for s in trace.stages if s.prompt] == prompts
        assert [r["messages"][1]["content"] for r in _StubHandler.requests_seen] == prompts
        assert len(_StubHandler.prompts_by_connection) == len(prompts)

    def test_each_thread_uses_its_own_connection(self, keepalive_server):
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server))
        barrier = threading.Barrier(2, timeout=10)
        answers = {}

        def work(name):
            barrier.wait()
            answers[name] = [backend.complete(f"{name}-{k}") for k in range(10)]

        threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for name in ("a", "b"):
            assert answers[name] == [f"{name}-{k}" for k in range(10)]
        assert len(_StubHandler.prompts_by_connection) == 20

    def test_blocking_call_from_inside_a_running_loop(self, keepalive_server):
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server))

        async def in_a_notebook():  # asyncio.run refuses a thread whose loop runs
            return backend.complete("from a coroutine")

        assert asyncio.run(in_a_notebook()) == "from a coroutine"
        assert len(_StubHandler.requests_seen) == 1

    def test_run_command_keeps_a_connection_per_worker(self, keepalive_server, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert cli.main(["generate", "--count", "2", "--out", str(tmp_path)]) == 0
        assert cli.main([
            "run", "--corpus", str(corpus), "--backend", "http", "--endpoint", keepalive_server,
            "--workers", "2", "--out", str(tmp_path / "traces.jsonl"),
        ]) == 0
        assert len(_StubHandler.prompts_by_connection) == 2

    def test_http_proxy_from_environment(self, keepalive_server, monkeypatch):
        proxy = keepalive_server.rsplit("/v1/", 1)[0]
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", proxy)
        endpoint = "http://completions.example.invalid:8000/v1/chat/completions?v=1"
        backend = HttpBackend(CompletionConfig(endpoint=endpoint))
        assert [backend.complete(f"via proxy {k}") for k in range(3)] == [f"via proxy {k}" for k in range(3)]
        assert _StubHandler.targets_seen == [endpoint] * 3
        assert len(_StubHandler.prompts_by_connection) == 3  # one per blocking call

    def test_no_proxy_bypasses_the_proxy(self, keepalive_server, monkeypatch):
        for name in ("http_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server, retry_count=0))
        assert backend.complete("direct") == "direct"
        assert _StubHandler.targets_seen == ["/v1/chat/completions"]


class TestHttps:
    @pytest.mark.parametrize("via", VIA)
    def test_direct_endpoint(self, https_server, monkeypatch, via):
        monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
        backend = HttpBackend(CompletionConfig(endpoint=https_server, retry_count=0))
        exchanges = _exchanges(backend, via)
        assert exchanges and all(prompt == answer for prompt, answer in exchanges)

    @pytest.mark.parametrize("via", VIA)
    def test_untrusted_certificate_fails(self, https_server, monkeypatch, via):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        backend = HttpBackend(CompletionConfig(endpoint=https_server, retry_count=0))
        with pytest.raises(BackendError, match="CERTIFICATE_VERIFY_FAILED"):
            _exchanges(backend, via)
        assert _StubHandler.requests_seen == []

    @pytest.mark.parametrize("via", VIA)
    def test_through_a_connect_proxy(self, https_server, connect_proxy, monkeypatch, via):
        monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
        for name in ("https_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{connect_proxy.server_address[1]}")
        # the name the certificate is checked against, which only the proxy resolves
        endpoint = https_server.replace("https://127.0.0.1:", "https://localhost:")
        port = endpoint.split(":")[2].split("/")[0]
        backend = HttpBackend(CompletionConfig(endpoint=endpoint, retry_count=0))
        exchanges = _exchanges(backend, via)
        assert exchanges and all(prompt == answer for prompt, answer in exchanges)
        assert connect_proxy.targets and set(connect_proxy.targets) == {f"localhost:{port}"}


def _content_length(body):
    return b"Content-Length: %d\r\n\r\n%s" % (len(body), body)


def _chunked(body):
    half = len(body) // 2
    chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(c), c) for c in (body[:half], body[half:]))
    return b"Transfer-Encoding: chunked\r\n\r\n" + chunks + b"0\r\nTrailer-Field: x\r\n\r\n"


# response framing -> (response bytes for a body, whether the connection stays usable)
_FRAMINGS = {
    "content-length": (lambda b: b"HTTP/1.1 200 OK\r\n" + _content_length(b), True),
    "chunked": (lambda b: b"HTTP/1.1 200 OK\r\n" + _chunked(b), True),
    "interim 100": (lambda b: b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n" + _content_length(b), True),
    "HTTP/1.0": (lambda b: b"HTTP/1.0 200 OK\r\n" + _content_length(b), False),
    "connection: close": (lambda b: b"HTTP/1.1 200 OK\r\nConnection: close\r\n" + _content_length(b), False),
    "until close": (lambda b: b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + b, False),
}


class _FramingHandler(socketserver.StreamRequestHandler):
    """Echoes each prompt in the server's framing. It closes the connection
    only where the framing needs it ("until close"): the client must close
    the others itself."""

    def handle(self):
        with self.server.lock:
            self.server.connections += 1
        while self.rfile.readline():
            length = 0
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            prompt = json.loads(self.rfile.read(length))["messages"][-1]["content"]
            frame, _ = _FRAMINGS[self.server.framing]
            self.wfile.write(frame(json.dumps(_ok(prompt)).encode()))
            if self.server.framing == "until close":
                return


@contextlib.contextmanager
def _framing_server(framing):
    """A server that answers in ``framing`` and counts its connections, and
    its endpoint URL."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _FramingHandler)
    server.daemon_threads = True
    server.framing, server.connections, server.lock = framing, 0, threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.mark.parametrize("framing", list(_FRAMINGS))
@pytest.mark.parametrize("via", VIA)
def test_response_framing(framing, via):
    with _framing_server(framing) as (server, endpoint):
        exchanges = _exchanges(HttpBackend(CompletionConfig(endpoint=endpoint, retry_count=0)), via)
    assert exchanges and all(prompt == answer for prompt, answer in exchanges)
    kept = _FRAMINGS[framing][1]
    assert server.connections == (2 if via == "run_corpus" and kept else len(exchanges))


@pytest.mark.parametrize("framing", ["content-length", "chunked", "until close"])
def test_a_body_over_the_cap_is_not_read(framing):
    # max_new_tokens=1 caps a body at 64 KiB + 64 bytes; the echo is larger
    prompt = "x" * 70_000
    with _framing_server(framing) as (server, endpoint):
        backend = HttpBackend(CompletionConfig(endpoint=endpoint, retry_count=1, max_new_tokens=1))
        with pytest.raises(BackendError, match="2 attempt\\(s\\): response body over the 65600-byte cap"):
            backend.complete(prompt)
        # a whole echo stays within a cap a thousand tokens wide
        assert HttpBackend(CompletionConfig(endpoint=endpoint, max_new_tokens=1000)).complete(prompt) == prompt
    assert server.connections == 3  # the connection closes after each body over the cap


class TestEventLoopRuns:
    def _corpus_dir(self, tmp_path, *argv):
        assert cli.main(["generate", *argv, "--out", str(tmp_path)]) == 0
        return tmp_path / "corpus.jsonl"

    def test_waits_overlap_without_threads(self, keepalive_server, tmp_path):
        corpus = self._corpus_dir(tmp_path, "--tasks", "edge_count", "--count", "4")  # 8 instances
        _StubHandler.delay_s = 0.2
        before = threading.active_count()
        start = time.perf_counter()
        assert cli.main([
            "run", "--corpus", str(corpus), "--backend", "http", "--endpoint", keepalive_server,
            "--workers", "4", "--out", str(tmp_path / "traces.jsonl"),
        ]) == 0
        elapsed = time.perf_counter() - start
        calls = len(_StubHandler.requests_seen)
        assert calls == 16
        assert elapsed < 0.5 * calls * _StubHandler.delay_s  # serially it takes all of it
        assert len(_StubHandler.prompts_by_connection) == 4
        # the server runs a thread per connection; the client adds none
        assert max(_StubHandler.thread_counts) <= before + 4

    def test_traces_do_not_depend_on_the_workers_or_a_running_loop(self, keepalive_server, tmp_path):
        corpus = self._corpus_dir(tmp_path, "--count", "2", "--size", "both", "--seed", "4")
        instances = load_corpus(corpus)
        plan = FaultPlan(drop_graph_edges=0.3, wrong_tool_name=0.3, swap_parameters=0.3, emit_garbage=0.1)
        _StubHandler.respond = FaultBackend(OracleBackend(instances), plan, seed=5).complete
        stored = {}
        for workers in ("1", "4"):
            out = tmp_path / f"traces-{workers}.jsonl"
            assert cli.main([
                "run", "--corpus", str(corpus), "--backend", "http", "--endpoint", keepalive_server,
                "--workers", workers, "--out", str(out),
            ]) == 0
            stored[workers] = list(read_jsonl(out))

        async def in_a_notebook():  # asyncio.run refuses a thread whose loop runs
            backend = HttpBackend(CompletionConfig(endpoint=keepalive_server))
            return run_corpus(instances, backend, workers=4, base_dir=tmp_path)

        traces = asyncio.run(in_a_notebook())
        stored["in a running loop"] = [json.loads(json.dumps(trace_to_json(t))) for t in traces]
        for run in stored.values():
            for trace in run:
                for stage in trace["stages"]:
                    del stage["latency_ms"]
        assert stored["4"] == stored["1"] == stored["in a running loop"]
        assert [t["instance_id"] for t in stored["4"]] == [i.id for i in instances]
        assert any(t["tool_error"] for t in stored["4"]) and any(t["tool_result"] for t in stored["4"])
