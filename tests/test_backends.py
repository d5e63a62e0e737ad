import http.server
import json
import random
import socket
import threading
import time

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
from graphstage.backends import AuthError, BackendError, CompletionTimeout, _retry_after_seconds
from graphstage.codec import extract_file_path
from graphstage.pipeline import StageKind, assemble_prompt

REGISTRY = default_registry()


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
            assert REGISTRY.contains(name)
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
            entry = _StubHandler.script.pop(0) if _StubHandler.script else (200, _ok(prompt))
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


def _serve(handler):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests_seen = []
    _StubHandler.targets_seen = []
    _StubHandler.prompts_by_connection = {}
    _StubHandler.close_after_reply = False
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture()
def stub_server():
    yield from _serve(_StubHandler)


@pytest.fixture()
def keepalive_server():
    yield from _serve(_KeepAliveHandler)


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
            backend.close()

    def test_rejects_non_http_endpoint(self):
        for endpoint in ("localhost:8000/v1/chat/completions", "ftp://host/x", "http:///x"):
            with pytest.raises(ValueError):
                HttpBackend(CompletionConfig(endpoint=endpoint))


class TestHttpConnections:
    def test_sequential_calls_share_one_connection(self, keepalive_server):
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server))
        try:
            for k in range(20):
                assert backend.complete(f"call {k}") == f"call {k}"
        finally:
            backend.close()
        assert len(_StubHandler.prompts_by_connection) == 1

    def test_idle_connection_closed_by_server_is_resent_once(self, keepalive_server):
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server, retry_count=0))
        _StubHandler.close_after_reply = True
        try:
            assert backend.complete("first") == "first"
            # the kept connection is now closed at the server's end
            assert backend.complete("second") == "second"
        finally:
            backend.close()
        assert len(_StubHandler.prompts_by_connection) == 2
        assert [r["messages"][1]["content"] for r in _StubHandler.requests_seen] == ["first", "second"]

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
        backend.close()
        assert not any(t.is_alive() for t in threads)
        for name in ("a", "b"):
            assert answers[name] == [f"{name}-{k}" for k in range(10)]
        carried = sorted(_StubHandler.prompts_by_connection.values())
        assert carried == [[f"{name}-{k}" for k in range(10)] for name in ("a", "b")]

    def test_http_proxy_from_environment(self, keepalive_server, monkeypatch):
        proxy = keepalive_server.rsplit("/v1/", 1)[0]
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", proxy)
        endpoint = "http://completions.example.invalid:8000/v1/chat/completions?v=1"
        backend = HttpBackend(CompletionConfig(endpoint=endpoint))
        try:
            assert [backend.complete(f"via proxy {k}") for k in range(3)] == [
                f"via proxy {k}" for k in range(3)
            ]
        finally:
            backend.close()
        assert _StubHandler.targets_seen == [endpoint] * 3
        assert len(_StubHandler.prompts_by_connection) == 1

    def test_no_proxy_bypasses_the_proxy(self, keepalive_server, monkeypatch):
        for name in ("http_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        backend = HttpBackend(CompletionConfig(endpoint=keepalive_server, retry_count=0))
        try:
            assert backend.complete("direct") == "direct"
        finally:
            backend.close()
        assert _StubHandler.targets_seen == ["/v1/chat/completions"]
