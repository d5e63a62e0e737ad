"""Completion backends: a chat-completions HTTP client, a deterministic
oracle that answers every stage perfectly, and a fault-injection wrapper
that corrupts oracle output in controlled, labeled ways.

All backends expose ``complete(prompt) -> str`` and are safe to call from
multiple worker threads. The oracle and fault backends identify the instance
and stage from the bracketed metadata line the pipeline puts in each prompt.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import random
import ssl
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import unquote, urlsplit, urlunsplit

from .codec import render_edge_list
from .generator import SizeClass, TaskInstance
from .graphs import build_graph
from .pipeline import parse_prompt_meta
from .tools import ToolError, dispatch
from .toolset import ToolRegistry, default_registry


class BackendError(RuntimeError):
    """Transport-level completion failure after all retries."""


class AuthError(BackendError):
    """The endpoint rejected the credentials; retrying cannot help."""


class CompletionTimeout(BackendError):
    """Every attempt timed out."""


@dataclass
class CompletionConfig:
    model: str = "local-model"
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    api_key: str = field(default="", repr=False)
    max_new_tokens: int = 4096
    top_p: float = 1.0
    temperature: float = 0.7
    retry_count: int = 2
    timeout_ms: int = 60_000

    def __post_init__(self):
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must lie in (0, 1]")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.retry_count < 0:
            raise ValueError("retry_count must be non-negative")


_SYSTEM_MESSAGE = "You are a careful assistant for graph reasoning tasks."
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_RETRY_AFTER_STATUS = {429, 503}
_MAX_BACKOFF_S = 8.0
# what a reused connection raises when the server closed it while it sat idle
_IDLE_CLOSE_ERRORS = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """Seconds a ``Retry-After`` header asks for, capped at the backoff
    ceiling; None unless the header is a whole number of seconds."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), _MAX_BACKOFF_S)


class HttpBackend:
    """Chat-completions client: system+user messages, first choice's content.

    Built on the standard library alone. Each thread that calls
    ``complete`` (one per ``--workers`` thread) keeps one persistent HTTP/1.1
    connection to the endpoint and reuses it across calls; ``close`` closes
    them all once no call is in flight. Proxies come from the environment
    (``HTTP_PROXY``/``HTTPS_PROXY``, honouring ``NO_PROXY``) and are resolved
    once, when the backend is made: http requests go through the proxy with
    the absolute URL as target, https requests through a CONNECT tunnel with
    the certificate still verified against the endpoint host.
    """

    def __init__(self, config: CompletionConfig):
        self.config = config
        url = urlsplit(config.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {config.endpoint!r}")
        self._https = url.scheme == "https"
        # explicit ports: http.client would read the tail of a bare IPv6 host as one
        self._host, self._port = url.hostname, url.port or (443 if self._https else 80)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if config.api_key:
            self._headers["Authorization"] = f"Bearer {config.api_key}"
        self._ssl = ssl.create_default_context() if self._https else None

        self._proxy: Optional[Tuple[str, int]] = None
        self._tunnel_headers: Dict[str, str] = {}
        netloc = url.netloc.rpartition("@")[2]
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            purl = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (purl.hostname, purl.port or 80)
            auth = {}
            if purl.username is not None:
                creds = f"{unquote(purl.username)}:{unquote(purl.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(creds.encode()).decode("ascii")
            if self._https:
                self._tunnel_headers = auth
            else:
                self._headers.update(auth)
                self._target = urlunsplit((url.scheme, netloc, url.path or "/", url.query, ""))

        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: List[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; it reconnects by itself once closed."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            timeout = self.config.timeout_ms / 1000.0
            host, port = self._proxy or (self._host, self._port)
            if self._https:
                conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._ssl)
                if self._proxy:
                    conn.set_tunnel(self._host, self._port, headers=self._tunnel_headers)
            else:
                conn = http.client.HTTPConnection(host, port, timeout=timeout)
            with self._lock:
                self._opened.append(conn)
            self._local.conn = conn
        return conn

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes):
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
            return response.status, response.getheader("Retry-After"), response.read()
        except BaseException:
            conn.close()  # the connection is mid-exchange; the next request opens a new one
            raise

    def _post(self, body: bytes):
        """(status, Retry-After header, body bytes) of one POST."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            return self._exchange(conn, body)
        except _IDLE_CLOSE_ERRORS:
            if not reused:
                raise
        return self._exchange(conn, body)  # once, on a fresh connection

    def close(self) -> None:
        """Close every connection this backend opened; a later call reconnects."""
        with self._lock:
            for conn in self._opened:
                conn.close()

    def complete(self, prompt: str) -> str:
        cfg = self.config
        body = json.dumps(
            {
                "model": cfg.model,
                "messages": [
                    {"role": "system", "content": _SYSTEM_MESSAGE},
                    {"role": "user", "content": prompt},
                ],
                "temperature": cfg.temperature,
                "top_p": cfg.top_p,
                "max_tokens": cfg.max_new_tokens,
            },
            allow_nan=False,
        ).encode("utf-8")
        attempts = cfg.retry_count + 1
        last_error: Optional[Exception] = None
        timed_out = False
        wait: Optional[float] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(wait if wait is not None else min(0.5 * 2 ** (attempt - 1), _MAX_BACKOFF_S))
            wait = None
            try:
                status, retry_after, payload = self._post(body)
            except TimeoutError as exc:
                last_error, timed_out = exc, True
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {status})")
            if status in _RETRYABLE_STATUS:
                last_error = BackendError(f"HTTP {status}")
                if status in _RETRY_AFTER_STATUS:
                    wait = _retry_after_seconds(retry_after)
                continue
            if status != 200:
                text = payload.decode("utf-8", "replace")
                raise BackendError(f"HTTP {status}: {text[:200]}")
            try:
                return json.loads(payload)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion body: {exc}") from exc
        if timed_out:
            raise CompletionTimeout(f"no response after {attempts} attempt(s): {last_error}")
        raise BackendError(f"no response after {attempts} attempt(s): {last_error}")


def _prompt_meta(prompt: str) -> Tuple[str, str]:
    meta = parse_prompt_meta(prompt)
    if meta is None:
        raise BackendError("prompt carries no task metadata line")
    return meta[0], meta[1].value


class OracleBackend:
    """Emits a perfectly formatted gold output for whichever stage is asked."""

    def __init__(self, corpus: Iterable[TaskInstance], registry: Optional[ToolRegistry] = None):
        self.by_id: Dict[str, TaskInstance] = {inst.id: inst for inst in corpus}
        self.registry = registry or default_registry()

    def _instance(self, prompt: str) -> Tuple[TaskInstance, str]:
        instance_id, stage = _prompt_meta(prompt)
        if instance_id not in self.by_id:
            raise BackendError(f"unknown instance id {instance_id!r}")
        return self.by_id[instance_id], stage

    def gold_output(self, instance: TaskInstance, stage: str) -> str:
        if stage == "graph":
            if instance.size_class is SizeClass.EL:
                return f"The graph file path is: {instance.graph_file}"
            return f"The edges are: {render_edge_list(instance.graph)}"
        if stage == "name":
            return f"API_name: {instance.gold_tool}"
        if stage == "params":
            spec = self.registry.get(instance.gold_tool)
            pairs = zip(spec.parameter_names(), instance.gold_params)
            return ", ".join(f"{name}={value}" for name, value in pairs)
        raise BackendError(f"unknown stage {stage!r}")

    def complete(self, prompt: str) -> str:
        instance, stage = self._instance(prompt)
        return self.gold_output(instance, stage)


@dataclass(frozen=True)
class FaultPlan:
    """Per-mode corruption probabilities.

    drop_graph_edges targets the graph stage, wrong_tool_name the name stage,
    swap_parameters the parameter stage; emit_garbage can hit any stage
    listed in garbage_stages. At most one mode fires per stage.
    """

    drop_graph_edges: float = 0.0
    wrong_tool_name: float = 0.0
    swap_parameters: float = 0.0
    emit_garbage: float = 0.0
    garbage_stages: Tuple[str, ...] = ("graph", "name", "params")

    def __post_init__(self):
        for p in (self.drop_graph_edges, self.wrong_tool_name, self.swap_parameters, self.emit_garbage):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")


_GARBAGE_TEXT = (
    "Unfortunately the description is ambiguous and no definite structure, "
    "tool or values can be stated with confidence."
)

# tools that execute cleanly on any valid graph, used as name substitutes
_SAFE_PARAM_FREE_SUBSTITUTES = ("cycle_detection", "edge_count", "node_count")


class FaultBackend:
    """Wraps the oracle, corrupting stage outputs per plan.

    Ground-truth corruption labels are recorded out of band in ``injected``
    (instance id -> stage -> mode), only for corruptions actually applied.
    A corruption is applied only when the downstream pipeline can still
    execute the tool cleanly, so a structured fault surfaces as exactly its
    own mismatch category rather than an incidental syntax error; when no
    safe corruption exists the call passes through unlabeled.
    """

    def __init__(self, oracle: OracleBackend, plan: FaultPlan, seed: int = 0):
        self.oracle = oracle
        self.plan = plan
        self.seed = seed
        self.injected: Dict[str, Dict[str, str]] = {}
        self._lock = threading.Lock()

    def _rng(self, instance_id: str, stage: str) -> random.Random:
        key = f"{self.seed}|{instance_id}|{stage}".encode()
        return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))

    def _record(self, instance_id: str, stage: str, mode: str) -> None:
        with self._lock:
            self.injected.setdefault(instance_id, {})[stage] = mode

    def complete(self, prompt: str) -> str:
        instance, stage = self.oracle._instance(prompt)
        gold = self.oracle.gold_output(instance, stage)
        rng = self._rng(instance.id, stage)
        plan = self.plan

        structured_p = {
            "graph": plan.drop_graph_edges,
            "name": plan.wrong_tool_name,
            "params": plan.swap_parameters,
        }[stage]
        if rng.random() < structured_p:
            corrupted = self._apply_structured(instance, stage, rng)
            if corrupted is not None:
                mode = {
                    "graph": "drop_graph_edges",
                    "name": "wrong_tool_name",
                    "params": "swap_parameters",
                }[stage]
                self._record(instance.id, stage, mode)
                return corrupted
        if stage in plan.garbage_stages and rng.random() < plan.emit_garbage:
            self._record(instance.id, stage, "emit_garbage")
            return _GARBAGE_TEXT
        return gold

    # -- structured corruptions ------------------------------------------

    def _apply_structured(self, instance: TaskInstance, stage: str, rng: random.Random):
        if stage == "graph":
            return self._drop_edges(instance, rng)
        if stage == "name":
            return self._wrong_name(instance, rng)
        return self._swap_params(instance, rng)

    def _drop_edges(self, instance: TaskInstance, rng: random.Random) -> Optional[str]:
        if instance.size_class is SizeClass.EL:
            return None  # the graph stage output is a file path, nothing to drop
        edges = list(instance.graph.edges)
        if len(edges) < 2:
            return None  # dropping the only edge would leave nothing to parse
        for _ in range(20):
            k = rng.randint(1, min(3, len(edges) - 1))
            keep = list(edges)
            for _ in range(k):
                keep.pop(rng.randrange(len(keep)))
            node_count = 1 + max(max(u, v) for u, v, _ in keep)
            reduced = build_graph(
                instance.graph.directed, node_count, keep, instance.graph.weight_kind
            )
            try:
                dispatch(instance.gold_tool, reduced, instance.gold_params)
            except ToolError:
                continue
            return f"The edges are: {render_edge_list(reduced)}"
        return None

    def _wrong_name(self, instance: TaskInstance, rng: random.Random) -> Optional[str]:
        tool = instance.gold_tool
        if not instance.kind.parametric:
            options = [t for t in _SAFE_PARAM_FREE_SUBSTITUTES if t != tool]
        elif tool == "degree_count":
            options = ["node_existence"]
        elif tool == "node_existence":
            # degree_count errors on a nonexistent node, so only positive
            # queries can take this substitution
            node = instance.gold_params[0]
            options = ["degree_count"] if node < instance.graph.node_count else []
        elif tool == "edge_existence":
            options = ["path_existence"]
        elif tool == "path_existence":
            options = ["edge_existence"]
        else:
            # maximum_flow and shortest_path have no substitute that shares
            # parameter names and is guaranteed to execute
            options = []
        if not options:
            return None
        return f"API_name: {options[rng.randrange(len(options))]}"

    def _swap_params(self, instance: TaskInstance, rng: random.Random) -> Optional[str]:
        if len(instance.gold_params) != 2:
            return None
        a, b = instance.gold_params
        try:
            dispatch(instance.gold_tool, instance.graph, (b, a))
        except ToolError:
            return None  # e.g. the reversed pair is unreachable on a directed graph
        spec = self.oracle.registry.get(instance.gold_tool)
        names = spec.parameter_names()
        return f"{names[0]}={b}, {names[1]}={a}"
