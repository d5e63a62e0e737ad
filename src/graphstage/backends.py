"""Completion backends: a chat-completions HTTP client, a deterministic
oracle that answers every stage perfectly, and a fault-injection wrapper
that corrupts oracle output in controlled, labeled ways.

All backends expose a blocking ``complete(prompt) -> str``. The HTTP
backend's call runs on an asyncio event loop of its own, over a connection
for that call alone; the backend also hands out keep-alive connections whose
``complete`` is a coroutine, which :mod:`graphstage.pipeline` awaits for
every stage of an HTTP run. The oracle and fault backends
identify the instance and stage from the bracketed metadata line the
pipeline puts in each prompt.
"""

from __future__ import annotations

import base64
import json
import os
import random
import re
import ssl
import threading
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import unquote, urlsplit, urlunsplit

from .codec import render_edge_list
from .generator import SizeClass, TaskInstance, seeded_rng
from .graphs import build_graph
from .pipeline import parse_prompt_meta, run_on_loop
from .tools import TOOLS, ToolError, dispatch


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
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


_SYSTEM_MESSAGE = "You are a careful assistant for graph reasoning tasks."
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_RETRY_AFTER_STATUS = {429, 503}
_MAX_BACKOFF_S = 8.0
# what a reused connection raises when the server closed it while it sat idle
_IDLE_CLOSE_ERRORS = (ConnectionResetError, BrokenPipeError)
_MAX_LINE = 2 ** 16  # longest status or header line; asyncio's default stream limit
_MAX_HEADERS = 100
# a response body may hold an envelope (ids, usage) of up to _MAX_LINE bytes
# and this many bytes per requested token; a larger one is not read
_BODY_BYTES_PER_TOKEN = 64
# what an HTTP/1.1 request line or header value may not hold
_TARGET_FORBIDDEN = re.compile(r"[\x00-\x20\x7f]")
_VALUE_FORBIDDEN = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """Seconds a ``Retry-After`` header asks for, capped at the backoff
    ceiling; None unless the header is a whole number of seconds."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), _MAX_BACKOFF_S)


def _request_head(request: str, headers: Dict[str, str]) -> bytes:
    for name, value in headers.items():
        if _VALUE_FORBIDDEN.search(value):
            raise ValueError(f"the {name} header would hold a control character")
    lines = [f"{request} HTTP/1.1", *(f"{name}: {value}" for name, value in headers.items())]
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


def _length(field: bytes, base: int = 10) -> int:
    """A body or chunk length from a response; ValueError unless it is one."""
    length = int(field, base)
    if length < 0:
        raise ValueError(f"negative length {field!r}")
    return length


def _within(length: int, limit: int) -> int:
    """A body length the client reads: ValueError when it is over the cap."""
    if length > limit:
        raise ValueError(f"response body over the {limit}-byte cap")
    return length


class _Connection:
    """One keep-alive HTTP/1.1 connection on the running asyncio event loop,
    to the endpoint or to the proxy that leads to it, and the client's
    protocol on it: the request bytes, the response framing, one resend when
    a kept connection turns out closed, and the retry and backoff policy
    (:meth:`complete`). Each exchange must end within ``timeout_ms`` of its
    start.
    """

    _reader = _writer = None

    def __init__(self, backend: "HttpBackend"):
        self._backend = backend

    async def complete(self, prompt: str) -> str:
        import asyncio

        cfg = self._backend.config
        body = self._backend._body(prompt)
        attempts = cfg.retry_count + 1
        # the text, not the exception: its traceback holds this frame, which
        # would hold it back, one reference cycle per failed attempt
        last_error: Optional[str] = None
        timed_out = False
        wait: Optional[float] = None
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(wait if wait is not None else min(0.5 * 2 ** (attempt - 1), _MAX_BACKOFF_S))
            wait = None
            try:
                status, retry_after, payload = await self._post(body)
            except TimeoutError as exc:
                last_error, timed_out = str(exc), True
                continue
            except (OSError, EOFError, ValueError) as exc:
                # ValueError: a reply that is not HTTP (status line, a length,
                # an over-long line) or whose body is over the cap
                last_error = str(exc)
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {status})")
            if status in _RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                if status in _RETRY_AFTER_STATUS and retry_after is not None:
                    wait = _retry_after_seconds(retry_after.decode("latin-1"))
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

    async def _post(self, body: bytes):
        reused = self._writer is not None
        try:
            return await self._exchange(body)
        except _IDLE_CLOSE_ERRORS:
            if not reused:
                raise
        return await self._exchange(body)  # once, on a fresh connection

    async def _exchange(self, body: bytes):
        """(status, Retry-After header or None, body bytes) of one POST. It
        opens the connection when closed, and closes it after a failure or
        a reply that ends it."""
        import asyncio

        # a deadline that cancels this task: asyncio.wait_for would start a
        # task per call, and asyncio.timeout is Python 3.11+
        task = asyncio.current_task()
        self._expired = False
        deadline = task.get_loop().call_later(self._backend.config.timeout_ms / 1000.0, self._expire, task)
        limit = self._backend._body_limit
        try:
            if self._writer is None:
                await self._open()
            self._writer.write(self._backend._head + b"%d\r\n\r\n" % len(body) + body)
            version, status, headers = await self._read_head()
            while 100 <= status < 200:  # interim replies precede the final one
                version, status, headers = await self._read_head()
            keep = version == b"HTTP/1.1" and b"close" not in headers.get(b"connection", b"").lower()
            if status in (204, 304):
                payload = b""
            elif b"chunked" in headers.get(b"transfer-encoding", b"").lower():
                payload = await self._read_chunked(limit)
            elif b"content-length" in headers:
                payload = await self._reader.readexactly(_within(_length(headers[b"content-length"]), limit))
            else:
                keep = False
                try:
                    payload = await self._reader.readexactly(limit + 1)
                except asyncio.IncompleteReadError as ended:  # closed at the end of the body
                    payload = ended.partial
                _within(len(payload), limit)
        except BaseException as exc:
            self.close()  # the connection is mid-exchange; the next request opens a new one
            # the deadline's own cancel becomes a timeout; on Python 3.11+
            # one that someone else requested as well stays a cancel
            if not (isinstance(exc, asyncio.CancelledError) and self._expired) or (
                hasattr(task, "uncancel") and task.uncancel()
            ):
                raise
            raise TimeoutError("timed out") from None
        finally:
            deadline.cancel()
        if not keep:
            self.close()
        return status, headers.get(b"retry-after"), payload

    def _expire(self, task) -> None:
        self._expired = True
        task.cancel()

    async def _open(self) -> None:
        import asyncio

        backend = self._backend
        host, port = backend._proxy or (backend._host, backend._port)
        context = None if backend._proxy else backend._ssl
        try:
            self._reader, self._writer = await asyncio.open_connection(host, port, ssl=context, limit=_MAX_LINE)
        except ConnectionRefusedError as exc:
            # without the address asyncio adds, which would differ per port
            raise ConnectionRefusedError(exc.errno, os.strerror(exc.errno)) from None
        if backend._proxy and backend._ssl is not None:
            # https goes through a CONNECT tunnel, and the TLS inside it
            # checks the certificate against the endpoint host
            self._writer.write(backend._tunnel_request)
            _, status, _ = await self._read_head()
            if status != 200:
                raise OSError(f"Tunnel connection failed: {status}")
            # StreamWriter.start_tls is Python 3.11+: TLS runs on a duplicate
            # of the tunnel's socket, and the plain transport lets go of its own
            sock = self._writer.get_extra_info("socket").dup()
            self._writer.transport.abort()
            self._reader, self._writer = await asyncio.open_connection(
                sock=sock, ssl=backend._ssl, server_hostname=backend._host, limit=_MAX_LINE
            )

    async def _read_head(self):
        """(version, status, headers) of a response head; header names are
        lower case."""
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("Remote end closed connection without response")
        version, _, rest = line.partition(b" ")
        if not (version.startswith(b"HTTP/1.") and rest[:3].isdigit()):
            raise ValueError(f"malformed status line {line[:80]!r}")
        headers: Dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS):
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                return version, int(rest[:3]), headers
            name, colon, value = line.partition(b":")
            if not colon:
                raise ValueError(f"malformed header line {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        raise ValueError(f"more than {_MAX_HEADERS} header lines")

    async def _read_chunked(self, limit: int) -> bytes:
        chunks, total = [], 0
        while True:
            size = _length((await self._reader.readline()).split(b";", 1)[0], 16)
            if not size:
                break
            total = _within(total + size, limit)
            chunks.append(await self._reader.readexactly(size))
            await self._reader.readexactly(2)  # the CRLF that ends the chunk
        while (await self._reader.readline()) not in (b"\r\n", b"\n", b""):
            pass  # trailer fields
        return b"".join(chunks)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.transport.abort()
            self._reader = self._writer = None


class HttpBackend:
    """Chat-completions client: system+user messages, first choice's content.

    Built on the standard library alone, over HTTP/1.1 connections on an
    asyncio event loop. :func:`~graphstage.pipeline.run_corpus` runs its
    pipelines as coroutines on one loop, ``--workers`` of them at a time,
    each over a keep-alive connection of its own from :meth:`connection`.
    :meth:`complete` is a blocking call for any thread, inside a running
    event loop or not, over a connection that lasts for that call alone.

    Proxies come from the environment (``HTTP_PROXY``/``HTTPS_PROXY``,
    honouring ``NO_PROXY``) and are resolved once, when the backend is made:
    http requests go through the proxy with the absolute URL as target, https
    requests through a CONNECT tunnel with the certificate still verified
    against the endpoint host. A proxy must be an ``http://`` URL with a
    host, since the client speaks plain HTTP to it.
    """

    def __init__(self, config: CompletionConfig):
        self.config = config
        url = urlsplit(config.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {config.endpoint!r}")
        https = url.scheme == "https"
        self._host, self._port = url.hostname, url.port or (443 if https else 80)
        self._ssl = ssl.create_default_context() if https else None
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if _TARGET_FORBIDDEN.search(target):
            raise ValueError(f"endpoint path holds a space or control character: {config.endpoint!r}")
        host = f"[{self._host}]" if ":" in self._host else self._host
        authority = f"{host}:{self._port}"
        headers = {
            "Host": host if self._port == (443 if https else 80) else authority,
            "Accept-Encoding": "identity",
            "Content-Type": "application/json",
        }
        if config.api_key:
            headers["Authorization"] = f"Bearer {config.api_key}"

        self._proxy: Optional[Tuple[str, int]] = None
        tunnel_headers = {"Host": authority}
        netloc = url.netloc.rpartition("@")[2]
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            purl = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if purl.scheme != "http" or not purl.hostname:  # named without its credentials
                shown = f"{purl.scheme}://{purl.hostname or ''}"
                raise ValueError(f"the {url.scheme} proxy must be an http:// URL with a host, not {shown}")
            self._proxy = (purl.hostname, purl.port or 80)
            auth = {}
            if purl.username is not None:
                creds = f"{unquote(purl.username)}:{unquote(purl.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(creds.encode()).decode("ascii")
            if https:
                tunnel_headers.update(auth)
            else:
                headers.update(auth)
                target = urlunsplit((url.scheme, netloc, url.path or "/", url.query, ""))
        # a request is this head, its body's length, a blank line and the body
        self._head = _request_head(f"POST {target}", headers) + b"Content-Length: "
        self._tunnel_request = _request_head(f"CONNECT {authority}", tunnel_headers) + b"\r\n"
        self._body_limit = _MAX_LINE + _BODY_BYTES_PER_TOKEN * config.max_new_tokens

    def _body(self, prompt: str) -> bytes:
        cfg = self.config
        return json.dumps(
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

    def complete(self, prompt: str) -> str:
        async def call():
            connection = self.connection()
            try:
                return await connection.complete(prompt)
            finally:
                connection.close()

        return run_on_loop(call())

    def connection(self) -> _Connection:
        """A new connection for coroutines on the running event loop:
        ``await connection.complete(prompt)``, one call at a time, then
        ``connection.close()``. It connects on first use and again after a
        failure."""
        return _Connection(self)


class OracleBackend:
    """Emits a perfectly formatted gold output for whichever stage is asked."""

    def __init__(self, corpus: Iterable[TaskInstance]):
        self.by_id: Dict[str, TaskInstance] = {inst.id: inst for inst in corpus}

    def _instance(self, prompt: str) -> Tuple[TaskInstance, str]:
        meta = parse_prompt_meta(prompt)
        if meta is None:
            raise BackendError("prompt carries no task metadata line")
        if meta[0] not in self.by_id:
            raise BackendError(f"unknown instance id {meta[0]!r}")
        return self.by_id[meta[0]], meta[1].value

    def gold_output(self, instance: TaskInstance, stage: str) -> str:
        if stage == "graph":
            if instance.size_class is SizeClass.EL:
                return f"The graph file path is: {instance.graph_file}"
            return f"The edges are: {render_edge_list(instance.graph)}"
        if stage == "name":
            return f"API_name: {instance.kind.tool}"
        if stage == "params":
            spec = TOOLS.get(instance.kind.tool)
            pairs = zip(spec.parameter_names(), instance.params)
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

    def _record(self, instance_id: str, stage: str, mode: str) -> None:
        with self._lock:
            self.injected.setdefault(instance_id, {})[stage] = mode

    def complete(self, prompt: str) -> str:
        instance, stage = self.oracle._instance(prompt)
        gold = self.oracle.gold_output(instance, stage)
        rng = seeded_rng(f"{self.seed}|{instance.id}|{stage}")
        mode, corrupt = self._STRUCTURED[stage]
        if rng.random() < getattr(self.plan, mode):
            corrupted = corrupt(self, instance, rng)
            if corrupted is not None:
                self._record(instance.id, stage, mode)
                return corrupted
        if stage in self.plan.garbage_stages and rng.random() < self.plan.emit_garbage:
            self._record(instance.id, stage, "emit_garbage")
            return _GARBAGE_TEXT
        return gold

    # -- structured corruptions ------------------------------------------

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
            reduced = build_graph(instance.graph.directed, None, keep, instance.graph.weight_kind)
            try:
                dispatch(instance.kind.tool, reduced, instance.params)
            except ToolError:
                continue
            return f"The edges are: {render_edge_list(reduced)}"
        return None

    def _wrong_name(self, instance: TaskInstance, rng: random.Random) -> Optional[str]:
        tool = instance.kind.tool
        if not instance.kind.parametric:
            options = [t for t in _SAFE_PARAM_FREE_SUBSTITUTES if t != tool]
        elif tool == "degree_count":
            options = ["node_existence"]
        elif tool == "node_existence":
            # degree_count errors on a nonexistent node, so only positive
            # queries can take this substitution
            node = instance.params[0]
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
        if len(instance.params) != 2:
            return None
        a, b = instance.params
        try:
            dispatch(instance.kind.tool, instance.graph, (b, a))
        except ToolError:
            return None  # e.g. the reversed pair is unreachable on a directed graph
        spec = TOOLS.get(instance.kind.tool)
        names = spec.parameter_names()
        return f"{names[0]}={b}, {names[1]}={a}"

    # stage -> the structured mode that targets it (also the name of its
    # FaultPlan probability) and the corruption that applies it
    _STRUCTURED = {
        "graph": ("drop_graph_edges", _drop_edges),
        "name": ("wrong_tool_name", _wrong_name),
        "params": ("swap_parameters", _swap_params),
    }
