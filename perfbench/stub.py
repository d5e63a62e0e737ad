"""Local chat-completions endpoint that serves fault-injected answers.

Run as ``python3 perfbench/stub.py --corpus DIR/corpus.jsonl`` with the
package's ``src`` on ``PYTHONPATH``. It prints ``ready <port>`` once it
listens on 127.0.0.1 and stops when its standard input closes.

Set-up precomputes every answer with ``FaultBackend`` (one per instance and
stage), so serving a request costs a regex search and a table lookup and does
not depend on the library code under test. Each connection gets its own
thread, so keep-alive clients are not serialised, and each response leaves in
one buffer: a header write followed by a body write meets the client's
delayed ACK and costs tens of milliseconds per call.

Besides ``POST /v1/chat/completions`` it answers ``GET /stats`` (TCP
connections that sent a completion request, completion requests, request
bytes, and the fault labels of the stages served so far, as
``{instance id: {stage: mode}}``) and ``POST /reset`` (zero the counters).
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import socketserver
import sys
import threading
from typing import Dict, Iterable, Tuple
from urllib.parse import urlsplit

from graphstage.backends import FaultBackend, FaultPlan, OracleBackend

META = re.compile(rb"\[task (\S+) \| stage ([GNP])\]")
STAGES = {"G": "graph", "N": "name", "P": "params"}
LETTERS = {stage: letter for letter, stage in STAGES.items()}


def http_response(status: str, body: bytes) -> bytes:
    head = f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def completion_body(content: str) -> bytes:
    return json.dumps({
        "object": "chat.completion",
        "choices": [{"index": 0, "message": {"role": "assistant", "content": content},
                     "finish_reason": "stop"}],
    }).encode("utf-8")


def build_table(corpus: Iterable, plan: FaultPlan, seed: int):
    """(instance id, stage letter) -> full HTTP response, and the fault
    labels ``FaultBackend`` recorded, keyed the same way."""
    corpus = list(corpus)
    fault = FaultBackend(OracleBackend(corpus), plan, seed=seed)
    table: Dict[Tuple[str, str], bytes] = {}
    for instance in corpus:
        for letter in STAGES:
            content = fault.complete(f"[task {instance.id} | stage {letter}]")
            table[(instance.id, letter)] = http_response("200 OK", completion_body(content))
    labels = {
        (instance_id, LETTERS[stage]): mode
        for instance_id, stages in fault.injected.items()
        for stage, mode in stages.items()
    }
    return table, labels


def control(endpoint: str, method: str, path: str) -> dict:
    """Call the stub's ``/stats`` or ``/reset`` on the host of ``endpoint``."""
    url = urlsplit(endpoint)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        conn.request(method, path, body=b"" if method == "POST" else None)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class StubServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, table, labels):
        super().__init__(address, _Handler)
        self.table = table
        self.labels = labels
        self.lock = threading.Lock()
        self.served = set()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.connections = 0
            self.requests = 0
            self.request_bytes = 0

    def count_connection(self) -> None:
        with self.lock:
            self.connections += 1

    def answer(self, body: bytes, request_bytes: int) -> bytes:
        m = META.search(body)
        key = (m.group(1).decode(), m.group(2).decode()) if m else None
        with self.lock:
            self.requests += 1
            self.request_bytes += request_bytes
            if key in self.table:
                self.served.add(key)
        if key not in self.table:
            return http_response("404 Not Found", b'{"error": "unknown task or stage"}')
        return self.table[key]

    def stats(self) -> dict:
        with self.lock:
            labels: Dict[str, Dict[str, str]] = {}
            for key in self.served:
                if key in self.labels:
                    labels.setdefault(key[0], {})[STAGES[key[1]]] = self.labels[key]
            return {"connections": self.connections, "requests": self.requests,
                    "request_bytes": self.request_bytes, "labels": labels}


class _Handler(socketserver.StreamRequestHandler):
    # wbufsize stays 0: each wfile.write is one sendall of a whole response
    disable_nagle_algorithm = True

    def handle(self):
        server: StubServer = self.server
        counted = False
        while True:
            request_line = self.rfile.readline(65537)
            if not request_line:
                return
            size = len(request_line)
            length, close = 0, False
            while True:
                header = self.rfile.readline(65537)
                if not header:
                    return
                size += len(header)
                if header in (b"\r\n", b"\n"):
                    break
                name, _, value = header.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            body = self.rfile.read(length) if length else b""
            parts = request_line.split()
            path = parts[1] if len(parts) > 1 else b""
            if path == b"/stats":
                reply = http_response("200 OK", json.dumps(server.stats()).encode("utf-8"))
            elif path == b"/reset":
                server.reset()
                reply = http_response("200 OK", b"{}")
            else:
                if not counted:
                    counted = True
                    server.count_connection()
                reply = server.answer(body, size + len(body))
            self.wfile.write(reply)
            if close:
                return


def main(argv=None) -> int:
    from workloads import FAULT_PLAN, FAULT_SEED
    from graphstage.serialize import load_corpus

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    args = parser.parse_args(argv)
    table, labels = build_table(load_corpus(args.corpus), FaultPlan(**FAULT_PLAN), FAULT_SEED)
    server = StubServer(("127.0.0.1", 0), table, labels)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"ready {server.server_address[1]}", flush=True)
    sys.stdin.read()  # until the benchmark closes our stdin
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
