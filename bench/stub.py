"""Loopback OpenAI-compatible chat-completions stub for the HTTP workload.

It answers each request by exact lookup of the user message after a fixed
delay, speaks HTTP/1.1 with keep-alive so that a pooled client could reuse its
connections, serves at most ``MAX_CONNECTIONS`` connections at once, and
counts connections and requests.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MAX_CONNECTIONS = 2  # the workload's concurrency cap


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def do_POST(self) -> None:
        with self.server.lock:
            self.server.requests += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        content = self.server.answers.get(body["messages"][-1]["content"])
        if content is None:
            self._reply(404, {"error": "no answer for this message"})
            return
        time.sleep(self.server.delay_s)
        self._reply(200, {"choices": [{"message": {"role": "assistant",
                                                   "content": content}}]})

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:  # noqa: A002 - base signature
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = False
    block_on_close = True

    def __init__(self, answers: dict[str, str], delay_s: float) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answers = answers
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._open: set[socket.socket] = set()
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="bench-stub", daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def counters(self) -> tuple[int, int]:
        with self.lock:
            return self.connections, self.requests

    def process_request(self, request, client_address) -> None:
        # Further connections wait in the listen backlog until a slot frees.
        self._slots.acquire()
        with self.lock:
            self.connections += 1
            self._open.add(request)
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self.lock:
                self._open.discard(request)
            self._slots.release()

    def stop(self) -> None:
        """Stop serving, drop idle keep-alive connections, join every thread."""
        self.shutdown()
        with self.lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self.server_close()
        self._thread.join()
