from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from promptreg.gateway import Fixture, Gateway, Role

DATA_DIR = Path(__file__).parent / "data"

sys.path.insert(0, str(Path(__file__).parent))


def scripted_gateway(fixtures: list[dict], transcript_path=None) -> Gateway:
    """Build a gateway over inline fixture dicts."""
    parsed = [
        Fixture(
            role=Role(f["role"]),
            step=f.get("step"),
            match_substring=f.get("match_substring"),
            response=f["response"],
        )
        for f in fixtures
    ]
    return Gateway.scripted(parsed, transcript_path=transcript_path)


def ok_reply(content: str = "done") -> tuple[int, bytes, dict]:
    """A chat-completions success reply carrying ``content``."""
    body = {"choices": [{"message": {"content": content}}]}
    return 200, json.dumps(body).encode(), {}


class _ScriptedReply(BaseHTTPRequestHandler):
    server: "LoopbackServer"

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.received.append((self.headers, body))
        if self.server.replies:
            status, body, headers = self.server.replies.pop(0)
        else:
            self.server.unscripted += 1
            status, body, headers = 599, b"no scripted reply", {}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002 - base signature
        pass


class LoopbackServer(HTTPServer):
    """Answers each POST with the next scripted ``(status, body, headers)``
    reply, one connection at a time, and records the headers and decoded
    JSON body of every request in ``received``."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _ScriptedReply)
        self.replies: list[tuple[int, bytes, dict]] = []
        self.received: list[tuple] = []
        self.unscripted = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def script(self, *replies: tuple[int, bytes, dict]) -> list[tuple]:
        """Queue ``replies``; the list returned fills with one
        ``(headers, body)`` entry per request."""
        self.replies.extend(replies)
        return self.received


@pytest.fixture
def loopback():
    """A ``LoopbackServer`` serving on its own thread for one test; a request
    beyond the scripted replies fails the test."""
    server = LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()
    assert not thread.is_alive(), "loopback server did not stop"
    assert server.unscripted == 0, "more requests than scripted replies"
