from __future__ import annotations

import importlib.util
import json
import sys
import threading
import time
from concurrent.futures import Future, wait
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from pathlib import Path

import pytest

from promptreg.gateway import Gateway

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"

sys.path.insert(0, str(Path(__file__).parent))


def load(path: Path):
    """The module at ``path``, a script outside any package."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scripted_gateway(fixtures: list[dict], transcript_path=None) -> Gateway:
    """Build a gateway over inline fixture dicts."""
    return Gateway.scripted(fixtures, transcript_path=transcript_path)


def within(seconds: float, fn, *args):
    """``fn(*args)``'s result, or its error raised, from a daemon thread; a
    call still running after ``seconds``, say one stalled on a hold that
    nothing releases, fails the test instead of hanging it."""
    outcome: Future = Future()

    def call() -> None:
        try:
            outcome.set_result(fn(*args))
        except BaseException as exc:
            outcome.set_exception(exc)

    threading.Thread(target=call, daemon=True).start()
    assert wait([outcome], timeout=seconds).done, \
        f"{fn.__name__} still running after {seconds} s"
    return outcome.result()


# JSON values that a stage must not take for the text a field should hold.
NON_TEXT = pytest.mark.parametrize(
    "value", [None, False, 7, ["text"], {"text": "t"}],
    ids=["null", "false", "number", "list", "object"],
)


def ok_reply(content: str = "done") -> tuple[int, bytes, dict]:
    """A chat-completions success reply carrying ``content``."""
    body = {"choices": [{"message": {"content": content}}]}
    return 200, json.dumps(body).encode(), {}


class _Reply(BaseHTTPRequestHandler):
    server: "LoopbackServer"

    def handle(self) -> None:
        self.protocol_version = self.server.protocol
        super().handle()

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        with self.server.lock:
            self.server.received.append((self.headers, body))
            cut, self.server.cut_next = self.server.cut_next, False
            reply = self.server.reply(body)
            if reply is not None:
                status, body, headers = reply
            else:
                self.server.unscripted += 1
                status, body, headers = 599, b"no scripted reply", {}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if cut:
            self.close_connection = True
            return
        self.wfile.write(body)
        if self.server.drop_idle:
            # Closed without a "Connection: close", as an idle connection is.
            self.close_connection = True

    def log_message(self, format, *args) -> None:  # noqa: A002 - base signature
        pass


class LoopbackServer(ThreadingMixIn, HTTPServer):
    """Serves each connection on its own thread in ``protocol``: on HTTP/1.0
    it closes each connection after its reply, on HTTP/1.1 it keeps it open,
    unless a test sets ``drop_idle``, when it closes each one after its
    first reply without saying so. A test that sets ``cut_next`` has the
    next reply end after its headers, its connection closed there. It
    answers each POST with the next scripted ``(status, body, headers)``
    reply, or, once a test sets ``keyed``, a dict from ``(model, system,
    user)`` to reply content, by the request's key. It records the headers
    and decoded JSON body of every request in ``received``; ``connections``
    counts the connections accepted and ``open`` those not yet closed."""

    daemon_threads = True

    def __init__(self, protocol: str) -> None:
        super().__init__(("127.0.0.1", 0), _Reply)
        self.protocol = protocol
        self.drop_idle = False
        self.cut_next = False
        self.keyed: dict[tuple[str, str, str], str] | None = None
        self.lock = threading.Lock()
        self.replies: list[tuple[int, bytes, dict]] = []
        self.received: list[tuple] = []
        self.unscripted = 0
        self.connections = 0
        self.open = 0

    def reply(self, body: dict):
        """The reply to a request of decoded JSON ``body``, called under
        ``lock``, or None when there is none."""
        if self.keyed is None:
            return self.replies.pop(0) if self.replies else None
        system, user = (message["content"] for message in body["messages"])
        content = self.keyed.get((body["model"], system, user))
        return None if content is None else ok_reply(content)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def script(self, *replies: tuple[int, bytes, dict]) -> list[tuple]:
        """Queue ``replies``; the list returned fills with one
        ``(headers, body)`` entry per request."""
        self.replies.extend(replies)
        return self.received

    def verify_request(self, request, client_address) -> bool:
        with self.lock:
            self.connections += 1
            self.open += 1
        return True

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.lock:
            self.open -= 1


def _serve(server: LoopbackServer):
    """Serve ``server`` on its own thread while the test runs, then stop it;
    a request beyond the scripted replies fails the test."""
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive(), "loopback server did not stop"
    # A keep-alive connection ends when the client closes it.
    deadline = time.monotonic() + 5
    while server.open and time.monotonic() < deadline:
        time.sleep(0.01)
    server.server_close()
    assert server.open == 0, "a connection was left open"
    assert server.unscripted == 0, "more requests than scripted replies"


@pytest.fixture
def loopback():
    """A ``LoopbackServer`` on HTTP/1.0, one connection per request."""
    yield from _serve(LoopbackServer("HTTP/1.0"))


@pytest.fixture
def keepalive():
    """A ``LoopbackServer`` on HTTP/1.1; the test must close every
    connection it opens to it."""
    yield from _serve(LoopbackServer("HTTP/1.1"))
