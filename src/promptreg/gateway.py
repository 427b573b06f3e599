"""Uniform text-completion contract over heterogeneous backends.

Two backends implement the same single-turn contract: an OpenAI-compatible
chat-completions HTTP backend for live runs, and a scripted backend that
replays fixture responses for deterministic tests. The gateway routes each
request to the engine configured for its role and appends one transcript line
per completed call, through one handle held until ``close``.

Only the gateway decides whether a model reply is usable; an unusable one
yields None and a warning, and each stage takes its fallback on None. An
error a backend raises, a malformed endpoint body included, is never caught,
so it aborts the run at every stage.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol, TypeVar

from .errors import (
    BackendUnavailableError,
    ConfigError,
    FixtureMissError,
    MalformedOutputError,
    MissingFieldError,
    RequestRejectedError,
    TagsAbsentError,
)
from .jsonl import (Appender, decode_body, encode_body, iter_jsonl,
                    transcript_line)

logger = logging.getLogger(__name__)

RETRY_BACKOFF_SECONDS = (1.0, 4.0, 16.0)

T = TypeVar("T")


class Role(str, Enum):
    FORWARD = "FORWARD"
    GRADIENT = "GRADIENT"
    REGULARIZATION = "REGULARIZATION"
    OPTIMIZER = "OPTIMIZER"


@dataclass(frozen=True)
class EngineConfig:
    name: str
    endpoint: str = ""
    model_id: str = ""
    auth_env_var: str = ""
    max_new_tokens: int = 2000
    temperature: float = 0.0
    top_p: float = 0.99


@dataclass(frozen=True)
class RoleAssignment:
    forward: EngineConfig
    gradient: EngineConfig
    regularization: EngineConfig
    optimizer: EngineConfig

    @classmethod
    def uniform(cls, engine: EngineConfig) -> "RoleAssignment":
        return cls(forward=engine, gradient=engine, regularization=engine,
                   optimizer=engine)


@dataclass(frozen=True)
class ChatRequest:
    role: Role
    system: str
    user: str
    step: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")


class Backend(Protocol):
    def complete(self, request: ChatRequest, engine: EngineConfig) -> str: ...


class HttpBackend:
    """OpenAI-compatible chat-completions transport over pooled keep-alive
    connections, with bounded retries.

    Idle ``http.client`` connections wait in one free list per route (the
    endpoint's scheme, host and port, and its proxy), shared by all threads.
    A call takes an idle connection or opens one, and gives it back once the
    whole body is read unless the response closes it, so there are never
    more connections than concurrent calls; ``close`` closes the idle ones.
    A reused connection that fails before any response byte was closed by
    the server while idle, so the request is sent again at once on a new
    connection, using no attempt and no wait. ``http.client`` turns Nagle's
    algorithm off on each connection, and where the platform has
    ``TCP_QUICKACK`` it is set after each request is sent: a server that
    writes headers and body in two sends with Nagle on would otherwise wait
    out this end's delayed ACK (about 40 ms on Linux) on every reply over a
    reused connection.

    Network failures, rate limits (429) and server errors (5xx) are retried
    after a fixed backoff, and the last failure raises without a further
    wait. A numeric ``Retry-After`` on a 429 or 503 pauses the backend: no
    thread sends through it again until ``clock`` has moved on that many
    seconds, so a fake ``sleep`` must move a fake ``clock``. Any other
    status outside 2xx raises RequestRejectedError at once; no redirect is
    followed. A success body without string content raises
    MalformedOutputError. A request that can never be sent (see
    ``check_endpoint``, a proxy that is not an http:// URL, a non-numeric
    port or a header ``http.client`` refuses) raises ConfigError at once,
    with no wait. The proxy environment (``http_proxy``, ``https_proxy``,
    ``no_proxy``) is read when the backend first sends to an endpoint.
    """

    def __init__(
        self, timeout: float = 120.0, sleep=time.sleep, clock=time.monotonic
    ) -> None:
        self.timeout = timeout
        self._sleep = sleep
        self._clock = clock
        # The clock reading before which no attempt is sent.
        self._not_before = -math.inf
        self._pause_lock = threading.Lock()
        # endpoint -> (route, request target, headers), worked out on first use
        self._routes: dict[str, tuple[tuple, str, dict]] = {}
        # route -> idle connections, the most recently used last
        self._idle: dict[tuple, list] = {}
        self._idle_lock = threading.Lock()

    def _wait(self, backoff: float) -> None:
        """Sleep at least ``backoff`` seconds, and until the pause is over."""
        while (wait := max(backoff, self._not_before - self._clock())) > 0:
            self._sleep(wait)
            backoff = 0.0

    def complete(self, request: ChatRequest, engine: EngineConfig) -> str:
        from http.client import HTTPException, InvalidURL

        found = self._routes.get(engine.endpoint)
        if found is None:
            check_endpoint(engine)
            found = self._routes[engine.endpoint] = _route(engine)
        route, target, headers = found
        headers = dict(headers)
        if engine.auth_env_var:
            key = os.environ.get(engine.auth_env_var)
            if not key:
                raise BackendUnavailableError(
                    f"backend unavailable: missing credential "
                    f"{engine.auth_env_var}"
                )
            headers["Authorization"] = f"Bearer {key}"
        data = encode_body({
            "model": engine.model_id,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": engine.temperature,
            "top_p": engine.top_p,
            "max_tokens": engine.max_new_tokens,
        })
        last_error: Exception | None = None
        # One attempt, then one retry after each backoff; no wait follows
        # the last attempt.
        for backoff in (0.0, *RETRY_BACKOFF_SECONDS):
            self._wait(backoff)
            try:
                resp, text = self._post(route, target, data, headers)
            # A header or a port that http.client refuses fails every
            # attempt alike.
            except (ValueError, InvalidURL) as exc:
                raise ConfigError(
                    f"engine {engine.name}: request cannot be sent: {exc}"
                ) from exc
            except (OSError, HTTPException) as exc:
                last_error = exc
                continue
            status = resp.status
            if status == 429:
                last_error = RequestRejectedError("rate limited")
            elif status >= 500:
                last_error = BackendUnavailableError(
                    f"backend unavailable ({status}): {text}"
                )
            elif status >= 300:
                raise RequestRejectedError(f"request rejected ({status}): {text}")
            else:
                return _content(text)
            pause = _retry_after(resp) if status in (429, 503) else 0.0
            if pause:
                with self._pause_lock:
                    self._not_before = max(
                        self._not_before, self._clock() + pause
                    )
        raise BackendUnavailableError(
            f"backend unavailable after {len(RETRY_BACKOFF_SECONDS) + 1} "
            f"attempts: {last_error}"
        )

    def _post(self, route: tuple, target: str, data: bytes, headers: dict):
        """POST ``data`` over a pooled connection: the response and its
        whole body as text."""
        import socket

        with self._idle_lock:
            idle = self._idle.get(route)
            conn = idle.pop() if idle else None
        reused = conn is not None
        while True:
            if conn is None:
                conn = _connect(route, self.timeout)
            try:
                conn.request("POST", target, data, headers)
                if hasattr(socket, "TCP_QUICKACK"):
                    conn.sock.setsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_QUICKACK, 1)
                resp = conn.getresponse()
                break
            except ConnectionError:
                conn.close()
                if not reused:
                    raise
                # The server closed it while idle: send again on a new one.
                conn, reused = None, False
            except BaseException:
                conn.close()
                raise
        try:
            text = resp.read().decode(errors="replace")
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.setdefault(route, []).append(conn)
        return resp, text

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _route(engine: EngineConfig) -> tuple[tuple, str, dict]:
    """The route, request target and headers of a POST to
    ``engine.endpoint``, which ``check_endpoint`` accepted, under the proxy
    environment.

    The route ``(scheme, netloc, proxy, proxy_auth)`` says where a
    connection goes: straight to ``netloc`` when ``proxy`` is empty, else
    to the proxy, which gets ``proxy_auth`` (if any) as Proxy-Authorization.
    """
    from base64 import b64encode
    from urllib.parse import unquote, urlsplit
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(engine.endpoint)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {"Content-Type": "application/json", "User-Agent": "promptreg"}
    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(parts.netloc):
        return (parts.scheme, parts.netloc, "", ""), target, headers
    proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if proxy_parts.scheme != "http" or not proxy_parts.hostname:
        raise ConfigError(
            f"engine {engine.name}: {parts.scheme} proxy {proxy!r} is not an "
            "http:// URL with a host"
        )
    auth = ""
    if proxy_parts.username and proxy_parts.password:
        pair = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}"
        auth = "Basic " + b64encode(pair.encode()).decode("ascii")
    if parts.scheme == "http":
        # Absolute form, and the credentials on the request itself.
        target = f"http://{parts.netloc}{target}"
        if auth:
            headers["Proxy-Authorization"] = auth
    route = (parts.scheme, parts.netloc,
             proxy_parts.netloc.rpartition("@")[2], auth)
    return route, target, headers


def _connect(route: tuple, timeout: float):
    """A new, not yet connected ``http.client`` connection along ``route``:
    to the proxy for http, through a tunnel for https."""
    from http.client import HTTPConnection, HTTPSConnection

    scheme, netloc, proxy, proxy_auth = route
    if scheme == "http":
        return HTTPConnection(proxy or netloc, timeout=timeout)
    conn = HTTPSConnection(proxy or netloc, timeout=timeout)
    if proxy:
        conn.set_tunnel(netloc, headers=(
            {"Proxy-Authorization": proxy_auth} if proxy_auth else None))
    return conn


def check_endpoint(engine: EngineConfig) -> None:
    """Raise ConfigError unless ``engine.endpoint`` is an http:// or
    https:// URL with a host."""
    from urllib.parse import urlsplit

    try:
        parts = urlsplit(engine.endpoint)
        usable = parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:  # say, an unclosed IPv6 bracket
        usable = False
    if not usable:
        raise ConfigError(
            f"engine {engine.name}: endpoint {engine.endpoint!r} is not an "
            "http:// or https:// URL"
        )


def _retry_after(resp) -> float:
    """A numeric ``Retry-After`` header in seconds, else 0."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return 0.0
    return seconds if math.isfinite(seconds) and seconds > 0 else 0.0


def _content(text: str) -> str:
    """The message content of a success response body."""
    try:
        content = decode_body(text)["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError, RecursionError) as exc:
        raise MalformedOutputError(f"malformed response body: {exc!r}") from exc
    if not isinstance(content, str):
        raise MalformedOutputError(
            f"malformed response body: content is {content!r}"
        )
    return content


_ROLES = {role.value: role for role in Role}


class ScriptedBackend:
    """Replays fixture responses keyed by (role, step) and/or user substring.

    The most specific matching fixture wins (step + substring beats step
    beats substring); ties resolve to file order. Fixtures are indexed by
    (role, step), step-less ones under (role, None), so a call scans two
    short lists however large the fixture set is. The index is never
    mutated after construction, so concurrent calls are safe.
    """

    def __init__(
        self, records: Iterable[tuple[int, dict]], where: str = "fixture record"
    ) -> None:
        """Index numbered fixture records; a malformed one raises ConfigError
        naming ``where`` and its number."""
        # role -> step (None for step-less) -> [(match_substring, response)],
        # each list in record order
        index: dict[Role, dict[Optional[int], list]] = {}
        self._index = index
        for number, record in records:
            name = record.get("role")
            role = _ROLES.get(name) if type(name) is str else None
            step = record.get("step")
            substring = record.get("match_substring")
            response = record.get("response")
            if role is None:
                problem = f"role {name!r} is not one of {list(_ROLES)}"
            elif step is not None and (type(step) is not int or step < 0):
                problem = f"step {step!r} is not a nonnegative integer"
            elif substring is not None and type(substring) is not str:
                problem = f"match_substring {substring!r} is not a string"
            elif type(response) is not str:
                problem = ("missing field response" if "response" not in record
                           else f"response {response!r} is not a string")
            else:
                by_step = index.setdefault(role, {})
                by_step.setdefault(step, []).append((substring, response))
                continue
            raise ConfigError(f"{where} {number}: {problem}")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        """Load a fixture JSONL file; a malformed one raises ConfigError."""
        return cls(iter_jsonl(path, "fixture file", ConfigError),
                   f"fixture file {path}: line")

    def complete(self, request: ChatRequest, engine: EngineConfig) -> str:
        by_step = self._index.get(request.role, {})
        for step in (request.step, None):
            bare = None
            for substring, response in by_step.get(step, ()):
                if substring is None:
                    if bare is None:
                        bare = response
                elif substring in request.user:
                    return response
            if bare is not None:
                return bare
        raise FixtureMissError(
            f"fixture miss: role={request.role.value} step={request.step}"
        )


class Gateway:
    """Routes requests to per-role backends and records a transcript, held
    open from the first call until ``close``. Once ``committed(step)`` is
    called, the lines of steps after ``step + 1`` wait in memory until the
    commit of the step before theirs, or ``close``."""

    def __init__(
        self,
        engines: RoleAssignment,
        backends: dict[Role, Backend],
        transcript_path: str | Path | None = None,
    ) -> None:
        """Raise ConfigError naming the first role ``backends`` lacks."""
        for role in Role:
            if role not in backends:
                raise ConfigError(f"no backend for role {role.value}")
        # Each role's (engine, backend), looked up once here, not per call.
        self._routes = {
            role: (getattr(engines, role.value.lower()), backends[role])
            for role in Role
        }
        self._transcript = Appender(transcript_path) if transcript_path else None
        # The last step committed, or None before the first ``committed``
        # call and after ``close``; and the (step, line) of each transcript
        # line kept back, in arrival order.
        self._committed: Optional[int] = None
        self._held: list[tuple[int, bytes]] = []
        self._hold_lock = threading.Lock()

    @classmethod
    def scripted(
        cls,
        fixtures: str | Path | list[dict],
        transcript_path: str | Path | None = None,
    ) -> "Gateway":
        """A gateway over a fixture JSONL file, or over fixture records given
        as a list, validated alike."""
        backend = (
            ScriptedBackend(enumerate(fixtures, 1))
            if isinstance(fixtures, list)
            else ScriptedBackend.from_jsonl(fixtures)
        )
        engine = EngineConfig(name="scripted")
        return cls(
            engines=RoleAssignment.uniform(engine),
            backends={role: backend for role in Role},
            transcript_path=transcript_path,
        )

    def engine(self, role: Role) -> EngineConfig:
        """The engine that answers ``role``'s requests."""
        return self._routes[role][0]

    def complete(self, request: ChatRequest) -> str:
        engine, backend = self._routes[request.role]
        started = time.monotonic()
        response = backend.complete(request, engine)
        latency_ms = int((time.monotonic() - started) * 1000)
        if not isinstance(response, str):
            raise MalformedOutputError(
                f"{request.role.value} backend returned {response!r}, not text"
            )
        self._record(request, response, latency_ms)
        return response

    def complete_parsed(
        self, request: ChatRequest, parse: Callable[[str], T], reask_note: str
    ) -> Optional[T]:
        """Completion passed through ``parse``, with one bounded re-ask.

        When ``parse`` raises MalformedOutputError, the request is sent once
        more with ``reask_note`` appended to its user message; when the
        second reply fails too, the result is None.
        """
        text = self.complete(request)
        try:
            return parse(text)
        except MalformedOutputError as exc:
            _unusable(request, exc, "re-asking")
        text = self.complete(replace(request, user=request.user + reask_note))
        try:
            return parse(text)
        except MalformedOutputError as exc:
            _unusable(request, exc, "no result")
            return None

    def complete_json(
        self, request: ChatRequest, fields: dict[str, type]
    ) -> Optional[dict]:
        """The reply's first JSON object holding every key of ``fields``,
        re-asked once when there is none; None when the re-ask holds none
        either, or when a field is not of its type (no further call)."""
        payload = self.complete_parsed(
            request,
            lambda text: parse_json_object(text, fields),
            "\n\nYour previous reply was not parseable. "
            "Respond with valid JSON only.",
        )
        if payload is None:
            return None
        for key, kind in fields.items():
            if not isinstance(payload[key], kind):
                _unusable(request, f"{key} is {payload[key]!r}, not "
                          f"{kind.__name__}", "no result")
                return None
        return payload

    def committed(self, step: int) -> None:
        """Record that ``step`` has committed: from now on the transcript
        lines of steps up to ``step + 1`` are appended at once, those kept
        back first, in arrival order, and later steps' lines are kept back,
        so that no line of a step lands before the commit of the step
        before it."""
        with self._hold_lock:
            held, self._held = self._held, []
            for at, line in held:
                if at > step + 1:
                    self._held.append((at, line))
                else:
                    self._transcript.append_line(line)
            # Only now, so that a line recorded meanwhile lands behind them.
            self._committed = step

    def close(self) -> None:
        """Append the transcript lines kept back, forget the last step
        committed, and close the transcript and the idle connections of the
        HTTP backends; a later call opens them again."""
        with self._hold_lock:
            held, self._held, self._committed = self._held, [], None
            for _, line in held:
                self._transcript.append_line(line)
        if self._transcript is not None:
            self._transcript.close()
        for _, backend in self._routes.values():
            if isinstance(backend, HttpBackend):
                backend.close()

    def _record(self, request: ChatRequest, response: str, latency_ms: int) -> None:
        if self._transcript is None:
            return
        line = transcript_line(
            request.step, request.role.value, request.system, request.user,
            response, latency_ms,
        )
        committed = self._committed
        if committed is not None and request.step > committed + 1:
            with self._hold_lock:
                committed = self._committed
                if committed is not None and request.step > committed + 1:
                    self._held.append((request.step, line))
                    return
        self._transcript.append_line(line)


def _unusable(request: ChatRequest, reason: object, outcome: str) -> None:
    logger.warning("unusable output from %s at step %d: %s; %s",
                   request.role.value, request.step, reason, outcome)


def parse_json_object(text: str, required_keys: Iterable[str]) -> dict:
    """The first JSON object in noisy text that holds every required key.

    Each ``{`` is tried in turn, so a fenced object is found as a bare one is,
    and a code fence inside a JSON string is text. The scan goes on past the
    end of an object that lacks a key, not into it; when no object holds them
    all, the error names the first key missing from the first object. An
    object nested deeper than the interpreter's recursion limit ends the
    scan as malformed output.
    """
    decoder = json.JSONDecoder()
    missing = None
    index = text.find("{")
    while index != -1:
        try:
            value, end = decoder.raw_decode(text, index)  # a dict, at "{"
        except json.JSONDecodeError:
            index = text.find("{", index + 1)
            continue
        except RecursionError:
            # Each "{" inside would fail alike, so the scan stops here.
            raise MalformedOutputError(
                "malformed structured output: nested too deep"
            ) from None
        lacking = next((key for key in required_keys if key not in value), None)
        if lacking is None:
            return value
        missing = missing or lacking
        index = text.find("{", end)
    if missing is not None:
        raise MissingFieldError(f"missing field: {missing}")
    raise MalformedOutputError("malformed structured output")


def extract_tagged_variable(text: str, start_tag: str, end_tag: str) -> str:
    """Content between the first start tag and the next end tag, trimmed."""
    if not start_tag or not end_tag or start_tag == end_tag:
        raise ValueError("start and end tags must be nonempty and distinct")
    start = text.find(start_tag)
    if start == -1:
        raise TagsAbsentError("variable tags absent")
    begin = start + len(start_tag)
    end = text.find(end_tag, begin)
    if end == -1:
        raise TagsAbsentError("variable tags absent")
    return text[begin:end].strip()
