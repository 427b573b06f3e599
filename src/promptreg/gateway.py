"""Uniform text-completion contract over heterogeneous backends.

Two backends implement the same single-turn contract: an OpenAI-compatible
chat-completions HTTP backend for live runs, and a scripted backend that
replays fixture responses for deterministic tests. The gateway routes each
request to the engine configured for its role and appends one transcript line
per completed call, through one handle held until ``close``.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Protocol, TypeVar

from .errors import (
    BackendUnavailableError,
    ConfigError,
    FixtureMissError,
    MalformedOutputError,
    MissingFieldError,
    RequestRejectedError,
    TagsAbsentError,
)
from .jsonl import Appender, decode_body, encode_body, iter_jsonl

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

    def for_role(self, role: Role) -> EngineConfig:
        return getattr(self, role.value.lower())

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
    """OpenAI-compatible chat-completions transport with bounded retries.

    Network failures, rate limits (429) and server errors (5xx) are retried
    after a fixed backoff, or after a longer numeric ``Retry-After`` on a 429
    or 503, and the last failure raises without a further wait. Any other
    status outside 2xx raises RequestRejectedError at once (urllib follows
    a 301, 302 or 303 of a POST as a GET, and no 307 or 308). A success body
    without string content raises MalformedOutputError. A request that can
    never be sent (see ``check_endpoint``, or a header urllib refuses)
    raises ConfigError at once, with no wait.
    """

    def __init__(self, timeout: float = 120.0, sleep=time.sleep) -> None:
        self.timeout = timeout
        self._sleep = sleep

    def complete(self, request: ChatRequest, engine: EngineConfig) -> str:
        from http.client import HTTPException, InvalidURL
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        check_endpoint(engine)
        headers = {"Content-Type": "application/json"}
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
        retry_after = 0.0
        # One attempt, then one retry after each backoff; no wait follows
        # the last attempt.
        for backoff in (None, *RETRY_BACKOFF_SECONDS):
            if backoff is not None:
                self._sleep(max(backoff, retry_after))
            try:
                try:
                    resp = urlopen(Request(engine.endpoint, data, headers),
                                   timeout=self.timeout)
                except HTTPError as error:  # any status outside 2xx
                    resp = error
                with resp:
                    status, text = resp.status, resp.read().decode(errors="replace")
            # A header or a port that urllib refuses fails every attempt alike.
            except (ValueError, InvalidURL) as exc:
                raise ConfigError(
                    f"engine {engine.name}: request cannot be sent: {exc}"
                ) from exc
            except (OSError, HTTPException) as exc:
                last_error = exc
                retry_after = 0.0
                continue
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
            retry_after = _retry_after(resp) if status in (429, 503) else 0.0
        raise BackendUnavailableError(
            f"backend unavailable after {len(RETRY_BACKOFF_SECONDS) + 1} "
            f"attempts: {last_error}"
        )


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
    except (ValueError, LookupError, TypeError) as exc:
        raise MalformedOutputError(f"malformed response body: {exc!r}") from exc
    if not isinstance(content, str):
        raise MalformedOutputError(
            f"malformed response body: content is {content!r}"
        )
    return content


@dataclass(frozen=True)
class Fixture:
    role: Role
    step: Optional[int]
    match_substring: Optional[str]
    response: str


_ROLES = {role.value: role for role in Role}


class ScriptedBackend:
    """Replays fixture responses keyed by (role, step) and/or user substring.

    The most specific matching fixture wins (step + substring beats step
    beats substring); ties resolve to file order. Fixtures are indexed by
    (role, step), step-less ones under (role, None), so a call scans two
    short lists however large the fixture set is. The index is never
    mutated after construction, so concurrent calls are safe.
    """

    def __init__(self, fixtures: list[Fixture]) -> None:
        # role -> step (None for step-less) -> [(match_substring, response)],
        # each list in file order
        self._index: dict[Role, dict[Optional[int], list]] = {}
        for f in fixtures:
            self._add(f.role, f.step, f.match_substring, f.response)

    def _add(self, role: Role, step: Optional[int],
             substring: Optional[str], response: str) -> None:
        by_step = self._index.setdefault(role, {})
        by_step.setdefault(step, []).append((substring, response))

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        """Load a fixture JSONL file; a malformed one raises ConfigError."""
        backend = cls([])
        for number, record in iter_jsonl(path, "fixture file", ConfigError):
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
                backend._add(role, step, substring, response)
                continue
            raise ConfigError(f"fixture file {path}: line {number}: {problem}")
        return backend

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
    open from the first call until ``close``."""

    def __init__(
        self,
        engines: RoleAssignment,
        backends: dict[Role, Backend],
        transcript_path: str | Path | None = None,
    ) -> None:
        self.engines = engines
        self.backends = backends
        self._transcript = Appender(transcript_path) if transcript_path else None

    @classmethod
    def scripted(
        cls,
        fixtures: str | Path | list[Fixture],
        transcript_path: str | Path | None = None,
    ) -> "Gateway":
        backend = (
            ScriptedBackend(fixtures)
            if isinstance(fixtures, list)
            else ScriptedBackend.from_jsonl(fixtures)
        )
        engine = EngineConfig(name="scripted")
        return cls(
            engines=RoleAssignment.uniform(engine),
            backends={role: backend for role in Role},
            transcript_path=transcript_path,
        )

    def complete(self, request: ChatRequest) -> str:
        engine = self.engines.for_role(request.role)
        backend = self.backends[request.role]
        started = time.monotonic()
        response = backend.complete(request, engine)
        latency_ms = int((time.monotonic() - started) * 1000)
        self._record(request, response, latency_ms)
        return response

    def complete_parsed(
        self,
        request: ChatRequest,
        parse: Callable[[str], T],
        reask_note: str,
        reask_on: type[Exception],
    ) -> T:
        """Completion passed through ``parse``, with one bounded re-ask.

        When ``parse`` raises ``reask_on``, the request is sent once more with
        ``reask_note`` appended to its user message; a second failure raises.
        """
        text = self.complete(request)
        try:
            return parse(text)
        except reask_on:
            logger.warning(
                "unparseable output from %s at step %d; re-asking",
                request.role.value, request.step,
            )
        retry = replace(request, user=request.user + reask_note)
        return parse(self.complete(retry))

    def complete_json(
        self, request: ChatRequest, required_keys: list[str]
    ) -> dict:
        """Completion plus strict JSON parsing with one bounded repair re-ask."""
        return self.complete_parsed(
            request,
            lambda text: parse_json_object(text, required_keys),
            "\n\nYour previous reply was not parseable. "
            "Respond with valid JSON only.",
            MalformedOutputError,
        )

    def close(self) -> None:
        """Close the transcript; a later call opens it again."""
        if self._transcript is not None:
            self._transcript.close()

    def _record(self, request: ChatRequest, response: str, latency_ms: int) -> None:
        if self._transcript is None:
            return
        entry = {
            "step": request.step,
            "role": request.role.value,
            "system": request.system,
            "user": request.user,
            "response": response,
            "latency_ms": latency_ms,
        }
        self._transcript.append(entry)


_FENCE_MARKER = "```"


def _strip_code_fences(text: str) -> str:
    if _FENCE_MARKER not in text:
        return text
    parts = text.split(_FENCE_MARKER)
    # Fenced content sits at odd indices; drop language hints like "json".
    candidates = []
    for i in range(1, len(parts), 2):
        block = parts[i]
        first_newline = block.find("\n")
        if first_newline != -1 and block[:first_newline].strip().isalpha():
            block = block[first_newline + 1:]
        candidates.append(block)
    return "\n".join(candidates) if candidates else text


def parse_json_object(text: str, required_keys: list[str]) -> dict:
    """Extract the first top-level JSON object from possibly noisy text."""
    stripped = _strip_code_fences(text)
    decoder = json.JSONDecoder()
    index = stripped.find("{")
    while index != -1:
        try:
            value, _ = decoder.raw_decode(stripped, index)
        except json.JSONDecodeError:
            index = stripped.find("{", index + 1)
            continue
        if isinstance(value, dict):
            for key in required_keys:
                if key not in value:
                    raise MissingFieldError(f"missing field: {key}")
            return value
        index = stripped.find("{", index + 1)
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
