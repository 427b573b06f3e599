"""Uniform text-completion contract over heterogeneous backends.

Two backends implement the same single-turn contract: an OpenAI-compatible
chat-completions HTTP backend for live runs, and a scripted backend that
replays fixture responses for deterministic tests. The gateway routes each
request to the engine configured for its role and appends one transcript line
per completed call.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Protocol

from .errors import (
    BackendUnavailableError,
    FixtureMissError,
    MalformedOutputError,
    MissingFieldError,
    RequestRejectedError,
    TagsAbsentError,
)

logger = logging.getLogger(__name__)

RETRY_BACKOFF_SECONDS = (1.0, 4.0, 16.0)


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
        return {
            Role.FORWARD: self.forward,
            Role.GRADIENT: self.gradient,
            Role.REGULARIZATION: self.regularization,
            Role.OPTIMIZER: self.optimizer,
        }[role]

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

    Retries only network failures and rate-limit responses, with fixed
    backoff; other client errors surface immediately with the response body.
    A success response without string content raises MalformedOutputError.
    """

    def __init__(self, timeout: float = 120.0, sleep=time.sleep) -> None:
        self.timeout = timeout
        self._sleep = sleep

    def complete(self, request: ChatRequest, engine: EngineConfig) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if engine.auth_env_var:
            key = os.environ.get(engine.auth_env_var)
            if not key:
                raise BackendUnavailableError(
                    f"backend unavailable: missing credential "
                    f"{engine.auth_env_var}"
                )
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": engine.model_id,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": engine.temperature,
            "top_p": engine.top_p,
            "max_tokens": engine.max_new_tokens,
        }
        last_error: Exception | None = None
        for attempt, backoff in enumerate(RETRY_BACKOFF_SECONDS):
            try:
                resp = requests.post(
                    engine.endpoint, headers=headers, json=body,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
                self._sleep(backoff)
                continue
            if resp.status_code == 429:
                last_error = RequestRejectedError("rate limited")
                self._sleep(backoff)
                continue
            if 400 <= resp.status_code < 500:
                raise RequestRejectedError(
                    f"request rejected ({resp.status_code}): {resp.text}"
                )
            if resp.status_code >= 500:
                raise BackendUnavailableError(
                    f"backend unavailable ({resp.status_code}): {resp.text}"
                )
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise MalformedOutputError(
                    f"malformed response body: {exc!r}"
                ) from exc
            if not isinstance(content, str):
                raise MalformedOutputError(
                    f"malformed response body: content is {content!r}"
                )
            return content
        raise BackendUnavailableError(
            f"backend unavailable after {len(RETRY_BACKOFF_SECONDS)} attempts: "
            f"{last_error}"
        )


@dataclass(frozen=True)
class Fixture:
    role: Role
    step: Optional[int]
    match_substring: Optional[str]
    response: str

    @property
    def specificity(self) -> int:
        return (2 if self.step is not None else 0) + (
            1 if self.match_substring is not None else 0
        )


class ScriptedBackend:
    """Replays fixture responses keyed by (role, step) and/or user substring.

    The most specific matching fixture wins (step + substring beats step
    beats substring); ties resolve to file order. Fixtures are reusable and
    the matcher holds no mutable state, so concurrent calls are safe.
    """

    def __init__(self, fixtures: list[Fixture]) -> None:
        self.fixtures = list(fixtures)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        fixtures = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            fixtures.append(
                Fixture(
                    role=Role(record["role"]),
                    step=record.get("step"),
                    match_substring=record.get("match_substring"),
                    response=record["response"],
                )
            )
        return cls(fixtures)

    def complete(self, request: ChatRequest, engine: EngineConfig) -> str:
        best: Fixture | None = None
        for fixture in self.fixtures:
            if fixture.role != request.role:
                continue
            if fixture.step is not None and fixture.step != request.step:
                continue
            if (
                fixture.match_substring is not None
                and fixture.match_substring not in request.user
            ):
                continue
            if best is None or fixture.specificity > best.specificity:
                best = fixture
        if best is None:
            raise FixtureMissError(
                f"fixture miss: role={request.role.value} step={request.step}"
            )
        return best.response


class Gateway:
    """Routes requests to per-role backends and records a transcript."""

    def __init__(
        self,
        engines: RoleAssignment,
        backends: dict[Role, Backend],
        transcript_path: str | Path | None = None,
    ) -> None:
        self.engines = engines
        self.backends = backends
        self.transcript_path = Path(transcript_path) if transcript_path else None
        self._transcript_lock = threading.Lock()

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

    def complete_json(
        self, request: ChatRequest, required_keys: list[str]
    ) -> dict:
        """Completion plus strict JSON parsing with one bounded repair re-ask."""
        text = self.complete(request)
        try:
            return parse_json_object(text, required_keys)
        except MalformedOutputError:
            logger.warning(
                "malformed structured output from %s at step %d; re-asking",
                request.role.value, request.step,
            )
        retry = ChatRequest(
            role=request.role,
            system=request.system,
            user=request.user + "\n\nYour previous reply was not parseable. "
            "Respond with valid JSON only.",
            step=request.step,
        )
        return parse_json_object(self.complete(retry), required_keys)

    def _record(self, request: ChatRequest, response: str, latency_ms: int) -> None:
        if self.transcript_path is None:
            return
        entry = {
            "step": request.step,
            "role": request.role.value,
            "system": request.system,
            "user": request.user,
            "response": response,
            "latency_ms": latency_ms,
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._transcript_lock:
            with open(self.transcript_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()


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
