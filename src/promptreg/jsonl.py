"""The one module that encodes and decodes the files promptreg reads or
writes, and the bodies ``HttpBackend`` sends and receives: JSONL read line
by line, JSON documents read whole, run files and log lines written."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

T = TypeVar("T")

# Decodes one value at an index; json.loads adds a call layer per line.
_SCAN = json.JSONDecoder().scan_once
# JSON's own whitespace: str.strip() would also drop, say, a form feed.
_WHITESPACE = " \t\r\n"


def iter_jsonl(
    path: str | Path, what: str, error: type[Exception]
) -> Iterator[tuple[int, dict]]:
    """Yield the 1-based line number and the object of each non-blank line.

    Lines end at ``\\n``, and each non-blank one must hold exactly one JSON
    object. Every failure raises ``error``, its message naming ``what``, the
    path and, for a bad line, its number.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            for number, line in enumerate(handle, 1):
                text = line.strip(_WHITESPACE)
                if not text:
                    continue
                try:
                    try:
                        record, end = _SCAN(text, 0)
                    except StopIteration as stop:
                        raise json.JSONDecodeError(
                            "Expecting value", text, stop.value
                        ) from None
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                except json.JSONDecodeError as exc:
                    raise error(
                        f"{what} {path}: line {number}: invalid JSON: {exc}"
                    ) from exc
                if not isinstance(record, dict):
                    raise error(f"{what} {path}: line {number}: not a JSON object")
                yield number, record
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from exc


def read_json(
    path: str | Path,
    what: str,
    error: type[Exception],
    build: Callable[[Any], T],
) -> T:
    """``build`` applied to the JSON document at ``path``; a file that cannot
    be read or decoded, or a document ``build`` rejects, raises ``error``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return build(json.load(handle))
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from exc


def write_json(path: str | Path, document: dict) -> None:
    """Write one run file on one line: sorted keys, trailing newline.

    Without ``indent``, ``json`` encodes the document in C. The file is
    rewritten in place and then cut to the new length, never truncated to
    zero first: ext4 flushes a file that was truncated to zero and written
    again when it is closed, which made each write cost about 0.2 ms.
    """
    data = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        handle.truncate()


def encode_body(document: dict) -> bytes:
    """An HTTP request body: compact JSON in UTF-8."""
    return json.dumps(document).encode("utf-8")


def decode_body(text: str) -> Any:
    """An HTTP response body; one that is not JSON raises ValueError."""
    return json.loads(text)


class Appender:
    """A log held open for appending, one sorted-key line per entry.

    The file is opened on the first ``append`` and stays open until
    ``close``; an ``append`` after ``close`` opens it again. Each line is
    written and flushed under a lock, so concurrent entries never interleave
    and a finished entry is on disk, and counted in the file's size, when
    ``append`` returns. The file is opened in append mode, so every write
    lands at the current end even after the file was cut back with
    ``os.truncate``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    def append(self, entry: dict) -> None:
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "ab")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
