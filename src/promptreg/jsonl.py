"""The one module that encodes and decodes the files promptreg reads or
writes, and the bodies ``HttpBackend`` sends and receives: JSONL read line
by line or by their last line, JSON documents read whole, run files and
commit and log lines written."""

from __future__ import annotations

import io
import json
import os
import threading
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, TypeVar

T = TypeVar("T")

# Decodes one value at an index; json.loads adds a call layer per line.
_SCAN = json.JSONDecoder().scan_once
# The JSON text json.dumps(value, sort_keys=True) writes, from one encoder
# built here: json.dumps builds a new one on every call.
encode = json.JSONEncoder(sort_keys=True).encode
# JSON's own whitespace: str.strip() would also drop, say, a form feed.
_WHITESPACE = " \t\r\n"
# The first block read_last_line reads from the end of a file.
_TAIL_BLOCK = 1 << 16
# The escaped system text of a transcript line. A run repeats few system
# texts over many calls (153 distinct in a 200-step run's 4,755), mostly
# call after call; user texts and responses are mostly unique, and caching
# them too measured slower.
_quote_system = lru_cache(maxsize=64)(_quote)


def iter_jsonl(
    path: str | Path, what: str, error: type[Exception],
    data: Optional[bytes] = None,
) -> Iterator[tuple[int, dict]]:
    """Yield the 1-based line number and the object of each non-blank line.

    Lines end at ``\\n``, and each non-blank one must hold exactly one JSON
    object; a leading UTF-8 byte order mark is skipped. Every failure raises
    ``error``, its message naming ``what``, the path and, for a bad line,
    its number. ``data``, if given, is the file's bytes, from ``read_bytes``.
    """
    try:
        with (open(path, encoding="utf-8-sig", newline="\n") if data is None
              else io.StringIO(data.decode("utf-8-sig"), newline="\n")) as handle:
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
                # The C scanner raises RecursionError on deep nesting.
                except (json.JSONDecodeError, RecursionError) as exc:
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


def read_bytes(path: str | Path, what: str, error: type[Exception]) -> bytes:
    """The bytes of the file at ``path``; a file that cannot be read raises
    ``error`` as ``iter_jsonl`` does."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from exc


def read_json(
    path: str | Path,
    what: str,
    error: type[Exception],
    build: Callable[[Any], T],
) -> T:
    """``build`` applied to the JSON document at ``path``, a leading UTF-8
    byte order mark skipped; a file that cannot be read or decoded (nesting
    too deep included), or a document ``build`` rejects, raises ``error``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return build(json.load(handle))
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            RecursionError) as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from exc


def read_last_line(
    path: str | Path,
    what: str,
    error: type[Exception],
    build: Callable[[Any], T],
) -> tuple[Optional[T], int]:
    """``build`` applied to the last line of ``path`` that ends in ``\\n``,
    and the offset just past it; ``(None, 0)`` if no line does. Only the
    tail is read, from the end, each block doubling it. Errors are raised as
    by ``read_json``."""
    try:
        with open(path, "rb") as handle:
            start = handle.seek(0, os.SEEK_END)
            tail = b""
            while start and b"\n" not in tail[:tail.rfind(b"\n")]:
                block = min(start, max(len(tail), _TAIL_BLOCK))
                start -= block
                handle.seek(start)
                tail = handle.read(block) + tail
        last = tail.rfind(b"\n")
        if last < 0:
            return None, 0
        line = tail[tail.rfind(b"\n", 0, last) + 1:last]
        return build(json.loads(line)), start + last + 1
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            RecursionError) as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from exc


def write_json(path: str | Path, document: dict) -> None:
    """Write one run file on one line: sorted keys, trailing newline.

    Without ``indent``, ``json`` encodes the document in C. The file is
    rewritten in place and then cut to the new length, never truncated to
    zero first: ext4 flushes a file that was truncated to zero and written
    again when it is closed, which made each write cost about 0.2 ms.
    """
    data = (encode(document) + "\n").encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        handle.truncate()


def transcript_line(
    step: int, role: str, system: str, user: str, response: str,
    latency_ms: int,
) -> bytes:
    """The transcript line of one call, newline included: the bytes
    ``json.dumps(entry, sort_keys=True)`` writes for the entry of these six
    fields, built without the dict and without the encoder's per-call setup.

    Text goes through the C escaper that ``json.dumps`` uses with
    ``ensure_ascii``, the system text through a small memo of it;
    ``step`` and ``latency_ms`` must be ints, not bools.
    """
    return (
        f'{{"latency_ms": {latency_ms:d}, "response": {_quote(response)}, '
        f'"role": {_quote(role)}, "step": {step:d}, '
        f'"system": {_quote_system(system)}, "user": {_quote(user)}}}\n'
    ).encode("ascii")


def encode_body(document: dict) -> bytes:
    """An HTTP request body: compact JSON in UTF-8."""
    return json.dumps(document).encode("utf-8")


def decode_body(text: str) -> Any:
    """An HTTP response body; one that is not JSON raises ValueError."""
    return json.loads(text)


class Appender:
    """A log held open for appending, one sorted-key line per entry, or one
    line given already encoded.

    The file is opened on the first line appended and stays open until
    ``close``; a line appended after ``close`` opens it again. Each line is
    written and flushed under a lock, so concurrent entries never interleave
    and a finished line is on disk, and counted in the file's size, when
    the call returns. The file is opened in append mode, so every write
    lands at the current end even after the file was cut back with
    ``os.truncate``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    def append(self, entry: dict) -> None:
        self.append_line((encode(entry) + "\n").encode("ascii"))

    def append_line(self, line: bytes) -> None:
        """Append one line already encoded, its newline included."""
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
