"""The one module that encodes and decodes the files promptreg reads or
writes: JSONL read line by line, JSON documents read whole, run files and
log lines written."""

from __future__ import annotations

import json
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
    """Write one run file: sorted keys, two-space indent, trailing newline."""
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def append_jsonl(path: str | Path, entry: dict) -> None:
    """Append ``entry`` to a log as one line with sorted keys."""
    line = json.dumps(entry, sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
