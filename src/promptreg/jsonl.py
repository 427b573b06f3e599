"""Block-decoding reader for JSONL input files (datasets, scripted fixtures)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .errors import PromptRegError

# Lines are decoded a block of about this many bytes at a time: one decode
# for most files, and never the whole of a large file's records in memory
# beside its text.
BLOCK_BYTES = 1 << 16


def iter_jsonl(
    path: str | Path, what: str, error: type[PromptRegError]
) -> Iterator[tuple[int, dict]]:
    """Yield the 1-based line number and the object of each non-blank line.

    Lines end at ``\\n``. The non-blank lines of a block are joined into one
    JSON array and decoded at once. A line that is not one JSON value on its
    own fails that decode, or merges with a neighbour or splits in two, which
    changes the record count (only a merge and a split in one block can
    cancel out); then the block's lines are decoded one by one to name the
    bad line. Every failure raises ``error``, its message naming ``what`` and
    the path.
    """
    number = 0
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            while lines := handle.readlines(BLOCK_BYTES):
                kept, numbers = [], []
                for line in lines:
                    number += 1
                    if line.strip():
                        kept.append(line)
                        numbers.append(number)
                try:
                    records = json.loads("[" + ",".join(kept) + "]")
                except json.JSONDecodeError:
                    records = None
                if records is None or len(records) != len(kept):
                    for line_number, line in zip(numbers, kept):
                        try:
                            json.loads(line)
                        except json.JSONDecodeError as exc:
                            raise error(
                                f"{what} {path}: line {line_number}: "
                                f"invalid JSON: {exc}"
                            ) from exc
                for line_number, record in zip(numbers, records):
                    if not isinstance(record, dict):
                        raise error(
                            f"{what} {path}: line {line_number}: "
                            "not a JSON object"
                        )
                    yield line_number, record
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{what} unreadable: {path}: {exc}") from exc
