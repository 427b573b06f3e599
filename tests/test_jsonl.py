import json
import os
import pathlib
import re
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from promptreg import jsonl
from promptreg.errors import RunStateError
from promptreg.jsonl import (
    Appender,
    iter_jsonl,
    read_bytes,
    read_json,
    read_last_line,
    transcript_line,
    write_json,
)


@pytest.mark.parametrize(
    "text",
    [None, "{broken", "[1, 2]", '{"other": 1}'],
    ids=["missing", "not-json", "list-document", "missing-key"],
)
def test_read_json_failure_names_what_and_path(tmp_path, text):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(RunStateError) as caught:
        read_json(path, "run state", RunStateError,
                  lambda document: document.get("key")["value"])
    assert str(caught.value).startswith(f"run state unreadable: {path}: ")


def test_written_files_read_back(tmp_path):
    document = {"b": [1, 2], "a": {"y": None, "x": "é"}}
    write_json(tmp_path / "doc.json", document)
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == (
        '{"a": {"x": "\\u00e9", "y": null}, "b": [1, 2]}\n'
    )
    assert read_json(tmp_path / "doc.json", "doc", RunStateError, dict) == document
    with closing(Appender(tmp_path / "log.jsonl")) as log:
        log.append({"step": 0, "a": 1})
        log.append({"step": 1})
    assert (tmp_path / "log.jsonl").read_text() == (
        '{"a": 1, "step": 0}\n{"step": 1}\n'
    )
    assert list(iter_jsonl(tmp_path / "log.jsonl", "log", RunStateError)) == [
        (1, {"a": 1, "step": 0}), (2, {"step": 1}),
    ]


# Any code point, lone surrogates included, with the characters JSON escapes
# drawn often.
TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\ud800\udfff'),
))


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0), TEXT, TEXT, TEXT, TEXT, st.integers(min_value=0))
def test_transcript_line_is_the_sorted_key_dump(
    step, role, system, user, response, latency_ms
):
    entry = {"step": step, "role": role, "system": system, "user": user,
             "response": response, "latency_ms": latency_ms}
    assert transcript_line(step, role, system, user, response, latency_ms) == (
        json.dumps(entry, sort_keys=True) + "\n"
    ).encode("utf-8")


@pytest.mark.parametrize(
    "data",
    [b'{"a": 1}\r\n\n {"b": "\xe2\x80\xa8\x0b\x1c"}\n{"c": 3}',
     b'{"a": 1}\n\xff\n', b'{"a": 1}\n[2]\n'],
    ids=["separators", "not-utf-8", "not-an-object"],
)
def test_lines_of_bytes_read_are_the_lines_of_the_file(tmp_path, data):
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)

    def lines(given):
        try:
            return list(iter_jsonl(path, "log", RunStateError, given))
        except RunStateError as exc:
            return str(exc)

    assert lines(read_bytes(path, "log", RunStateError)) == lines(None)


def test_read_bytes_failure_names_what_and_path(tmp_path):
    with pytest.raises(RunStateError, match="log not found: "):
        read_bytes(tmp_path / "absent", "log", RunStateError)
    with pytest.raises(RunStateError, match="log unreadable: "):
        read_bytes(tmp_path, "log", RunStateError)


def test_rewrite_over_a_longer_file_keeps_only_the_new_document(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"entries": list(range(100))})
    write_json(path, {"entries": [1]})
    assert path.read_text() == '{"entries": [1]}\n'


def test_appender_flushes_each_line_and_follows_a_cut_back(tmp_path):
    path = tmp_path / "log.jsonl"
    log = Appender(path)
    assert not path.exists()  # opened on the first append
    log.append({"step": 0})
    log.append({"step": 1})
    assert path.read_text() == '{"step": 0}\n{"step": 1}\n'
    os.truncate(path, len('{"step": 0}\n'))
    log.append({"step": 2})
    assert path.read_text() == '{"step": 0}\n{"step": 2}\n'
    log.close()
    log.append({"step": 3})  # opens the file again
    log.close()
    assert path.read_text() == '{"step": 0}\n{"step": 2}\n{"step": 3}\n'


LONG = '{"pad": "%s", "step": 1}' % ("x" * 40)


@pytest.mark.parametrize("block", [3, 1 << 16], ids=["small-blocks", "one-block"])
@pytest.mark.parametrize(
    "text, expected",
    [
        ("", None),
        ('{"step": 0', None),
        ('{"step": 0}\n', {"step": 0}),
        ('{"step": 0}\n' + LONG + "\n", json.loads(LONG)),
        ('{"step": 0}\n' + LONG + '\n{"step": 2, "pad": "', json.loads(LONG)),
        (LONG + "\n" + LONG[:-1], json.loads(LONG)),
    ],
    ids=["empty", "torn-only", "one-line", "two-lines", "torn-tail",
         "torn-tail-without-newline-before"],
)
def test_read_last_line_is_the_last_complete_line(
    tmp_path, monkeypatch, block, text, expected
):
    monkeypatch.setattr(jsonl, "_TAIL_BLOCK", block)
    path = tmp_path / "log.jsonl"
    path.write_text(text)
    found, end = read_last_line(path, "log", RunStateError, dict)
    assert found == expected
    assert end == (text.rindex("\n") + 1 if expected is not None else 0)


@pytest.mark.parametrize(
    "text", [None, '{"step": 0}\n{broken\n', '{"step": 0}\n[1]\n'],
    ids=["missing", "not-json", "rejected-by-build"],
)
def test_read_last_line_failure_names_what_and_path(tmp_path, text):
    path = tmp_path / "state.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(RunStateError) as caught:
        read_last_line(path, "run state", RunStateError,
                       lambda document: document["step"])
    assert str(caught.value).startswith(f"run state unreadable: {path}: ")


def test_files_are_encoded_and_decoded_only_in_jsonl():
    """One module decides the format of every file promptreg reads or writes."""
    src = pathlib.Path(__file__).parent.parent / "src" / "promptreg"
    offenders = [
        p.name
        for p in src.rglob("*.py")
        if p.name != "jsonl.py"
        and any(call in p.read_text() for call in ("json.loads(", "json.dumps("))
    ]
    assert offenders == []


def test_nothing_imports_requests():
    """The HTTP backend posts through the standard library."""
    root = pathlib.Path(__file__).parent.parent
    pattern = re.compile(r"^\s*(import|from)\s+requests\b", re.MULTILINE)
    offenders = [
        str(p.relative_to(root))
        for folder in ("src", "tests")
        for p in (root / folder).rglob("*.py")
        if pattern.search(p.read_text())
    ]
    assert offenders == []
