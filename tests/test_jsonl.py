import os
import pathlib
import re
from contextlib import closing

import pytest

from promptreg.errors import RunStateError
from promptreg.jsonl import Appender, iter_jsonl, read_json, write_json


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
