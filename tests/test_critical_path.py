"""tools/critical_path.py, whose call-latency counts the critical-path
figures come from, run once on the golden run."""

import re
import sys

from conftest import ROOT, load

critical_path = load(ROOT / "tools" / "critical_path.py")


def test_one_line_per_cap(capsys, monkeypatch):
    # main puts the checkout's src first on sys.path.
    monkeypatch.setattr(sys, "path", list(sys.path))
    critical_path.main(["--caps", "2", "--runs", "1", "--delay-ms", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(
        r"cap 2: \d+\.\d call-latencies \(runs: \d+\.\d\)", lines[0]
    )
