"""The names the benchmark looks up in promptreg still exist.

``bench/workloads.py`` imports promptreg names at import time, and
``bench/tracing.py`` patches the ``(owner, attribute)`` pairs that
``targets`` lists, so a rename breaks ``bench/run_bench.py`` and its
``--trace 1`` mode without failing any other test.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return tracing, workloads


def test_every_traced_target_resolves(bench_modules):
    tracing, workloads = bench_modules
    targets = tracing.targets(workloads.ScriptedBackend)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in targets
        if not hasattr(owner, attribute)
    ]
    assert targets
    assert missing == []
