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


def test_traced_stages_are_called_through_patched_names(bench_modules, tmp_path):
    """The loop calls each stage through the name the tracer patches, also
    when the stage runs on a pool thread, so ``--trace 1`` sees every one."""
    from conftest import DATA_DIR
    from promptreg.gateway import Gateway
    from promptreg.loop import OptimizationRun, RunConfig

    tracing, workloads = bench_modules
    config = RunConfig(
        train_path=str(DATA_DIR / "train.jsonl"),
        val_path=str(DATA_DIR / "val.jsonl"),
        run_dir=str(tmp_path / "run"),
        seed=7,
        concurrency_cap=2,
    )
    tracer = tracing.Tracer()
    tracer.install(workloads.ScriptedBackend)
    try:
        OptimizationRun(
            config, Gateway.scripted(DATA_DIR / "fixtures.jsonl")
        ).run()
    finally:
        tracer.uninstall()
    seen = {span.name for span in tracer.spans}
    assert {
        "evaluation.evaluate",
        "purification.run_purification_stage",
        "regularization.semantic_diff",
        "regularization.diagnose",
        "regularization.synthesize_reg_gradient",
        "updater.apply_update",
        "rulebank.canonicalize_and_match",
        "rulebank.apply_ops",
    } <= seen


def test_golden_latency_output_passes_its_check(bench_modules, tmp_path):
    """The benchmark's check reads the run directory (the trace, the
    transcript and the size of state.json) as the loop writes it."""
    _, workloads = bench_modules
    workload = workloads.GoldenLatency(BENCH_DIR.parent, tmp_path, 1, {})
    workload.backend.delay_s = 0
    rep_dir = tmp_path / "rep"
    summary = workload.run(rep_dir, workloads.no_span)
    facts = workload.check(rep_dir, summary)
    assert facts["steps"] == 12
    assert facts["rules"] == 4
    assert facts["final_state_bytes"] > 0
