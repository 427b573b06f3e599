"""The benchmark's generated 200-step scenario, run at caps 1 and 3.

``bench/scenario.py`` writes a train set, a val set and fixtures with
purifier rejects, unparseable purifier replies, gate rejects and JSON and tag
re-asks, and plans every step's decisions. Both caps must make those
decisions, the planned calls per role and the planned bank, in one trace.
"""

import sys
from pathlib import Path

import pytest

from promptreg.gateway import Gateway
from promptreg.loop import TRACE_FILE, TRANSCRIPT_FILE, OptimizationRun, RunConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SEED = 1


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import scenario
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return scenario, workloads


@pytest.fixture(scope="module")
def scenario_runs(bench_modules, tmp_path_factory):
    """The plan, and the run directory and summary of each cap's run."""
    scenario, _ = bench_modules
    work = tmp_path_factory.mktemp("scenario")
    plan = scenario.build_loop_scenario(SEED, work)
    runs = {}
    for cap in (1, 3):
        run_dir = work / f"cap{cap}"
        config = RunConfig(
            train_path=str(work / "train.jsonl"),
            val_path=str(work / "val.jsonl"),
            run_dir=str(run_dir),
            batch_size=plan["batch_size"],
            iterations=plan["iterations"],
            tau_c=plan["tau_c"],
            seed=SEED,
            initial_prompt=plan["initial_prompt"],
            concurrency_cap=cap,
        )
        gateway = Gateway.scripted(work / "fixtures.jsonl",
                                   transcript_path=run_dir / TRANSCRIPT_FILE)
        runs[cap] = run_dir, OptimizationRun(config, gateway).run()
    return plan, runs


@pytest.mark.parametrize("cap", [1, 3])
def test_run_makes_the_planned_decisions_calls_and_bank(
    bench_modules, scenario_runs, cap
):
    _, workloads = bench_modules
    plan, runs = scenario_runs
    run_dir, summary = runs[cap]
    workloads.check_plan(run_dir / TRACE_FILE, plan)
    calls = workloads.transcript_facts(run_dir / TRANSCRIPT_FILE)["calls"]
    assert calls == plan["calls"]
    assert summary["rules"] == plan["final_rules"]
    assert summary["steps_completed"] == plan["iterations"]


def test_traces_at_caps_one_and_three_are_byte_identical(scenario_runs):
    _, runs = scenario_runs
    traces = {cap: (run_dir / TRACE_FILE).read_bytes()
              for cap, (run_dir, _) in runs.items()}
    assert traces[1] == traces[3]
