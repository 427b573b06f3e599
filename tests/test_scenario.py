"""The benchmark's generated 200-step scenario, run at caps 1, 2, 3 and 8.

``bench/scenario.py`` writes a train set, a val set and fixtures with
purifier rejects, unparseable purifier replies, gate rejects and JSON and tag
re-asks, and plans every step's decisions. Every seed and cap must make those
decisions, the planned calls per role and the planned bank, in one trace,
and write the same commit lines but for the cap and the log lengths; a run
that dies at any call, or stops after any step, must resume to the
uninterrupted run.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from promptreg.errors import BackendUnavailableError
from promptreg.gateway import Gateway, ScriptedBackend
from promptreg.loop import TRACE_FILE, TRANSCRIPT_FILE, OptimizationRun, RunConfig
from test_loop import (FailsAtCall, RunFiles, assert_commits_split_transcript,
                       assert_resumed_to, commits_but_cap, gateway_over,
                       run_files)

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SEED = 1
CAPS = (1, 2, 3, 8)


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import scenario
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return scenario, workloads


class ScenarioRuns(tuple):
    """The plan, and each cap's run, with a short repr, as ``RunFiles``
    has."""

    def __repr__(self) -> str:
        return f"ScenarioRuns(caps={sorted(self[1])})"


@pytest.fixture(scope="module")
def scenario_runs(bench_modules, tmp_path_factory) -> ScenarioRuns:
    """The plan, and the run directory and summary of each cap's run."""
    scenario, _ = bench_modules
    work = tmp_path_factory.mktemp("scenario")
    plan = scenario.build_loop_scenario(SEED, work)
    runs = {cap: run_scenario(work, plan, SEED, cap) for cap in CAPS}
    return ScenarioRuns((plan, runs))


def scenario_config(work, plan, seed, run_dir, cap) -> RunConfig:
    return RunConfig(
        train_path=str(work / "train.jsonl"),
        val_path=str(work / "val.jsonl"),
        run_dir=str(run_dir),
        batch_size=plan["batch_size"],
        iterations=plan["iterations"],
        tau_c=plan["tau_c"],
        seed=seed,
        initial_prompt=plan["initial_prompt"],
        concurrency_cap=cap,
    )


def run_scenario(work, plan, seed, cap):
    """The run directory and summary of the scenario in ``work`` at ``cap``."""
    run_dir = work / f"cap{cap}"
    gateway = Gateway.scripted(work / "fixtures.jsonl",
                               transcript_path=run_dir / TRANSCRIPT_FILE)
    return run_dir, OptimizationRun(
        scenario_config(work, plan, seed, run_dir, cap), gateway
    ).run()


@pytest.mark.parametrize("cap", CAPS)
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


@pytest.fixture(scope="module", params=[2, 3], ids=["seed2", "seed3"])
def seeded_runs(request, bench_modules, tmp_path_factory):
    """The plan of another seed, and its run at each of ``CAPS``."""
    scenario, _ = bench_modules
    work = tmp_path_factory.mktemp(f"scenario-seed{request.param}")
    plan = scenario.build_loop_scenario(request.param, work)
    return plan, {cap: run_scenario(work, plan, request.param, cap)
                  for cap in CAPS}


@pytest.mark.parametrize("cap", CAPS)
def test_other_seeds_make_the_planned_decisions_calls_and_bank(
    bench_modules, seeded_runs, cap
):
    _, workloads = bench_modules
    plan, runs = seeded_runs
    run_dir, summary = runs[cap]
    workloads.check_plan(run_dir / TRACE_FILE, plan)
    calls = workloads.transcript_facts(run_dir / TRANSCRIPT_FILE)["calls"]
    assert calls == plan["calls"]
    assert summary["rules"] == plan["final_rules"]
    assert summary["steps_completed"] == plan["iterations"]


def test_other_seeds_trace_identically_at_every_cap(seeded_runs):
    _, runs = seeded_runs
    traces = {(run_dir / TRACE_FILE).read_bytes()
              for run_dir, _ in runs.values()}
    assert len(traces) == 1


def assert_alike_at_every_cap(runs) -> None:
    """Each cap's trace is cap 1's byte for byte, and its commit lines are
    cap 1's but for the cap and the log lengths; each commit splits the
    transcript between steps."""
    cap1 = runs[1][0]
    trace, lines = (cap1 / TRACE_FILE).read_bytes(), commits_but_cap(cap1)
    for cap, (run_dir, _) in runs.items():
        assert (run_dir / TRACE_FILE).read_bytes() == trace, cap
        assert commits_but_cap(run_dir) == lines, cap
        assert_commits_split_transcript(run_dir)


def test_commit_lines_do_not_depend_on_the_cap(scenario_runs):
    _, runs = scenario_runs
    assert_alike_at_every_cap(runs)


def test_other_seeds_commit_alike_at_every_cap(seeded_runs):
    _, runs = seeded_runs
    assert_alike_at_every_cap(runs)


@pytest.fixture(scope="module")
def uninterrupted(scenario_runs) -> RunFiles:
    """``run_files`` of the seed-1 run at cap 1."""
    _, runs = scenario_runs
    run_dir, _ = runs[1]
    return RunFiles(run_files(run_dir))


@pytest.mark.parametrize("cap", [1, 3])
@settings(max_examples=5, deadline=None)
@given(call=st.integers(1, 4755))
def test_crash_at_a_drawn_call_resumes_to_the_uninterrupted_run(
    scenario_runs, uninterrupted, tmp_path_factory, cap, call
):
    plan, runs = scenario_runs
    assert sum(plan["calls"].values()) == 4755
    work = runs[1][0].parent
    backend = ScriptedBackend.from_jsonl(work / "fixtures.jsonl")
    run_dir = tmp_path_factory.mktemp("crash")
    transcript = run_dir / TRANSCRIPT_FILE
    config = scenario_config(work, plan, SEED, run_dir, cap)
    with pytest.raises(BackendUnavailableError):
        OptimizationRun(
            config, gateway_over(FailsAtCall(call, backend), transcript)
        ).run()
    OptimizationRun(config, gateway_over(backend, transcript)).run()
    assert_resumed_to(uninterrupted, run_dir, cap)


class Landed:
    """``inner``'s replies, recording the ``(step, role, system, user)`` of
    each call that returned."""

    def __init__(self, inner):
        self.inner = inner
        self.keys = []

    def complete(self, request, engine):
        response = self.inner.complete(request, engine)
        self.keys.append(
            (request.step, request.role.value, request.system, request.user)
        )
        return response


@settings(max_examples=10, deadline=None)
@given(call=st.integers(1, 4755))
def test_resume_at_cap_3_resends_no_call_of_the_steps_whose_calls_all_landed(
    scenario_runs, uninterrupted, tmp_path_factory, call
):
    """A step may commit while the next one runs; a failure in the next one
    still leaves its commit when its own calls, and every earlier step's,
    had all landed."""
    plan, runs = scenario_runs
    work = runs[1][0].parent
    backend = ScriptedBackend.from_jsonl(work / "fixtures.jsonl")
    run_dir = tmp_path_factory.mktemp("crash")
    transcript = run_dir / TRANSCRIPT_FILE
    config = scenario_config(work, plan, SEED, run_dir, 3)
    crashed = Landed(FailsAtCall(call, backend))
    with pytest.raises(BackendUnavailableError):
        OptimizationRun(config, gateway_over(crashed, transcript)).run()
    resumed = Landed(backend)
    OptimizationRun(config, gateway_over(resumed, transcript)).run()
    assert_resumed_to(uninterrupted, run_dir, 3)
    calls = Counter(tuple(call[:4]) for call in uninterrupted[TRANSCRIPT_FILE])
    landed = Counter(crashed.keys)
    # Steps commit in order, so a step after one that lost a call waits
    # for that one's rerun, however many of its own calls landed.
    first_short = min(
        key[0] for key, count in calls.items() if landed[key] < count
    )
    assert not [key for key in resumed.keys if key[0] < first_short]


@settings(max_examples=3, deadline=None)
@given(step=st.integers(-1, 198))
def test_stop_after_a_drawn_step_resumes_to_the_uninterrupted_run(
    scenario_runs, uninterrupted, tmp_path_factory, step
):
    plan, runs = scenario_runs
    work = runs[1][0].parent
    run_dir = tmp_path_factory.mktemp("stop")
    config = scenario_config(work, plan, SEED, run_dir, 1)
    for stop_after_step in (step, None):
        OptimizationRun(config, Gateway.scripted(
            work / "fixtures.jsonl", transcript_path=run_dir / TRANSCRIPT_FILE
        )).run(stop_after_step)
    assert_resumed_to(uninterrupted, run_dir, 1)
