import builtins
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from conftest import DATA_DIR, scripted_gateway, within
from promptreg import loop
from promptreg.errors import (
    BackendUnavailableError,
    ConfigError,
    FixtureMissError,
    MalformedOutputError,
    RunStateError,
    UpdateExtractionError,
)
from promptreg.evaluation import CallPool, Sample
from promptreg.gateway import (
    EngineConfig,
    Gateway,
    HttpBackend,
    Role,
    RoleAssignment,
    ScriptedBackend,
)
from promptreg.loop import (
    DEFAULT_INITIAL_PROMPT,
    RULEBANK_FILE,
    STATE_FILE,
    STEP_LOGS,
    TRACE_FILE,
    TRANSCRIPT_FILE,
    OptimizationRun,
    RunConfig,
    batch_order,
    next_batch,
    replay_divergences,
    run_optimization,
)
from promptreg.metrics import PromptVersion
from promptreg.purification import ExecutionContext, purify
from promptreg.regularization import (
    NEUTRAL_DIFF,
    diagnose,
    semantic_diff,
    synthesize_reg_gradient,
)
from promptreg.rulebank import (
    RuleBank,
    RuleBankOp,
    apply_ops,
    bank_document,
    canonicalize_and_match,
    load_rulebank,
)
from promptreg.updater import (
    DEFAULT_END_TAG,
    DEFAULT_ROLE_DESC,
    DEFAULT_START_TAG,
)

FIXTURES = DATA_DIR / "fixtures.jsonl"
GOLDEN_TRACE = DATA_DIR / "golden_trace.jsonl"


def golden_config(run_dir, concurrency_cap=1) -> RunConfig:
    return RunConfig(
        train_path=str(DATA_DIR / "train.jsonl"),
        val_path=str(DATA_DIR / "val.jsonl"),
        run_dir=str(run_dir),
        batch_size=3,
        iterations=12,
        seed=7,
        concurrency_cap=concurrency_cap,
    )


def gateway_over(backend, transcript_path=None) -> Gateway:
    return Gateway(
        engines=RoleAssignment.uniform(EngineConfig(name="scripted")),
        backends={role: backend for role in Role},
        transcript_path=transcript_path,
    )


def fixtures_without(tmp_path, dropped) -> Path:
    """A copy of the golden fixtures without the lines ``dropped`` selects."""
    path = tmp_path / "partial.jsonl"
    path.write_text("".join(
        line + "\n" for line in FIXTURES.read_text().splitlines()
        if not dropped(line)
    ))
    return path


def transcript_roles(path) -> Counter:
    return Counter(
        json.loads(line)["role"] for line in path.read_text().splitlines()
    )


class TestNextBatch:
    SAMPLES = [Sample(f"q{i}", "a") for i in range(10)]

    def test_deterministic(self):
        a = next_batch(self.SAMPLES, 2, 3, seed=5)
        b = next_batch(self.SAMPLES, 2, 3, seed=5)
        assert a == b

    def test_seed_changes_order(self):
        full_a = [next_batch(self.SAMPLES, s, 3, seed=1) for s in range(4)]
        full_b = [next_batch(self.SAMPLES, s, 3, seed=2) for s in range(4)]
        assert full_a != full_b

    def test_covers_everything_before_repeating(self):
        seen = []
        for step in range(5):
            seen.extend(next_batch(self.SAMPLES, step, 2, seed=3))
        assert sorted(s.question for s in seen) == sorted(
            s.question for s in self.SAMPLES
        )

    def test_wraps_around(self):
        batch = next_batch(self.SAMPLES, 3, 3, seed=0)
        assert len(batch) == 3

    def test_empty_train(self):
        with pytest.raises(ValueError):
            next_batch([], 0, 3, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32), st.integers(1, 12),
           st.integers(0, 500))
    def test_same_windows_as_a_shuffle_per_step(self, n, seed, size, step):
        """The order is shuffled once per train size and seed; the batches
        are those of shuffling the train set anew at every step."""
        train = [Sample(f"q{i}", "a") for i in range(n)]
        order = list(range(n))
        random.Random(seed).shuffle(order)
        start = (step * size) % n
        shuffled_per_step = [train[order[(start + i) % n]]
                             for i in range(size)]
        assert next_batch(train, step, size, seed) == shuffled_per_step
        assert batch_order(n, seed) == tuple(order)


class TestRunConfig:
    def kwargs(self, **overrides):
        base = dict(train_path="t", val_path="v", run_dir="r")
        base.update(overrides)
        return base

    def test_defaults(self):
        config = RunConfig(**self.kwargs())
        assert config.batch_size == 3
        assert config.iterations == 12
        assert config.tau_c == 0.2
        assert config.initial_prompt == DEFAULT_INITIAL_PROMPT

    def test_default_prompt_has_twenty_tokens(self):
        assert len(DEFAULT_INITIAL_PROMPT.split()) == 20

    @pytest.mark.parametrize(
        "bad",
        [
            {"batch_size": 0},
            {"iterations": 0},
            {"tau_c": -2.0},
            {"acceptance_relaxation": -0.1},
            {"concurrency_cap": 0},
            {"initial_prompt": "  "},
            {"val_subsample": 0},
            {"val_subsample": -1},
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**self.kwargs(**bad)).validate()

    def test_round_trip(self):
        config = RunConfig(**self.kwargs(seed=9, acceptance_relaxation=0.01))
        assert RunConfig(**asdict(config)) == config


class TestAcceptanceGate:
    """The gate compares candidate validation accuracy against the cached
    score with the configured relaxation; ties are accepted."""

    def run_one_step(self, tmp_path, relaxation, candidate_answers, **settings):
        # val: 20 questions; the initial prompt answers 14 correctly (0.70).
        # The purifier rejects at step 0, so step 1 carries the only update
        # and its candidate eval is the only forward traffic at step 1
        # besides the T-prefixed batch. The run's summary is kept in
        # self.summary and its commit lines in self.commits.
        val = [
            {"question": f"V{i:02d}", "answer": "A" if i < 14 else "B"}
            for i in range(20)
        ]
        train = [{"question": f"T{i}", "answer": "Z"} for i in range(3)]
        for name, rows in (("val.jsonl", val), ("train.jsonl", train)):
            (tmp_path / name).write_text(
                "".join(json.dumps(r) + "\n" for r in rows)
            )
        fixtures = [
            {"role": "FORWARD", "step": 0, "response": "Answer: A"},
            {"role": "FORWARD", "step": 1, "match_substring": "T",
             "response": "Answer: wrong"},
            {"role": "GRADIENT", "match_substring": "prompt critic",
             "response": "raw"},
            {"role": "GRADIENT", "step": 0,
             "match_substring": "Gradient Purifier",
             "response": json.dumps({"purified_gradient": ""})},
            {"role": "GRADIENT", "step": 1,
             "match_substring": "Gradient Purifier",
             "response": json.dumps({"purified_gradient": "improve"})},
            {"role": "GRADIENT", "match_substring": "rule canonicalization",
             "response": json.dumps({"operations": []})},
            {"role": "OPTIMIZER",
             "response": "<IMPROVED_VARIABLE>candidate prompt"
                         "</IMPROVED_VARIABLE>"},
        ]
        # candidate eval at step 1: one response per question so any score
        # can be dialed in
        for i, answer in enumerate(candidate_answers):
            fixtures.append(
                {"role": "FORWARD", "step": 1, "match_substring": f"V{i:02d}",
                 "response": f"Answer: {answer}"}
            )
        run_dir = tmp_path / "run"
        config = RunConfig(
            train_path=str(tmp_path / "train.jsonl"),
            val_path=str(tmp_path / "val.jsonl"),
            run_dir=str(run_dir),
            iterations=2,
            acceptance_relaxation=relaxation,
            **settings,
        )
        self.summary = run_optimization(config, scripted_gateway(
            fixtures, transcript_path=run_dir / TRANSCRIPT_FILE
        ))
        self.commits = [json.loads(line) for line in
                        (run_dir / STATE_FILE).read_text().splitlines()]
        lines = (run_dir / TRACE_FILE).read_text().splitlines()
        return json.loads(lines[1])

    def test_tie_accepted_without_relaxation(self, tmp_path):
        # candidate also scores 14/20
        answers = ["A"] * 14 + ["X"] * 6
        trace = self.run_one_step(tmp_path, 0.0, answers)
        assert trace["candidate_val"] == 0.70
        assert trace["accepted"] is True

    def test_small_drop_accepted_with_relaxation(self, tmp_path):
        # 13/20 = 0.65 against 0.70 - 0.05
        answers = ["A"] * 13 + ["X"] * 7
        trace = self.run_one_step(tmp_path, 0.05, answers)
        assert trace["candidate_val"] == 0.65
        assert trace["accepted"] is True

    def test_drop_beyond_relaxation_rejected(self, tmp_path):
        # 12/20 = 0.60 against 0.70 - 0.05
        answers = ["A"] * 12 + ["X"] * 8
        trace = self.run_one_step(tmp_path, 0.05, answers)
        assert trace["accepted"] is False
        assert trace["version_after"] == 0

    def test_one_percent_relaxation_boundary(self, tmp_path):
        # 0.65 >= 0.70 - 0.01 is false
        answers = ["A"] * 13 + ["X"] * 7
        trace = self.run_one_step(tmp_path, 0.01, answers)
        assert trace["accepted"] is False

    def test_better_candidate_becomes_best(self, tmp_path):
        # 20/20 = 1.0 against the best 0.70
        answers = ["A"] * 14 + ["B"] * 6
        trace = self.run_one_step(tmp_path, 0.0, answers)
        assert trace["accepted"] is True
        for record in (self.summary, self.commits[-1]):
            assert record["best"]["version"] == 1
            assert record["best"]["text"] == "candidate prompt"
            assert record["best_val"] == 1.0
            assert record["current"] == record["best"]

    def test_relaxed_acceptance_leaves_best(self, tmp_path):
        # 13/20 = 0.65 becomes current; the best stays version 0 at 0.70
        answers = ["A"] * 13 + ["X"] * 7
        self.run_one_step(tmp_path, 0.05, answers)
        for record in (self.summary, self.commits[-1]):
            assert record["current"]["version"] == 1
            assert record["current_val"] == 0.65
            assert record["best"]["version"] == 0
            assert record["best_val"] == 0.70

    def test_val_subsample_gates_on_the_first_questions(self, tmp_path):
        answers = ["A"] * 5
        trace = self.run_one_step(tmp_path, 0.0, answers, val_subsample=5)
        assert trace["candidate_val"] == 1.0
        calls = [json.loads(line) for line in
                 (tmp_path / "run" / TRANSCRIPT_FILE).read_text().splitlines()]
        gated = Counter((call["step"], call["user"]) for call in calls
                        if call["role"] == "FORWARD"
                        and call["user"].startswith("V"))
        # The initial gate at step 0 and the candidate's at step 1.
        assert gated == {(step, f"V{i:02d}"): 1
                         for step in (0, 1) for i in range(5)}
        # The digest is of the whole val file, not of the subsample.
        whole = hashlib.sha256((tmp_path / "val.jsonl").read_bytes())
        for commit in self.commits:
            assert commit["input_sha256"]["val"] == whole.hexdigest()


class TestGoldenRun:
    def test_trace_matches_frozen_bytes(self, tmp_path):
        gateway = Gateway.scripted(FIXTURES)
        run_optimization(golden_config(tmp_path / "run"), gateway)
        produced = (tmp_path / "run" / TRACE_FILE).read_bytes()
        assert produced == GOLDEN_TRACE.read_bytes()

    def test_final_bank_counts(self, tmp_path):
        run_optimization(
            golden_config(tmp_path / "run"), Gateway.scripted(FIXTURES)
        )
        bank = load_rulebank(tmp_path / "run" / "rulebank.json")
        counts = {r.id: r.mention_count for r in bank.entries}
        assert counts == {"R1": 4, "R2": 2, "R3": 2, "R4": 1}

    def test_commit_lines_hold_accepted_versions_only(self, tmp_path):
        run_dir = tmp_path / "run"
        summary = run_optimization(
            golden_config(run_dir), Gateway.scripted(FIXTURES)
        )
        prompts = []
        for commit in commits(run_dir):
            if commit["current"] not in prompts:
                prompts.append(commit["current"])
        accepted = [json.loads(line)["candidate_version"]
                    for line in GOLDEN_TRACE.read_text().splitlines()
                    if json.loads(line)["accepted"]]
        assert [p["version"] for p in prompts] == [0, *accepted] == list(range(9))
        assert prompts[0]["text"] == DEFAULT_INITIAL_PROMPT
        assert prompts[-1] == summary["current"]
        for prompt in prompts:
            assert prompt == asdict(PromptVersion.create(
                prompt["text"], version=prompt["version"]
            ))

    def test_run_directory_holds_one_commit_record_and_one_step_log(
        self, tmp_path
    ):
        run_dir = tmp_path / "run"
        config = golden_config(run_dir)
        run_optimization(
            config,
            Gateway.scripted(FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE),
        )
        assert {p.name for p in run_dir.iterdir()} == {
            STATE_FILE, RULEBANK_FILE, *STEP_LOGS
        } == {"state.json", "rulebank.json", "trace.jsonl", "transcript.jsonl"}
        assert STEP_LOGS == (TRACE_FILE, TRANSCRIPT_FILE)
        # One commit line for the initial validation and one per step.
        lines = commits(run_dir)
        assert [c["step_completed"] for c in lines] == list(range(-1, 12))
        assert all(c["config"] == asdict(config) for c in lines)

    def test_resume_midway_reproduces_trace(self, tmp_path):
        run_dir = tmp_path / "run"
        first = OptimizationRun(golden_config(run_dir), Gateway.scripted(FIXTURES))
        first.run(stop_after_step=5)
        assert len((run_dir / TRACE_FILE).read_text().splitlines()) == 6
        second = OptimizationRun(
            golden_config(run_dir), Gateway.scripted(FIXTURES)
        )
        second.run()
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_resume_with_changed_config_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        first = OptimizationRun(golden_config(run_dir), Gateway.scripted(FIXTURES))
        first.run(stop_after_step=5)
        changed = replace(golden_config(run_dir), seed=99, batch_size=2, tau_c=0.5)
        second = OptimizationRun(changed, Gateway.scripted(FIXTURES))
        with pytest.raises(RunStateError, match="batch_size, tau_c, seed"):
            second.run()
        assert len((run_dir / TRACE_FILE).read_text().splitlines()) == 6

    def test_resume_after_moving_the_run_directory(self, tmp_path):
        OptimizationRun(
            golden_config(tmp_path / "run"), Gateway.scripted(FIXTURES)
        ).run(stop_after_step=5)
        moved = tmp_path / "moved"
        shutil.copytree(tmp_path / "run", moved)
        OptimizationRun(golden_config(moved), Gateway.scripted(FIXTURES)).run()
        assert (moved / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_identity_transition_makes_no_regularization_calls(self, tmp_path):
        """Steps whose prior update was skipped must not call the analyzer
        or the generator at all."""
        run_dir = tmp_path / "run"
        gateway = Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )
        run_optimization(golden_config(run_dir), gateway)
        reg_steps = {
            json.loads(line)["step"]
            for line in (run_dir / TRANSCRIPT_FILE).read_text().splitlines()
            if json.loads(line)["role"] == Role.REGULARIZATION.value
        }
        # identity-transition steps per the frozen trace
        assert reg_steps.isdisjoint({0, 2, 8, 11})

    def test_backward_call_budget(self, tmp_path):
        run_dir = tmp_path / "run"
        gateway = Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )
        run_optimization(golden_config(run_dir), gateway)
        per_step: dict[int, int] = {}
        for line in (run_dir / TRANSCRIPT_FILE).read_text().splitlines():
            entry = json.loads(line)
            if entry["role"] != Role.FORWARD.value:
                per_step[entry["step"]] = per_step.get(entry["step"], 0) + 1
        assert max(per_step.values()) <= 6

    def test_rejected_candidate_never_becomes_a_transition(self, tmp_path):
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        lines = [
            json.loads(l) for l in (run_dir / TRACE_FILE).read_text().splitlines()
        ]
        rejected = lines[4]
        assert rejected["accepted"] is False
        # step 5 re-diagnoses the transition accepted at step 3, so rho_c must
        # equal step 4's value, not one derived from the rejected candidate
        assert lines[5]["ser"]["rho_c"] == rejected["ser"]["rho_c"]


class TestResumeFromCommit:
    """Resume cuts every step log back to the lengths state.json committed."""

    def run(self, run_dir, **kwargs):
        return OptimizationRun(
            golden_config(run_dir), Gateway.scripted(FIXTURES)
        ).run(**kwargs)

    def test_empty_rewrite_is_never_committed(self, tmp_path):
        # Step 0's rewrite, and so its re-ask too, holds only whitespace.
        empty = f"{DEFAULT_START_TAG}\n \n{DEFAULT_END_TAG}"
        fixtures = tmp_path / "empty-rewrite.jsonl"
        fixtures.write_text("".join(
            json.dumps({**record, "response": empty}
                       if (record["role"], record.get("step")) == ("OPTIMIZER", 0)
                       else record) + "\n"
            for record in map(json.loads, FIXTURES.read_text().splitlines())
        ))
        run_dir = tmp_path / "run"
        for _ in range(2):  # the start, then a resume
            with pytest.raises(UpdateExtractionError):
                OptimizationRun(
                    golden_config(run_dir), Gateway.scripted(fixtures)
                ).run()
        commits = (run_dir / STATE_FILE).read_text().splitlines()
        assert [json.loads(c)["step_completed"] for c in commits] == [-1]

    def test_crash_mid_step_leaves_clean_transcript(self, tmp_path):
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE
        # Without step 6's OPTIMIZER fixture the run dies inside step 6,
        # after that step's forward, gradient and regularization calls.
        partial = fixtures_without(
            tmp_path, lambda line: '"OPTIMIZER"' in line and '"step": 6' in line
        )
        with pytest.raises(FixtureMissError):
            OptimizationRun(
                golden_config(run_dir),
                Gateway.scripted(partial, transcript_path=transcript),
            ).run()
        OptimizationRun(
            golden_config(run_dir),
            Gateway.scripted(FIXTURES, transcript_path=transcript),
        ).run()
        steps = [json.loads(line)["step"]
                 for line in transcript.read_text().splitlines()]
        assert steps.count(6) == 19
        assert len(steps) == 190
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_failed_first_start_leaves_no_transcript_lines(self, tmp_path):
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE

        class FailsOnFourthCall:
            def __init__(self):
                self.calls = 0
                self.inner = ScriptedBackend.from_jsonl(FIXTURES)

            def complete(self, request, engine):
                self.calls += 1
                if self.calls == 4:
                    raise BackendUnavailableError("backend unavailable")
                return self.inner.complete(request, engine)

        # The 4th call is inside the initial evaluation, before any commit.
        with pytest.raises(BackendUnavailableError):
            OptimizationRun(
                golden_config(run_dir),
                gateway_over(FailsOnFourthCall(), transcript),
            ).run()
        assert not (run_dir / STATE_FILE).exists()
        assert len(transcript.read_text().splitlines()) == 3
        OptimizationRun(
            golden_config(run_dir),
            Gateway.scripted(FIXTURES, transcript_path=transcript),
        ).run()
        assert len(transcript.read_text().splitlines()) == 190
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_torn_trace_line_is_cut(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        with open(run_dir / TRACE_FILE, "a") as handle:
            handle.write('{"step": 6, "ser": {"sta')
        self.run(run_dir)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_commit_line_nested_too_deep_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=1)
        with open(run_dir / STATE_FILE, "a") as handle:
            handle.write('{"bank": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
        with pytest.raises(RunStateError, match="run state unreadable"):
            self.run(run_dir)

    def test_log_shorter_than_commit_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        lines = (run_dir / TRACE_FILE).read_text().splitlines(keepends=True)
        (run_dir / TRACE_FILE).write_text("".join(lines[:-1]))
        with pytest.raises(RunStateError, match="fewer than"):
            self.run(run_dir)

    @pytest.mark.parametrize("length", [-5, 3.7, "12", True, None])
    def test_committed_log_length_that_is_no_byte_count_is_refused(
        self, tmp_path, length
    ):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=3)
        lines = commits(run_dir)
        lines[-1]["log_bytes"][TRACE_FILE] = length
        (run_dir / STATE_FILE).write_text("".join(
            json.dumps(line, sort_keys=True) + "\n" for line in lines
        ))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        message = "run state unreadable: " \
            f"{re.escape(str(run_dir / STATE_FILE))}: log_bytes {TRACE_FILE} " \
            f"is {re.escape(repr(length))}, not a byte count"
        with pytest.raises(RunStateError, match=message):
            self.run(run_dir)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("log_bytes", None),
            # The fields a config held before role_desc and tags were
            # dropped from RunConfig, at their only values.
            lambda d: d["config"].update(
                role_desc=DEFAULT_ROLE_DESC,
                tags={"start": DEFAULT_START_TAG, "end": DEFAULT_END_TAG},
            ),
            # Written while the config sat in a file of its own.
            lambda d: d.pop("config", None),
            # Written before the input files' digests were recorded.
            lambda d: d.pop("input_sha256", None),
        ],
        ids=["state-without-log-lengths", "snapshot-with-dropped-fields",
             "state-without-config", "state-without-input-digests"],
    )
    def test_run_directory_of_older_format_is_refused(self, tmp_path, edit):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        lines = (run_dir / STATE_FILE).read_text().splitlines(keepends=True)
        document = json.loads(lines[-1])
        edit(document)
        (run_dir / STATE_FILE).write_text(
            "".join(lines[:-1]) + json.dumps(document) + "\n"
        )
        with pytest.raises(RunStateError, match="run state unreadable"):
            self.run(run_dir)

    def test_run_directory_with_a_prompt_log_resumes_and_keeps_it(
        self, tmp_path
    ):
        """A run directory written while accepted prompts also went to
        prompts.jsonl, whose length its commit lines record, resumes; the
        file is left as it is."""
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        lines = commits(run_dir)
        prompts = run_dir / "prompts.jsonl"
        prompt_lines = []
        for commit in lines:
            line = json.dumps(commit["current"], sort_keys=True) + "\n"
            if line not in prompt_lines:
                prompt_lines.append(line)
            commit["log_bytes"]["prompts.jsonl"] = len(
                "".join(prompt_lines).encode()
            )
        prompts.write_text("".join(prompt_lines))
        (run_dir / STATE_FILE).write_text("".join(
            json.dumps(commit, sort_keys=True) + "\n" for commit in lines
        ))
        before = prompts.read_bytes()
        self.run(run_dir)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert prompts.read_bytes() == before


GOLDEN_BANK = {"R1": 4, "R2": 2, "R3": 2, "R4": 1}


class Crash(Exception):
    """Stands in for the process dying at the point a test picks."""


def commits(run_dir) -> list[dict]:
    """The commit lines of the run's state.json, in order."""
    return [json.loads(line)
            for line in (run_dir / STATE_FILE).read_text().splitlines()]


def golden_bank_bytes(tmp_path) -> bytes:
    run_dir = tmp_path / "uninterrupted"
    run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
    return (run_dir / RULEBANK_FILE).read_bytes()


def run_files(run_dir) -> dict:
    """The run's trace and bank, its commit lines without the config and the
    transcript's length, which differ between run directories and caps, and
    its transcript's calls in order."""
    files = {name: (run_dir / name).read_bytes()
             for name in (TRACE_FILE, RULEBANK_FILE)}
    files[STATE_FILE] = commits(run_dir)
    for commit in files[STATE_FILE]:
        del commit["config"], commit["log_bytes"][TRANSCRIPT_FILE]
    files[TRANSCRIPT_FILE] = [
        (e["step"], e["role"], e["system"], e["user"], e["response"])
        for e in map(
            json.loads, (run_dir / TRANSCRIPT_FILE).read_text().splitlines()
        )
    ]
    return files


def assert_resumed_to(uninterrupted, run_dir, cap) -> None:
    """The trace and bank byte for byte, every commit line but its config
    and transcript length, and the transcript call for call, in any order
    above cap 1."""
    files, expected = run_files(run_dir), dict(uninterrupted)
    if cap > 1:  # calls finish in any order
        for each in (files, expected):
            each[TRANSCRIPT_FILE] = Counter(each[TRANSCRIPT_FILE])
    assert files == expected


def commits_but_cap(run_dir) -> list[dict]:
    """The run's commit lines without their step logs' lengths, the cap and
    the run directory."""
    lines = commits(run_dir)
    for line in lines:
        del line["log_bytes"], line["config"]["concurrency_cap"], \
            line["config"]["run_dir"]
    return lines


def assert_commits_split_transcript(run_dir) -> None:
    """Each commit's transcript length falls between the lines of its step
    and those of the next: a step may start before the one before it
    commits, but its transcript lines all land after that commit's."""
    lines = (run_dir / TRANSCRIPT_FILE).read_bytes().splitlines(keepends=True)
    steps = [json.loads(line)["step"] for line in lines]
    ends = list(itertools.accumulate(map(len, lines), initial=0))
    for commit in commits(run_dir):
        cut = ends.index(commit["log_bytes"][TRANSCRIPT_FILE])
        step = commit["step_completed"]
        before, after = steps[:cut], steps[cut:]
        assert max(before) <= max(step, 0)
        assert step < 0 or not after or min(after) == step + 1


class RunFiles(dict):
    """``run_files`` of a run, with a short repr: hypothesis prints each
    argument of a falsifying example, fixtures too, and a run's files
    print to hundreds of kB."""

    def __repr__(self) -> str:
        return f"RunFiles({len(self[TRANSCRIPT_FILE])} calls)"


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory) -> RunFiles:
    """``run_files`` of the golden run at cap 1, run without a crash."""
    run_dir = tmp_path_factory.mktemp("uninterrupted")
    run_optimization(golden_config(run_dir), Gateway.scripted(
        FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
    ))
    files = run_files(run_dir)
    assert files[TRACE_FILE] == GOLDEN_TRACE.read_bytes()
    return RunFiles(files)


# How many bytes of a commit line of ``size`` bytes, newline included, a
# crash inside its write leaves: its first byte, half of it, or all of it
# but the newline.
CUTS = {
    "first-byte": lambda size: 1,
    "middle": lambda size: size // 2,
    "last-byte": lambda size: size - 1,
}


def tear_commit(monkeypatch, commit, keep) -> None:
    """Make the run die inside the write of its ``commit``-th commit line (0
    is the initial one), leaving ``keep(size)`` bytes of it in state.json."""

    class Tearing(loop.Appender):
        written = 0

        def append_line(self, line):
            if self.path.name == STATE_FILE:
                if self.written == commit:
                    with open(self.path, "ab") as handle:
                        handle.write(line[:keep(len(line))])
                    raise Crash
                self.written += 1
            super().append_line(line)

    monkeypatch.setattr(loop, "Appender", Tearing)


class TestCommitOrder:
    """A commit is one line appended to state.json after the step's log
    lines. A crash inside its write leaves a torn line, which a resume cuts
    off; rulebank.json is written only when run() returns, and a resume
    never reads it."""

    def run(self, run_dir, **kwargs):
        return OptimizationRun(
            golden_config(run_dir), Gateway.scripted(FIXTURES)
        ).run(**kwargs)

    def test_crash_at_the_state_write_does_not_apply_bank_ops_twice(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        tear_commit(monkeypatch, 5, CUTS["middle"])  # step 4's commit
        with pytest.raises(Crash):
            self.run(run_dir)
        monkeypatch.undo()
        state = (run_dir / STATE_FILE).read_bytes()
        assert state.count(b"\n") == 5 and not state.endswith(b"\n")
        self.run(run_dir)
        bank = load_rulebank(run_dir / RULEBANK_FILE)
        assert {r.id: r.mention_count for r in bank.entries} == GOLDEN_BANK
        assert (run_dir / RULEBANK_FILE).read_bytes() == \
            golden_bank_bytes(tmp_path)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_crash_after_the_last_state_write_is_repaired_by_a_rerun(
        self, tmp_path
    ):
        run_dir = tmp_path / "run"
        self.run(run_dir)
        # What a crash inside the bank write as run() returns leaves.
        bank = run_dir / RULEBANK_FILE
        bank.write_bytes(bank.read_bytes()[:20])
        assert commits(run_dir)[-1]["step_completed"] == 11
        summary = self.run(run_dir)
        assert summary["steps_completed"] == 12
        assert bank.read_bytes() == golden_bank_bytes(tmp_path)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_crash_inside_the_first_commit_resumes(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        tear_commit(monkeypatch, 0, CUTS["middle"])
        with pytest.raises(Crash):
            self.run(run_dir)
        monkeypatch.undo()
        state = (run_dir / STATE_FILE).read_bytes()
        assert state and b"\n" not in state
        assert not (run_dir / RULEBANK_FILE).exists()
        self.run(run_dir)
        assert (run_dir / RULEBANK_FILE).read_bytes() == \
            golden_bank_bytes(tmp_path)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    # With rulebank.json, the crash also leaves a torn bank file behind,
    # which the resume must not read.
    @pytest.mark.parametrize(
        "torn", [STATE_FILE, RULEBANK_FILE], ids=[STATE_FILE, RULEBANK_FILE]
    )
    @pytest.mark.parametrize(
        "commit", range(13), ids=["initial"] + [f"step-{s}" for s in range(12)]
    )
    def test_crash_at_any_commit_resumes_to_the_uninterrupted_run(
        self, tmp_path, monkeypatch, uninterrupted, commit, torn
    ):
        for cut, keep in CUTS.items():
            run_dir = tmp_path / cut
            transcript = run_dir / TRANSCRIPT_FILE
            tear_commit(monkeypatch, commit, keep)
            with pytest.raises(Crash):
                OptimizationRun(
                    golden_config(run_dir),
                    Gateway.scripted(FIXTURES, transcript_path=transcript),
                ).run()
            monkeypatch.undo()
            if torn == RULEBANK_FILE:
                (run_dir / RULEBANK_FILE).write_text('{"entries": [{"id": "R')
            OptimizationRun(
                golden_config(run_dir),
                Gateway.scripted(FIXTURES, transcript_path=transcript),
            ).run()
            assert run_files(run_dir) == uninterrupted, cut

    def test_each_commit_holds_the_bank_folded_from_the_trace(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir)
        lines = commits(run_dir)
        bank = RuleBank()
        assert lines[0]["bank"] == bank_document(bank)
        for line, commit in zip(GOLDEN_TRACE.read_text().splitlines(), lines[1:]):
            ops = [RuleBankOp(**op) for op in json.loads(line)["bank_ops"]]
            apply_ops(bank, ops, commit["step_completed"])
            assert commit["bank"]["entries"] == bank_document(bank)["entries"]
        assert lines[-1]["bank"] == \
            json.loads((run_dir / RULEBANK_FILE).read_text())

    def test_state_without_bank_record_is_refused(self, tmp_path):
        """A state.json of the two-file commit, which held a record of the
        bank beside rulebank.json but not the bank, is refused."""
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        document = commits(run_dir)[-1]
        entries = document.pop("bank")["entries"]
        document["bank_commit"] = {
            "rules": len(entries),
            "mentions": sum(rule["mention_count"] for rule in entries),
            "updated_step": 5,
            "ops": json.loads(
                GOLDEN_TRACE.read_text().splitlines()[5]
            )["bank_ops"],
        }
        (run_dir / STATE_FILE).write_text(
            json.dumps(document, sort_keys=True) + "\n"
        )
        trace = (run_dir / TRACE_FILE).read_bytes()
        with pytest.raises(RunStateError, match="run state unreadable: .*'bank'"):
            self.run(run_dir)
        assert (run_dir / TRACE_FILE).read_bytes() == trace


class TestHeldLogs:
    """Each gateway appends to the transcript, and each run() to the trace,
    through one handle opened once and flushed after every line."""

    def test_each_log_is_opened_once(self, tmp_path, monkeypatch):
        """No run file is rewritten during a step: state.json is appended
        through one handle like the logs, and rulebank.json is written once,
        when run() returns."""
        run_dir = tmp_path / "run"
        opened = {}
        real_open, real_os_open = builtins.open, os.open

        def counting_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int):  # a descriptor opened elsewhere
                opened.setdefault(Path(file).name, []).append(mode)
            return real_open(file, mode, *args, **kwargs)

        def counting_os_open(path, flags, *args, **kwargs):
            opened.setdefault(Path(path).name, []).append("os.open")
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        gateway = Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )
        OptimizationRun(golden_config(run_dir), gateway).run()
        gateway.close()
        monkeypatch.undo()
        assert {name: opened.get(name) for name in (*STEP_LOGS, STATE_FILE)} \
            == dict.fromkeys((*STEP_LOGS, STATE_FILE), ["ab"])
        assert opened.get(RULEBANK_FILE) == ["os.open"]
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS

    @pytest.mark.parametrize("cap", [1, 2])
    def test_committed_log_lengths_are_the_sizes_on_disk(
        self, tmp_path, monkeypatch, cap
    ):
        run_dir = tmp_path / "run"
        committed = []

        class Checking(loop.Appender):
            def append_line(self, line):
                if self.path.name == STATE_FILE:
                    committed.append((
                        json.loads(line)["log_bytes"],
                        {name: (run_dir / name).stat().st_size
                         if (run_dir / name).exists() else 0
                         for name in STEP_LOGS},
                    ))
                super().append_line(line)

        monkeypatch.setattr(loop, "Appender", Checking)
        gateway = Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )
        OptimizationRun(golden_config(run_dir, concurrency_cap=cap), gateway).run()
        gateway.close()
        assert len(committed) == 13  # the initial validation and 12 steps
        for recorded, on_disk in committed:
            assert recorded == on_disk
        # The initial commit precedes every trace line; the last, all 12.
        assert committed[0][0][TRACE_FILE] == 0
        assert committed[-1][0][TRACE_FILE] == GOLDEN_TRACE.stat().st_size

    def test_one_gateway_serves_a_crash_and_its_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE

        class MissesStepSixOptimizer:
            def __init__(self):
                self.missing = True
                self.inner = ScriptedBackend.from_jsonl(FIXTURES)

            def complete(self, request, engine):
                if (self.missing and request.role == Role.OPTIMIZER
                        and request.step == 6):
                    raise FixtureMissError("fixture miss")
                return self.inner.complete(request, engine)

        backend = MissesStepSixOptimizer()
        gateway = gateway_over(backend, transcript)
        with pytest.raises(FixtureMissError):
            OptimizationRun(golden_config(run_dir), gateway).run()
        backend.missing = False
        OptimizationRun(golden_config(run_dir), gateway).run()
        gateway.close()
        steps = [json.loads(line)["step"]
                 for line in transcript.read_text().splitlines()]
        assert steps.count(6) == 19
        assert len(steps) == 190
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()


GOLDEN_CALLS = {"FORWARD": 136, "GRADIENT": 33, "REGULARIZATION": 12,
                "OPTIMIZER": 9}
# The golden replies; a ScriptedBackend holds no state between calls.
GOLDEN_BACKEND = ScriptedBackend.from_jsonl(FIXTURES)


class FailsAtCall:
    """``inner``'s replies (the golden ones by default), but the ``n``-th call
    fails, as a backend going down there would."""

    def __init__(self, n, inner=GOLDEN_BACKEND):
        self.n = n
        self.inner = inner
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, request, engine):
        with self.lock:
            self.calls += 1
            failing = self.calls == self.n
        if failing:
            raise BackendUnavailableError(f"backend down at call {self.n}")
        return self.inner.complete(request, engine)


class TestCrashAtAnyCall:
    """A run that dies at any of the golden run's calls resumes to the
    uninterrupted run: its trace and bank byte for byte, every commit line
    but its config and transcript length, and its transcript call for call,
    in any order above cap 1."""

    @pytest.mark.parametrize("call", range(1, sum(GOLDEN_CALLS.values()) + 1))
    @pytest.mark.parametrize("cap", [1, 4])
    def test_resume_reproduces_the_uninterrupted_run(
        self, tmp_path, uninterrupted, cap, call
    ):
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE
        config = golden_config(run_dir, concurrency_cap=cap)
        with pytest.raises(BackendUnavailableError):
            OptimizationRun(
                config, gateway_over(FailsAtCall(call), transcript)
            ).run()
        OptimizationRun(config, gateway_over(GOLDEN_BACKEND, transcript)).run()
        assert_resumed_to(uninterrupted, run_dir, cap)


class Rendezvous:
    """Golden replies, but the first call that matches each of two predicates
    waits at a two-party barrier, which only opens when those calls are in
    flight together; otherwise the wait times out and the call raises."""

    def __init__(self, first, second):
        self.inner = ScriptedBackend.from_jsonl(FIXTURES)
        self.barrier = threading.Barrier(2, timeout=5)
        self.pending = [first, second]
        self.lock = threading.Lock()

    def complete(self, request, engine):
        with self.lock:
            match = next((p for p in self.pending if p(request)), None)
            if match is not None:
                self.pending.remove(match)
        if match is not None:
            self.barrier.wait()
        return self.inner.complete(request, engine)


class InFlight:
    """Golden replies, counting the calls in flight at once."""

    def __init__(self):
        self.inner = ScriptedBackend.from_jsonl(FIXTURES)
        self.lock = threading.Lock()
        self.now = self.peak = 0

    def complete(self, request, engine):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            time.sleep(0.002)  # long enough for the calls beside it to start
            return self.inner.complete(request, engine)
        finally:
            with self.lock:
                self.now -= 1


class TestCallPool:
    """One cap-bounded pool per run: the diagnosis runs beside stage 1 and
    canonicalization beside the update and the gate."""

    def run_with(self, run_dir, backend, cap):
        OptimizationRun(
            golden_config(run_dir, concurrency_cap=cap),
            gateway_over(backend, run_dir / TRANSCRIPT_FILE),
        ).run()

    def test_diagnosis_overlaps_stage_one_forward_batch(self, tmp_path):
        backend = Rendezvous(
            lambda r: r.role == Role.REGULARIZATION and r.step == 3,
            lambda r: r.role == Role.FORWARD and r.step == 3,
        )
        self.run_with(tmp_path / "run", backend, cap=2)
        assert backend.pending == []
        assert (tmp_path / "run" / TRACE_FILE).read_bytes() == \
            GOLDEN_TRACE.read_bytes()

    def test_canonicalization_overlaps_update(self, tmp_path):
        backend = Rendezvous(
            lambda r: r.role == Role.GRADIENT and r.step == 0
            and "rule canonicalization" in r.user,
            lambda r: r.role == Role.OPTIMIZER and r.step == 0,
        )
        self.run_with(tmp_path / "run", backend, cap=2)
        assert backend.pending == []
        assert (tmp_path / "run" / TRACE_FILE).read_bytes() == \
            GOLDEN_TRACE.read_bytes()

    @pytest.mark.parametrize("cap", [2, 3])
    def test_cap_bounds_every_call_in_flight(self, tmp_path, cap):
        backend = InFlight()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many thread switches per call
        try:
            self.run_with(tmp_path / "run", backend, cap)
        finally:
            sys.setswitchinterval(interval)
        assert backend.peak == cap
        transcript = tmp_path / "run" / TRANSCRIPT_FILE
        assert transcript_roles(transcript) == GOLDEN_CALLS
        assert (tmp_path / "run" / TRACE_FILE).read_bytes() == \
            GOLDEN_TRACE.read_bytes()

    @pytest.mark.parametrize("cap", [2, 3])
    def test_batch_forward_calls_are_queued_before_the_diagnosis(
        self, tmp_path, monkeypatch, cap
    ):
        """Each step's diagnosis is submitted right behind its batch's
        forward calls, so those never wait for it, and the hold on the last
        gate's unsent validation calls is released right behind the
        diagnosis, or after the last step; no validation call is sent while
        it is held. Every gate's validation calls are background work."""
        events = []

        class Sent(deque):
            # The pool takes a task off this queue under the lock that
            # ``hold`` takes, so sends and holds are recorded in order.
            def popleft(self):
                events.append(("sent", None))
                return super().popleft()

        class Recording(CallPool):
            def __init__(self, cap):
                super().__init__(cap)
                self._queues = (self._queues[0], Sent())

            def submit(self, fn, /, *args, **kwargs):
                events.append((fn.__name__, args))
                return super().submit(fn, *args, **kwargs)

            def submit_background(self, fn, /, *args, **kwargs):
                events.append(("gate", args))
                return super().submit_background(fn, *args, **kwargs)

            def hold(self, held=True):
                with self._cond:
                    events.append(("hold", held))
                    super().hold(held)

        monkeypatch.setattr(loop, "call_pool", lambda cap: Recording(cap))
        run_dir = tmp_path / "run"
        self.run_with(run_dir, ScriptedBackend.from_jsonl(FIXTURES), cap)
        config = golden_config(run_dir)
        train = loop.load_dataset(config.train_path)
        # Calls on hold may be sent while a later step queues its calls.
        queued = [event for event in events if event[0] != "sent"]
        diagnoses = [
            (at, args[0]) for at, (name, args) in enumerate(queued)
            if name == "_regularization_phase"
        ]
        assert [step for _, step in diagnoses] == list(range(12))
        for at, step in diagnoses:
            batch = next_batch(train, step, config.batch_size, config.seed)
            assert queued[at - len(batch):at] == [
                ("run_one", (sample,)) for sample in batch
            ]
        releases = [at for at, event in enumerate(queued)
                    if event == ("hold", False)]
        assert releases[:-1] == [at + 1 for at, _ in diagnoses]
        assert releases[-1] > diagnoses[-1][0] + 1
        # The validation calls queued and not yet sent at each hold.
        unsent, held, on_hold = 0, False, []
        for name, value in events:
            if name == "gate":
                unsent += 1
            elif name == "sent":
                assert not held
                unsent -= 1
            elif name == "hold":
                if value:
                    on_hold.append(unsent)
                held = value
        assert any(on_hold)
        val = loop.load_dataset(config.val_path)
        applied = [json.loads(line)["update"] == "applied"
                   for line in GOLDEN_TRACE.read_text().splitlines()]
        assert [args for name, args in events if name == "gate"] == \
            [(sample,) for sample in val] * sum(applied)
        assert len(on_hold) == sum(applied)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    @pytest.mark.parametrize("cap", [2, 3, 8])
    def test_each_commit_splits_the_transcript_between_steps(
        self, tmp_path, cap
    ):
        """A step may start before the one before it commits, but its
        transcript lines all land after that commit's transcript length."""
        run_dir = tmp_path / "run"
        self.run_with(run_dir, GOLDEN_BACKEND, cap)
        assert_commits_split_transcript(run_dir)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    @pytest.mark.parametrize("cap", [2, 3, 8])
    def test_commit_lines_do_not_depend_on_the_cap(self, tmp_path, cap):
        for each in (1, cap):
            self.run_with(tmp_path / f"cap{each}", GOLDEN_BACKEND, each)
        assert commits_but_cap(tmp_path / f"cap{cap}") == \
            commits_but_cap(tmp_path / "cap1")

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_golden_run_at_any_cap(self, tmp_path, cap):
        run_dir = tmp_path / "run"
        self.run_with(run_dir, ScriptedBackend.from_jsonl(FIXTURES), cap)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS

    def test_failure_on_a_pool_thread_surfaces_and_resumes(self, tmp_path):
        run_dir = tmp_path / "run"
        # Step 5's semantic diff runs on a pool thread at cap 2.
        partial = fixtures_without(
            tmp_path, lambda line: '"REGULARIZATION"' in line
            and '"step": 5' in line and "Semantic Delta Analyzer" in line
        )
        with pytest.raises(FixtureMissError) as raised:
            self.run_with(run_dir, ScriptedBackend.from_jsonl(partial), cap=2)
        assert raised.type is FixtureMissError
        assert "REGULARIZATION step=5" in str(raised.value)
        self.run_with(run_dir, ScriptedBackend.from_jsonl(FIXTURES), cap=2)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS


VAL_QUESTIONS = [s.question for s in loop.load_dataset(DATA_DIR / "val.jsonl")]


def last_validation_call(step):
    """Matches the last validation call of ``step``'s gate. The golden
    gates are decided by their first six results, so at caps 2 and 3 it is
    held."""
    return lambda r: (r.role == Role.FORWARD and r.step == step
                      and r.user == VAL_QUESTIONS[-1]
                      and r.system != DEFAULT_INITIAL_PROMPT)


def nth(n, matches):
    """Matches the ``n``-th call that ``matches`` matches."""
    count = iter(range(1, n + 1))
    return lambda r: matches(r) and next(count, None) == n


class Holds:
    """Golden replies, but the first call that ``held`` matches waits until
    the first call that ``release`` matches is sent, for at most 5 seconds;
    ``released`` then says whether it was. With ``failing`` the call
    ``release`` matches fails, and with ``lost`` the held one fails once it
    stops waiting."""

    def __init__(self, held, release, failing=False, lost=False):
        self.matchers = {"held": held, "release": release}
        self.released = None
        self.failing, self.lost = failing, lost
        self.event = threading.Event()
        self.lock = threading.Lock()

    def complete(self, request, engine):
        with self.lock:
            match = next((name for name, matches in self.matchers.items()
                          if matches(request)), None)
            if match is not None:
                del self.matchers[match]
        if match == "release":
            self.event.set()
            if self.failing:
                raise BackendUnavailableError("backend down")
        if match == "held":
            self.released = self.event.wait(timeout=5)
            if self.lost:
                raise BackendUnavailableError("held call lost")
        return GOLDEN_BACKEND.complete(request, engine)


class TestCommitPipeline:
    """Above cap 1 only the next gate's decision waits for a step's unsent
    validation calls: the next gate sends its own calls meanwhile, and a
    step without a gate ends without them."""

    def run_with(self, run_dir, backend, cap=2):
        OptimizationRun(
            golden_config(run_dir, concurrency_cap=cap),
            gateway_over(backend, run_dir / TRANSCRIPT_FILE),
        ).run()
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_next_gate_sends_calls_while_the_last_gates_call_is_held(
        self, tmp_path
    ):
        backend = Holds(
            last_validation_call(2),
            lambda r: (r.role == Role.FORWARD and r.step == 3
                       and r.user in VAL_QUESTIONS),
        )
        self.run_with(tmp_path / "run", backend)
        assert backend.released is True

    def test_gateless_step_ends_while_the_last_gates_call_is_held(
        self, tmp_path
    ):
        """Step 7 has no gate: it ends, and step 8 sends its whole batch,
        while step 6's last validation call is held."""
        backend = Holds(
            last_validation_call(6),
            nth(3, lambda r: (r.role == Role.FORWARD and r.step == 8
                              and r.user not in VAL_QUESTIONS)),
        )
        self.run_with(tmp_path / "run", backend)
        assert backend.released is True

    @pytest.mark.parametrize("stop", range(-1, 11))
    @pytest.mark.parametrize("cap", [2, 3])
    def test_resumed_run_splits_the_transcript_between_steps(
        self, tmp_path, cap, stop
    ):
        """A run stopped after any step and resumed to the end through a
        fresh gateway writes the golden trace, and each commit, those of the
        resumed run too, splits the transcript between steps."""
        run_dir = tmp_path / "run"
        config = golden_config(run_dir, concurrency_cap=cap)
        for stop_after_step in (stop, None):
            OptimizationRun(config, Gateway.scripted(
                FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
            )).run(stop_after_step)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert_commits_split_transcript(run_dir)

    @pytest.mark.parametrize("cap", [2, 3])
    def test_gate_returns_once_its_hold_is_set(
        self, tmp_path, monkeypatch, cap
    ):
        """A gate sets the pool's hold slowly, from the pool task that
        decides it or from the loop's thread. The gate returns only once the
        hold is set, so the next step's release comes after it: every call
        is sent, and none waits on a hold that nothing releases."""
        hold = CallPool.hold

        def slow_hold(pool, held=True):
            if held:
                time.sleep(0.01)
            hold(pool, held)

        monkeypatch.setattr(CallPool, "hold", slow_hold)
        run_dir = tmp_path / "run"
        within(30, self.run_with, run_dir, GOLDEN_BACKEND, cap)
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS

    @pytest.mark.parametrize("cap", [2, 3])
    def test_failure_before_the_release_sends_the_calls_on_hold(
        self, tmp_path, monkeypatch, uninterrupted, cap
    ):
        """Step 3 fails before it queues anything, while step 2's gate holds
        its unsent validation calls. The run releases them, step 2 commits
        once they land, the step's error is the one raised, and the run
        resumes."""
        next_batch = loop.next_batch

        def failing(train, step, *args):
            if step == 3:
                raise Crash("step 3")
            return next_batch(train, step, *args)

        monkeypatch.setattr(loop, "next_batch", failing)
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE
        config = golden_config(run_dir, concurrency_cap=cap)
        run = OptimizationRun(config, gateway_over(GOLDEN_BACKEND, transcript))
        with pytest.raises(Crash):
            within(30, run.run)
        assert commits(run_dir)[-1]["step_completed"] == 2
        monkeypatch.undo()
        OptimizationRun(config, gateway_over(GOLDEN_BACKEND, transcript)).run()
        assert_resumed_to(uninterrupted, run_dir, cap)

    @pytest.mark.parametrize("cap", [2, 3])
    def test_golden_run_cancels_no_future(self, tmp_path, monkeypatch, cap):
        """A decided gate's unsent calls wait on the hold, each on the one
        future it was queued with. A cancel of a future already done, as
        ``Executor.map`` makes, cancels nothing and is not counted."""
        cancel, cancelled = Future.cancel, []

        def recording_cancel(future):
            done = cancel(future)
            if done:
                cancelled.append(future)
            return done

        monkeypatch.setattr(Future, "cancel", recording_cancel)
        run_dir = tmp_path / "run"
        self.run_with(run_dir, GOLDEN_BACKEND, cap)
        assert cancelled == []
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS

    def test_failed_commit_behind_a_failed_step_raises_the_steps_error(
        self, tmp_path, monkeypatch, uninterrupted
    ):
        """Step 3's first call fails while step 2's last validation call is
        held, and the commit of step 2 written once it lands fails too. The
        run raises the step's error, not the commit's, and resumes."""
        failed = []

        class FailingCommit(loop.Appender):
            def append(self, entry):
                if self.path.name == STATE_FILE and \
                        entry["step_completed"] == 2:
                    failed.append(2)
                    raise OSError("disk full")
                super().append(entry)

        monkeypatch.setattr(loop, "Appender", FailingCommit)
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE
        config = golden_config(run_dir, concurrency_cap=2)
        backend = Holds(last_validation_call(2),
                        nth(1, lambda r: r.step == 3), failing=True)
        with pytest.raises(BackendUnavailableError) as raised:
            OptimizationRun(config, gateway_over(backend, transcript)).run()
        assert raised.type is BackendUnavailableError
        assert backend.released is True
        assert failed == [2]
        assert commits(run_dir)[-1]["step_completed"] == 1
        monkeypatch.undo()
        OptimizationRun(config, gateway_over(GOLDEN_BACKEND, transcript)).run()
        assert_resumed_to(uninterrupted, run_dir, 2)

    # Not shrunk: each example of a regression waits out the held call.
    @pytest.mark.parametrize("cap", [2, 3])
    @settings(max_examples=8, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(gate=st.sampled_from([0, 6, 9]), call=st.integers(1, 17),
           lost=st.booleans())
    def test_crash_behind_a_pending_gate_and_a_gateless_step(
        self, tmp_path_factory, uninterrupted, cap, gate, call, lost
    ):
        """The ``call``-th call of step ``gate + 2`` fails while step
        ``gate``'s last validation call is held and step ``gate + 1``, which
        has no gate, waits to commit behind it. The held call then lands,
        or fails when ``lost``: both steps commit only if it landed."""
        run_dir = tmp_path_factory.mktemp("crash")
        transcript = run_dir / TRANSCRIPT_FILE
        config = golden_config(run_dir, concurrency_cap=cap)
        backend = Holds(last_validation_call(gate),
                        nth(call, lambda r: r.step == gate + 2),
                        failing=True, lost=lost)
        with pytest.raises(BackendUnavailableError):
            OptimizationRun(config, gateway_over(backend, transcript)).run()
        assert backend.released is True
        assert commits(run_dir)[-1]["step_completed"] == \
            (gate - 1 if lost else gate + 1)
        OptimizationRun(config, gateway_over(GOLDEN_BACKEND, transcript)).run()
        assert_resumed_to(uninterrupted, run_dir, cap)


class TestLoopOverHttp:
    """The golden run through ``HttpBackend`` against a keep-alive stub that
    answers each request by its engine's model (the role), system and user
    text, with the reply the scripted run recorded for them."""

    @pytest.mark.parametrize("cap", [2, 3])
    def test_golden_run_at_cap(self, tmp_path, keepalive, uninterrupted, cap):
        keepalive.keyed = {
            (role, system, user): response
            for _, role, system, user, response in uninterrupted[TRANSCRIPT_FILE]
        }
        assert len(keepalive.keyed) == sum(GOLDEN_CALLS.values())
        engines = RoleAssignment(**{
            role.value.lower(): EngineConfig(
                name=role.value.lower(), endpoint=keepalive.url,
                model_id=role.value,
            )
            for role in Role
        })
        backend = HttpBackend()
        run_dir = tmp_path / "run"
        OptimizationRun(golden_config(run_dir, concurrency_cap=cap), Gateway(
            engines, {role: backend for role in Role},
            transcript_path=run_dir / TRANSCRIPT_FILE,
        )).run()
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert len(keepalive.received) == sum(GOLDEN_CALLS.values())
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS


@st.composite
def gate_cases(draw) -> tuple[float, float, list[bool]]:
    """The current validation accuracy (some k/n), the relaxation and the
    validation results in landing order, with the number right at the
    threshold or one off it, where rounding decides."""
    n = draw(st.integers(1, 40))
    current_val = draw(st.integers(0, n)) / n
    relaxation = draw(
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 0.01, 0.05, 1 / 3])
        | st.integers(1, 99).map(lambda percent: percent / 100)
        | st.floats(0, 1.5, allow_nan=False)
    )
    near = round((current_val - relaxation) * n) + draw(st.integers(-1, 1))
    right = min(max(near, 0), n)
    results = draw(st.permutations([True] * right + [False] * (n - right)))
    return current_val, relaxation, results


@settings(max_examples=1000, deadline=None)
@given(gate_cases())
# 2/3 falls below 1 - 1/3 in floating point, and 0.7 below 0.8 - 0.1.
@example((1.0, 1 / 3, [True, True, False]))
@example((0.8, 0.1, [True] * 7 + [False] * 3))
def test_gate_decided_early_is_the_full_accuracy_decision(case):
    """Taken at the first count that settles it, the gate's outcome is the
    one the full accuracy gives, for any order of results."""
    current_val, relaxation, correct = case
    n = len(correct)
    threshold = current_val - relaxation
    outcome, tally = None, 0
    for landed, result in enumerate(correct, 1):
        tally += result
        outcome = loop.gate_outcome(tally, n - landed, n, threshold)
        if outcome is not None:
            break
    assert outcome == (sum(correct) / n >= current_val - relaxation)


class TestReplay:
    def test_faithful_replay_has_no_divergences(self, tmp_path):
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        diverged = replay_divergences(run_dir, FIXTURES, tmp_path / "replay")
        assert diverged == []

    def test_existing_replay_directory_is_refused(self, tmp_path):
        # A second replay into the same directory would resume the first
        # one and re-execute nothing.
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        assert replay_divergences(run_dir, FIXTURES, tmp_path / "replay") == []
        with pytest.raises(RunStateError, match="already holds a run"):
            replay_divergences(run_dir, FIXTURES, tmp_path / "replay")

    def test_altered_prompt_text_diverges_at_the_accepting_steps(
        self, tmp_path
    ):
        """Rewrites that differ only in text leave the trace as recorded;
        the commit lines tell them apart."""
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        altered = tmp_path / "altered.jsonl"
        with open(altered, "w") as handle:
            for fixture in map(json.loads, FIXTURES.read_text().splitlines()):
                if fixture["role"] == Role.OPTIMIZER.value:
                    fixture["response"] = fixture["response"].replace(
                        "the", "THE"
                    )
                handle.write(json.dumps(fixture) + "\n")
        diverged = replay_divergences(run_dir, altered, tmp_path / "replay")
        assert (tmp_path / "replay" / TRACE_FILE).read_bytes() == \
            GOLDEN_TRACE.read_bytes()
        assert diverged == [
            entry["step"] for entry in map(
                json.loads, GOLDEN_TRACE.read_text().splitlines()
            )
            if entry["accepted"]
        ] == [0, 2, 3, 5, 6, 8, 9, 11]

    def test_mutated_fixture_reports_divergence(self, tmp_path):
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        mutated = tmp_path / "mutated.jsonl"
        lines = FIXTURES.read_text().splitlines()
        # flip the forward answer at step 10; the batch accuracy recorded in
        # that step's trace line changes while every later call still has a
        # fixture
        swapped = [
            line.replace("Answer: A", "Answer: B")
            if '"FORWARD"' in line and '"step": 10' in line else line
            for line in lines
        ]
        assert swapped != lines
        mutated.write_text("".join(l + "\n" for l in swapped))
        diverged = replay_divergences(run_dir, mutated, tmp_path / "replay")
        assert 10 in diverged

    def test_run_stopped_part_way_replays_through_its_last_commit(
        self, tmp_path
    ):
        run_dir = tmp_path / "run"
        OptimizationRun(golden_config(run_dir), Gateway.scripted(FIXTURES)) \
            .run(stop_after_step=3)
        assert replay_divergences(run_dir, FIXTURES, tmp_path / "replay") == []
        golden = GOLDEN_TRACE.read_text().splitlines(keepends=True)
        assert (tmp_path / "replay" / TRACE_FILE).read_text() == \
            "".join(golden[:4])

    def test_trace_line_past_the_last_commit_is_not_compared(self, tmp_path):
        """A crash between a step's trace line and its commit leaves a line
        of a step that never committed."""
        run_dir = tmp_path / "run"
        OptimizationRun(golden_config(run_dir), Gateway.scripted(FIXTURES)) \
            .run(stop_after_step=3)
        with open(run_dir / TRACE_FILE, "a") as handle:
            handle.write(GOLDEN_TRACE.read_text().splitlines(keepends=True)[4])
        assert replay_divergences(run_dir, FIXTURES, tmp_path / "replay") == []

    def test_run_that_failed_at_its_first_gradient_call_replays(
        self, tmp_path, uninterrupted
    ):
        """Such a run commits only its initial evaluation and has no trace;
        the replay re-executes that evaluation alone."""
        first_gradient = next(
            number for number, call in
            enumerate(uninterrupted[TRANSCRIPT_FILE], 1)
            if call[1] == Role.GRADIENT.value
        )
        run_dir = tmp_path / "run"
        with pytest.raises(BackendUnavailableError):
            OptimizationRun(golden_config(run_dir), gateway_over(
                FailsAtCall(first_gradient), run_dir / TRANSCRIPT_FILE
            )).run()
        assert not (run_dir / TRACE_FILE).exists()
        replay_dir = tmp_path / "replay"
        assert replay_divergences(run_dir, FIXTURES, replay_dir) == []
        recorded, replayed = commits(run_dir), commits(replay_dir)
        for commit in recorded + replayed:
            del commit["config"], commit["log_bytes"]
        assert [c["step_completed"] for c in replayed] == [-1]
        assert replayed == recorded
        assert set(transcript_roles(replay_dir / TRANSCRIPT_FILE)) == {"FORWARD"}

    def test_stop_after_minus_one_commits_only_the_initial_evaluation(
        self, tmp_path
    ):
        run_dir = tmp_path / "run"
        summary = OptimizationRun(golden_config(run_dir), Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )).run(stop_after_step=-1)
        assert summary["steps_completed"] == 0
        assert [c["step_completed"] for c in commits(run_dir)] == [-1]
        assert not (run_dir / TRACE_FILE).exists()
        assert set(transcript_roles(run_dir / TRANSCRIPT_FILE)) == {"FORWARD"}

    @pytest.mark.parametrize(
        "keep", [lambda line: b"", lambda line: line[:len(line) // 2]],
        ids=["empty", "torn-first-line"],
    )
    def test_commit_log_without_a_complete_line_is_refused(
        self, tmp_path, keep
    ):
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        state = run_dir / STATE_FILE
        state.write_bytes(keep(state.read_bytes().split(b"\n")[0]))
        message = f"run state unreadable: {re.escape(str(state))}: no commit"
        with pytest.raises(RunStateError, match=message):
            replay_divergences(run_dir, FIXTURES, tmp_path / "replay")
        assert not (tmp_path / "replay").exists()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096))
def test_input_digest_is_hashlibs_sha256(data):
    assert loop._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_input_digest_loads_no_openssl():
    """Starting a run digests its inputs without importing hashlib, whose
    OpenSSL module costs milliseconds of start-up and megabytes of memory."""
    code = ("import sys, promptreg.loop as loop; "
            "loop._load_input(sys.argv[1]); "
            "print('hashlib' in sys.modules, '_hashlib' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code, str(DATA_DIR / "train.jsonl")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout.split() == ["False", "False"]


class TestInputDigests:
    """Each commit line records the SHA-256 of the train and val files. A
    resume or a replay over files changed since is refused before any call:
    it would mix two datasets, and the trace would not show it."""

    def config(self, tmp_path) -> RunConfig:
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train.jsonl", "val.jsonl"):
            shutil.copy(DATA_DIR / name, data / name)
        return replace(
            golden_config(tmp_path / "run"),
            train_path=str(data / "train.jsonl"),
            val_path=str(data / "val.jsonl"),
        )

    @staticmethod
    def edit_a_question(path: Path) -> None:
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["question"] += " Edited."
        lines[1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))

    @staticmethod
    def run(config, **kwargs) -> dict:
        transcript = Path(config.run_dir) / TRANSCRIPT_FILE
        return OptimizationRun(
            config, Gateway.scripted(FIXTURES, transcript_path=transcript)
        ).run(**kwargs)

    def test_dataset_with_a_byte_order_mark_is_digested_as_its_bytes(
        self, tmp_path
    ):
        """A dataset saved with a UTF-8 byte order mark loads as the one
        without it; its digest is of the bytes on disk, the mark included."""
        path = tmp_path / "val.jsonl"
        data = b"\xef\xbb\xbf" + (DATA_DIR / "val.jsonl").read_bytes()
        path.write_bytes(data)
        samples, digest = loop._load_input(str(path))
        assert samples == loop.load_dataset(DATA_DIR / "val.jsonl")
        assert digest == hashlib.sha256(data).hexdigest()

    def test_every_commit_line_records_the_digests(self, tmp_path):
        config = self.config(tmp_path)
        self.run(config, stop_after_step=3)
        expected = {
            name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in (("train", config.train_path),
                               ("val", config.val_path))
        }
        lines = commits(Path(config.run_dir))
        assert len(lines) == 5
        assert all(line["input_sha256"] == expected for line in lines)

    @pytest.mark.parametrize("name", ["train", "val"])
    def test_resume_over_a_changed_file_is_refused(self, tmp_path, name):
        config = self.config(tmp_path)
        run_dir = Path(config.run_dir)
        self.run(config, stop_after_step=3)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        path = getattr(config, f"{name}_path")
        self.edit_a_question(Path(path))
        message = f"{name} file {re.escape(path)} differs from the one " \
            f"recorded in {re.escape(str(run_dir / STATE_FILE))}"
        with pytest.raises(RunStateError, match=message):
            self.run(config)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize("name", ["train", "val"])
    def test_replay_over_a_changed_file_is_refused(self, tmp_path, name):
        config = self.config(tmp_path)
        self.run(config)
        path = getattr(config, f"{name}_path")
        self.edit_a_question(Path(path))
        with pytest.raises(RunStateError,
                           match=f"{name} file {re.escape(path)}"):
            replay_divergences(config.run_dir, FIXTURES, tmp_path / "replay")
        assert not (tmp_path / "replay").exists()

    def test_replay_of_commit_lines_without_digests_is_refused(
        self, tmp_path
    ):
        """Lines written before the digests were recorded cannot show that
        the files are the run's own, so the replay is refused before any
        call."""
        config = self.config(tmp_path)
        run_dir = Path(config.run_dir)
        self.run(config)
        lines = commits(run_dir)
        for line in lines:
            del line["input_sha256"]
        (run_dir / STATE_FILE).write_text("".join(
            json.dumps(line, sort_keys=True) + "\n" for line in lines
        ))
        message = "run state unreadable: " \
            f"{re.escape(str(run_dir / STATE_FILE))}: 'input_sha256'"
        with pytest.raises(RunStateError, match=message):
            replay_divergences(run_dir, FIXTURES, tmp_path / "replay")
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("command", ["resume", "replay"])
    def test_digests_that_are_not_an_object_are_refused(
        self, tmp_path, command
    ):
        config = self.config(tmp_path)
        run_dir = Path(config.run_dir)
        self.run(config, stop_after_step=3)
        lines = commits(run_dir)
        lines[-1]["input_sha256"] = "abc"
        (run_dir / STATE_FILE).write_text("".join(
            json.dumps(line, sort_keys=True) + "\n" for line in lines
        ))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        message = "run state unreadable: " \
            f"{re.escape(str(run_dir / STATE_FILE))}: input_sha256 is 'abc'"
        with pytest.raises(RunStateError, match=message):
            if command == "resume":
                self.run(config)
            else:
                replay_divergences(run_dir, FIXTURES, tmp_path / "replay")
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        assert not (tmp_path / "replay").exists()


class TestCommitEncoding:
    """Each commit line is the bytes of encoding its commit whole."""

    def test_a_resumed_run_writes_the_lines_of_an_uninterrupted_one(
        self, tmp_path
    ):
        """The resume rebuilds the bank with bank_from_document; its lines
        are byte for byte the uninterrupted run's."""
        whole, resumed = tmp_path / "whole", tmp_path / "resumed"
        run_optimization(golden_config(whole), Gateway.scripted(FIXTURES))
        OptimizationRun(golden_config(resumed), Gateway.scripted(FIXTURES)) \
            .run(stop_after_step=5)
        OptimizationRun(golden_config(resumed), Gateway.scripted(FIXTURES)) \
            .run()
        assert (resumed / STATE_FILE).read_text() == \
            (whole / STATE_FILE).read_text().replace(str(whole), str(resumed))

    def test_each_line_is_the_sorted_key_dump_of_its_commit(self, tmp_path):
        run_dir = tmp_path / "run"
        run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
        for line in (run_dir / STATE_FILE).read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)


class MalformedBodyFor:
    """Golden replies, but every call for ``role`` raises what HttpBackend
    raises for a 200 whose body is not a chat completion."""

    def __init__(self, role):
        self.role = role
        self.calls = 0

    def complete(self, request, engine):
        if request.role is not self.role:
            return GOLDEN_BACKEND.complete(request, engine)
        self.calls += 1
        raise MalformedOutputError(
            "malformed response body: JSONDecodeError('Expecting value')")


def _grown(version):
    return PromptVersion.create("check " * (10 + 5 * version), version)


CONTEXT = ExecutionContext("q", "Answer: 6", "8", False)
# Each JSON stage, with the role it asks; the prompt grows past tau_c, so the
# synthesis makes its call.
JSON_STAGES = {
    "purify": (Role.GRADIENT, lambda gw: purify(
        "raw", [CONTEXT], RuleBank(), _grown(0), gw, 0)),
    "canonicalize_and_match": (Role.GRADIENT, lambda gw: canonicalize_and_match(
        "rule", RuleBank(), gw, 0)),
    "semantic_diff": (Role.REGULARIZATION, lambda gw: semantic_diff(
        _grown(0), _grown(1), RuleBank(), (CONTEXT,), "init", gw, 1)),
    "synthesize_reg_gradient": (Role.REGULARIZATION, lambda gw:
        synthesize_reg_gradient(
            diagnose(_grown(0), _grown(1), NEUTRAL_DIFF, tau_c=0.2),
            NEUTRAL_DIFF, _grown(1), gw, 1)),
}


class TestMalformedEndpointBody:
    """A malformed endpoint body is a backend failure: it aborts at every
    stage, the JSON ones included, and is never taken for unusable model
    text that degrades the stage."""

    @pytest.mark.parametrize("stage", list(JSON_STAGES))
    def test_propagates_after_one_call(self, stage):
        role, call = JSON_STAGES[stage]
        backend = MalformedBodyFor(role)
        with pytest.raises(MalformedOutputError, match="malformed response body"):
            call(gateway_over(backend))
        assert backend.calls == 1

    def test_golden_run_aborts_on_the_regularization_role(self, tmp_path):
        backend = MalformedBodyFor(Role.REGULARIZATION)
        with pytest.raises(MalformedOutputError, match="malformed response body"):
            run_optimization(golden_config(tmp_path / "run"),
                             gateway_over(backend))
        assert backend.calls == 1

    def test_unparseable_purifier_reply_is_logged_not_traced(
        self, tmp_path, caplog
    ):
        """Step 1's purifier reply, not JSON, twice: two warnings naming the
        role, the step and the parse error, and the golden trace unchanged
        (the reply it replaces was a rejection too)."""
        records = [json.loads(line)
                   for line in FIXTURES.read_text().splitlines()]
        (purifier,) = [r for r in records if r.get("step") == 1
                       and r.get("match_substring") == "Gradient Purifier"]
        purifier["response"] = "not json"
        run_optimization(golden_config(tmp_path / "run"),
                         Gateway.scripted(records))
        assert (tmp_path / "run" / TRACE_FILE).read_bytes() == \
            GOLDEN_TRACE.read_bytes()
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING"]
        assert len(warnings) == 2
        for message in warnings:
            assert "GRADIENT at step 1: malformed structured output" in message
