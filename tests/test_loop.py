import builtins
import json
import shutil
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from conftest import DATA_DIR, scripted_gateway
from promptreg import loop
from promptreg.errors import (
    BackendUnavailableError,
    ConfigError,
    FixtureMissError,
    RunStateError,
)
from promptreg.evaluation import Sample
from promptreg.gateway import (
    EngineConfig,
    Gateway,
    Role,
    RoleAssignment,
    ScriptedBackend,
)
from promptreg.loop import (
    DEFAULT_INITIAL_PROMPT,
    PROMPTS_FILE,
    RULEBANK_FILE,
    STATE_FILE,
    STEP_LOGS,
    TRACE_FILE,
    TRANSCRIPT_FILE,
    OptimizationRun,
    RunConfig,
    next_batch,
    replay_divergences,
    run_optimization,
)
from promptreg.metrics import PromptVersion
from promptreg.rulebank import load_rulebank
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

    def run_one_step(self, tmp_path, relaxation, candidate_answers):
        # val: 20 questions; the initial prompt answers 14 correctly (0.70).
        # The purifier rejects at step 0, so step 1 carries the only update
        # and its candidate eval is the only forward traffic at step 1
        # besides the T-prefixed batch.
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
        config = RunConfig(
            train_path=str(tmp_path / "train.jsonl"),
            val_path=str(tmp_path / "val.jsonl"),
            run_dir=str(tmp_path / "run"),
            iterations=2,
            acceptance_relaxation=relaxation,
        )
        run_optimization(config, scripted_gateway(fixtures))
        lines = (tmp_path / "run" / TRACE_FILE).read_text().splitlines()
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

    def test_prompt_log_holds_accepted_versions_only(self, tmp_path):
        run_dir = tmp_path / "run"
        summary = run_optimization(
            golden_config(run_dir), Gateway.scripted(FIXTURES)
        )
        prompts = [json.loads(line)
                   for line in (run_dir / PROMPTS_FILE).read_text().splitlines()]
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
        }
        assert set(STEP_LOGS) == {TRACE_FILE, TRANSCRIPT_FILE, PROMPTS_FILE}
        state = json.loads((run_dir / STATE_FILE).read_text())
        assert state["config"] == asdict(config)

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

    def test_log_shorter_than_commit_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        lines = (run_dir / TRACE_FILE).read_text().splitlines(keepends=True)
        (run_dir / TRACE_FILE).write_text("".join(lines[:-1]))
        with pytest.raises(RunStateError, match="fewer than"):
            self.run(run_dir)

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
            # Written while each prompt version had a file of its own.
            lambda d: d["log_bytes"].pop(PROMPTS_FILE),
            # Written while the config sat in a file of its own.
            lambda d: d.pop("config", None),
        ],
        ids=["state-without-log-lengths", "snapshot-with-dropped-fields",
             "state-without-prompt-log-length", "state-without-config"],
    )
    def test_run_directory_of_older_format_is_refused(self, tmp_path, edit):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        document = json.loads((run_dir / STATE_FILE).read_text())
        edit(document)
        (run_dir / STATE_FILE).write_text(json.dumps(document))
        with pytest.raises(RunStateError, match="run state unreadable"):
            self.run(run_dir)


GOLDEN_BANK = {"R1": 4, "R2": 2, "R3": 2, "R4": 1}


class Crash(Exception):
    """Stands in for the process dying at the point a test picks."""


def golden_bank_bytes(tmp_path) -> bytes:
    run_dir = tmp_path / "uninterrupted"
    run_optimization(golden_config(run_dir), Gateway.scripted(FIXTURES))
    return (run_dir / RULEBANK_FILE).read_bytes()


def run_files(run_dir) -> dict:
    """The run's committed files, and the transcript's (step, role) order."""
    files = {name: (run_dir / name).read_bytes()
             for name in (TRACE_FILE, PROMPTS_FILE, RULEBANK_FILE)}
    files[TRANSCRIPT_FILE] = [
        (entry["step"], entry["role"]) for entry in map(
            json.loads, (run_dir / TRANSCRIPT_FILE).read_text().splitlines()
        )
    ]
    return files


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory) -> dict:
    """``run_files`` of the golden run at cap 1, run without a crash."""
    run_dir = tmp_path_factory.mktemp("uninterrupted")
    run_optimization(golden_config(run_dir), Gateway.scripted(
        FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
    ))
    files = run_files(run_dir)
    assert files[TRACE_FILE] == GOLDEN_TRACE.read_bytes()
    return files


class TestCommitOrder:
    """state.json is written before rulebank.json and records what the bank
    must hold, so a crash between the two writes is repaired on resume."""

    def run(self, run_dir, **kwargs):
        return OptimizationRun(
            golden_config(run_dir), Gateway.scripted(FIXTURES)
        ).run(**kwargs)

    def test_crash_at_the_state_write_does_not_apply_bank_ops_twice(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        write_json = loop.write_json

        def dies_at_step_4(path, document):
            if document.get("step_completed") == 4:
                raise Crash
            write_json(path, document)

        monkeypatch.setattr(loop, "write_json", dies_at_step_4)
        with pytest.raises(Crash):
            self.run(run_dir)
        monkeypatch.setattr(loop, "write_json", write_json)
        self.run(run_dir)
        bank = load_rulebank(run_dir / RULEBANK_FILE)
        assert {r.id: r.mention_count for r in bank.entries} == GOLDEN_BANK
        assert (run_dir / RULEBANK_FILE).read_bytes() == \
            golden_bank_bytes(tmp_path)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_crash_after_the_last_state_write_is_repaired_by_a_rerun(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        save_rulebank = loop.save_rulebank

        def dies_at_the_last_step(bank, path):
            if bank.updated_step == 11:
                raise Crash
            save_rulebank(bank, path)

        monkeypatch.setattr(loop, "save_rulebank", dies_at_the_last_step)
        with pytest.raises(Crash):
            self.run(run_dir)
        monkeypatch.setattr(loop, "save_rulebank", save_rulebank)
        state = json.loads((run_dir / STATE_FILE).read_text())
        assert state["step_completed"] == 11
        # Still the bank of step 10's commit, before step 11's INCREMENT.
        assert load_rulebank(run_dir / RULEBANK_FILE).total_mentions() == 8
        summary = self.run(run_dir)
        assert summary["steps_completed"] == 12
        assert (run_dir / RULEBANK_FILE).read_bytes() == \
            golden_bank_bytes(tmp_path)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_crash_inside_the_first_commit_resumes(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"

        def dies(bank, path):
            raise Crash

        monkeypatch.setattr(loop, "save_rulebank", dies)
        with pytest.raises(Crash):
            self.run(run_dir)
        monkeypatch.undo()
        assert (run_dir / STATE_FILE).exists()
        assert not (run_dir / RULEBANK_FILE).exists()
        self.run(run_dir)
        assert (run_dir / RULEBANK_FILE).read_bytes() == \
            golden_bank_bytes(tmp_path)
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()

    # The n-th call of each is the n-th commit's write of that file.
    @pytest.mark.parametrize(
        "write", ["write_json", "save_rulebank"], ids=[STATE_FILE, RULEBANK_FILE]
    )
    @pytest.mark.parametrize(
        "commit", range(13), ids=["initial"] + [f"step-{s}" for s in range(12)]
    )
    def test_crash_at_any_commit_resumes_to_the_uninterrupted_run(
        self, tmp_path, monkeypatch, uninterrupted, commit, write
    ):
        run_dir = tmp_path / "run"
        transcript = run_dir / TRANSCRIPT_FILE
        real = getattr(loop, write)
        calls = []

        def dies_at_the_commit(*args):
            calls.append(args)
            if len(calls) == commit + 1:
                raise Crash
            real(*args)

        monkeypatch.setattr(loop, write, dies_at_the_commit)
        with pytest.raises(Crash):
            OptimizationRun(
                golden_config(run_dir),
                Gateway.scripted(FIXTURES, transcript_path=transcript),
            ).run()
        monkeypatch.undo()
        OptimizationRun(
            golden_config(run_dir),
            Gateway.scripted(FIXTURES, transcript_path=transcript),
        ).run()
        assert run_files(run_dir) == uninterrupted

    def test_state_records_the_committed_bank_and_the_step_ops(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir)
        record = json.loads((run_dir / STATE_FILE).read_text())["bank_commit"]
        last = json.loads(GOLDEN_TRACE.read_text().splitlines()[-1])
        assert record == {"rules": 4, "mentions": 9, "updated_step": 11,
                          "ops": last["bank_ops"]}

    def test_bank_two_commits_behind_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=3)
        behind = (run_dir / RULEBANK_FILE).read_bytes()
        self.run(run_dir, stop_after_step=5)
        (run_dir / RULEBANK_FILE).write_bytes(behind)
        with pytest.raises(RunStateError, match="nor one commit behind"):
            self.run(run_dir)

    def test_state_without_bank_record_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        self.run(run_dir, stop_after_step=5)
        document = json.loads((run_dir / STATE_FILE).read_text())
        del document["bank_commit"]
        (run_dir / STATE_FILE).write_text(json.dumps(document))
        with pytest.raises(RunStateError, match="run state unreadable"):
            self.run(run_dir)


class TestHeldLogs:
    """Each gateway appends to the transcript, and each run() to the trace,
    through one handle opened once and flushed after every line."""

    def test_each_log_is_opened_once(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        opened = Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if not isinstance(file, int):  # a descriptor opened elsewhere
                opened[Path(file).name] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        gateway = Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )
        OptimizationRun(golden_config(run_dir), gateway).run()
        gateway.close()
        assert {name: opened[name] for name in STEP_LOGS} == \
            dict.fromkeys(STEP_LOGS, 1)
        monkeypatch.undo()
        assert (run_dir / TRACE_FILE).read_bytes() == GOLDEN_TRACE.read_bytes()
        assert transcript_roles(run_dir / TRANSCRIPT_FILE) == GOLDEN_CALLS

    @pytest.mark.parametrize("cap", [1, 2])
    def test_committed_log_lengths_are_the_sizes_on_disk(
        self, tmp_path, monkeypatch, cap
    ):
        run_dir = tmp_path / "run"
        write_json = loop.write_json
        committed = []

        def checking_write(path, document):
            committed.append((
                document["log_bytes"],
                {name: (run_dir / name).stat().st_size
                 if (run_dir / name).exists() else 0
                 for name in STEP_LOGS},
            ))
            write_json(path, document)

        monkeypatch.setattr(loop, "write_json", checking_write)
        gateway = Gateway.scripted(
            FIXTURES, transcript_path=run_dir / TRANSCRIPT_FILE
        )
        OptimizationRun(golden_config(run_dir, concurrency_cap=cap), gateway).run()
        gateway.close()
        assert len(committed) == 13  # the initial validation and 12 steps
        for recorded, on_disk in committed:
            assert recorded == on_disk
        # The initial commit holds version 0's line; the last, all 9 lines.
        assert committed[0][0][PROMPTS_FILE] > 0
        assert committed[-1][0][PROMPTS_FILE] == \
            (run_dir / PROMPTS_FILE).stat().st_size

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

    @pytest.mark.parametrize("cap", [1, 2, 4])
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
