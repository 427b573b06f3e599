import json
import shutil
from dataclasses import asdict, replace

import pytest

from conftest import DATA_DIR, scripted_gateway
from promptreg.errors import ConfigError, RunStateError
from promptreg.evaluation import Sample
from promptreg.gateway import Gateway, Role
from promptreg.loop import (
    DEFAULT_INITIAL_PROMPT,
    TRACE_FILE,
    TRANSCRIPT_FILE,
    OptimizationRun,
    RunConfig,
    next_batch,
    replay_divergences,
    run_optimization,
)
from promptreg.rulebank import load_rulebank

FIXTURES = DATA_DIR / "fixtures.jsonl"
GOLDEN_TRACE = DATA_DIR / "golden_trace.jsonl"


def golden_config(run_dir) -> RunConfig:
    return RunConfig(
        train_path=str(DATA_DIR / "train.jsonl"),
        val_path=str(DATA_DIR / "val.jsonl"),
        run_dir=str(run_dir),
        batch_size=3,
        iterations=12,
        seed=7,
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
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**self.kwargs(**bad)).validate()

    def test_round_trip(self):
        config = RunConfig(**self.kwargs(seed=9, acceptance_relaxation=0.01))
        assert RunConfig.from_dict(asdict(config)) == config


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

    def test_prompt_files_written_for_accepted_versions_only(self, tmp_path):
        run_optimization(
            golden_config(tmp_path / "run"), Gateway.scripted(FIXTURES)
        )
        names = sorted(p.name for p in (tmp_path / "run").glob("prompt_v*.txt"))
        assert names == [f"prompt_v{v}.txt" for v in range(9)]

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
