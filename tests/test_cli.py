import json

import pytest
from click.testing import CliRunner

from conftest import DATA_DIR
from promptreg.cli import main
from promptreg.gateway import Gateway
from promptreg.loop import RunConfig, run_optimization
from promptreg.rulebank import Rule, RuleBank, save_rulebank

FIXTURES = str(DATA_DIR / "fixtures.jsonl")
TRAIN = str(DATA_DIR / "train.jsonl")
VAL = str(DATA_DIR / "val.jsonl")


@pytest.fixture
def runner():
    return CliRunner()


def golden_args(run_dir):
    return [
        "optimize",
        "--train", TRAIN,
        "--val", VAL,
        "--out", str(run_dir),
        "--seed", "7",
        "--backend", "scripted",
        "--fixtures", FIXTURES,
    ]


class TestOptimize:
    def test_happy_path(self, runner, tmp_path):
        result = runner.invoke(main, golden_args(tmp_path / "run"))
        assert result.exit_code == 0, result.output
        assert "completed 12 steps" in result.output
        assert "best validation accuracy 0.6000" in result.output
        assert (tmp_path / "run" / "trace.jsonl").exists()

    def test_invalid_tau_c_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, golden_args(tmp_path / "run") + ["--tau-c", "-2"]
        )
        assert result.exit_code == 2
        assert "tau_c" in result.output

    def test_missing_dataset(self, runner, tmp_path):
        args = golden_args(tmp_path / "run")
        args[args.index("--train") + 1] = str(tmp_path / "absent.jsonl")
        result = runner.invoke(main, args)
        assert result.exit_code == 2

    def test_scripted_requires_fixtures(self, runner, tmp_path):
        args = golden_args(tmp_path / "run")
        cut = args.index("--fixtures")
        result = runner.invoke(main, args[:cut])
        assert result.exit_code == 2
        assert "--fixtures" in result.output

    def test_fixture_miss_is_runtime_failure(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        args = golden_args(tmp_path / "run")
        args[args.index("--fixtures") + 1] = str(empty)
        result = runner.invoke(main, args)
        assert result.exit_code == 1

    def test_initial_prompt_file(self, runner, tmp_path):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text(
            "You will answer reasoning questions. Think step by step, check "
            "each constraint, and finish with the final answer after "
            "'Answer:'."
        )
        result = runner.invoke(
            main,
            golden_args(tmp_path / "run")
            + ["--initial-prompt-file", str(prompt_file)],
        )
        assert result.exit_code == 0, result.output


class TestEvaluate:
    def test_accuracy_line(self, runner, tmp_path):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("Reply with the letter.")
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(
            "".join(
                json.dumps({"question": f"q{i}", "answer": "A"}) + "\n"
                for i in range(4)
            )
        )
        fixtures = tmp_path / "f.jsonl"
        fixtures.write_text(
            json.dumps({"role": "FORWARD", "response": "Answer: A"}) + "\n"
        )
        result = runner.invoke(
            main,
            ["evaluate", "--prompt-file", str(prompt_file),
             "--dataset", str(dataset), "--fixtures", str(fixtures)],
        )
        assert result.exit_code == 0, result.output
        assert "accuracy=1.0000" in result.output

    def test_report_and_gap(self, runner, tmp_path):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("Reply with the letter.")
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(
            json.dumps({"question": "q0", "answer": "A"}) + "\n"
            + json.dumps({"question": "q1", "answer": "B"}) + "\n"
        )
        fixtures = tmp_path / "f.jsonl"
        fixtures.write_text(
            json.dumps({"role": "FORWARD", "response": "Answer: A"}) + "\n"
        )
        train_report = tmp_path / "train_report.json"
        train_report.write_text(json.dumps({"accuracy": 0.75}))
        out_report = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["evaluate", "--prompt-file", str(prompt_file),
             "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--out-report", str(out_report),
             "--gap", str(train_report)],
        )
        assert result.exit_code == 0, result.output
        assert "accuracy=0.5000" in result.output
        assert "gap=+0.2500" in result.output
        saved = json.loads(out_report.read_text())
        assert saved["accuracy"] == 0.5
        assert len(saved["per_sample"]) == 2


class TestRulebankShow:
    def test_empty_bank(self, runner, tmp_path):
        path = tmp_path / "bank.json"
        save_rulebank(RuleBank(), path)
        result = runner.invoke(main, ["rulebank", "show", "--file", str(path)])
        assert result.exit_code == 0
        assert result.output.strip() == "(empty)"

    def test_populated_bank(self, runner, tmp_path):
        path = tmp_path / "bank.json"
        save_rulebank(
            RuleBank(entries=[
                Rule(id="R1", canonical_description="check units",
                     mention_count=3),
            ]),
            path,
        )
        result = runner.invoke(main, ["rulebank", "show", "--file", str(path)])
        assert "check units" in result.output
        assert "mention_count=3" in result.output

    def test_corrupt_bank_usage_error(self, runner, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text("{broken")
        result = runner.invoke(main, ["rulebank", "show", "--file", str(path)])
        assert result.exit_code == 2


class TestReplayCommand:
    def record_run(self, run_dir):
        config = RunConfig(
            train_path=TRAIN, val_path=VAL, run_dir=str(run_dir), seed=7
        )
        run_optimization(config, Gateway.scripted(FIXTURES))

    def test_no_divergences(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", FIXTURES,
             "--replay-dir", str(tmp_path / "replay")],
        )
        assert result.exit_code == 0, result.output
        assert "0 divergences" in result.output

    def test_divergence_fails(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        mutated = tmp_path / "mutated.jsonl"
        lines = (DATA_DIR / "fixtures.jsonl").read_text().splitlines()
        mutated.write_text(
            "".join(
                (line.replace("Answer: A", "Answer: B")
                 if '"FORWARD"' in line and '"step": 10' in line else line)
                + "\n"
                for line in lines
            )
        )
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", str(mutated),
             "--replay-dir", str(tmp_path / "replay")],
        )
        assert result.exit_code == 1
        assert "diverged steps: 10" in result.output

    def test_second_replay_into_default_directory_is_usage_error(
        self, runner, tmp_path
    ):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        args = ["replay", "--run-dir", str(run_dir), "--fixtures", FIXTURES]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "already holds a run" in result.output
