import json
import re
import shlex
import subprocess
import sys
from contextlib import closing
from dataclasses import asdict
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from conftest import DATA_DIR, ok_reply
from promptreg.cli import _build_gateway, main
from promptreg.gateway import Gateway, Role
from promptreg.loop import (
    DEFAULT_INITIAL_PROMPT,
    OptimizationRun,
    RunConfig,
    run_optimization,
)
from promptreg.rulebank import Rule, RuleBank, save_rulebank

FIXTURES = str(DATA_DIR / "fixtures.jsonl")
TRAIN = str(DATA_DIR / "train.jsonl")
VAL = str(DATA_DIR / "val.jsonl")


# Each fixture file is malformed on its second line, or absent.
BAD_FIXTURE_FILES = {
    "not-json": '{"role": "FORWARD", "response": "r"}\n{"role": \n',
    "no-response": '{"role": "FORWARD", "response": "r"}\n{"role": "FORWARD"}\n',
    "bad-role": '{"role": "FORWARD", "response": "r"}\n'
                '{"role": "NOPE", "response": "r"}\n',
    "missing": None,
}


def bad_fixture_file(tmp_path, case):
    path = tmp_path / "bad-fixtures.jsonl"
    if BAD_FIXTURE_FILES[case] is not None:
        path.write_text(BAD_FIXTURE_FILES[case])
    return path


def assert_names_fixture_file(result, path, case):
    assert result.exit_code == 2, result.output
    assert str(path) in result.output
    if BAD_FIXTURE_FILES[case] is not None:
        assert "line 2: " in result.output


@pytest.fixture
def runner():
    return CliRunner()


# Not UTF-8: a UTF-16 byte-order mark before UTF-16 text.
NOT_UTF8 = b"\xff\xfeA\x00n\x00"


def golden_args(run_dir):
    return [
        "optimize",
        "--train", TRAIN,
        "--val", VAL,
        "--out", str(run_dir),
        "--seed", "7",
        "--fixtures", FIXTURES,
    ]


# The options of optimize: the inputs, one per RunConfig setting, and the
# backend's.
OPTIMIZE_OPTIONS = {
    "--train", "--val", "--out", "--batch-size", "--iterations", "--tau-c",
    "--acceptance-relaxation", "--seed", "--initial-prompt",
    "--initial-prompt-file", "--val-subsample", "--concurrency-cap",
    "--fixtures", "--engines", "--forward-engine",
    "--gradient-engine", "--regularization-engine", "--optimizer-engine",
    "--help",
}

# The options of evaluate: its inputs and outputs, and the backend's with the
# forward role's engine flag alone, since it makes forward calls only.
EVALUATE_OPTIONS = {
    "--prompt-file", "--dataset", "--out-report", "--gap", "--concurrency-cap",
    "--fixtures", "--engines", "--forward-engine", "--help",
}


def listed_options(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    return sorted(re.findall(r"^  (--[a-z-]+)", result.output, re.MULTILINE))


class TestOptimize:
    def test_happy_path(self, runner, tmp_path):
        result = runner.invoke(main, golden_args(tmp_path / "run"))
        assert result.exit_code == 0, result.output
        assert "completed 12 steps" in result.output
        assert "best validation accuracy 0.6000" in result.output
        assert (tmp_path / "run" / "trace.jsonl").exists()

    def test_help_lists_every_option(self, runner):
        assert listed_options(runner, "optimize") == sorted(OPTIMIZE_OPTIONS)

    def test_defaults_are_run_config_defaults(self, runner, tmp_path):
        # One step-less reply per role: every gradient is rejected, so no
        # rewrite is asked for and every seed and batch finds its reply.
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text("".join(json.dumps(f) + "\n" for f in [
            {"role": "FORWARD", "response": "Answer: 0"},
            {"role": "GRADIENT", "response": '{"purified_gradient": ""}'},
        ]))
        run_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "optimize", "--train", TRAIN, "--val", VAL, "--out", str(run_dir),
            "--fixtures", str(fixtures),
        ])
        assert result.exit_code == 0, result.output
        with open(run_dir / "state.json") as handle:
            config = json.loads(handle.readline())["config"]
        assert config == asdict(RunConfig(
            str(Path(TRAIN).resolve()), str(Path(VAL).resolve()), str(run_dir)
        ))

    def test_invalid_tau_c_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, golden_args(tmp_path / "run") + ["--tau-c", "-2"]
        )
        assert result.exit_code == 2
        assert "tau_c" in result.output

    @pytest.mark.parametrize("flag, message", [
        ("--tau-c", "tau_c must exceed -1"),
        ("--acceptance-relaxation", "acceptance_relaxation must be nonnegative"),
    ])
    def test_nan_setting_is_usage_error(self, runner, tmp_path, flag, message):
        result = runner.invoke(
            main, golden_args(tmp_path / "run") + [flag, "nan"]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "run" / "transcript.jsonl").exists()

    @pytest.mark.parametrize("subsample", ["0", "-1"])
    def test_val_subsample_below_one_is_usage_error(
        self, runner, tmp_path, subsample
    ):
        result = runner.invoke(
            main, golden_args(tmp_path / "run") + ["--val-subsample", subsample]
        )
        assert result.exit_code == 2, result.output
        assert "val_subsample must be at least 1" in result.output
        assert not (tmp_path / "run" / "trace.jsonl").exists()

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

    @pytest.mark.parametrize("case", sorted(BAD_FIXTURE_FILES))
    def test_bad_fixture_file_is_usage_error(self, runner, tmp_path, case):
        path = bad_fixture_file(tmp_path, case)
        args = golden_args(tmp_path / "run")
        args[args.index("--fixtures") + 1] = str(path)
        result = runner.invoke(main, args)
        assert_names_fixture_file(result, path, case)

    def test_fixture_miss_is_runtime_failure(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        args = golden_args(tmp_path / "run")
        args[args.index("--fixtures") + 1] = str(empty)
        result = runner.invoke(main, args)
        assert result.exit_code == 1

    def test_malformed_dataset_is_usage_error(self, runner, tmp_path):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({"question": "q", "answer": "A"}) + "\n[1]\n")
        args = golden_args(tmp_path / "run")
        args[args.index("--train") + 1] = str(train)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{train}: line 2: not a JSON object" in result.output

    def test_resume_under_another_seed_is_usage_error(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        args = golden_args(run_dir) + ["--iterations", "2"]
        assert runner.invoke(main, args).exit_code == 0
        trace = (run_dir / "trace.jsonl").read_bytes()
        args[args.index("--seed") + 1] = "8"
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"config differs from {run_dir / 'state.json'}: seed" in (
            result.output
        )
        assert (run_dir / "trace.jsonl").read_bytes() == trace

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

    def test_byte_order_mark_of_the_initial_prompt_file_is_dropped(
        self, runner, tmp_path
    ):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text(DEFAULT_INITIAL_PROMPT, encoding="utf-8-sig")
        run_dir = tmp_path / "run"
        result = runner.invoke(
            main, golden_args(run_dir) + ["--initial-prompt-file", str(prompt_file)]
        )
        assert result.exit_code == 0, result.output
        with open(run_dir / "state.json") as handle:
            first = json.loads(handle.readline())
        assert first["current"]["text"] == DEFAULT_INITIAL_PROMPT
        assert (run_dir / "trace.jsonl").read_bytes() == (
            DATA_DIR / "golden_trace.jsonl"
        ).read_bytes()

    # The default text too: the flag is refused because it was given.
    @pytest.mark.parametrize("text", ["From the flag.", DEFAULT_INITIAL_PROMPT],
                             ids=["other-text", "default-text"])
    def test_initial_prompt_beside_its_file_is_usage_error(
        self, runner, tmp_path, text
    ):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("From the file.")
        result = runner.invoke(main, golden_args(tmp_path / "run") + [
            "--initial-prompt", text, "--initial-prompt-file", str(prompt_file),
        ])
        assert result.exit_code == 2, result.output
        assert "give at most one of --initial-prompt and " \
            "--initial-prompt-file" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unusable_initial_prompt_file_is_usage_error(
        self, runner, tmp_path, kind
    ):
        prompt_file = tmp_path / "p.txt"
        if kind == "directory":
            prompt_file.mkdir()
        elif kind == "not-utf8":
            prompt_file.write_bytes(NOT_UTF8)
        result = runner.invoke(
            main,
            golden_args(tmp_path / "run")
            + ["--initial-prompt-file", str(prompt_file)],
        )
        assert result.exit_code == 2, result.output
        assert str(prompt_file) in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_at_a_file_is_usage_error_before_any_call(
        self, runner, tmp_path, loopback, out
    ):
        (tmp_path / "afile").write_text("kept")
        engines = tmp_path / "e.json"
        engines.write_text(json.dumps({
            "engines": {"e": {"endpoint": loopback.url, "model_id": "m"}},
            "roles": dict.fromkeys(ROLES, "e"),
        }))
        result = runner.invoke(main, [
            "optimize", "--train", TRAIN, "--val", VAL,
            "--out", str(tmp_path / out), "--seed", "7",
            "--engines", str(engines),
        ])
        assert result.exit_code == 2, result.output
        assert f"cannot make run directory {tmp_path / out}" in result.output
        assert loopback.received == []
        assert (tmp_path / "afile").read_text() == "kept"


PROMPT = "Reply with the letter."


def report_text(accuracy, prompt=PROMPT):
    """A --gap report of ``prompt`` at ``accuracy``."""
    return json.dumps({
        "dataset": "train", "engine": "scripted", "prompt": prompt,
        "accuracy": accuracy, "per_sample": [],
    })


class TestEvaluate:
    def test_help_lists_every_option(self, runner):
        assert listed_options(runner, "evaluate") == sorted(EVALUATE_OPTIONS)

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

    def evaluate_args(self, tmp_path, dataset_text, fixtures):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("Reply with the letter.")
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(dataset_text)
        return ["evaluate", "--prompt-file", str(prompt_file),
                "--dataset", str(dataset), "--fixtures", str(fixtures)]

    def test_dataset_line_nested_too_deep_is_a_usage_error(
        self, runner, tmp_path
    ):
        """The C scanner raises RecursionError, not a decode error, on
        nesting past the interpreter's limit."""
        fixtures = tmp_path / "f.jsonl"
        fixtures.write_text(
            json.dumps({"role": "FORWARD", "response": "Answer: A"}) + "\n"
        )
        nested = "[" * 100_000 + "]" * 100_000
        args = self.evaluate_args(
            tmp_path, '{"question": "q", "answer": ' + nested + "}\n", fixtures
        )
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "line 1: invalid JSON" in result.output

    def test_readme_command_writes_a_version_for_prompt_file(self, tmp_path):
        """The README's command that takes version 8's text from a run's
        state.json, run on the golden run."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = next(
            block.split("```")[0] for block in readme.split("```sh\n")[1:]
            if "state.json" in block.split("```")[0]
        )
        command, target = block.strip().rsplit(" > ", 1)
        assert target == "prompt_v8.txt"
        summary = run_optimization(
            RunConfig(train_path=TRAIN, val_path=VAL, seed=7,
                      run_dir=str(tmp_path / "runs" / "demo")),
            Gateway.scripted(FIXTURES),
        )
        assert summary["current"]["version"] == 8
        result = subprocess.run(
            ["sh", "-c", command.replace(
                "python", shlex.quote(sys.executable), 1
            )],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        assert result.stdout == summary["current"]["text"]

    def test_undecodable_prompt_file_is_usage_error(self, runner, tmp_path):
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        args = self.evaluate_args(tmp_path, dataset, FIXTURES)
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_bytes(NOT_UTF8)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"prompt file unreadable: {prompt_file}" in result.output

    def test_backend_failure_aborts_evaluate(self, runner, tmp_path):
        fixtures = tmp_path / "f.jsonl"
        fixtures.write_text("")
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        result = runner.invoke(
            main, self.evaluate_args(tmp_path, dataset, fixtures)
        )
        assert result.exit_code == 1, result.output
        assert "evaluate aborted: " in result.output

    @pytest.mark.parametrize("case", sorted(BAD_FIXTURE_FILES))
    def test_bad_fixture_file_is_usage_error(self, runner, tmp_path, case):
        path = bad_fixture_file(tmp_path, case)
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        result = runner.invoke(main, self.evaluate_args(tmp_path, dataset, path))
        assert_names_fixture_file(result, path, case)

    def test_malformed_dataset_is_usage_error(self, runner, tmp_path):
        fixtures = tmp_path / "f.jsonl"
        fixtures.write_text('{"role": "FORWARD", "response": "Answer: A"}\n')
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n[1, 2]\n"
        result = runner.invoke(
            main, self.evaluate_args(tmp_path, dataset, fixtures)
        )
        assert result.exit_code == 2, result.output
        assert "line 2: not a JSON object" in result.output

    @pytest.mark.parametrize(
        "engines_text",
        [None, "{broken", "[]", '{"engines": {"a": {"colour": "red"}}}',
         '{"engines": {"a": {}}, "roles": ["a"]}',
         '{"engines": {"a": {"endpoint": "http://127.0.0.1:9/"}}, '
         '"roles": {"forward": ["a"]}}'],
        ids=["missing", "not-json", "list-document", "unknown-field",
             "roles-not-object", "role-not-a-name"],
    )
    def test_unreadable_engines_file_is_usage_error(
        self, runner, tmp_path, engines_text
    ):
        engines = tmp_path / "engines.json"
        if engines_text is not None:
            engines.write_text(engines_text)
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        args = self.evaluate_args(tmp_path, dataset, FIXTURES)
        args[args.index("--fixtures"):] = ["--engines", str(engines)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"engines file unreadable: {engines}" in result.output

    def evaluate_with_gap(self, runner, tmp_path, gap_text):
        """Evaluate a 2-question dataset at accuracy 0.5, with --gap."""
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text(PROMPT)
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
        train_report.write_text(gap_text, encoding="utf-8")
        return runner.invoke(
            main,
            ["evaluate", "--prompt-file", str(prompt_file),
             "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--out-report", str(tmp_path / "report.json"),
             "--gap", str(train_report)],
        )

    def test_report_and_gap(self, runner, tmp_path):
        result = self.evaluate_with_gap(runner, tmp_path, report_text(0.75))
        assert result.exit_code == 0, result.output
        assert "accuracy=0.5000" in result.output
        assert "gap=+0.2500" in result.output
        # The dataset file's stem, the forward engine's name, the prompt text.
        assert json.loads((tmp_path / "report.json").read_text()) == {
            "dataset": "d", "engine": "scripted", "prompt": PROMPT,
            "accuracy": 0.5,
            "per_sample": [
                {"correct": True, "extracted": "A", "raw_output": "Answer: A"},
                {"correct": False, "extracted": "A", "raw_output": "Answer: A"},
            ],
        }

    def test_gap_report_with_a_byte_order_mark_is_read(self, runner, tmp_path):
        result = self.evaluate_with_gap(
            runner, tmp_path, "\ufeff" + report_text(0.75)
        )
        assert result.exit_code == 0, result.output
        assert "gap=+0.2500" in result.output

    def test_gap_against_another_prompt_version_is_usage_error(
        self, runner, tmp_path
    ):
        """A report that evaluate wrote for one prompt, given as --gap for
        another, is refused before any call: the second evaluation's
        fixture file answers nothing, so a call would abort it (exit 1)."""
        fixtures = tmp_path / "f.jsonl"
        fixtures.write_text(
            json.dumps({"role": "FORWARD", "response": "Answer: A"}) + "\n"
        )
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        args = self.evaluate_args(tmp_path, dataset, fixtures)
        report = tmp_path / "report.json"
        result = runner.invoke(main, args + ["--out-report", str(report)])
        assert result.exit_code == 0, result.output
        (tmp_path / "p.txt").write_text("Reply with the number.")
        fixtures.write_text("")
        result = runner.invoke(main, args + ["--gap", str(report)])
        assert result.exit_code == 2, result.output
        assert f"report of another prompt: {report}" in result.output
        assert "accuracy=" not in result.output
        assert "gap=" not in result.output

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_concurrency_cap_below_one_is_usage_error(
        self, runner, tmp_path, cap
    ):
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        args = self.evaluate_args(tmp_path, dataset, FIXTURES)
        result = runner.invoke(main, args + ["--concurrency-cap", cap])
        assert result.exit_code == 2, result.output
        assert "--concurrency-cap" in result.output
        assert "accuracy=" not in result.output

    @pytest.mark.parametrize(
        "gap_text, reason",
        [("{broken", "Expecting property name"),
         (json.dumps({"accuracy": 0.75}), "'per_sample'"),
         (report_text("0.75"), "accuracy '0.75' is not a number in [0, 1]"),
         (report_text(True), "accuracy True is not a number in [0, 1]"),
         (report_text(1.5), "accuracy 1.5 is not a number in [0, 1]"),
         (report_text(float("nan")), "accuracy nan is not a number in [0, 1]"),
         (report_text(0.75, prompt=5), "prompt 5 is not text"),
         (json.dumps({"dataset": "train", "engine": "", "accuracy": 0.75,
                      "prompt_version": 0, "per_sample": []}),
          "unexpected keyword argument 'prompt_version'")],
        ids=["not-json", "missing-fields", "accuracy-text", "accuracy-bool",
             "accuracy-above-one", "accuracy-nan", "prompt-not-text",
             "prompt-version"],
    )
    def test_unreadable_gap_report_is_usage_error(
        self, runner, tmp_path, gap_text, reason
    ):
        """A report that is not one evaluate writes, a report written before
        reports named their prompt included, is refused before any call."""
        result = self.evaluate_with_gap(runner, tmp_path, gap_text)
        assert result.exit_code == 2, result.output
        path = tmp_path / "train_report.json"
        assert f"report unreadable: {path}: " in result.output
        assert reason in result.output
        assert "accuracy=" not in result.output


ROLES = ["forward", "gradient", "regularization", "optimizer"]


class TestEvaluateOverHttp:
    """``evaluate --engines`` against the loopback server of
    ``conftest``: engine choice, credentials and the request body. evaluate
    makes forward calls only, so it picks the forward role's engine alone."""

    def engines_file(self, tmp_path, url, roles) -> str:
        path = tmp_path / "e.json"
        path.write_text(json.dumps({
            "engines": {
                "small": {"endpoint": url, "model_id": "small-model",
                          "auth_env_var": "PROMPTREG_TEST_KEY",
                          "temperature": 0.3, "top_p": 0.9,
                          "max_new_tokens": 64},
                "big": {"endpoint": url, "model_id": "big-model"},
            },
            "roles": roles,
        }))
        return str(path)

    def invoke(self, runner, tmp_path, engines, *flags):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("Reply with the number.")
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({"question": "2 + 2?", "answer": "4"}) + "\n")
        return runner.invoke(main, [
            "evaluate", "--prompt-file", str(prompt_file),
            "--dataset", str(dataset), "--engines", engines, *flags,
        ])

    def test_roles_map_picks_the_engine_and_its_settings(
        self, runner, tmp_path, loopback, monkeypatch
    ):
        monkeypatch.setenv("PROMPTREG_TEST_KEY", "sk-test")
        posts = loopback.script(ok_reply("Answer: 4"))
        roles = dict.fromkeys(ROLES, "big") | {"forward": "small"}
        engines = self.engines_file(tmp_path, loopback.url, roles)
        result = self.invoke(runner, tmp_path, engines)
        assert result.exit_code == 0, result.output
        assert "accuracy=1.0000" in result.output
        [(headers, body)] = posts
        assert headers["Authorization"] == "Bearer sk-test"
        assert body == {
            "model": "small-model",
            "messages": [
                {"role": "system", "content": "Reply with the number."},
                {"role": "user", "content": "2 + 2?"},
            ],
            "temperature": 0.3,
            "top_p": 0.9,
            "max_tokens": 64,
        }

    def test_engine_flag_overrides_the_roles_map(
        self, runner, tmp_path, loopback
    ):
        posts = loopback.script(ok_reply("Answer: 4"))
        engines = self.engines_file(
            tmp_path, loopback.url, dict.fromkeys(ROLES, "small")
        )
        result = self.invoke(
            runner, tmp_path, engines, "--forward-engine", "big"
        )
        assert result.exit_code == 0, result.output
        [(headers, body)] = posts
        assert body["model"] == "big-model"
        assert "Authorization" not in headers

    # evaluate has the engine flag of the forward role alone; TestBuildGateway
    # checks every role's flag of optimize.
    @pytest.mark.parametrize("role", ["forward"])
    def test_each_role_reads_the_roles_map_and_its_flag(
        self, runner, tmp_path, loopback, role
    ):
        loopback.script(ok_reply("Answer: 4"))
        roles = dict.fromkeys(ROLES, "big") | {role: "nope"}
        engines = self.engines_file(tmp_path, loopback.url, roles)
        result = self.invoke(runner, tmp_path, engines)
        assert result.exit_code == 2, result.output
        assert "unknown engine name: nope" in result.output
        result = self.invoke(runner, tmp_path, engines, f"--{role}-engine", "big")
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("role", ["forward"])
    def test_role_without_engine_is_usage_error(self, runner, tmp_path, role):
        roles = {r: "big" for r in ROLES if r != role}
        engines = self.engines_file(tmp_path, "http://127.0.0.1:9/", roles)
        result = self.invoke(runner, tmp_path, engines)
        assert result.exit_code == 2, result.output
        assert f"no engine configured for role {role}" in result.output

    def test_only_the_forward_role_is_read(self, runner, tmp_path, loopback):
        """The roles map's other entries may be absent or name no engine."""
        posts = loopback.script(ok_reply("Answer: 4"))
        engines = self.engines_file(
            tmp_path, loopback.url, {"forward": "big", "gradient": "nope"}
        )
        report = tmp_path / "report.json"
        result = self.invoke(runner, tmp_path, engines, "--out-report", str(report))
        assert result.exit_code == 0, result.output
        [(_, body)] = posts
        assert body["model"] == "big-model"
        assert json.loads(report.read_text())["engine"] == "big"

    def test_engines_file_with_a_byte_order_mark_is_read(
        self, runner, tmp_path, loopback
    ):
        posts = loopback.script(ok_reply("Answer: 4"))
        engines = Path(self.engines_file(
            tmp_path, loopback.url, dict.fromkeys(ROLES, "big")
        ))
        engines.write_text("\ufeff" + engines.read_text(), encoding="utf-8")
        result = self.invoke(runner, tmp_path, str(engines))
        assert result.exit_code == 0, result.output
        assert len(posts) == 1

    @pytest.mark.parametrize(
        "field, value, kind",
        [("endpoint", 5, "text"), ("model_id", None, "text"),
         ("auth_env_var", 5, "text"),
         ("max_new_tokens", 0, "an integer of at least 1"),
         ("max_new_tokens", True, "an integer of at least 1"),
         ("max_new_tokens", 64.0, "an integer of at least 1"),
         ("temperature", float("nan"), "a finite number"),
         ("temperature", "0.3", "a finite number"),
         ("top_p", float("inf"), "a finite number"),
         ("top_p", False, "a finite number")],
        ids=["endpoint-number", "model-null", "auth-number", "tokens-zero",
             "tokens-bool", "tokens-float", "temperature-nan",
             "temperature-text", "top-p-infinite", "top-p-bool"],
    )
    def test_engine_field_of_another_type_is_usage_error_before_any_call(
        self, runner, tmp_path, loopback, field, value, kind
    ):
        loopback.script(ok_reply("Answer: 4"))
        path = tmp_path / "e.json"
        path.write_text(json.dumps({
            "engines": {"small": {"endpoint": loopback.url, field: value}},
            "roles": {"forward": "small"},
        }))
        result = self.invoke(runner, tmp_path, str(path))
        assert result.exit_code == 2, result.output
        assert f"engine small: {field} {value!r} is not {kind}" in result.output
        assert loopback.received == []

    @pytest.mark.parametrize(
        "spec",
        [{}, {"endpoint": "api.example.com/v1"}, {"endpoint": "foo://x/y"}],
        ids=["missing-endpoint", "no-scheme", "other-scheme"],
    )
    def test_engine_without_http_endpoint_is_usage_error(
        self, runner, tmp_path, loopback, spec
    ):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({
            "engines": {"good": {"endpoint": loopback.url},
                        "broken": {"model_id": "m", **spec}},
            "roles": dict.fromkeys(ROLES, "good"),
        }))
        result = self.invoke(runner, tmp_path, str(path))
        assert result.exit_code == 2, result.output
        assert "engine broken: endpoint" in result.output
        assert "is not an http:// or https:// URL" in result.output
        assert loopback.received == []

    @pytest.mark.parametrize(
        "report, message",
        [(".", "is a directory"), ("absent/report.json", "does not exist")],
        ids=["directory", "missing-directory"],
    )
    def test_unwritable_out_report_is_usage_error_before_any_call(
        self, runner, tmp_path, loopback, report, message
    ):
        engines = self.engines_file(
            tmp_path, loopback.url, dict.fromkeys(ROLES, "big")
        )
        result = self.invoke(
            runner, tmp_path, engines, "--out-report", str(tmp_path / report)
        )
        assert result.exit_code == 2, result.output
        assert "--out-report" in result.output
        assert message in result.output
        assert loopback.received == []


# Each command with the role of each engine flag it has.
ENGINE_FLAGS = [("optimize", role) for role in ROLES] + [("evaluate", "forward")]


class TestBackendInput:
    """The input picks the backend: ``--fixtures`` the scripted one and
    ``--engines`` the http one. Both, neither, or a role's engine flag
    without ``--engines`` is a usage error before any call."""

    @pytest.fixture(params=["optimize", "evaluate"])
    def command(self, request, tmp_path):
        if request.param == "optimize":
            return ["optimize", "--train", TRAIN, "--val", VAL,
                    "--out", str(tmp_path / "run"), "--seed", "7"]
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("Reply with the letter.")
        return ["evaluate", "--prompt-file", str(prompt_file), "--dataset", VAL]

    def assert_refused_before_any_call(self, result, tmp_path, message):
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "accuracy=" not in result.output
        assert not (tmp_path / "run").exists()

    def test_fixtures_and_engines_together(
        self, runner, tmp_path, loopback, command
    ):
        engines = tmp_path / "e.json"
        engines.write_text(json.dumps({
            "engines": {"e": {"endpoint": loopback.url, "model_id": "m"}},
            "roles": dict.fromkeys(ROLES, "e"),
        }))
        result = runner.invoke(main, command + [
            "--fixtures", FIXTURES, "--engines", str(engines),
        ])
        self.assert_refused_before_any_call(
            result, tmp_path, "give exactly one of --fixtures and --engines"
        )
        assert loopback.received == []

    def test_neither_fixtures_nor_engines(self, runner, tmp_path, command):
        result = runner.invoke(main, command)
        self.assert_refused_before_any_call(
            result, tmp_path, "give exactly one of --fixtures and --engines"
        )

    @pytest.mark.parametrize("command, role", ENGINE_FLAGS, indirect=["command"])
    def test_empty_engine_name_is_unknown(
        self, runner, tmp_path, monkeypatch, command, role
    ):
        """An empty flag is refused, not read as the roles map's engine.
        That engine's credential is unset, so a call to it fails at once,
        before it is sent."""
        monkeypatch.delenv("PROMPTREG_TEST_KEY", raising=False)
        engines = tmp_path / "e.json"
        engines.write_text(json.dumps({
            "engines": {"e": {"endpoint": "http://127.0.0.1:9/",
                              "auth_env_var": "PROMPTREG_TEST_KEY"}},
            "roles": dict.fromkeys(ROLES, "e"),
        }))
        result = runner.invoke(main, command + [
            "--engines", str(engines), f"--{role}-engine", "",
        ])
        self.assert_refused_before_any_call(
            result, tmp_path, "unknown engine name: \n"
        )

    @pytest.mark.parametrize("command, role", ENGINE_FLAGS, indirect=["command"])
    def test_engine_flag_without_engines(self, runner, tmp_path, command, role):
        result = runner.invoke(main, command + [
            "--fixtures", FIXTURES, f"--{role}-engine", "big",
        ])
        self.assert_refused_before_any_call(
            result, tmp_path, f"--{role}-engine needs --engines"
        )


class TestBuildGateway:
    """``_build_gateway`` under optimize's engine flags, one per role: each
    role's engine, from its flag or else the roles map, read back through
    ``Gateway.engine``. No call is made."""

    FLAGS = dict.fromkeys(f"{role}_engine" for role in ROLES)

    def engines_file(self, tmp_path, roles) -> str:
        path = tmp_path / "e.json"
        path.write_text(json.dumps({
            "engines": {"small": {"endpoint": "http://127.0.0.1:9/",
                                  "model_id": "small-model"},
                        "big": {"endpoint": "http://127.0.0.1:9/",
                                "model_id": "big-model"}},
            "roles": roles,
        }))
        return str(path)

    def models(self, engines, **flags):
        """Each role's model, in ``ROLES`` order."""
        with closing(
            _build_gateway(None, None, engines, **self.FLAGS | flags)
        ) as gateway:
            return [gateway.engine(Role(role.upper())).model_id
                    for role in ROLES]

    @pytest.mark.parametrize("role", ROLES)
    def test_each_role_reads_the_roles_map_and_its_flag(self, tmp_path, role):
        engines = self.engines_file(
            tmp_path, dict.fromkeys(ROLES, "small") | {role: "nope"}
        )
        with pytest.raises(click.UsageError, match="unknown engine name: nope"):
            self.models(engines)
        assert self.models(engines, **{f"{role}_engine": "big"}) == [
            "big-model" if r == role else "small-model" for r in ROLES
        ]

    @pytest.mark.parametrize("role", ROLES)
    def test_role_without_engine_is_usage_error(self, tmp_path, role):
        engines = self.engines_file(
            tmp_path, {r: "big" for r in ROLES if r != role}
        )
        with pytest.raises(click.UsageError,
                           match=f"no engine configured for role {role}"):
            self.models(engines)

    @pytest.mark.parametrize("role", ROLES)
    def test_empty_engine_name_is_unknown(self, tmp_path, role):
        engines = self.engines_file(tmp_path, dict.fromkeys(ROLES, "big"))
        with pytest.raises(click.UsageError, match="unknown engine name: $"):
            self.models(engines, **{f"{role}_engine": ""})

    @pytest.mark.parametrize("role", ROLES)
    def test_engine_flag_without_engines(self, role):
        with pytest.raises(click.UsageError,
                           match=f"--{role}-engine needs --engines"):
            _build_gateway(None, FIXTURES, None,
                           **self.FLAGS | {f"{role}_engine": "big"})

    def test_role_without_a_flag_gets_the_forward_engine(self, tmp_path):
        """evaluate's case: the forward engine flag alone."""
        engines = self.engines_file(tmp_path, {"forward": "small"})
        with closing(
            _build_gateway(None, None, engines, forward_engine="big")
        ) as gateway:
            assert {gateway.engine(role).model_id for role in Role} == {
                "big-model"
            }


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

    def test_bank_with_a_byte_order_mark_is_read(self, runner, tmp_path):
        path = tmp_path / "bank.json"
        save_rulebank(RuleBank(), path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        result = runner.invoke(main, ["rulebank", "show", "--file", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "(empty)"


def edit_commit(text, index, edit):
    """The commit log ``text`` with ``edit`` applied to its line ``index``."""
    lines = text.splitlines(keepends=True)
    commit = json.loads(lines[index])
    edit(commit)
    lines[index] = json.dumps(commit) + "\n"
    return "".join(lines)


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

    def test_run_stopped_part_way_has_no_divergences(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        OptimizationRun(
            RunConfig(train_path=TRAIN, val_path=VAL, run_dir=str(run_dir),
                      seed=7),
            Gateway.scripted(FIXTURES),
        ).run(stop_after_step=3)
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", FIXTURES,
             "--replay-dir", str(tmp_path / "replay")],
        )
        assert result.exit_code == 0, result.output
        assert "0 divergences" in result.output

    def test_replay_from_another_directory_of_a_run_given_relative_paths(
        self, runner, tmp_path, monkeypatch
    ):
        work, sibling = tmp_path / "a", tmp_path / "b"
        work.mkdir()
        sibling.mkdir()
        for name in ("train.jsonl", "val.jsonl"):
            (work / name).write_bytes((DATA_DIR / name).read_bytes())
        monkeypatch.chdir(work)
        result = runner.invoke(main, [
            "optimize", "--train", "train.jsonl", "--val", "val.jsonl",
            "--out", "run", "--seed", "7", "--fixtures", FIXTURES,
        ])
        assert result.exit_code == 0, result.output
        state = json.loads(
            (work / "run" / "state.json").read_text().splitlines()[-1]
        )
        assert state["config"]["train_path"] == str(
            (work / "train.jsonl").resolve()
        )
        monkeypatch.chdir(sibling)
        result = runner.invoke(main, [
            "replay", "--run-dir", "../a/run", "--fixtures", FIXTURES,
            "--replay-dir", "replay",
        ])
        assert result.exit_code == 0, result.output
        assert "0 divergences" in result.output

    def test_replay_from_inside_the_run_directory(
        self, runner, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        monkeypatch.chdir(run_dir)
        result = runner.invoke(
            main, ["replay", "--run-dir", ".", "--fixtures", FIXTURES]
        )
        assert result.exit_code == 0, result.output
        assert "0 divergences" in result.output
        assert (tmp_path / "run.replay" / "trace.jsonl").exists()

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

    @pytest.mark.parametrize(
        "case", sorted(set(BAD_FIXTURE_FILES) - {"missing"})
    )
    def test_bad_fixture_file_is_usage_error(self, runner, tmp_path, case):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        path = bad_fixture_file(tmp_path, case)
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", str(path),
             "--replay-dir", str(tmp_path / "replay")],
        )
        assert_names_fixture_file(result, path, case)

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

    def test_run_directory_without_state_is_refused_before_replaying(
        self, runner, tmp_path
    ):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        (run_dir / "state.json").unlink()
        replay_dir = tmp_path / "replay"
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", FIXTURES,
             "--replay-dir", str(replay_dir)],
        )
        assert result.exit_code == 2, result.output
        assert f"run state unreadable: {run_dir / 'state.json'}" in (
            result.output
        )
        assert not replay_dir.exists()

    def test_fixture_miss_is_runtime_failure(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", str(empty),
             "--replay-dir", str(tmp_path / "replay")],
        )
        assert result.exit_code == 1, result.output
        assert "replay aborted: " in result.output

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("trace.jsonl", lambda text: text[:-10]),
            ("trace.jsonl", lambda text: None),
            ("trace.jsonl", lambda text: text + '{"batch_accuracy": 0.5}\n'),
            ("state.json", lambda text: text[:-10]),
            ("state.json", lambda text: edit_commit(
                text, 3, lambda commit: commit.pop("current")
            )),
            ("state.json", lambda text: edit_commit(
                text, 3, lambda commit: commit.update(step_completed="2")
            )),
        ],
        ids=["torn", "missing", "line-without-step", "state-torn",
             "state-line-without-current", "state-step-not-integer"],
    )
    def test_unreadable_recorded_trace_is_refused_before_replaying(
        self, runner, tmp_path, name, damage
    ):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        trace = run_dir / name
        text = damage(trace.read_text())
        if text is None:
            trace.unlink()
        else:
            trace.write_text(text)
        replay_dir = tmp_path / "replay"
        result = runner.invoke(
            main,
            ["replay", "--run-dir", str(run_dir), "--fixtures", FIXTURES,
             "--replay-dir", str(replay_dir)],
        )
        assert result.exit_code == 2, result.output
        assert str(trace) in result.output
        assert not replay_dir.exists()
