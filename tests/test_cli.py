import json

import pytest
from click.testing import CliRunner

from conftest import DATA_DIR, ok_reply
from promptreg.cli import main
from promptreg.gateway import Gateway
from promptreg.loop import RunConfig, run_optimization
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

    def evaluate_args(self, tmp_path, dataset_text, fixtures):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("Reply with the letter.")
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(dataset_text)
        return ["evaluate", "--prompt-file", str(prompt_file),
                "--dataset", str(dataset), "--fixtures", str(fixtures)]

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
         '{"engines": {"a": {}}, "roles": ["a"]}'],
        ids=["missing", "not-json", "list-document", "unknown-field",
             "roles-not-object"],
    )
    def test_unreadable_engines_file_is_usage_error(
        self, runner, tmp_path, engines_text
    ):
        engines = tmp_path / "engines.json"
        if engines_text is not None:
            engines.write_text(engines_text)
        dataset = json.dumps({"question": "q", "answer": "A"}) + "\n"
        args = self.evaluate_args(tmp_path, dataset, FIXTURES)
        result = runner.invoke(
            main, args + ["--backend", "http", "--engines", str(engines)]
        )
        assert result.exit_code == 2, result.output
        assert f"engines file unreadable: {engines}" in result.output

    def evaluate_with_gap(self, runner, tmp_path, gap_text):
        """Evaluate a 2-question dataset at accuracy 0.5, with --gap."""
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
        train_report.write_text(gap_text)
        return runner.invoke(
            main,
            ["evaluate", "--prompt-file", str(prompt_file),
             "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--out-report", str(tmp_path / "report.json"),
             "--gap", str(train_report)],
        )

    @staticmethod
    def report_text(accuracy, prompt_version=0):
        return json.dumps({
            "dataset": "train", "engine": "", "accuracy": accuracy,
            "prompt_version": prompt_version, "per_sample": [],
        })

    def test_report_and_gap(self, runner, tmp_path):
        result = self.evaluate_with_gap(
            runner, tmp_path, self.report_text(0.75)
        )
        assert result.exit_code == 0, result.output
        assert "accuracy=0.5000" in result.output
        assert "gap=+0.2500" in result.output
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["accuracy"] == 0.5
        assert len(saved["per_sample"]) == 2

    def test_gap_against_another_prompt_version_is_usage_error(
        self, runner, tmp_path
    ):
        result = self.evaluate_with_gap(
            runner, tmp_path, self.report_text(0.75, prompt_version=5)
        )
        assert result.exit_code == 2
        assert "same prompt version" in result.output
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
        "gap_text",
        ["{broken", json.dumps({"accuracy": 0.75})],
        ids=["not-json", "missing-fields"],
    )
    def test_unreadable_gap_report_is_usage_error(
        self, runner, tmp_path, gap_text
    ):
        result = self.evaluate_with_gap(runner, tmp_path, gap_text)
        assert result.exit_code == 2
        assert "report unreadable" in result.output


ROLES = ["forward", "gradient", "regularization", "optimizer"]


class TestEvaluateOverHttp:
    """``evaluate --backend http`` against the loopback server of
    ``conftest``: engine choice per role, credentials and the request body.
    Only the forward role reaches the wire; every role is picked when the
    gateway is built."""

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
            "--dataset", str(dataset), "--backend", "http",
            "--engines", engines, *flags,
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

    @pytest.mark.parametrize("role", ROLES)
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

    @pytest.mark.parametrize("role", ROLES)
    def test_role_without_engine_is_usage_error(self, runner, tmp_path, role):
        roles = {r: "big" for r in ROLES if r != role}
        engines = self.engines_file(tmp_path, "http://127.0.0.1:9/", roles)
        result = self.invoke(runner, tmp_path, engines)
        assert result.exit_code == 2, result.output
        assert f"no engine configured for role {role}" in result.output

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
        state = json.loads((work / "run" / "state.json").read_text())
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
        "damage",
        [
            lambda text: text[:-10],
            lambda text: None,
            lambda text: text + '{"batch_accuracy": 0.5}\n',
        ],
        ids=["torn", "missing", "line-without-step"],
    )
    def test_unreadable_recorded_trace_is_refused_before_replaying(
        self, runner, tmp_path, damage
    ):
        run_dir = tmp_path / "run"
        self.record_run(run_dir)
        trace = run_dir / "trace.jsonl"
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
