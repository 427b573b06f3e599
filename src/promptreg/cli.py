"""Command-line entry points: optimize, evaluate, rulebank, replay."""

from __future__ import annotations

import math
import sys
from contextlib import closing
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import get_args, get_type_hints

import click

from .errors import (
    ConfigError,
    DatasetError,
    PromptRegError,
    RuleBankError,
    RunStateError,
)
from .evaluation import (
    EvalReport,
    SampleResult,
    evaluate,
    generalization_gap,
    load_dataset,
)
from .gateway import (
    EngineConfig,
    Gateway,
    HttpBackend,
    Role,
    RoleAssignment,
    check_endpoint,
)
from .jsonl import read_json, write_json
from .loop import (
    TRANSCRIPT_FILE,
    RunConfig,
    replay_divergences,
    run_optimization,
)
from .metrics import PromptVersion
from .rulebank import load_rulebank, summarize


# Each engines-file field, with a check of its value and what it must be.
_TEXT = (lambda value: type(value) is str, "text")
_NUMBER = (lambda value: type(value) in (int, float) and math.isfinite(value),
           "a finite number")
_ENGINE_FIELDS = {
    "endpoint": _TEXT, "model_id": _TEXT, "auth_env_var": _TEXT,
    "max_new_tokens": (lambda value: type(value) is int and value >= 1,
                       "an integer of at least 1"),
    "temperature": _NUMBER, "top_p": _NUMBER,
}


def _engines(document: dict) -> tuple[dict[str, EngineConfig], dict[str, str]]:
    engines = {
        name: EngineConfig(name=name, **spec)
        for name, spec in document["engines"].items()
    }
    roles = {**document.get("roles", {})}
    for role, name in roles.items():
        if type(name) is not str:
            raise ValueError(f"role {role}: engine {name!r} is not a name")
    # A document of the wrong shape is reported before any engine in it.
    for engine in engines.values():
        for field, (valid, kind) in _ENGINE_FIELDS.items():
            value = getattr(engine, field)
            if not valid(value):
                raise ValueError(
                    f"engine {engine.name}: {field} {value!r} is not {kind}"
                )
        check_endpoint(engine)
    return engines, roles


def _build_gateway(
    transcript_path: Path | None,
    fixtures: str | None,
    engines_file: str | None,
    **engine_flags: str | None,
) -> Gateway:
    """The scripted gateway over ``fixtures`` or the HTTP one over
    ``engines_file``; a role's engine flag needs the latter. A role without
    a flag gets the forward role's engine."""
    if (fixtures is None) == (engines_file is None):
        raise click.UsageError("give exactly one of --fixtures and --engines")
    if fixtures is not None:
        for flag, name in engine_flags.items():
            if name is not None:
                raise click.UsageError(f"--{flag.replace('_', '-')} needs --engines")
        return Gateway.scripted(fixtures, transcript_path=transcript_path)
    engines, role_names = read_json(
        engines_file, "engines file", click.UsageError, _engines
    )

    def pick(role: Role) -> EngineConfig:
        key = role.value.lower()
        if f"{key}_engine" not in engine_flags:
            return pick(Role.FORWARD)
        # An empty flag names no engine; it does not defer to the roles map.
        name = engine_flags[f"{key}_engine"]
        name = role_names.get(key) if name is None else name
        if name is None:
            raise click.UsageError(f"no engine configured for role {key}")
        if name not in engines:
            raise click.UsageError(f"unknown engine name: {name}")
        return engines[name]

    http = HttpBackend()
    return Gateway(
        engines=RoleAssignment(**{r.value.lower(): pick(r) for r in Role}),
        backends={role: http for role in Role},
        transcript_path=transcript_path,
    )


def _report(document: dict) -> EvalReport:
    per_sample = tuple(SampleResult(**r) for r in document["per_sample"])
    report = EvalReport(**{**document, "per_sample": per_sample})
    if type(report.accuracy) not in (int, float) or not 0 <= report.accuracy <= 1:
        raise ValueError(f"accuracy {report.accuracy!r} is not a number in [0, 1]")
    if type(report.prompt) is not str:
        raise ValueError(f"prompt {report.prompt!r} is not text")
    return report


def _read_prompt(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"prompt file unreadable: {path}: {exc}") from exc


# An input file that must exist; click reports a missing one as a usage error.
INPUT_FILE = click.Path(exists=True, dir_okay=False)
# The same, made absolute, for paths a run records and resumes or replays by.
RECORDED_INPUT_FILE = click.Path(exists=True, dir_okay=False, resolve_path=True)

# Errors in what the user passed in: settings and fixture files
# (ConfigError), datasets, run directories and rule banks.
INPUT_ERRORS = (ConfigError, DatasetError, RunStateError, RuleBankError)

backend_options = [
    click.option("--fixtures", type=click.Path(), default=None,
                 help="Fixture JSONL to replay: the scripted backend."),
    click.option("--engines", "engines_file", type=click.Path(), default=None,
                 help="Engine configuration JSON: the http backend."),
    *(click.option(f"--{role.value.lower()}-engine", default=None,
                   help="Engine of this role; needs --engines.")
      for role in Role),
]


# The RunConfig fields that have a default. Each is set by the option of the
# same name (``--tau-c`` for ``tau_c``), of the field's type (``int`` for
# ``Optional[int]``) and with the field's default.
SETTINGS = [f for f in fields(RunConfig) if f.default is not MISSING]
_TYPES = {name: (get_args(hint) or (hint,))[0]
          for name, hint in get_type_hints(RunConfig).items()}
setting_options = [
    click.option(f"--{f.name.replace('_', '-')}", f.name, type=_TYPES[f.name],
                 default=f.default, show_default=True)
    for f in SETTINGS
]


def add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


class Commands(click.Group):
    """Maps errors the same way for every command: an ``INPUT_ERRORS`` error
    is a usage error (exit 2), and any other ``PromptRegError`` aborts the
    command (exit 1)."""

    group_class = type  # subgroups map their commands' errors too

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            name = ctx.invoked_subcommand
            command_ctx = click.Context(
                self.get_command(ctx, name), info_name=name, parent=ctx
            )
            raise click.UsageError(str(exc), command_ctx) from exc
        except PromptRegError as exc:
            click.echo(f"{ctx.invoked_subcommand} aborted: {exc}", err=True)
            sys.exit(1)


@click.group(cls=Commands)
def main() -> None:
    """Regularized prompt optimization over pluggable LLM backends."""


@main.command()
@click.option("--train", required=True, type=RECORDED_INPUT_FILE)
@click.option("--val", required=True, type=RECORDED_INPUT_FILE)
@click.option("--out", "run_dir", required=True, type=click.Path())
@add_options(setting_options)
@click.option("--initial-prompt-file", type=INPUT_FILE, default=None)
@add_options(backend_options)
def optimize(train, val, run_dir, initial_prompt_file, **flags) -> None:
    """Run the three-stage optimization loop."""
    settings = {f.name: flags.pop(f.name) for f in SETTINGS}
    if initial_prompt_file:
        ctx = click.get_current_context()
        if ctx.get_parameter_source("initial_prompt") is not \
                click.core.ParameterSource.DEFAULT:
            raise click.UsageError(
                "give at most one of --initial-prompt and --initial-prompt-file"
            )
        settings["initial_prompt"] = _read_prompt(initial_prompt_file)
    config = RunConfig(train, val, run_dir, **settings)
    with closing(
        _build_gateway(Path(run_dir) / TRANSCRIPT_FILE, **flags)
    ) as gateway:
        summary = run_optimization(config, gateway)
    click.echo(
        f"completed {summary['steps_completed']} steps; "
        f"best validation accuracy {summary['best_val']:.4f} "
        f"(version {summary['best']['version']})"
    )


@main.command("evaluate")
@click.option("--prompt-file", required=True, type=INPUT_FILE)
@click.option("--dataset", required=True, type=INPUT_FILE)
@click.option("--out-report", type=click.Path(dir_okay=False), default=None)
@click.option("--gap", "gap_report", type=click.Path(), default=None,
              help="Report of the same prompt on the training side.")
@click.option("--concurrency-cap", type=click.IntRange(min=1), default=1,
              show_default=True)
# Forward calls only: --fixtures, --engines and --forward-engine.
@add_options(backend_options[:3])
def evaluate_cmd(
    prompt_file, dataset, out_report, gap_report, concurrency_cap,
    **backend_flags,
) -> None:
    """Score a prompt on a dataset with strict exact match."""
    if out_report and not Path(out_report).parent.is_dir():
        raise click.BadParameter(
            f"directory does not exist: {Path(out_report).parent}",
            param_hint="'--out-report'",
        )
    prompt = PromptVersion.create(_read_prompt(prompt_file))
    samples = load_dataset(dataset)
    train_report = (
        read_json(gap_report, "report", click.UsageError, _report)
        if gap_report else None
    )
    if train_report is not None and train_report.prompt != prompt.text:
        raise click.BadParameter(
            f"report of another prompt: {gap_report}", param_hint="'--gap'"
        )
    with closing(_build_gateway(None, **backend_flags)) as gateway:
        report = evaluate(
            prompt, samples, gateway,
            concurrency_cap=concurrency_cap,
            dataset_name=Path(dataset).stem,
            engine_name=gateway.engine(Role.FORWARD).name,
        )
    if out_report:
        write_json(out_report, asdict(report))
    click.echo(f"accuracy={report.accuracy:.4f}")
    if train_report is not None:
        click.echo(f"gap={generalization_gap(report, train_report):+.4f}")


@main.group()
def rulebank() -> None:
    """Inspect persisted rule banks."""


@rulebank.command("show")
@click.option("--file", "path", required=True, type=INPUT_FILE)
def rulebank_show(path) -> None:
    click.echo(summarize(load_rulebank(path)))


@main.command()
@click.option("--run-dir", required=True,
              type=click.Path(exists=True, file_okay=False, resolve_path=True))
@click.option("--fixtures", required=True, type=INPUT_FILE)
@click.option("--replay-dir", type=click.Path(), default=None)
def replay(run_dir, fixtures, replay_dir) -> None:
    """Re-execute a recorded run through the scripted backend and diff it."""
    if replay_dir is None:
        replay_dir = str(Path(run_dir).with_name(Path(run_dir).name + ".replay"))
    diverged = replay_divergences(run_dir, fixtures, replay_dir)
    click.echo(f"{len(diverged)} divergences")
    if diverged:
        click.echo("diverged steps: " + ", ".join(str(s) for s in diverged))
        sys.exit(1)


if __name__ == "__main__":
    main()
