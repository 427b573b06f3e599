"""Command-line entry points: optimize, evaluate, rulebank, replay."""

from __future__ import annotations

import sys
from contextlib import closing
from dataclasses import asdict
from pathlib import Path

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
    DEFAULT_INITIAL_PROMPT,
    TRANSCRIPT_FILE,
    RunConfig,
    replay_divergences,
    run_optimization,
)
from .metrics import PromptVersion
from .rulebank import load_rulebank, summarize


def _engines(document: dict) -> tuple[dict[str, EngineConfig], dict[str, str]]:
    engines = {
        name: EngineConfig(name=name, **spec)
        for name, spec in document["engines"].items()
    }
    roles = {**document.get("roles", {})}
    # A document of the wrong shape is reported before any engine in it.
    for engine in engines.values():
        check_endpoint(engine)
    return engines, roles


def _build_gateway(
    transcript_path: Path | None,
    backend: str,
    fixtures: str | None,
    engines_file: str | None,
    **engine_flags: str | None,
) -> Gateway:
    if backend == "scripted":
        if not fixtures:
            raise click.UsageError("--backend scripted requires --fixtures")
        return Gateway.scripted(fixtures, transcript_path=transcript_path)
    if not engines_file:
        raise click.UsageError("--backend http requires --engines")
    engines, role_names = read_json(
        engines_file, "engines file", click.UsageError, _engines
    )

    def pick(role: Role) -> EngineConfig:
        key = role.value.lower()
        name = engine_flags[f"{key}_engine"] or role_names.get(key)
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
    return EvalReport(**{**document, "per_sample": per_sample})


def _read_prompt(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
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
    click.option(
        "--backend",
        type=click.Choice(["scripted", "http"]),
        default="scripted",
        show_default=True,
    ),
    click.option("--fixtures", type=click.Path(), default=None,
                 help="Fixture JSONL for the scripted backend."),
    click.option("--engines", "engines_file", type=click.Path(), default=None,
                 help="Engine configuration JSON for the http backend."),
    click.option("--forward-engine", default=None),
    click.option("--gradient-engine", default=None),
    click.option("--regularization-engine", default=None),
    click.option("--optimizer-engine", default=None),
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
@click.option("--batch-size", default=3, show_default=True)
@click.option("--iterations", default=12, show_default=True)
@click.option("--tau-c", default=0.2, show_default=True)
@click.option("--acceptance-relaxation", default=0.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--initial-prompt", default=DEFAULT_INITIAL_PROMPT)
@click.option("--initial-prompt-file", type=INPUT_FILE, default=None)
@click.option("--val-subsample", type=int, default=None)
@click.option("--concurrency-cap", default=1, show_default=True)
@add_options(backend_options)
def optimize(
    train, val, run_dir, batch_size, iterations, tau_c,
    acceptance_relaxation, seed, initial_prompt, initial_prompt_file,
    val_subsample, concurrency_cap, **backend_flags,
) -> None:
    """Run the three-stage optimization loop."""
    if initial_prompt_file:
        initial_prompt = _read_prompt(initial_prompt_file)
    config = RunConfig(
        train_path=train,
        val_path=val,
        run_dir=run_dir,
        batch_size=batch_size,
        iterations=iterations,
        tau_c=tau_c,
        acceptance_relaxation=acceptance_relaxation,
        seed=seed,
        initial_prompt=initial_prompt,
        concurrency_cap=concurrency_cap,
        val_subsample=val_subsample,
    )
    with closing(
        _build_gateway(Path(run_dir) / TRANSCRIPT_FILE, **backend_flags)
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
              help="Second report JSON treated as the training-side report.")
@click.option("--dataset-name", default="")
@click.option("--engine-name", default="")
@click.option("--concurrency-cap", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--prompt-version", default=0, show_default=True)
@add_options(backend_options)
def evaluate_cmd(
    prompt_file, dataset, out_report, gap_report, dataset_name, engine_name,
    concurrency_cap, prompt_version, **backend_flags,
) -> None:
    """Score a prompt on a dataset with strict exact match."""
    if out_report and not Path(out_report).parent.is_dir():
        raise click.BadParameter(
            f"directory does not exist: {Path(out_report).parent}",
            param_hint="'--out-report'",
        )
    prompt = PromptVersion.create(
        _read_prompt(prompt_file), version=prompt_version
    )
    samples = load_dataset(dataset)
    train_report = (
        read_json(gap_report, "report", click.UsageError, _report)
        if gap_report else None
    )
    with closing(_build_gateway(None, **backend_flags)) as gateway:
        report = evaluate(
            prompt, samples, gateway,
            concurrency_cap=concurrency_cap,
            dataset_name=dataset_name or Path(dataset).stem,
            engine_name=engine_name,
        )
    if out_report:
        write_json(out_report, asdict(report))
    click.echo(f"accuracy={report.accuracy:.4f}")
    if train_report is not None:
        try:
            gap = generalization_gap(report, train_report)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        click.echo(f"gap={gap:+.4f}")


@main.group()
def rulebank() -> None:
    """Inspect persisted rule banks."""


@rulebank.command("show")
@click.option("--file", "path", required=True, type=INPUT_FILE)
def rulebank_show(path) -> None:
    click.echo(summarize(load_rulebank(path)))


@main.command()
@click.option("--run-dir", required=True,
              type=click.Path(exists=True, file_okay=False))
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
