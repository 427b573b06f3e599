"""Command-line entry points: optimize, evaluate, rulebank, replay."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from .errors import ConfigError, PromptRegError
from .evaluation import evaluate, load_dataset
from .gateway import (
    EngineConfig,
    Gateway,
    HttpBackend,
    Role,
    RoleAssignment,
)
from .loop import (
    DEFAULT_INITIAL_PROMPT,
    TRANSCRIPT_FILE,
    RunConfig,
    replay_divergences,
    run_optimization,
)
from .metrics import PromptVersion
from .rulebank import load_rulebank, summarize, write_json


def _load_engines_file(path: str) -> tuple[dict[str, EngineConfig], dict[str, str]]:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        engines = {
            name: EngineConfig(name=name, **spec)
            for name, spec in document["engines"].items()
        }
        roles = document.get("roles", {})
        return engines, roles
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"engines file unreadable: {path}: {exc}") from exc


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
    engines, role_names = _load_engines_file(engines_file)

    def pick(role: Role) -> EngineConfig:
        key = role.value.lower()
        name = engine_flags[f"{key}_engine"] or role_names.get(key)
        if name is None:
            raise click.UsageError(f"no engine configured for role {key}")
        if name not in engines:
            raise click.UsageError(f"unknown engine name: {name}")
        return engines[name]

    assignment = RoleAssignment(
        forward=pick(Role.FORWARD),
        gradient=pick(Role.GRADIENT),
        regularization=pick(Role.REGULARIZATION),
        optimizer=pick(Role.OPTIMIZER),
    )
    http = HttpBackend()
    return Gateway(
        engines=assignment,
        backends={role: http for role in Role},
        transcript_path=transcript_path,
    )


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


@click.group()
def main() -> None:
    """Regularized prompt optimization over pluggable LLM backends."""


@main.command()
@click.option("--train", required=True, type=click.Path())
@click.option("--val", required=True, type=click.Path())
@click.option("--out", "run_dir", required=True, type=click.Path())
@click.option("--batch-size", default=3, show_default=True)
@click.option("--iterations", default=12, show_default=True)
@click.option("--tau-c", default=0.2, show_default=True)
@click.option("--acceptance-relaxation", default=0.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--initial-prompt", default=DEFAULT_INITIAL_PROMPT)
@click.option("--initial-prompt-file", type=click.Path(), default=None)
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
        initial_prompt = Path(initial_prompt_file).read_text(encoding="utf-8")
    for path in (train, val):
        if not Path(path).exists():
            raise click.UsageError(f"dataset not found: {path}")
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
    try:
        config.validate()
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    gateway = _build_gateway(Path(run_dir) / TRANSCRIPT_FILE, **backend_flags)
    try:
        summary = run_optimization(config, gateway)
    except PromptRegError as exc:
        click.echo(f"run aborted: {exc}", err=True)
        sys.exit(1)
    click.echo(
        f"completed {summary['steps_completed']} steps; "
        f"best validation accuracy {summary['best_val']:.4f} "
        f"(version {summary['best']['version']})"
    )


@main.command("evaluate")
@click.option("--prompt-file", required=True, type=click.Path())
@click.option("--dataset", required=True, type=click.Path())
@click.option("--out-report", type=click.Path(), default=None)
@click.option("--gap", "gap_report", type=click.Path(), default=None,
              help="Second report JSON treated as the training-side report.")
@click.option("--dataset-name", default="")
@click.option("--engine-name", default="")
@click.option("--concurrency-cap", default=1, show_default=True)
@click.option("--prompt-version", default=0, show_default=True)
@add_options(backend_options)
def evaluate_cmd(
    prompt_file, dataset, out_report, gap_report, dataset_name, engine_name,
    concurrency_cap, prompt_version, **backend_flags,
) -> None:
    """Score a prompt on a dataset with strict exact match."""
    for path in (prompt_file, dataset):
        if not Path(path).exists():
            raise click.UsageError(f"file not found: {path}")
    prompt = PromptVersion.create(
        Path(prompt_file).read_text(encoding="utf-8"), version=prompt_version
    )
    samples = load_dataset(dataset)
    gateway = _build_gateway(None, **backend_flags)
    try:
        report = evaluate(
            prompt, samples, gateway,
            concurrency_cap=concurrency_cap,
            dataset_name=dataset_name or Path(dataset).stem,
            engine_name=engine_name,
        )
    except PromptRegError as exc:
        click.echo(f"evaluation aborted: {exc}", err=True)
        sys.exit(1)
    if out_report:
        write_json(out_report, asdict(report))
    click.echo(f"accuracy={report.accuracy:.4f}")
    if gap_report:
        if not Path(gap_report).exists():
            raise click.UsageError(f"file not found: {gap_report}")
        other = json.loads(Path(gap_report).read_text(encoding="utf-8"))
        gap = other["accuracy"] - report.accuracy
        click.echo(f"gap={gap:+.4f}")


@main.group()
def rulebank() -> None:
    """Inspect persisted rule banks."""


@rulebank.command("show")
@click.option("--file", "path", required=True, type=click.Path())
def rulebank_show(path) -> None:
    if not Path(path).exists():
        raise click.UsageError(f"file not found: {path}")
    try:
        bank = load_rulebank(path)
    except PromptRegError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(summarize(bank))


@main.command()
@click.option("--run-dir", required=True, type=click.Path())
@click.option("--fixtures", required=True, type=click.Path())
@click.option("--replay-dir", type=click.Path(), default=None)
def replay(run_dir, fixtures, replay_dir) -> None:
    """Re-execute a recorded run through the scripted backend and diff it."""
    for path in (run_dir, fixtures):
        if not Path(path).exists():
            raise click.UsageError(f"not found: {path}")
    if replay_dir is None:
        replay_dir = str(Path(run_dir).with_name(Path(run_dir).name + ".replay"))
    try:
        diverged = replay_divergences(run_dir, fixtures, replay_dir)
    except PromptRegError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(f"{len(diverged)} divergences")
    if diverged:
        click.echo("diverged steps: " + ", ".join(str(s) for s in diverged))
        sys.exit(1)


if __name__ == "__main__":
    main()
