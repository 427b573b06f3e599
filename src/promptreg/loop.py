"""Per-step pipeline orchestration with validation-gated acceptance.

Each step runs: regularization diagnosis of the previous accepted transition,
mini-batch execution and gradient purification, an optional guided rewrite,
and a validation gate. The diagnosis reads only the last commit, so it runs
beside stage 1; rule canonicalization feeds only the bank, so it runs beside
the rewrite and the gate. All of it shares one call pool per run, bounded by
``concurrency_cap``. Every decision lands in an append-only trace so that a
scripted run is replayable byte-for-byte, and every accepted prompt in an
append-only prompt log. State is committed after every step, with the run's
config, the length of every step log and a record of the bank, and a run
resumes from the last commit if that config is its own.
"""

from __future__ import annotations

import logging
import os
import random
from concurrent.futures import Executor
from contextlib import closing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigError, RunStateError
from .evaluation import Sample, call_pool, evaluate, load_dataset
from .gateway import Gateway
from .jsonl import Appender, iter_jsonl, read_json, write_json
from .metrics import PromptVersion
from .purification import ExecutionContext, run_purification_stage
from .regularization import diagnose, semantic_diff, synthesize_reg_gradient
from .rulebank import (
    RuleBank,
    RuleBankOp,
    catch_up,
    commit_record,
    load_rulebank,
    save_rulebank,
)
from .updater import apply_update

logger = logging.getLogger(__name__)

DEFAULT_INITIAL_PROMPT = (
    "You will answer reasoning questions. Think step by step, check each "
    "constraint, and finish with the final answer after 'Answer:'."
)

TRACE_FILE = "trace.jsonl"
STATE_FILE = "state.json"
RULEBANK_FILE = "rulebank.json"
TRANSCRIPT_FILE = "transcript.jsonl"
PROMPTS_FILE = "prompts.jsonl"
# Append-only logs that state.json records the committed length of.
STEP_LOGS = (TRACE_FILE, TRANSCRIPT_FILE, PROMPTS_FILE)


@dataclass(frozen=True)
class RunConfig:
    train_path: str
    val_path: str
    run_dir: str
    batch_size: int = 3
    iterations: int = 12
    tau_c: float = 0.2
    acceptance_relaxation: float = 0.0
    seed: int = 0
    initial_prompt: str = DEFAULT_INITIAL_PROMPT
    concurrency_cap: int = 1
    val_subsample: Optional[int] = None

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.tau_c <= -1:
            raise ConfigError("tau_c must exceed -1")
        if self.acceptance_relaxation < 0:
            raise ConfigError("acceptance_relaxation must be nonnegative")
        if self.concurrency_cap < 1:
            raise ConfigError("concurrency_cap must be at least 1")
        if self.val_subsample is not None and self.val_subsample < 1:
            raise ConfigError("val_subsample must be at least 1")
        if not self.initial_prompt.strip():
            raise ConfigError("initial_prompt must be nonempty")


def next_batch(
    train: list[Sample], step: int, batch_size: int, seed: int
) -> list[Sample]:
    """Contiguous window over a seed-shuffled permutation, wrapping around."""
    if not train:
        raise ValueError("training dataset must be nonempty")
    order = list(range(len(train)))
    random.Random(seed).shuffle(order)
    start = (step * batch_size) % len(train)
    return [train[order[(start + i) % len(train)]] for i in range(batch_size)]


@dataclass
class RunState:
    current: PromptVersion
    best: PromptVersion
    best_val: float
    current_val: float
    bank: RuleBank
    # The last realized transition is previous -> current, made on the batch
    # records in contexts; previous is None before the first step.
    previous: Optional[PromptVersion]
    contexts: tuple[ExecutionContext, ...]
    step_completed: int  # -1 before the first step


def _trace_by_step(path: Path, what: str) -> dict[int, dict]:
    entries = {}
    for number, record in iter_jsonl(path, what, RunStateError):
        step = record.get("step")
        if type(step) is not int:
            raise RunStateError(
                f"{what} {path}: line {number}: step {step!r} is not an integer"
            )
        entries[step] = record
    return entries


class OptimizationRun:
    """One resumable optimization run bound to a run directory."""

    def __init__(self, config: RunConfig, gateway: Gateway) -> None:
        config.validate()
        self.config = config
        self.gateway = gateway
        self.run_dir = Path(config.run_dir)
        self.train = load_dataset(config.train_path)
        val = load_dataset(config.val_path)
        if config.val_subsample is not None:
            val = val[: config.val_subsample]
        self.val = val
        self.state: Optional[RunState] = None

    # -- persistence ------------------------------------------------------

    def _state_path(self) -> Path:
        return self.run_dir / STATE_FILE

    def _log_size(self, name: str) -> int:
        path = self.run_dir / name
        return path.stat().st_size if path.exists() else 0

    def _save_state(self, ops: tuple[RuleBankOp, ...] = ()) -> None:
        """Commit the step: state, config, step log lengths and a record of
        the bank and the step's ``ops``, then the bank. A crash between the
        two writes leaves the bank one commit behind, and a resume brings it
        forward by the record."""
        state = self.state
        assert state is not None
        # vars(), not asdict(): this runs every step, and asdict deep-copies.
        document = dict(
            vars(state),
            current=vars(state.current),
            best=vars(state.best),
            previous=vars(state.previous) if state.previous else None,
            contexts=[vars(c) for c in state.contexts],
            config=vars(self.config),
            log_bytes={name: self._log_size(name) for name in STEP_LOGS},
            bank_commit=commit_record(state.bank, ops),
        )
        del document["bank"]
        write_json(self._state_path(), document)
        save_rulebank(state.bank, self.run_dir / RULEBANK_FILE)

    def _committed_bank(self, record: dict, step: int) -> RuleBank:
        """The bank of the commit ``record`` describes; a bank file one
        commit behind it is brought forward and saved."""
        path = self.run_dir / RULEBANK_FILE
        # Only a crash inside the first commit leaves no bank file; the bank
        # before that commit is the empty one.
        bank = load_rulebank(path) if path.exists() else RuleBank()
        try:
            behind = catch_up(bank, record, step)
        except ValueError as exc:
            raise RunStateError(
                f"{path} is neither the bank {STATE_FILE} committed nor one "
                "commit behind it"
            ) from exc
        if behind:
            save_rulebank(bank, path)
        return bank

    def _resume(self) -> RunState:
        """Load the last commit, refuse it if it was made under a config
        other than this run's, bring the bank file to it, and cut every step
        log back to its length."""

        def build(document: dict) -> tuple[RunState, list[tuple[str, int]]]:
            recorded = RunConfig(**document.pop("config"))
            changed = [
                f.name for f in fields(RunConfig)
                if f.name != "run_dir"
                and getattr(recorded, f.name) != getattr(self.config, f.name)
            ]
            if changed:
                raise RunStateError(
                    f"config differs from {self._state_path()}: "
                    + ", ".join(changed)
                )
            log_bytes = document.pop("log_bytes")
            committed = [(name, int(log_bytes[name])) for name in STEP_LOGS]
            bank = self._committed_bank(
                document.pop("bank_commit"), document["step_completed"]
            )
            previous = document["previous"]
            return RunState(**{
                **document,
                "current": PromptVersion(**document["current"]),
                "best": PromptVersion(**document["best"]),
                "previous": PromptVersion(**previous) if previous else None,
                "contexts": tuple(
                    ExecutionContext(**c) for c in document["contexts"]
                ),
                "bank": bank,
            }), committed

        state, committed = read_json(
            self._state_path(), "run state", RunStateError, build
        )
        for name, length in committed:
            size = self._log_size(name)
            if size < length:
                raise RunStateError(
                    f"{self.run_dir / name} holds {size} bytes, fewer than "
                    f"the {length} committed in {STATE_FILE}"
                )
            if size > length:
                os.truncate(self.run_dir / name, length)
        return state

    # -- pipeline ---------------------------------------------------------

    def _initialize(self, pool: Executor, prompt_log: Appender) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # A start that failed before its first commit left logs but no
        # state.json to cut them back by; this start logs anew.
        for name in STEP_LOGS:
            if self._log_size(name):
                os.truncate(self.run_dir / name, 0)
        current = PromptVersion.create(self.config.initial_prompt, version=0)
        initial_report = evaluate(
            current, self.val, self.gateway, step=0, dataset_name="val",
            pool=pool,
        )
        self.state = RunState(
            current=current,
            best=current,
            best_val=initial_report.accuracy,
            current_val=initial_report.accuracy,
            bank=RuleBank(),
            previous=None,
            contexts=(),
            step_completed=-1,
        )
        prompt_log.append(vars(current))
        self._save_state()

    def _regularization_phase(self, step: int) -> tuple[Optional[object], dict]:
        state = self.state
        if state.previous is None:
            return None, {"status": "skipped_no_transition"}
        if state.previous.text == state.current.text:
            # Nothing changed, so neither channel can have degraded; no
            # analyzer or generator call is made.
            return None, {
                "status": "identity_transition",
                "rho_c": 0.0,
                "b_c": False,
                "b_w": False,
                "active": [],
                "mode": None,
                "reg_present": False,
            }
        diff = semantic_diff(
            state.previous,
            state.current,
            state.bank,
            state.contexts,
            self.config.initial_prompt,
            self.gateway,
            step,
        )
        diag = diagnose(state.previous, state.current, diff, self.config.tau_c)
        reg = synthesize_reg_gradient(
            diag, diff, state.current, self.gateway, step
        )
        record = {
            "status": "diagnosed",
            "rho_c": diag.rho_c,
            "b_c": diag.b_c,
            "b_w": diag.b_w,
            "active": sorted(channel.value for channel in diag.active),
            "mode": reg.mode if reg is not None else None,
            "reg_present": reg is not None,
        }
        return reg, record

    def _step(
        self, step: int, pool: Executor, trace_log: Appender,
        prompt_log: Appender,
    ) -> None:
        state = self.state
        # Nothing below changes state or the bank before this is joined.
        diagnosis = pool.submit(self._regularization_phase, step)

        batch = next_batch(
            self.train, step, self.config.batch_size, self.config.seed
        )
        stage1 = run_purification_stage(
            state.current, batch, state.bank, self.gateway, step, pool
        )
        reg, ser_record = diagnosis.result()

        trace: dict = {
            "step": step,
            "ser": ser_record,
            "batch_accuracy": stage1.batch_accuracy,
            "gradient_accepted": stage1.task_gradient is not None,
        }

        if stage1.task_gradient is None:
            # No surviving task signal: the prompt is unchanged and the next
            # step sees an identity transition.
            state.previous, state.contexts = state.current, stage1.contexts
            trace.update(
                update="skipped_empty_gradient",
                candidate_version=None,
                candidate_val=None,
                accepted=None,
            )
        else:
            candidate = apply_update(
                state.current,
                stage1.task_gradient,
                reg,
                self.gateway,
                step,
            )
            report = evaluate(
                candidate, self.val, self.gateway, step=step,
                dataset_name="val", pool=pool,
            )
            accepted = report.accuracy >= (
                state.current_val - self.config.acceptance_relaxation
            )
            trace.update(
                update="applied",
                candidate_version=candidate.version,
                candidate_val=report.accuracy,
                accepted=accepted,
            )
            if accepted:
                prompt_log.append(vars(candidate))
                state.previous, state.contexts = state.current, stage1.contexts
                state.current = candidate
                state.current_val = report.accuracy
                if report.accuracy > state.best_val:
                    state.best = candidate
                    state.best_val = report.accuracy
            # Rejected candidates leave current, the cached validation score,
            # and the previous transition untouched; bank updates remain.

        # Neither the rewrite nor the gate reads the bank, so canonicalization
        # could run beside them; its ops land only now.
        ops = stage1.apply_bank_ops(state.bank, step)
        trace["bank_ops"] = [vars(op) for op in ops]
        trace["current_val"] = state.current_val
        trace["version_after"] = state.current.version
        trace_log.append(trace)
        state.step_completed = step
        self._save_state(ops)

    def run(self, stop_after_step: Optional[int] = None) -> dict:
        """Execute (or resume) the configured number of steps, then release
        the gateway's transcript (a later call opens it again)."""
        # On an error the pool's exit waits for the calls still in flight, so
        # their transcript lines land before a resume cuts them back, and
        # before the transcript is released. The trace and the prompt log
        # open on their first line, after any cut-back below.
        with closing(self.gateway), \
                call_pool(self.config.concurrency_cap) as pool, \
                closing(Appender(self.run_dir / TRACE_FILE)) as trace_log, \
                closing(Appender(self.run_dir / PROMPTS_FILE)) as prompt_log:
            if self._state_path().exists():
                self.state = self._resume()
                logger.info(
                    "resuming from step %d", self.state.step_completed + 1
                )
            else:
                self._initialize(pool, prompt_log)
            first = self.state.step_completed + 1
            for step in range(first, self.config.iterations):
                self._step(step, pool, trace_log, prompt_log)
                if stop_after_step is not None and step >= stop_after_step:
                    break
        state = self.state
        return {
            "current": asdict(state.current),
            "best": asdict(state.best),
            "best_val": state.best_val,
            "current_val": state.current_val,
            "steps_completed": state.step_completed + 1,
            "rules": len(state.bank.entries),
        }


def run_optimization(config: RunConfig, gateway: Gateway) -> dict:
    return OptimizationRun(config, gateway).run()


def replay_divergences(
    run_dir: str | Path, fixtures_path: str | Path, replay_dir: str | Path
) -> list[int]:
    """Re-execute a recorded run against fixtures and diff the decision traces.

    Returns the steps at which the replayed trace differs from the recorded
    one (including steps present in only one of the two).
    """
    run_dir, replay_dir = Path(run_dir), Path(replay_dir)
    if any((replay_dir / name).exists() for name in (STATE_FILE, TRACE_FILE)):
        # Running into it would resume the old replay, not re-execute.
        raise RunStateError(f"replay directory already holds a run: {replay_dir}")
    config = read_json(
        run_dir / STATE_FILE, "run state", RunStateError,
        lambda document: replace(
            RunConfig(**document["config"]), run_dir=str(replay_dir)
        ),
    )
    # An unreadable recorded trace is refused before anything runs.
    recorded = _trace_by_step(run_dir / TRACE_FILE, "recorded trace")
    with closing(Gateway.scripted(
        fixtures_path, transcript_path=replay_dir / TRANSCRIPT_FILE
    )) as gateway:
        OptimizationRun(config, gateway).run()
    replayed = _trace_by_step(replay_dir / TRACE_FILE, "replayed trace")
    diverged = [
        step
        for step in sorted(set(recorded) | set(replayed))
        if recorded.get(step) != replayed.get(step)
    ]
    return diverged
