"""Per-step pipeline orchestration with validation-gated acceptance.

Each step runs: regularization diagnosis of the previous accepted transition,
mini-batch execution and gradient purification, an optional guided rewrite,
and a validation gate. All of it shares one call pool per run, bounded by
``concurrency_cap``, and is queued in this order: the batch's forward calls
first; the diagnosis behind them, since it reads only the last commit and is
first needed by the rewrite; then the last gate's unsent validation calls
are released from the pool's hold; rule canonicalization beside the rewrite
and the gate, since it feeds only the bank; the gate's own validation calls.
Validation calls are background work, which takes only slots no other call
waits for, in the order queued. The raw-gradient, purifier and rewrite
calls are made on the calling thread in slots of the pool, so they count
toward the cap too. At cap 1 every task runs inline, the diagnosis before
the forward calls, as it always has.

Above cap 1 the gate returns once its outcome is certain (``gate_outcome``),
with the pool's background work on hold, so the calls it has not sent wait,
still queued, for the next step's forward calls and diagnosis to be queued.
The step's trace line and commit need the full accuracy, so they are written
once those calls land, from a commit line taken when the step ended. Of the
steps after it, only the next gate's decision waits for that commit, since
its threshold is the accuracy: the next gate queues its own calls, behind
the unsent ones, before it waits, and a step without a gate does not wait
at all, its commit written behind the pending one. Each commit tells the
gateway its step (``Gateway.committed``), which holds back the transcript
lines of later steps but the next, so no transcript line of step t+1 comes
before commit t.

Every decision lands in an append-only trace so that a scripted run is
replayable byte-for-byte. State is committed after every step as one line
appended to a commit log, with the accepted prompt, the run's config, the
SHA-256 of its train and val files, the length of every step log and the
bank, so the commit log is the run's record of its accepted prompts. A run
resumes from the last complete line if that config and those files are its
own.
"""

from __future__ import annotations

import logging
import os
import random
from functools import lru_cache
from concurrent.futures import Executor, Future
from contextlib import closing, suppress
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterator, Optional

from .errors import ConfigError, DatasetError, RunStateError
from .evaluation import (CallPool, Decided, EvalReport, Sample, call_pool,
                         evaluate, load_dataset)
from .gateway import Gateway
from .jsonl import Appender, iter_jsonl, read_bytes, read_last_line
from .metrics import ChannelDiagnostics, PromptVersion
from .purification import ExecutionContext, run_purification_stage
from .regularization import diagnose, semantic_diff, synthesize_reg_gradient
from .rulebank import RuleBank, bank_document, bank_from_document, save_rulebank
# Unused here, but bench/tracing.py patches loop.load_rulebank beside
# loop.save_rulebank, and tests/test_bench_contract.py checks that both exist.
from .rulebank import load_rulebank  # noqa: F401
from .updater import apply_update

# CPython's own SHA-256, as random.py takes its SHA-512: hashlib loads
# OpenSSL, whose import time and memory a run need not pay for two digests.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

logger = logging.getLogger(__name__)

DEFAULT_INITIAL_PROMPT = (
    "You will answer reasoning questions. Think step by step, check each "
    "constraint, and finish with the final answer after 'Answer:'."
)

TRACE_FILE = "trace.jsonl"
STATE_FILE = "state.json"
RULEBANK_FILE = "rulebank.json"
TRANSCRIPT_FILE = "transcript.jsonl"
# Append-only logs whose length each commit line of state.json records.
STEP_LOGS = (TRACE_FILE, TRANSCRIPT_FILE)
# The diagnostics of a transition that left the prompt as it was.
IDENTITY_DIAGNOSTICS = ChannelDiagnostics(0.0, False, False, frozenset(), "0")


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
        # Written so that NaN fails too: every comparison with NaN is false.
        if not self.tau_c > -1:
            raise ConfigError("tau_c must exceed -1")
        if not self.acceptance_relaxation >= 0:
            raise ConfigError("acceptance_relaxation must be nonnegative")
        if self.concurrency_cap < 1:
            raise ConfigError("concurrency_cap must be at least 1")
        if self.val_subsample is not None and self.val_subsample < 1:
            raise ConfigError("val_subsample must be at least 1")
        if not self.initial_prompt.strip():
            raise ConfigError("initial_prompt must be nonempty")


# Cached, so that a run shuffles its train set once, not at every step.
@lru_cache(maxsize=8)
def batch_order(size: int, seed: int) -> tuple[int, ...]:
    """The seed-shuffled permutation of ``range(size)`` that every step's
    batch is a window over."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return tuple(order)


def next_batch(
    train: list[Sample], step: int, batch_size: int, seed: int
) -> list[Sample]:
    """Contiguous window over a seed-shuffled permutation, wrapping around."""
    if not train:
        raise ValueError("training dataset must be nonempty")
    order = batch_order(len(train), seed)
    start = (step * batch_size) % len(train)
    return [train[order[(start + i) % len(train)]] for i in range(batch_size)]


def gate_outcome(
    correct: int, remaining: int, n: int, threshold: float
) -> Optional[bool]:
    """The validation gate's outcome once no result still to land can change
    it: accepted once ``correct / n >= threshold``, rejected once even
    ``(correct + remaining) / n`` falls below it, else None. The accuracy is
    the same float expression at every count, and a larger count never
    gives a smaller one, so the outcome is the full accuracy's."""
    if correct / n >= threshold:
        return True
    if (correct + remaining) / n < threshold:
        return False
    return None


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


def _load_input(path: str) -> tuple[list[Sample], str]:
    """A dataset file's samples and the SHA-256 of its bytes, read once."""
    data = read_bytes(path, "dataset", DatasetError)
    return load_dataset(path, data), _sha256(data).hexdigest()


def _by_step(path: Path, what: str, key: str) -> Iterator[tuple[int, dict]]:
    """Each line of a run's JSONL file with the step it holds at ``key``; a
    line whose ``key`` is not an integer is refused."""
    for number, record in iter_jsonl(path, what, RunStateError):
        step = record.get(key)
        if type(step) is not int:
            raise RunStateError(
                f"{what} {path}: line {number}: {key} {step!r} is not an integer"
            )
        yield step, record


def _steps(run_dir: Path, what: str, last: int) -> dict[int, tuple[list, list]]:
    """The trace lines and the accepted prompts of each step of the run in
    ``run_dir``, whose last commit is at step ``last``. A commit line's
    ``current`` is accepted at its ``step_completed`` when it differs from
    the line before's, and the initial prompt counts as accepted at step 0.
    A trace line past ``last`` is of a step that never committed, so it is
    read but not kept, and with no step committed the trace may be
    missing."""
    steps: dict[int, tuple[list, list]] = {}
    previous = None
    path = run_dir / STATE_FILE
    for step, commit in _by_step(path, f"{what} run state", "step_completed"):
        current = commit.get("current")
        if current is None:
            raise RunStateError(
                f"{what} run state {path}: step {step} has no current prompt"
            )
        if current != previous:
            steps.setdefault(max(step, 0), ([], []))[1].append(current)
            previous = current
    path = run_dir / TRACE_FILE
    if last >= 0 or path.exists():
        for step, line in _by_step(path, f"{what} trace", "step"):
            if step <= last:
                steps.setdefault(step, ([], []))[0].append(line)
    return steps


class OptimizationRun:
    """One resumable optimization run bound to a run directory."""

    def __init__(self, config: RunConfig, gateway: Gateway) -> None:
        config.validate()
        self.config = config
        self.gateway = gateway
        self.run_dir = Path(config.run_dir)
        self.train, train_sha256 = _load_input(config.train_path)
        val, val_sha256 = _load_input(config.val_path)
        if config.val_subsample is not None:
            val = val[: config.val_subsample]
        self.val = val
        self.state: Optional[RunState] = None
        # The steps whose commits wait on the last gate decided with
        # validation calls still to land, in step order: that gate and the
        # function that writes its step's trace line and commit, then None
        # and that function for each gateless step after it.
        self._pending: list[tuple[Optional[Decided], Callable]] = []
        # The SHA-256 of each input file's bytes, by role, which a resume
        # or a replay compares with the commit's.
        self.input_sha256 = {"train": train_sha256, "val": val_sha256}
        # The path of each run file, joined once: every commit and resume
        # stats them.
        self._paths = {
            name: str(self.run_dir / name)
            for name in (STATE_FILE, RULEBANK_FILE, *STEP_LOGS)
        }

    # -- persistence ------------------------------------------------------

    def _log_size(self, name: str) -> int:
        try:
            return os.stat(self._paths[name]).st_size
        except FileNotFoundError:
            return 0

    def check_commit(self, commit: dict, where: str | Path) -> None:
        """Refuse a commit line, read from the commit log at ``where``, that
        is not this run's own: one made under another config (any field but
        ``run_dir``) or over train or val files of another SHA-256."""
        recorded = RunConfig(**commit["config"])
        changed = [
            f.name for f in fields(RunConfig)
            if f.name != "run_dir"
            and getattr(recorded, f.name) != getattr(self.config, f.name)
        ]
        if changed:
            raise RunStateError(
                f"config differs from {where}: " + ", ".join(changed)
            )
        digests = commit["input_sha256"]
        if not isinstance(digests, dict):
            raise RunStateError(
                f"run state unreadable: {where}: input_sha256 is {digests!r}"
            )
        for name, path in (("train", self.config.train_path),
                           ("val", self.config.val_path)):
            if digests.get(name) != self.input_sha256[name]:
                raise RunStateError(
                    f"{name} file {path} differs from the one recorded in "
                    f"{where}"
                )

    def _snapshot(self) -> dict:
        """The commit line of the state as it stands: state, config, input
        digests and bank. ``_commit`` fills in the rest."""
        state = self.state
        assert state is not None
        # vars(), not asdict(): this runs every step, and asdict deep-copies.
        # The bank's rules are shared, not copied: the bank changes only
        # after a gate, and a gate first commits every step before it.
        return dict(
            vars(state),
            current=vars(state.current),
            previous=vars(state.previous) if state.previous else None,
            contexts=[vars(c) for c in state.contexts],
            bank=bank_document(state.bank),
            config=vars(self.config),
            input_sha256=self.input_sha256,
        )

    def _commit(self, commit_log: Appender, line: dict) -> None:
        """Append the commit line ``line``, a ``_snapshot``, with the scores
        as they stand now and the step logs' lengths, and let the gateway
        append the next step's transcript lines."""
        state = self.state
        line.update(
            current_val=state.current_val,
            best=vars(state.best),
            best_val=state.best_val,
            log_bytes={name: self._log_size(name) for name in STEP_LOGS},
        )
        commit_log.append(line)
        self.gateway.committed(line["step_completed"])

    def _resume(self) -> Optional[RunState]:
        """Load the last commit, refuse it if it is not this run's own, and
        cut state.json and every step log back to it. A state.json that is
        missing or holds no complete line counts as a commit of empty step
        logs, and gives None."""
        state_path = self._paths[STATE_FILE]

        def build(document: dict) -> tuple[RunState, dict[str, int]]:
            self.check_commit(document, state_path)
            del document["config"], document["input_sha256"]
            log_bytes = document.pop("log_bytes")
            committed = {name: log_bytes[name] for name in STEP_LOGS}
            for name, length in committed.items():
                if type(length) is not int or length < 0:
                    raise ValueError(
                        f"log_bytes {name} is {length!r}, not a byte count"
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
                "bank": bank_from_document(document["bank"]),
            }), committed

        size = self._log_size(STATE_FILE)
        found, end = read_last_line(
            state_path, "run state", RunStateError, build
        ) if size else (None, 0)
        # A line torn by a crash inside its write is no commit.
        if size > end:
            os.truncate(state_path, end)
        state, committed = found or (None, dict.fromkeys(STEP_LOGS, 0))
        for name, length in committed.items():
            size = self._log_size(name)
            if size < length:
                raise RunStateError(
                    f"{self._paths[name]} holds {size} bytes, fewer than "
                    f"the {length} committed in {STATE_FILE}"
                )
            if size > length:
                os.truncate(self._paths[name], length)
        return state

    # -- pipeline ---------------------------------------------------------

    def _initialize(self, pool: Executor) -> None:
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

    def _regularization_phase(self, step: int) -> tuple[Optional[object], dict]:
        state = self.state
        if state.previous is None:
            return None, {"status": "skipped_no_transition"}
        if state.previous.text == state.current.text:
            # Nothing changed, so neither channel can have degraded; no
            # analyzer or generator call is made.
            status, diag, reg = "identity_transition", IDENTITY_DIAGNOSTICS, None
        else:
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
            status = "diagnosed"
        return reg, {
            "status": status,
            "rho_c": diag.rho_c,
            "b_c": diag.b_c,
            "b_w": diag.b_w,
            "active": sorted(channel.value for channel in diag.active),
            "mode": reg.mode if reg is not None else None,
            "reg_present": reg is not None,
        }

    def _step(self, step: int, pool: Executor, trace_log: Appender,
              commit_log: Appender) -> None:
        state = self.state
        batch = next_batch(
            self.train, step, self.config.batch_size, self.config.seed
        )
        # The diagnosis is first needed by the rewrite, two calls after the
        # batch's forward calls, so it queues behind them, and only then is
        # the hold on the last gate's unsent validation calls released.
        # Nothing below commits a step or changes the bank before the gate.
        diagnosis: list[Future] = []

        def queued() -> None:
            diagnosis.append(pool.submit(self._regularization_phase, step))
            pool.hold(False)

        stage1 = run_purification_stage(
            state.current, batch, state.bank, self.gateway, step, pool, queued
        )
        trace: dict = {
            "step": step,
            "batch_accuracy": stage1.batch_accuracy,
            "gradient_accepted": stage1.task_gradient is not None,
        }
        gate = None
        if stage1.task_gradient is None:
            trace["ser"] = diagnosis[0].result()[1]
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
            # The rewrite's slot is asked for while the diagnosis runs.
            with pool.slot(diagnosis[0].result) as (reg, trace["ser"]):
                candidate = apply_update(
                    state.current,
                    stage1.task_gradient,
                    reg,
                    self.gateway,
                    step,
                )
            # The gate's calls queue behind the last gate's unsent ones, and
            # only its decision waits for the commits those hold back, which
            # set the threshold.
            decided = isinstance(pool, CallPool)
            n, relaxation = len(self.val), self.config.acceptance_relaxation
            gate = evaluate(
                candidate, self.val, self.gateway, step=step,
                dataset_name="val", pool=pool, on_queued=self._settle,
                decide=(lambda correct, remaining: gate_outcome(
                    correct, remaining, n, state.current_val - relaxation))
                if decided else None,
            )
            accepted = (gate.outcome if decided
                        else gate.accuracy >= state.current_val - relaxation)
            trace.update(
                update="applied",
                candidate_version=candidate.version,
                accepted=accepted,
            )
            if accepted:
                state.previous, state.contexts = state.current, stage1.contexts
                state.current = candidate
            # Rejected candidates leave current, the cached validation score,
            # and the previous transition untouched; bank updates remain.

        # Neither the rewrite nor the gate reads the bank, so canonicalization
        # could run beside them; its ops land only now.
        ops = stage1.apply_bank_ops(state.bank, step)
        trace["bank_ops"] = [vars(op) for op in ops]
        trace["version_after"] = state.current.version
        state.step_completed = step
        line = self._snapshot()

        def finish(report: Optional[EvalReport]) -> None:
            """Write the step's trace line and commit, given the full
            validation report of its candidate, if any."""
            if report is not None:
                trace["candidate_val"] = report.accuracy
                if trace["accepted"]:
                    state.current_val = report.accuracy
                    if report.accuracy > state.best_val:
                        state.best = candidate
                        state.best_val = report.accuracy
            trace["current_val"] = state.current_val
            trace_log.append(trace)
            self._commit(commit_log, line)

        # While this gate's unsent validation calls, held until the next
        # step's forward calls and diagnosis are queued, are still to land,
        # the next step starts now and this one commits once they land; so
        # does a gateless step behind it (a gate settles before it decides).
        if self._pending or isinstance(gate, Decided) and not gate.landed():
            self._pending.append((gate, finish))
        else:
            finish(gate.report() if isinstance(gate, Decided) else gate)

    def _settle(self) -> None:
        """Wait for the pending gate's validation to land, then write the
        trace line and commit of its step and of each gateless step behind
        it."""
        if not self._pending:
            return
        ((gate, finish), *gateless), self._pending = self._pending, []
        finish(gate.report())
        for _, finish in gateless:
            finish(None)

    def run(self, stop_after_step: Optional[int] = None) -> dict:
        """Execute (or resume) the configured number of steps, or those
        through ``stop_after_step`` (-1 for none past the initial
        evaluation), committing after each, then release the gateway's
        transcript (a later call opens it again) and write the bank to
        rulebank.json."""
        # On an error the pool's exit waits for the calls still in flight, so
        # their transcript lines land before a resume cuts them back, and
        # before the transcript is released. The logs open on their first
        # line, after any cut-back below.
        paths = self._paths
        with closing(self.gateway), \
                call_pool(self.config.concurrency_cap) as pool, \
                closing(Appender(paths[TRACE_FILE])) as trace_log, \
                closing(Appender(paths[STATE_FILE])) as commit_log:
            try:
                self.run_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # say, a file where a directory must be
                raise RunStateError(
                    f"cannot make run directory {self.run_dir}: {exc.strerror}"
                ) from exc
            self.state = self._resume()
            if self.state is None:
                self._initialize(pool)
                self._commit(commit_log, self._snapshot())
            else:
                logger.info(
                    "resuming from step %d", self.state.step_completed + 1
                )
                self.gateway.committed(self.state.step_completed)
            end = self.config.iterations
            if stop_after_step is not None:
                end = min(end, stop_after_step + 1)
            try:
                for step in range(self.state.step_completed + 1, end):
                    self._step(step, pool, trace_log, commit_log)
                pool.hold(False)  # no next step to queue behind
                self._settle()
            except BaseException:
                # Every queued call runs, those on hold too. The pending
                # steps commit if their gate's calls all succeeded, so a
                # resume sends none of them again. The error that stopped
                # the run is the one raised, not one of that commit.
                pool.hold(False)
                with suppress(Exception):
                    self._settle()
                raise
        state = self.state
        save_rulebank(state.bank, paths[RULEBANK_FILE])
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
    """Re-execute a recorded run against fixtures, through its last commit,
    and diff its decision trace and accepted prompts.

    Returns the steps at which the replayed trace differs from the recorded
    one (including steps present in only one of the two), and the steps at
    which the two runs' commit logs accepted different prompts.
    """
    run_dir, replay_dir = Path(run_dir), Path(replay_dir)
    if any((replay_dir / name).exists() for name in (STATE_FILE, TRACE_FILE)):
        # Running into it would resume the old replay, not re-execute.
        raise RunStateError(f"replay directory already holds a run: {replay_dir}")
    state_path = run_dir / STATE_FILE
    with closing(Gateway.scripted(
        fixtures_path, transcript_path=replay_dir / TRANSCRIPT_FILE
    )) as gateway:

        def build(commit: dict) -> tuple[OptimizationRun, int]:
            config = RunConfig(**commit["config"])
            run = OptimizationRun(replace(config, run_dir=str(replay_dir)),
                                  gateway)
            run.check_commit(commit, state_path)
            return run, commit["step_completed"]

        found, _ = read_last_line(state_path, "run state", RunStateError, build)
        if found is None:
            raise RunStateError(f"run state unreadable: {state_path}: no commit")
        run, last = found
        # An unreadable recorded trace or commit log is refused before
        # anything runs.
        recorded = _steps(run_dir, "recorded", last)
        run.run(stop_after_step=last)
    replayed = _steps(replay_dir, "replayed", last)
    return sorted(
        step for step in recorded.keys() | replayed.keys()
        if recorded.get(step) != replayed.get(step)
    )
