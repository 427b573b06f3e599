"""Per-step pipeline orchestration with validation-gated acceptance.

Each step runs: regularization diagnosis of the previous accepted transition,
mini-batch execution and gradient purification, an optional guided rewrite,
and a validation gate. Every decision lands in an append-only trace so that a
scripted run is replayable byte-for-byte. State is persisted after every step
and a run can resume from the last completed step.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigError, RunStateError
from .evaluation import Sample, evaluate, load_dataset
from .gateway import Gateway
from .metrics import PromptVersion
from .purification import ExecutionContext, run_purification_stage
from .regularization import (
    NEUTRAL_DIFF,
    diagnose,
    semantic_diff,
    synthesize_reg_gradient,
)
from .rulebank import RuleBank, load_rulebank, save_rulebank, write_json
from .updater import (
    DEFAULT_ROLE_DESC,
    UpdateTags,
    apply_update,
    noop_guard,
)

logger = logging.getLogger(__name__)

DEFAULT_INITIAL_PROMPT = (
    "You will answer reasoning questions. Think step by step, check each "
    "constraint, and finish with the final answer after 'Answer:'."
)

TRACE_FILE = "trace.jsonl"
METRICS_FILE = "metrics.jsonl"
STATE_FILE = "state.json"
RULEBANK_FILE = "rulebank.json"
CONFIG_SNAPSHOT_FILE = "config.snapshot"
TRANSCRIPT_FILE = "transcript.jsonl"


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
    role_desc: str = DEFAULT_ROLE_DESC
    tags: UpdateTags = UpdateTags()
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
        if not self.initial_prompt.strip():
            raise ConfigError("initial_prompt must be nonempty")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**{**data, "tags": UpdateTags(**data["tags"])})


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


@dataclass(frozen=True)
class Transition:
    prev: PromptVersion
    curr: PromptVersion
    contexts: tuple[ExecutionContext, ...]

    @property
    def is_identity(self) -> bool:
        return self.prev.text == self.curr.text


@dataclass
class RunState:
    current: PromptVersion
    best: PromptVersion
    best_val: float
    current_val: float
    bank: RuleBank
    last_transition: Optional[Transition]
    step_completed: int  # -1 before the first step


def _load_snapshot(run_dir: Path) -> RunConfig:
    path = run_dir / CONFIG_SNAPSHOT_FILE
    try:
        return RunConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RunStateError(f"{path} unreadable: {exc}") from exc


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

    def _save_state(self) -> None:
        state = self.state
        assert state is not None
        save_rulebank(state.bank, self.run_dir / RULEBANK_FILE)
        # vars(), not asdict(): this runs every step, and asdict deep-copies.
        document = dict(vars(state), current=vars(state.current),
                        best=vars(state.best))
        del document["bank"]
        transition = state.last_transition
        if transition is not None:
            document["last_transition"] = {
                "prev": vars(transition.prev),
                "curr": vars(transition.curr),
                "contexts": [vars(c) for c in transition.contexts],
            }
        write_json(self._state_path(), document)

    def _load_state(self) -> RunState:
        try:
            document = json.loads(self._state_path().read_text(encoding="utf-8"))
            transition = document["last_transition"]
            if transition is not None:
                transition = Transition(
                    prev=PromptVersion(**transition["prev"]),
                    curr=PromptVersion(**transition["curr"]),
                    contexts=tuple(
                        ExecutionContext(**c) for c in transition["contexts"]
                    ),
                )
            return RunState(**{
                **document,
                "current": PromptVersion(**document["current"]),
                "best": PromptVersion(**document["best"]),
                "bank": load_rulebank(self.run_dir / RULEBANK_FILE),
                "last_transition": transition,
            })
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise RunStateError(
                f"run state unreadable in {self.run_dir}: {exc}"
            ) from exc

    def _check_snapshot(self) -> None:
        """Refuse to resume a run under a config other than its own."""
        snapshot = _load_snapshot(self.run_dir)
        changed = [
            f.name for f in fields(RunConfig)
            if f.name != "run_dir"
            and getattr(snapshot, f.name) != getattr(self.config, f.name)
        ]
        if changed:
            raise RunStateError(
                f"config differs from {CONFIG_SNAPSHOT_FILE} in {self.run_dir}: "
                + ", ".join(changed)
            )

    def _truncate_log(self, name: str, step_completed: int) -> None:
        path = self.run_dir / name
        if not path.exists():
            return
        kept = []
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            if json.loads(line)["step"] <= step_completed:
                kept.append(line)
        path.write_text(
            "".join(entry + "\n" for entry in kept), encoding="utf-8"
        )

    def _append_log(self, name: str, entry: dict) -> None:
        with open(self.run_dir / name, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def _write_prompt_file(self, prompt: PromptVersion) -> None:
        path = self.run_dir / f"prompt_v{prompt.version}.txt"
        path.write_text(prompt.text, encoding="utf-8")

    # -- pipeline ---------------------------------------------------------

    def _initialize(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.run_dir / CONFIG_SNAPSHOT_FILE, asdict(self.config))
        current = PromptVersion.create(self.config.initial_prompt, version=0)
        self._write_prompt_file(current)
        initial_report = evaluate(
            current, self.val, self.gateway,
            step=0, concurrency_cap=self.config.concurrency_cap,
            dataset_name="val",
        )
        self.state = RunState(
            current=current,
            best=current,
            best_val=initial_report.accuracy,
            current_val=initial_report.accuracy,
            bank=RuleBank(),
            last_transition=None,
            step_completed=-1,
        )
        self._save_state()

    def _regularization_phase(self, step: int) -> tuple[Optional[object], dict]:
        state = self.state
        transition = state.last_transition
        if transition is None:
            return None, {"status": "skipped_no_transition"}
        if transition.is_identity:
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
            transition.prev,
            transition.curr,
            state.bank,
            transition.contexts,
            self.config.initial_prompt,
            self.gateway,
            step,
        )
        diag = diagnose(transition.prev, transition.curr, diff, self.config.tau_c)
        reg = synthesize_reg_gradient(
            diag, diff, transition.curr, self.gateway, step
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

    def _step(self, step: int) -> None:
        state = self.state
        reg, ser_record = self._regularization_phase(step)

        batch = next_batch(
            self.train, step, self.config.batch_size, self.config.seed
        )
        stage1 = run_purification_stage(
            state.current, batch, state.bank, self.gateway, step,
            self.config.concurrency_cap,
        )

        trace: dict = {
            "step": step,
            "ser": ser_record,
            "batch_accuracy": stage1.batch_accuracy,
            "gradient_accepted": stage1.accepted,
            "bank_ops": [
                {
                    "kind": op.kind,
                    "rule_id": op.rule_id,
                    "canonical_description": op.canonical_description,
                }
                for op in stage1.applied_ops
            ],
        }

        if not noop_guard(stage1.task_gradient):
            # No surviving task signal: the prompt is unchanged and the next
            # step sees an identity transition.
            state.last_transition = Transition(
                prev=state.current, curr=state.current, contexts=stage1.contexts
            )
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
                role_desc=self.config.role_desc,
                tags=self.config.tags,
            )
            report = evaluate(
                candidate, self.val, self.gateway,
                step=step, concurrency_cap=self.config.concurrency_cap,
                dataset_name="val",
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
                state.last_transition = Transition(
                    prev=state.current, curr=candidate, contexts=stage1.contexts
                )
                state.current = candidate
                state.current_val = report.accuracy
                self._write_prompt_file(candidate)
                if report.accuracy > state.best_val:
                    state.best = candidate
                    state.best_val = report.accuracy
            # Rejected candidates leave current, the cached validation score,
            # and the previous transition untouched; bank updates remain.

        trace["current_val"] = state.current_val
        trace["version_after"] = state.current.version
        self._append_log(TRACE_FILE, trace)
        self._append_log(
            METRICS_FILE,
            {
                "step": step,
                "batch_accuracy": stage1.batch_accuracy,
                "val_accuracy": state.current_val,
                "rho_c": ser_record.get("rho_c"),
                "active": ser_record.get("active", []),
                "accepted": trace["accepted"],
                "version": state.current.version,
            },
        )
        state.step_completed = step
        self._save_state()

    def run(self, stop_after_step: Optional[int] = None) -> dict:
        """Execute (or resume) the configured number of steps."""
        if self._state_path().exists():
            self._check_snapshot()
            self.state = self._load_state()
            self._truncate_log(TRACE_FILE, self.state.step_completed)
            self._truncate_log(METRICS_FILE, self.state.step_completed)
            logger.info(
                "resuming from step %d", self.state.step_completed + 1
            )
        else:
            self._initialize()
        first = self.state.step_completed + 1
        for step in range(first, self.config.iterations):
            self._step(step)
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
    config = replace(_load_snapshot(run_dir), run_dir=str(replay_dir))
    gateway = Gateway.scripted(
        fixtures_path, transcript_path=replay_dir / TRANSCRIPT_FILE
    )
    OptimizationRun(config, gateway).run()

    def trace_by_step(path: Path) -> dict[int, str]:
        entries = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                entries[json.loads(line)["step"]] = line
        return entries

    recorded = trace_by_step(run_dir / TRACE_FILE)
    replayed = trace_by_step(replay_dir / TRACE_FILE)
    diverged = [
        step
        for step in sorted(set(recorded) | set(replayed))
        if recorded.get(step) != replayed.get(step)
    ]
    return diverged
