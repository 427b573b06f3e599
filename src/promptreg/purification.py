"""Stage 1: raw textual gradients from mini-batch execution, filtered by the
dual-evidence projection, with accepted rules folded into the rule bank.

A raw gradient that the purifier rejects contributes nothing downstream: no
task-gradient text and no rule-bank operations. The rule bank is mutated only
here, and only after acceptance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import evaluation, templates
from .errors import MalformedOutputError
from .evaluation import Sample
from .gateway import ChatRequest, Gateway, Role
from .metrics import PromptVersion
from .rulebank import RuleBank, RuleBankOp, apply_ops, canonicalize_and_match, summarize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExecutionContext:
    sample_input: str
    model_output: str
    expected: str
    correct: bool


@dataclass(frozen=True)
class RawGradient:
    text: str
    contexts: tuple[ExecutionContext, ...]
    step: int


@dataclass(frozen=True)
class PurifiedGradient:
    text: str
    source_step: int

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("purified gradient text must be nonempty")


def format_contexts(contexts: tuple[ExecutionContext, ...] | list) -> str:
    blocks = []
    for i, ctx in enumerate(contexts, start=1):
        verdict = "correct" if ctx.correct else "incorrect"
        blocks.append(
            f"[Example {i}]\n"
            f"Input: {ctx.sample_input}\n"
            f"Model output: {ctx.model_output}\n"
            f"Expected answer: {ctx.expected}\n"
            f"Verdict: {verdict}"
        )
    return "\n\n".join(blocks)


def forward_eval(
    prompt: PromptVersion,
    batch: list[Sample],
    gateway: Gateway,
    step: int,
    concurrency_cap: int = 1,
) -> list[ExecutionContext]:
    """Run the prompt on each batch sample via the forward engine.

    ``evaluate`` is looked up on its module at call time, so a wrapper
    installed on ``evaluation.evaluate`` also sees the stage-1 batch.
    """
    report = evaluation.evaluate(
        prompt, batch, gateway, step=step, concurrency_cap=concurrency_cap
    )
    return [
        ExecutionContext(
            sample_input=sample.question,
            model_output=result.raw_output,
            expected=sample.answer,
            correct=result.correct,
        )
        for sample, result in zip(batch, report.per_sample)
    ]


def generate_raw_gradient(
    prompt: PromptVersion,
    contexts: list[ExecutionContext],
    gateway: Gateway,
    step: int,
) -> RawGradient:
    """Ask the gradient engine to critique the prompt given the batch records."""
    if not contexts:
        raise ValueError("contexts must be nonempty")
    user = templates.render_asset(
        templates.RAW_GRADIENT,
        current_prompt=prompt.text,
        gradient_context=format_contexts(contexts),
    )
    request = ChatRequest(role=Role.GRADIENT, system="", user=user, step=step)
    text = gateway.complete(request)
    return RawGradient(text=text, contexts=tuple(contexts), step=step)


def purify(
    raw: RawGradient,
    bank: RuleBank,
    prompt: PromptVersion,
    gateway: Gateway,
) -> Optional[PurifiedGradient]:
    """Dual-evidence projection: returns None when the gradient is rejected."""
    user = templates.render_asset(
        templates.PURIFIER,
        current_prompt=prompt.text,
        gradient_context=format_contexts(raw.contexts),
        gradient_text=raw.text,
        rulebank_summary=summarize(bank),
    )
    request = ChatRequest(role=Role.GRADIENT, system="", user=user, step=raw.step)
    try:
        payload = gateway.complete_json(request, required_keys=["purified_gradient"])
    except MalformedOutputError:
        logger.warning("purifier output unparseable at step %d; rejecting", raw.step)
        return None
    text = str(payload["purified_gradient"]).strip()
    if not text:
        return None
    return PurifiedGradient(text=text, source_step=raw.step)


@dataclass(frozen=True)
class StageOneResult:
    contexts: tuple[ExecutionContext, ...]
    task_gradient: Optional[str]
    accepted: bool
    applied_ops: tuple[RuleBankOp, ...]
    batch_accuracy: float


def run_purification_stage(
    prompt: PromptVersion,
    batch: list[Sample],
    bank: RuleBank,
    gateway: Gateway,
    step: int,
    concurrency_cap: int = 1,
) -> StageOneResult:
    """Full Stage 1 for one mini-batch: eval, critique, purify, bank update."""
    contexts = forward_eval(prompt, batch, gateway, step, concurrency_cap)
    raw = generate_raw_gradient(prompt, contexts, gateway, step)
    purified = purify(raw, bank, prompt, gateway)
    applied_ops: tuple[RuleBankOp, ...] = ()
    if purified is not None:
        ops = canonicalize_and_match(purified.text, bank, gateway, step)
        apply_ops(bank, ops, step)
        applied_ops = tuple(ops)
    batch_accuracy = sum(c.correct for c in contexts) / len(contexts)
    return StageOneResult(
        contexts=tuple(contexts),
        task_gradient=purified.text if purified is not None else None,
        accepted=purified is not None,
        applied_ops=applied_ops,
        batch_accuracy=batch_accuracy,
    )
