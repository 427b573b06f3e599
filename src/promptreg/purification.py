"""Stage 1: raw textual gradients from mini-batch execution, filtered by the
dual-evidence projection, with accepted rules folded into the rule bank.

A raw gradient that the purifier rejects contributes nothing downstream: no
task-gradient text and no rule-bank operations. An accepted gradient is
canonicalized into bank operations on the run's call pool while the caller
goes on; the rule bank is mutated only by ``StageOneResult.apply_bank_ops``,
after that work is joined.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Callable, Optional

from . import evaluation, templates
from .evaluation import Sample
from .gateway import ChatRequest, Gateway, Role
from .metrics import PromptVersion
from .rulebank import RuleBank, RuleBankOp, apply_ops, canonicalize_and_match, summarize


@dataclass(frozen=True)
class ExecutionContext:
    sample_input: str
    model_output: str
    expected: str
    correct: bool


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
    pool: Executor,
    on_queued: Optional[Callable[[], object]] = None,
) -> list[ExecutionContext]:
    """Run the prompt on each batch sample via the forward engine, on
    ``pool``; ``on_queued`` is passed on to ``evaluate``.

    ``evaluate`` is looked up on its module at call time, so a wrapper
    installed on ``evaluation.evaluate`` also sees the stage-1 batch.
    """
    report = evaluation.evaluate(
        prompt, batch, gateway, step=step, pool=pool, on_queued=on_queued
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
) -> str:
    """Ask the gradient engine to critique the prompt given the batch records."""
    if not contexts:
        raise ValueError("contexts must be nonempty")
    user = templates.render_asset(
        templates.RAW_GRADIENT,
        current_prompt=prompt.text,
        gradient_context=format_contexts(contexts),
    )
    request = ChatRequest(role=Role.GRADIENT, system="", user=user, step=step)
    return gateway.complete(request)


def purify(
    gradient: str,
    contexts: list[ExecutionContext],
    bank: RuleBank,
    prompt: PromptVersion,
    gateway: Gateway,
    step: int,
) -> Optional[str]:
    """Dual-evidence projection of the raw ``gradient`` made from
    ``contexts``: the purified text, or None when rejected or unusable; a
    backend failure, a malformed endpoint body included, raises."""
    user = templates.render_asset(
        templates.PURIFIER,
        current_prompt=prompt.text,
        gradient_context=format_contexts(contexts),
        gradient_text=gradient,
        rulebank_summary=summarize(bank),
    )
    request = ChatRequest(role=Role.GRADIENT, system="", user=user, step=step)
    payload = gateway.complete_json(request, {"purified_gradient": str})
    if payload is None:
        return None
    return payload["purified_gradient"].strip() or None


@dataclass(frozen=True)
class StageOneResult:
    contexts: tuple[ExecutionContext, ...]
    task_gradient: Optional[str]  # None when the purifier rejected
    batch_accuracy: float
    # The canonicalization of the accepted gradient, possibly still running;
    # None when the purifier rejected.
    bank_ops: Optional[Future]

    def apply_bank_ops(self, bank: RuleBank, step: int) -> tuple[RuleBankOp, ...]:
        """Wait for canonicalization, apply its ops to the bank, return them."""
        if self.bank_ops is None:
            return ()
        ops = tuple(self.bank_ops.result())
        apply_ops(bank, ops, step)
        return ops


def run_purification_stage(
    prompt: PromptVersion,
    batch: list[Sample],
    bank: RuleBank,
    gateway: Gateway,
    step: int,
    pool: Executor,
    on_queued: Optional[Callable[[], object]] = None,
) -> StageOneResult:
    """Full Stage 1 for one mini-batch: eval, critique, purify, and
    canonicalization submitted to ``pool``. ``on_queued`` is called once the
    batch's forward calls are queued on ``pool``; the critique and the
    purifier call run on the calling thread in one of its slots.

    The bank is left untouched until the caller applies the result's ops.
    """
    # The slot is asked for before the forward calls land, and both chain
    # calls run in it, so no background task slips in ahead of either; the
    # slot it leaves goes to canonicalization first.
    with pool.slot(
        lambda: forward_eval(prompt, batch, gateway, step, pool, on_queued)
    ) as contexts:
        gradient = generate_raw_gradient(prompt, contexts, gateway, step)
        purified = purify(gradient, contexts, bank, prompt, gateway, step)
        bank_ops = None
        if purified is not None:
            bank_ops = pool.submit(
                canonicalize_and_match, purified, bank, gateway, step
            )
    batch_accuracy = sum(c.correct for c in contexts) / len(contexts)
    return StageOneResult(
        contexts=tuple(contexts),
        task_gradient=purified,
        batch_accuracy=batch_accuracy,
        bank_ops=bank_ops,
    )
