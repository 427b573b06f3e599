"""Stage 2: diagnose the realized prompt transition along the capacity and
scope channels and synthesize the textual regularization gradient.

The capacity trigger is numeric (relative token growth against a threshold);
the scope trigger comes from an LLM semantic diff of the two prompts. When no
channel is active the stage produces no signal and makes no generator call.
An unusable reply or a diff outside the schema degrades to "no signal" (a
neutral diff, no guidance) so the task path survives; a backend failure, a
malformed endpoint body included, aborts the run, as in every other stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import templates
from .gateway import ChatRequest, Gateway, Role
from .metrics import (
    Channel,
    ChannelDiagnostics,
    PromptVersion,
    active_channels,
    capacity_growth,
    capacity_trigger,
)
from .purification import ExecutionContext, format_contexts
from .rulebank import RuleBank, summarize

logger = logging.getLogger(__name__)

GENERALIZED_RULE = "GENERALIZED_RULE"
CASE_PATCH = "CASE_PATCH"
STYLE_ONLY = "STYLE_ONLY"
RULE_CHANGE_KINDS = (GENERALIZED_RULE, CASE_PATCH, STYLE_ONLY)

DIRECTIONS = ("increase", "decrease", "neutral")
_SIGN_BY_DIRECTION = {"increase": "+", "decrease": "-", "neutral": "0"}

MODE_STRONG = "STRONG_REGULARIZATION"
MODE_COMPRESSION = "COMPRESSION_ONLY"
MODE_GENERALIZE = "GENERALIZE_ONLY"

# Total routing over the four channel subsets; None means the generator is
# skipped outright.
MODE_BY_CHANNELS: dict[frozenset[Channel], Optional[str]] = {
    frozenset(): None,
    frozenset({Channel.CAPACITY}): MODE_COMPRESSION,
    frozenset({Channel.SCOPE}): MODE_GENERALIZE,
    frozenset({Channel.CAPACITY, Channel.SCOPE}): MODE_STRONG,
}


@dataclass(frozen=True)
class RuleChange:
    description: str
    kind: str

    def __post_init__(self) -> None:
        if not isinstance(self.description, str):
            raise ValueError(f"description {self.description!r} is not text")
        if self.kind not in RULE_CHANGE_KINDS:
            raise ValueError(f"unknown rule-change kind {self.kind!r}")


@dataclass(frozen=True)
class SemanticDiff:
    rules_changed: tuple[RuleChange, ...]
    specificity_direction: str

    def __post_init__(self) -> None:
        if self.specificity_direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.specificity_direction!r}"
            )


NEUTRAL_DIFF = SemanticDiff(rules_changed=(), specificity_direction="neutral")


@dataclass(frozen=True)
class RegGradient:
    guidance: str
    mode: str

    def __post_init__(self) -> None:
        if not self.guidance:
            raise ValueError("guidance must be nonempty")
        if self.mode not in (MODE_STRONG, MODE_COMPRESSION, MODE_GENERALIZE):
            raise ValueError(f"unknown mode {self.mode!r}")


def semantic_diff(
    prev: PromptVersion,
    curr: PromptVersion,
    bank: RuleBank,
    contexts: tuple[ExecutionContext, ...],
    initial_prompt: str,
    gateway: Gateway,
    step: int,
) -> SemanticDiff:
    """LLM rule-level diff of the transition; neutral on unusable output."""
    if prev.version + 1 != curr.version:
        raise ValueError(
            f"semantic diff requires consecutive versions, got "
            f"{prev.version} -> {curr.version}"
        )
    user = templates.render_asset(
        templates.SEMANTIC_DIFF,
        initial_prompt=initial_prompt,
        previous_prompt=prev.text,
        current_prompt=curr.text,
        rulebank_summary=summarize(bank),
        gradient_contexts=format_contexts(contexts),
    )
    request = ChatRequest(
        role=Role.REGULARIZATION, system="", user=user, step=step
    )
    payload = gateway.complete_json(
        request, {"rules_changed": list, "specificity_direction": str}
    )
    if payload is None:
        return NEUTRAL_DIFF
    try:
        changes = tuple(
            RuleChange(
                description=item["description"],
                kind=str(item["type"]).upper(),
            )
            for item in payload["rules_changed"]
        )
        return SemanticDiff(
            rules_changed=changes,
            specificity_direction=payload["specificity_direction"].lower(),
        )
    except (ValueError, KeyError, TypeError) as exc:
        logger.warning("semantic diff degraded to neutral at step %d: %s",
                       step, exc)
        return NEUTRAL_DIFF


def scope_trigger(diff: SemanticDiff) -> bool:
    """True only when the diff reports narrowing."""
    return diff.specificity_direction == "increase"


def diagnose(
    prev: PromptVersion,
    curr: PromptVersion,
    diff: SemanticDiff,
    tau_c: float,
) -> ChannelDiagnostics:
    """Combine both channel triggers into one diagnostics record."""
    rho_c = capacity_growth(prev, curr)
    b_c = capacity_trigger(rho_c, tau_c)
    b_w = scope_trigger(diff)
    return ChannelDiagnostics(
        rho_c=rho_c,
        b_c=b_c,
        b_w=b_w,
        active=active_channels(b_c, b_w),
        sgn_delta_w=_SIGN_BY_DIRECTION[diff.specificity_direction],
    )


def format_rule_changes(diff: SemanticDiff) -> str:
    if not diff.rules_changed:
        return "(none)"
    return "\n".join(
        f"- [{change.kind}] {change.description}" for change in diff.rules_changed
    )


def synthesize_reg_gradient(
    diag: ChannelDiagnostics,
    diff: SemanticDiff,
    curr: PromptVersion,
    gateway: Gateway,
    step: int,
) -> Optional[RegGradient]:
    """Generate guidance for the active channels; no channels, no call."""
    mode = MODE_BY_CHANNELS[diag.active]
    if mode is None:
        return None
    user = templates.render_asset(
        templates.REG_GENERATOR,
        regularization_mode=mode,
        current_prompt=curr.text,
        newly_changed_rules=format_rule_changes(diff),
    )
    request = ChatRequest(
        role=Role.REGULARIZATION, system="", user=user, step=step
    )
    payload = gateway.complete_json(request, {"guidance": str})
    guidance = payload["guidance"].strip() if payload is not None else ""
    return RegGradient(guidance=guidance, mode=mode) if guidance else None
