"""Cross-step memory of canonical generalized rules with recurrence counts.

The bank grows only by insertion; counts grow by exactly one per applied
operation. Matching against existing entries is delegated to an LLM via the
canonicalization template; this module only validates and applies the
returned operations. Only gradients that survived purification may reach
``apply_ops`` (the raw-gradient path never holds a handle to it).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import templates
from .errors import RuleBankError
from .gateway import ChatRequest, Gateway, MalformedOutputError, Role

logger = logging.getLogger(__name__)

INCREMENT = "INCREMENT"
INSERT = "INSERT"

DEFAULT_SUMMARY_LIMIT = 20


@dataclass
class Rule:
    id: str
    canonical_description: str
    mention_count: int

    def __post_init__(self) -> None:
        if self.mention_count < 1:
            raise ValueError("mention_count must be positive")


@dataclass
class RuleBank:
    entries: list[Rule] = field(default_factory=list)
    updated_step: int = 0

    def get(self, rule_id: str) -> Optional[Rule]:
        for rule in self.entries:
            if rule.id == rule_id:
                return rule
        return None

    def total_mentions(self) -> int:
        return sum(rule.mention_count for rule in self.entries)


@dataclass(frozen=True)
class RuleBankOp:
    kind: str  # INCREMENT or INSERT
    rule_id: Optional[str] = None
    canonical_description: Optional[str] = None
    value: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (INCREMENT, INSERT):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == INCREMENT and not self.rule_id:
            raise ValueError("INCREMENT requires rule_id")
        if self.kind == INSERT and not self.canonical_description:
            raise ValueError("INSERT requires a nonempty description")


def canonicalize_and_match(
    accepted_gradient: str, bank: RuleBank, gateway: Gateway, step: int
) -> list[RuleBankOp]:
    """Ask the gradient engine for bank operations and validate them.

    Malformed output (after the gateway's repair attempt) yields an empty
    operation list; an INCREMENT naming an unknown id is dropped. Either way
    the bank is left untouched by this function.
    """
    if not accepted_gradient:
        raise ValueError("accepted gradient must be nonempty")
    user = templates.render_asset(
        templates.RULE_CANONICALIZER,
        rulebank_summary=summarize(bank),
        raw_gradient=accepted_gradient,
    )
    request = ChatRequest(role=Role.GRADIENT, system="", user=user, step=step)
    try:
        payload = gateway.complete_json(request, required_keys=["operations"])
    except MalformedOutputError:
        logger.warning("rulebank ops unparseable at step %d; bank unchanged", step)
        return []
    raw_ops = payload["operations"]
    if not isinstance(raw_ops, list):
        logger.warning("rulebank 'operations' is not a list at step %d", step)
        return []
    ops: list[RuleBankOp] = []
    for raw in raw_ops:
        try:
            kind = str(raw.get("type", "")).upper()
            if kind == "INCREMENT":
                op = RuleBankOp(kind=INCREMENT, rule_id=raw["rule_id"])
                if bank.get(op.rule_id) is None:
                    logger.warning(
                        "dropping INCREMENT of unknown rule %s at step %d",
                        op.rule_id, step,
                    )
                    continue
            elif kind == "INSERT":
                op = RuleBankOp(
                    kind=INSERT,
                    canonical_description=raw["canonical_description"],
                )
            else:
                logger.warning("dropping op of unknown type %r", raw)
                continue
        except (KeyError, ValueError, AttributeError) as exc:
            logger.warning("dropping malformed op %r: %s", raw, exc)
            continue
        ops.append(op)
    return ops


def apply_ops(bank: RuleBank, ops: list[RuleBankOp], step: int) -> RuleBank:
    """Apply validated operations in order; each adds exactly one mention."""
    for op in ops:
        if op.kind == INCREMENT:
            rule = bank.get(op.rule_id)
            if rule is None:
                raise ValueError(f"INCREMENT of unknown rule {op.rule_id}")
            rule.mention_count += 1
        else:
            bank.entries.append(
                Rule(
                    id=f"R{len(bank.entries) + 1}",
                    canonical_description=op.canonical_description,
                    mention_count=1,
                )
            )
    bank.updated_step = step
    return bank


def scope_proxy(rule: Rule, psi: Callable[[int], float] = float) -> float:
    """Monotone recurrence proxy for rule scope; identity by default."""
    return psi(rule.mention_count)


def summarize(bank: RuleBank, max_rules: int = DEFAULT_SUMMARY_LIMIT) -> str:
    """Deterministic text listing of the highest-count rules."""
    if not bank.entries:
        return "(empty)"
    order = {id(rule): i for i, rule in enumerate(bank.entries)}
    ranked = sorted(
        bank.entries, key=lambda r: (-r.mention_count, order[id(r)])
    )
    lines = [
        f"- [{rule.id}] {rule.canonical_description} "
        f"(mention_count={rule.mention_count})"
        for rule in ranked[:max_rules]
    ]
    return "\n".join(lines)


def write_json(path: str | Path, document: dict) -> None:
    """Write one run file: sorted keys, two-space indent, trailing newline."""
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def save_rulebank(bank: RuleBank, path: str | Path) -> None:
    write_json(path, {**vars(bank), "entries": [vars(r) for r in bank.entries]})


def load_rulebank(path: str | Path) -> RuleBank:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        # Older files also carry a created_step key, which is ignored.
        return RuleBank(
            entries=[Rule(**entry) for entry in document["entries"]],
            updated_step=document["updated_step"],
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RuleBankError(f"rulebank unreadable: {path}: {exc}") from exc
