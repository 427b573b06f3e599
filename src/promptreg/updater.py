"""Stage 3: rewrite the prompt by composing the purified task gradient with
the optional regularization guidance through the optimizer message assembly.

When no regularization signal exists the rendered messages are byte-identical
to the plain (unregularized) assembly: the reg block and the trailing merge
instructions leave zero residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import templates
from .errors import TagsAbsentError, UpdateExtractionError
from .gateway import ChatRequest, Gateway, Role, extract_tagged_variable
from .metrics import PromptVersion, TokenCounter, whitespace_token_count
from .regularization import RegGradient

DEFAULT_START_TAG = "<IMPROVED_VARIABLE>"
DEFAULT_END_TAG = "</IMPROVED_VARIABLE>"
DEFAULT_ROLE_DESC = "system prompt that guides the model to solve the task"


@dataclass(frozen=True)
class UpdateTags:
    start: str = DEFAULT_START_TAG
    end: str = DEFAULT_END_TAG


@dataclass(frozen=True)
class UpdateMessages:
    system: str
    user: str
    includes_reg_section: bool


def build_update_messages(
    prompt: PromptVersion,
    task_gradient: str,
    reg: Optional[RegGradient],
    role_desc: str = DEFAULT_ROLE_DESC,
    tags: UpdateTags = UpdateTags(),
) -> UpdateMessages:
    """Assemble the optimizer's system and user messages."""
    if not task_gradient:
        raise ValueError("task gradient must be nonempty")
    system = templates.render_asset(
        templates.UPDATER_SYSTEM,
        new_variable_start_tag=tags.start,
        new_variable_end_tag=tags.end,
    )
    if reg is not None:
        reg_section = (
            templates.render_asset(
                templates.UPDATER_REG_SECTION, reg_feedback=reg.guidance
            )
            + "\n\n"
        )
    else:
        reg_section = ""
    user = templates.render_asset(
        templates.UPDATER_SKELETON,
        variable_desc=role_desc,
        variable_short=prompt.text,
        reg_section=reg_section,
        variable_grad=task_gradient,
    )
    if reg is not None:
        trailing = templates.render_asset(
            templates.UPDATER_TRAILING, variable_desc=role_desc
        )
        user = user + "\n\n" + trailing
    return UpdateMessages(
        system=system, user=user, includes_reg_section=reg is not None
    )


def apply_update(
    prompt: PromptVersion,
    task_gradient: str,
    reg: Optional[RegGradient],
    gateway: Gateway,
    step: int,
    role_desc: str = DEFAULT_ROLE_DESC,
    tags: UpdateTags = UpdateTags(),
    counter: TokenCounter = whitespace_token_count,
) -> PromptVersion:
    """One guided rewrite; re-asks once when the tags are missing."""
    messages = build_update_messages(prompt, task_gradient, reg, role_desc, tags)
    request = ChatRequest(
        role=Role.OPTIMIZER, system=messages.system, user=messages.user, step=step
    )
    try:
        new_text = gateway.complete_parsed(
            request,
            lambda text: extract_tagged_variable(text, tags.start, tags.end),
            "\n\nYour previous reply did not contain the improved variable. "
            f"You MUST wrap it between {tags.start} and {tags.end} tags.",
            TagsAbsentError,
        )
    except TagsAbsentError as exc:
        raise UpdateExtractionError("update extraction failed") from exc
    return PromptVersion(
        text=new_text,
        token_count=counter(new_text),
        version=prompt.version + 1,
    )
