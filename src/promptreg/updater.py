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
from .metrics import PromptVersion
from .regularization import RegGradient

DEFAULT_START_TAG = "<IMPROVED_VARIABLE>"
DEFAULT_END_TAG = "</IMPROVED_VARIABLE>"
DEFAULT_ROLE_DESC = "system prompt that guides the model to solve the task"


@dataclass(frozen=True)
class UpdateMessages:
    system: str
    user: str
    includes_reg_section: bool


def build_update_messages(
    prompt: PromptVersion,
    task_gradient: str,
    reg: Optional[RegGradient],
) -> UpdateMessages:
    """Assemble the optimizer's system and user messages."""
    if not task_gradient:
        raise ValueError("task gradient must be nonempty")
    system = templates.render_asset(
        templates.UPDATER_SYSTEM,
        new_variable_start_tag=DEFAULT_START_TAG,
        new_variable_end_tag=DEFAULT_END_TAG,
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
        variable_desc=DEFAULT_ROLE_DESC,
        variable_short=prompt.text,
        reg_section=reg_section,
        variable_grad=task_gradient,
    )
    if reg is not None:
        trailing = templates.render_asset(
            templates.UPDATER_TRAILING, variable_desc=DEFAULT_ROLE_DESC
        )
        user = user + "\n\n" + trailing
    return UpdateMessages(
        system=system, user=user, includes_reg_section=reg is not None
    )


def _improved_text(text: str) -> str:
    """The tagged rewrite; an empty one counts as absent, since an empty
    prompt cannot be diagnosed or resumed."""
    new_text = extract_tagged_variable(text, DEFAULT_START_TAG, DEFAULT_END_TAG)
    if not new_text:
        raise TagsAbsentError("improved variable empty")
    return new_text


def apply_update(
    prompt: PromptVersion,
    task_gradient: str,
    reg: Optional[RegGradient],
    gateway: Gateway,
    step: int,
) -> PromptVersion:
    """One guided rewrite; re-asks once when the tags are missing or hold
    only whitespace."""
    messages = build_update_messages(prompt, task_gradient, reg)
    request = ChatRequest(
        role=Role.OPTIMIZER, system=messages.system, user=messages.user, step=step
    )
    new_text = gateway.complete_parsed(
        request,
        _improved_text,
        "\n\nYour previous reply did not contain the improved variable. "
        f"You MUST wrap it between {DEFAULT_START_TAG} and {DEFAULT_END_TAG} "
        "tags.",
    )
    if new_text is None:
        raise UpdateExtractionError("update extraction failed")
    return PromptVersion.create(new_text, version=prompt.version + 1)
