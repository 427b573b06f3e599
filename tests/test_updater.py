import pytest

from conftest import scripted_gateway
from promptreg.errors import UpdateExtractionError
from promptreg.metrics import PromptVersion
from promptreg.regularization import MODE_COMPRESSION, RegGradient
from promptreg.updater import (
    DEFAULT_END_TAG,
    DEFAULT_START_TAG,
    apply_update,
    build_update_messages,
)

PROMPT = PromptVersion.create("Solve the task carefully.", version=3)
GRAD = "Add explicit instructions to enumerate items."
REG = RegGradient(guidance="Merge overlapping rules.", mode=MODE_COMPRESSION)


class TestBuildUpdateMessages:
    def test_reg_section_biconditional(self):
        with_reg = build_update_messages(PROMPT, GRAD, REG)
        without = build_update_messages(PROMPT, GRAD, None)
        assert with_reg.includes_reg_section
        assert not without.includes_reg_section
        assert REG.guidance in with_reg.user
        assert REG.guidance not in without.user

    def test_unregularized_assembly_is_plain(self):
        """With no reg signal the messages leave zero residue of the reg path."""
        plain = build_update_messages(PROMPT, GRAD, None)
        from promptreg import templates

        expected_user = templates.render_asset(
            templates.UPDATER_SKELETON,
            variable_desc="system prompt that guides the model to solve the task",
            variable_short=PROMPT.text,
            reg_section="",
            variable_grad=GRAD,
        )
        assert plain.user == expected_user

    def test_trailing_instructions_only_with_reg(self):
        from promptreg import templates

        trailing_marker = templates.render_asset(
            templates.UPDATER_TRAILING,
            variable_desc="system prompt that guides the model to solve the task",
        )
        assert trailing_marker in build_update_messages(PROMPT, GRAD, REG).user
        assert trailing_marker not in build_update_messages(PROMPT, GRAD, None).user

    def test_empty_gradient_rejected(self):
        with pytest.raises(ValueError):
            build_update_messages(PROMPT, "", None)


def tagged(text):
    return f"{DEFAULT_START_TAG}\n{text}\n{DEFAULT_END_TAG}"


class TestApplyUpdate:
    def test_version_increments_and_recounts(self):
        gw = scripted_gateway(
            [{"role": "OPTIMIZER", "step": 4, "response": tagged("one two three")}]
        )
        new = apply_update(PROMPT, GRAD, None, gw, step=4)
        assert new.version == PROMPT.version + 1
        assert new.text == "one two three"
        assert new.token_count == 3

    def test_reask_on_missing_tags(self):
        gw = scripted_gateway(
            [
                {"role": "OPTIMIZER", "step": 0, "response": "forgot the tags"},
                {
                    "role": "OPTIMIZER",
                    "step": 0,
                    "match_substring": "MUST wrap it between",
                    "response": tagged("recovered prompt"),
                },
            ]
        )
        assert apply_update(PROMPT, GRAD, None, gw, step=0).text == (
            "recovered prompt"
        )

    def test_failure_after_reask(self):
        gw = scripted_gateway(
            [{"role": "OPTIMIZER", "step": 0, "response": "never tagged"}]
        )
        with pytest.raises(UpdateExtractionError, match="update extraction failed"):
            apply_update(PROMPT, GRAD, None, gw, step=0)

    # An empty rewrite is asked for again like an untagged one: accepted, it
    # became a prompt that the next diagnosis and every resume refused.
    EMPTY = pytest.mark.parametrize(
        "body", ["", " \n\t "], ids=["empty", "whitespace"]
    )

    @EMPTY
    def test_empty_rewrite_is_reasked(self, body):
        gw = scripted_gateway([
            {"role": "OPTIMIZER", "step": 0, "response": tagged(body)},
            {"role": "OPTIMIZER", "step": 0,
             "match_substring": "MUST wrap it between",
             "response": tagged("recovered prompt")},
        ])
        assert apply_update(PROMPT, GRAD, None, gw, step=0).text == (
            "recovered prompt"
        )

    @EMPTY
    def test_empty_rewrite_after_reask_fails(self, body):
        gw = scripted_gateway(
            [{"role": "OPTIMIZER", "step": 0, "response": tagged(body)}]
        )
        with pytest.raises(UpdateExtractionError, match="update extraction failed"):
            apply_update(PROMPT, GRAD, None, gw, step=0)
