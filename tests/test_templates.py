import difflib
from importlib import resources

import pytest

from promptreg import templates


EXPECTED_PLACEHOLDERS = {
    templates.PURIFIER: {
        "current_prompt", "gradient_context", "gradient_text",
        "rulebank_summary",
    },
    templates.RULE_CANONICALIZER: {"rulebank_summary", "raw_gradient"},
    templates.SEMANTIC_DIFF: {
        "initial_prompt", "previous_prompt", "current_prompt",
        "rulebank_summary", "gradient_contexts",
    },
    templates.REG_GENERATOR: {
        "regularization_mode", "current_prompt", "newly_changed_rules",
    },
    templates.UPDATER_SYSTEM: {
        "new_variable_start_tag", "new_variable_end_tag",
    },
    templates.UPDATER_TRAILING: {"variable_desc"},
    templates.UPDATER_SKELETON: {
        "variable_desc", "variable_short", "reg_section", "variable_grad",
    },
    templates.UPDATER_REG_SECTION: {"reg_feedback"},
    templates.RAW_GRADIENT: {"current_prompt", "gradient_context"},
}


class TestAssets:
    def test_inventory_matches(self):
        """Every template shipped in the package has its placeholders
        pinned here, and every pinned one ships."""
        shipped = {
            path.name for path in resources.files("promptreg.assets").iterdir()
            if path.name.endswith(".txt")
        }
        assert shipped == set(EXPECTED_PLACEHOLDERS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_PLACEHOLDERS))
    def test_loads_nonempty(self, name):
        assert templates.load_asset(name).strip()

    @pytest.mark.parametrize("name", sorted(EXPECTED_PLACEHOLDERS))
    def test_placeholder_sets(self, name):
        assert (
            templates.placeholders(templates.load_asset(name))
            == EXPECTED_PLACEHOLDERS[name]
        )

    def test_literal_double_brace_span_survives(self):
        text = templates.load_asset(templates.UPDATER_SYSTEM)
        assert "{{improved variable}}" in text
        rendered = templates.render(
            text, new_variable_start_tag="<A>", new_variable_end_tag="</A>"
        )
        assert "{{improved variable}}" in rendered


class TestRender:
    def test_simple_substitution(self):
        assert templates.render("a {x} b", x="Y") == "a Y b"

    def test_missing_value(self):
        with pytest.raises(ValueError, match="placeholder mismatch"):
            templates.render("a {x} b")

    def test_extra_value(self):
        with pytest.raises(ValueError, match="placeholder mismatch"):
            templates.render("a {x} b", x="1", y="2")

    def test_repeated_marker_fills_all(self):
        assert templates.render("{x}/{x}", x="q") == "q/q"

    def test_values_are_inserted_verbatim(self):
        """A value holding another placeholder's marker is not substituted
        again."""
        assert templates.render("A {x} B {y}", x="{y}", y="Z") == "A {y} B Z"
        assert templates.render("A {x} B {y}", y="{x}", x="Z") == "A Z B {x}"

    def test_uppercase_braces_not_markers(self):
        assert templates.render("keep {NOT_A_SLOT} as is") == (
            "keep {NOT_A_SLOT} as is"
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_PLACEHOLDERS))
    def test_render_changes_only_marker_spans(self, name):
        """Outside the substituted spans the rendered text equals the asset."""
        raw = templates.load_asset(name)
        values = {p: f"<<{p.upper()}>>" for p in EXPECTED_PLACEHOLDERS[name]}
        rendered = templates.render(raw, **values)
        matcher = difflib.SequenceMatcher(a=raw, b=rendered, autojunk=False)
        for op, a0, a1, b0, b1 in matcher.get_opcodes():
            if op == "equal":
                continue
            removed = raw[a0:a1]
            # every non-equal region must consist only of marker text being
            # swapped for the supplied value
            assert any(
                "{" + p + "}" in removed or removed in "{" + p + "}"
                for p in EXPECTED_PLACEHOLDERS[name]
            ), f"unexpected edit outside markers in {name}: {removed!r}"

    def test_rendered_output_contains_inputs_verbatim(self):
        body = templates.render_asset(
            templates.RAW_GRADIENT,
            current_prompt="PROMPT BODY HERE",
            gradient_context="CONTEXT BODY HERE",
        )
        assert "PROMPT BODY HERE" in body
        assert "CONTEXT BODY HERE" in body
