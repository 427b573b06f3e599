import json
from contextlib import closing

import pytest

from conftest import NON_TEXT, scripted_gateway
from promptreg.errors import BackendUnavailableError
from promptreg.gateway import EngineConfig, Gateway, Role, RoleAssignment
from promptreg.metrics import Channel, PromptVersion
from promptreg.purification import ExecutionContext
from promptreg.regularization import (
    CASE_PATCH,
    MODE_BY_CHANNELS,
    MODE_COMPRESSION,
    MODE_GENERALIZE,
    MODE_STRONG,
    NEUTRAL_DIFF,
    RegGradient,
    RuleChange,
    SemanticDiff,
    diagnose,
    format_rule_changes,
    scope_trigger,
    semantic_diff,
    synthesize_reg_gradient,
)
from promptreg.rulebank import RuleBank


def pv(tokens, version):
    return PromptVersion(text="w " * tokens, token_count=tokens, version=version)


CTX = ExecutionContext("q", "Answer: x", "y", False)
INCREASE_DIFF = SemanticDiff(
    rules_changed=(RuleChange("added a tomato special case", CASE_PATCH),),
    specificity_direction="increase",
)


class DownBackend:
    def complete(self, request, engine):
        raise BackendUnavailableError("backend unavailable after 4 attempts")


def down_gateway() -> Gateway:
    return Gateway(
        engines=RoleAssignment.uniform(EngineConfig(name="down")),
        backends={role: DownBackend() for role in Role},
    )


@pytest.mark.parametrize(
    "guidance, mode, message",
    [("", MODE_STRONG, "guidance must be nonempty"),
     ("be brief", "NOPE", "unknown mode 'NOPE'")],
    ids=["empty-guidance", "unknown-mode"],
)
def test_malformed_reg_gradient_is_refused(guidance, mode, message):
    with pytest.raises(ValueError) as raised:
        RegGradient(guidance, mode)
    assert str(raised.value) == message


class TestModeRouting:
    def test_exhaustive_table(self):
        assert MODE_BY_CHANNELS[frozenset()] is None
        assert MODE_BY_CHANNELS[frozenset({Channel.CAPACITY})] == MODE_COMPRESSION
        assert MODE_BY_CHANNELS[frozenset({Channel.SCOPE})] == MODE_GENERALIZE
        assert (
            MODE_BY_CHANNELS[frozenset({Channel.CAPACITY, Channel.SCOPE})]
            == MODE_STRONG
        )

    def test_table_is_total(self):
        assert len(MODE_BY_CHANNELS) == 4


class TestScopeTrigger:
    def test_increase_fires(self):
        assert scope_trigger(INCREASE_DIFF) is True

    def test_neutral_and_decrease_do_not(self):
        assert scope_trigger(NEUTRAL_DIFF) is False
        assert scope_trigger(
            SemanticDiff(rules_changed=(), specificity_direction="decrease")
        ) is False

    def test_independent_of_rules_changed(self):
        bare = SemanticDiff(rules_changed=(), specificity_direction="increase")
        assert scope_trigger(bare) == scope_trigger(INCREASE_DIFF)


class TestDiagnose:
    def test_capacity_only(self):
        diag = diagnose(pv(100, 0), pv(130, 1), NEUTRAL_DIFF, tau_c=0.2)
        assert diag.rho_c == pytest.approx(0.3)
        assert diag.active == frozenset({Channel.CAPACITY})
        assert diag.sgn_delta_w == "0"

    def test_scope_only(self):
        diag = diagnose(pv(100, 0), pv(105, 1), INCREASE_DIFF, tau_c=0.2)
        assert diag.active == frozenset({Channel.SCOPE})
        assert diag.sgn_delta_w == "+"

    def test_both(self):
        diag = diagnose(pv(100, 0), pv(125, 1), INCREASE_DIFF, tau_c=0.2)
        assert diag.active == frozenset({Channel.CAPACITY, Channel.SCOPE})

    def test_neither(self):
        diag = diagnose(pv(100, 0), pv(110, 1), NEUTRAL_DIFF, tau_c=0.2)
        assert diag.active == frozenset()

    def test_boundary_growth_inactive(self):
        diag = diagnose(pv(100, 0), pv(120, 1), NEUTRAL_DIFF, tau_c=0.2)
        assert diag.b_c is False


class TestSemanticDiff:
    def fixtures(self, response):
        return [
            {
                "role": "REGULARIZATION",
                "step": 3,
                "match_substring": "Semantic Delta Analyzer",
                "response": response,
            }
        ]

    def call(self, gw):
        return semantic_diff(
            pv(10, 0), pv(12, 1), RuleBank(), (CTX,),
            initial_prompt="init", gateway=gw, step=3,
        )

    def test_parses_changes(self):
        payload = {
            "rules_changed": [
                {"description": "special-cased tomatoes", "type": "case_patch"}
            ],
            "specificity_direction": "increase",
        }
        diff = self.call(scripted_gateway(self.fixtures(json.dumps(payload))))
        assert diff.specificity_direction == "increase"
        assert diff.rules_changed[0].kind == CASE_PATCH

    def test_degrades_to_neutral_on_garbage(self):
        assert self.call(scripted_gateway(self.fixtures("garbage"))) is NEUTRAL_DIFF

    def test_degrades_on_unknown_change_type(self):
        payload = {
            "rules_changed": [{"description": "d", "type": "rewrite"}],
            "specificity_direction": "increase",
        }
        assert self.call(
            scripted_gateway(self.fixtures(json.dumps(payload)))
        ) is NEUTRAL_DIFF

    def test_degrades_on_bad_direction(self):
        payload = {"rules_changed": [], "specificity_direction": "sideways"}
        assert self.call(
            scripted_gateway(self.fixtures(json.dumps(payload)))
        ) is NEUTRAL_DIFF

    @NON_TEXT
    def test_degrades_on_non_text_description(self, tmp_path, value):
        payload = {
            "rules_changed": [{"description": value, "type": "case_patch"}],
            "specificity_direction": "increase",
        }
        transcript = tmp_path / "t.jsonl"
        with closing(scripted_gateway(
            self.fixtures(json.dumps(payload)), transcript_path=transcript
        )) as gw:
            assert self.call(gw) is NEUTRAL_DIFF
        assert len(transcript.read_text().splitlines()) == 1

    def test_backend_failure_aborts(self):
        """Only malformed output degrades to neutral; an unreachable backend
        ends the run like a failure in any other stage."""
        with pytest.raises(BackendUnavailableError):
            self.call(down_gateway())

    def test_nonconsecutive_versions_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            semantic_diff(
                pv(10, 0), pv(12, 2), RuleBank(), (CTX,),
                initial_prompt="init", gateway=scripted_gateway([]), step=0,
            )


class TestFormatRuleChanges:
    def test_none_marker(self):
        assert format_rule_changes(NEUTRAL_DIFF) == "(none)"

    def test_lines(self):
        assert format_rule_changes(INCREASE_DIFF) == (
            "- [CASE_PATCH] added a tomato special case"
        )


class TestSynthesize:
    def synth_fixture(self, response):
        return {
            "role": "REGULARIZATION",
            "step": 0,
            "match_substring": "structural regularization controller",
            "response": response,
        }

    def test_no_active_channels_makes_no_call(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        gw = scripted_gateway([], transcript_path=transcript)
        diag = diagnose(pv(100, 0), pv(101, 1), NEUTRAL_DIFF, tau_c=0.2)
        assert synthesize_reg_gradient(diag, NEUTRAL_DIFF, pv(101, 1), gw, 0) is None
        assert not transcript.exists()

    def test_mode_reaches_generator(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        diag = diagnose(pv(100, 0), pv(130, 1), NEUTRAL_DIFF, tau_c=0.2)
        with closing(scripted_gateway(
            [self.synth_fixture(json.dumps({"guidance": "compress the prompt"}))],
            transcript_path=transcript,
        )) as gw:
            reg = synthesize_reg_gradient(diag, NEUTRAL_DIFF, pv(130, 1), gw, 0)
        assert reg is not None
        assert reg.mode == MODE_COMPRESSION
        sent = json.loads(transcript.read_text().splitlines()[0])["user"]
        assert MODE_COMPRESSION in sent
        assert "(none)" in sent

    def test_strong_mode(self):
        gw = scripted_gateway(
            [self.synth_fixture(json.dumps({"guidance": "generalize and shrink"}))]
        )
        diag = diagnose(pv(100, 0), pv(130, 1), INCREASE_DIFF, tau_c=0.2)
        reg = synthesize_reg_gradient(diag, INCREASE_DIFF, pv(130, 1), gw, 0)
        assert reg.mode == MODE_STRONG

    def test_malformed_guidance_degrades(self):
        gw = scripted_gateway([self.synth_fixture("no json")])
        diag = diagnose(pv(100, 0), pv(130, 1), NEUTRAL_DIFF, tau_c=0.2)
        assert synthesize_reg_gradient(diag, NEUTRAL_DIFF, pv(130, 1), gw, 0) is None

    def test_empty_guidance_degrades(self):
        gw = scripted_gateway(
            [self.synth_fixture(json.dumps({"guidance": "  "}))]
        )
        diag = diagnose(pv(100, 0), pv(130, 1), NEUTRAL_DIFF, tau_c=0.2)
        assert synthesize_reg_gradient(diag, NEUTRAL_DIFF, pv(130, 1), gw, 0) is None

    @NON_TEXT
    def test_non_text_guidance_degrades(self, tmp_path, value):
        transcript = tmp_path / "t.jsonl"
        diag = diagnose(pv(100, 0), pv(130, 1), NEUTRAL_DIFF, tau_c=0.2)
        with closing(scripted_gateway(
            [self.synth_fixture(json.dumps({"guidance": value}))],
            transcript_path=transcript,
        )) as gw:
            assert synthesize_reg_gradient(
                diag, NEUTRAL_DIFF, pv(130, 1), gw, 0
            ) is None
        assert len(transcript.read_text().splitlines()) == 1

    def test_backend_failure_aborts(self):
        diag = diagnose(pv(100, 0), pv(130, 1), NEUTRAL_DIFF, tau_c=0.2)
        with pytest.raises(BackendUnavailableError):
            synthesize_reg_gradient(
                diag, NEUTRAL_DIFF, pv(130, 1), down_gateway(), 0
            )
