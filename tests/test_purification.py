import json
import threading

import pytest

from conftest import scripted_gateway
from promptreg.evaluation import Sample
from promptreg.gateway import EngineConfig, Gateway, Role, RoleAssignment
from promptreg.metrics import PromptVersion
from promptreg.purification import (
    ExecutionContext,
    RawGradient,
    format_contexts,
    forward_eval,
    generate_raw_gradient,
    purify,
    run_purification_stage,
)
from promptreg.rulebank import RuleBank

PROMPT = PromptVersion.create("Answer the question.", version=0)

CTX = ExecutionContext(
    sample_input="How many legs does a spider have?",
    model_output="Answer: 6",
    expected="8",
    correct=False,
)


class TestFormatContexts:
    def test_single_block(self):
        text = format_contexts([CTX])
        assert text == (
            "[Example 1]\n"
            "Input: How many legs does a spider have?\n"
            "Model output: Answer: 6\n"
            "Expected answer: 8\n"
            "Verdict: incorrect"
        )

    def test_numbering_and_separator(self):
        good = ExecutionContext("q", "Answer: 8", "8", True)
        text = format_contexts([CTX, good])
        assert "[Example 1]" in text and "[Example 2]" in text
        assert "\n\n[Example 2]" in text
        assert "Verdict: correct" in text


class TestForwardEval:
    def test_correctness_flags(self):
        batch = [Sample("q one", "4"), Sample("q two", "5")]
        gw = scripted_gateway(
            [
                {"role": "FORWARD", "match_substring": "q one",
                 "response": "Answer: 4"},
                {"role": "FORWARD", "match_substring": "q two",
                 "response": "Answer: 9"},
            ]
        )
        contexts = forward_eval(PROMPT, batch, gw, step=0)
        assert [c.correct for c in contexts] == [True, False]
        assert contexts[0].sample_input == "q one"

    def test_order_preserved(self):
        batch = [Sample(f"q{i}", str(i)) for i in range(4)]
        gw = scripted_gateway(
            [
                {"role": "FORWARD", "match_substring": s.question,
                 "response": f"Answer: {s.answer}"}
                for s in batch
            ]
        )
        contexts = forward_eval(PROMPT, batch, gw, step=0)
        assert [c.sample_input for c in contexts] == [s.question for s in batch]

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            forward_eval(PROMPT, [], scripted_gateway([]), step=0)

    def test_concurrency_cap_runs_batch_in_parallel(self):
        # Each call waits until all three are in flight, so this only
        # completes when the batch really runs three at a time.
        barrier = threading.Barrier(3, timeout=5)

        class Rendezvous:
            def complete(self, request, engine):
                barrier.wait()
                return "Answer: 1"

        gw = Gateway(
            engines=RoleAssignment.uniform(EngineConfig(name="rendezvous")),
            backends={role: Rendezvous() for role in Role},
        )
        batch = [Sample(f"q{i}", "1") for i in range(3)]
        contexts = forward_eval(PROMPT, batch, gw, step=0, concurrency_cap=3)
        assert [c.sample_input for c in contexts] == ["q0", "q1", "q2"]
        assert all(c.correct for c in contexts)


class TestGenerateRawGradient:
    def test_prompt_and_context_reach_engine(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        gw = scripted_gateway(
            [{"role": "GRADIENT", "step": 2, "response": "be more careful"}],
            transcript_path=transcript,
        )
        raw = generate_raw_gradient(PROMPT, [CTX], gw, step=2)
        assert raw.text == "be more careful"
        assert raw.step == 2
        sent = json.loads(transcript.read_text().splitlines()[0])["user"]
        assert PROMPT.text in sent
        assert CTX.sample_input in sent


def purifier_fixture(response, step=0):
    return {
        "role": "GRADIENT",
        "step": step,
        "match_substring": "Gradient Purifier",
        "response": response,
    }


class TestPurify:
    def raw(self, step=0):
        return RawGradient(text="raw critique", contexts=(CTX,), step=step)

    def test_accept(self):
        gw = scripted_gateway(
            [purifier_fixture(json.dumps({"purified_gradient": "tighten checks"}))]
        )
        out = purify(self.raw(), RuleBank(), PROMPT, gw)
        assert out is not None and out.text == "tighten checks"

    def test_reject_empty_string(self):
        gw = scripted_gateway(
            [purifier_fixture(json.dumps({"purified_gradient": ""}))]
        )
        assert purify(self.raw(), RuleBank(), PROMPT, gw) is None

    def test_reject_malformed(self):
        gw = scripted_gateway([purifier_fixture("not json")])
        assert purify(self.raw(), RuleBank(), PROMPT, gw) is None

    def test_rejection_is_total(self):
        """A rejected gradient yields no task text and no bank ops."""
        gw = scripted_gateway(
            [
                {"role": "FORWARD", "step": 0, "response": "Answer: nope"},
                {"role": "GRADIENT", "step": 0,
                 "match_substring": "prompt critic", "response": "raw text"},
                purifier_fixture(json.dumps({"purified_gradient": ""})),
            ]
        )
        bank = RuleBank()
        result = run_purification_stage(
            PROMPT, [Sample("q", "a")], bank, gw, step=0
        )
        assert result.accepted is False
        assert result.task_gradient is None
        assert result.applied_ops == ()
        assert bank.total_mentions() == 0


class TestRunPurificationStage:
    def test_acceptance_couples_bank_update(self):
        gw = scripted_gateway(
            [
                {"role": "FORWARD", "step": 1, "response": "Answer: wrong"},
                {"role": "GRADIENT", "step": 1,
                 "match_substring": "prompt critic", "response": "raw"},
                purifier_fixture(
                    json.dumps({"purified_gradient": "check units"}), step=1
                ),
                {
                    "role": "GRADIENT",
                    "step": 1,
                    "match_substring": "rule canonicalization",
                    "response": json.dumps(
                        {"operations": [{
                            "type": "insert",
                            "canonical_description": "verify unit conversions",
                            "value": 1,
                        }]}
                    ),
                },
            ]
        )
        bank = RuleBank()
        result = run_purification_stage(
            PROMPT, [Sample("convert 3km", "3000")], bank, gw, step=1
        )
        assert result.accepted
        assert result.task_gradient == "check units"
        assert len(result.applied_ops) == 1
        assert bank.entries[0].canonical_description == "verify unit conversions"
        assert result.batch_accuracy == 0.0

    def test_batch_accuracy_fraction(self):
        gw = scripted_gateway(
            [
                {"role": "FORWARD", "match_substring": "good q",
                 "response": "Answer: 1"},
                {"role": "FORWARD", "match_substring": "bad q",
                 "response": "Answer: 0"},
                {"role": "GRADIENT", "match_substring": "prompt critic",
                 "response": "raw"},
                purifier_fixture(json.dumps({"purified_gradient": ""})),
            ]
        )
        result = run_purification_stage(
            PROMPT, [Sample("good q", "1"), Sample("bad q", "1")],
            RuleBank(), gw, step=0,
        )
        assert result.batch_accuracy == 0.5
