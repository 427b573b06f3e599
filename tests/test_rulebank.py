import json
import random

import pytest

from conftest import scripted_gateway
from promptreg.errors import RuleBankError
from promptreg.rulebank import (
    INCREMENT,
    INSERT,
    Rule,
    RuleBank,
    RuleBankOp,
    apply_ops,
    canonicalize_and_match,
    load_rulebank,
    save_rulebank,
    scope_proxy,
    summarize,
)


def bank_with(*counts: int) -> RuleBank:
    return RuleBank(
        entries=[
            Rule(id=f"R{i + 1}", canonical_description=f"rule {i + 1}",
                 mention_count=c)
            for i, c in enumerate(counts)
        ]
    )


class TestApplyOps:
    def test_insert_into_empty(self):
        bank = RuleBank()
        apply_ops(bank, [RuleBankOp(kind=INSERT, canonical_description="x")], 0)
        assert [(r.id, r.mention_count) for r in bank.entries] == [("R1", 1)]

    def test_increment(self):
        bank = bank_with(2)
        apply_ops(bank, [RuleBankOp(kind=INCREMENT, rule_id="R1")], 3)
        assert bank.entries[0].mention_count == 3
        assert bank.updated_step == 3

    def test_mixed_sequence_mass(self):
        bank = bank_with(1)
        apply_ops(
            bank,
            [
                RuleBankOp(kind=INSERT, canonical_description="y"),
                RuleBankOp(kind=INCREMENT, rule_id="R1"),
            ],
            1,
        )
        assert bank.total_mentions() == 3
        assert len(bank.entries) == 2

    def test_count_conservation_randomized(self):
        rng = random.Random(99)
        for _ in range(200):
            bank = RuleBank()
            applied = 0
            for _ in range(rng.randint(0, 30)):
                if bank.entries and rng.random() < 0.5:
                    rule = rng.choice(bank.entries)
                    op = RuleBankOp(kind=INCREMENT, rule_id=rule.id)
                else:
                    op = RuleBankOp(
                        kind=INSERT, canonical_description=f"d{applied}"
                    )
                apply_ops(bank, [op], 0)
                applied += 1
                assert bank.total_mentions() == applied


class TestCanonicalizeAndMatch:
    def test_increment_existing(self):
        gw = scripted_gateway(
            [
                {
                    "role": "GRADIENT",
                    "step": 0,
                    "response": json.dumps(
                        {"operations": [
                            {"type": "increment", "rule_id": "R1", "value": 1}
                        ]}
                    ),
                }
            ]
        )
        ops = canonicalize_and_match("gradient", bank_with(1), gw, 0)
        assert ops == [RuleBankOp(kind=INCREMENT, rule_id="R1")]

    def test_insert_into_empty(self):
        gw = scripted_gateway(
            [
                {
                    "role": "GRADIENT",
                    "step": 0,
                    "response": json.dumps(
                        {"operations": [{
                            "type": "insert",
                            "canonical_description":
                                "List items one by one before counting",
                            "value": 1,
                        }]}
                    ),
                }
            ]
        )
        ops = canonicalize_and_match("gradient", RuleBank(), gw, 0)
        assert len(ops) == 1 and ops[0].kind == INSERT

    def test_unknown_id_dropped(self):
        gw = scripted_gateway(
            [
                {
                    "role": "GRADIENT",
                    "step": 0,
                    "response": json.dumps(
                        {"operations": [
                            {"type": "increment", "rule_id": "R9", "value": 1}
                        ]}
                    ),
                }
            ]
        )
        bank = bank_with(1)
        assert canonicalize_and_match("gradient", bank, gw, 0) == []
        assert bank.total_mentions() == 1

    def test_malformed_output_leaves_bank_unchanged(self):
        gw = scripted_gateway(
            [{"role": "GRADIENT", "step": 0, "response": "garbled"}]
        )
        bank = bank_with(2)
        assert canonicalize_and_match("gradient", bank, gw, 0) == []
        assert bank.total_mentions() == 2


class TestScopeProxy:
    def test_default_identity(self):
        assert scope_proxy(Rule(id="R1", canonical_description="d",
                                mention_count=4)) == 4.0

    def test_monotone(self):
        low = scope_proxy(Rule(id="R1", canonical_description="d",
                               mention_count=2))
        high = scope_proxy(Rule(id="R2", canonical_description="d",
                                mention_count=5))
        assert high >= low


class TestSummarize:
    def test_empty(self):
        assert summarize(RuleBank()) == "(empty)"

    def test_descending_count_order(self):
        bank = RuleBank(
            entries=[
                Rule(id="R1", canonical_description="a", mention_count=3),
                Rule(id="R2", canonical_description="b", mention_count=1),
            ]
        )
        lines = summarize(bank).splitlines()
        assert lines[0].startswith("- [R1]")
        assert lines[1] == "- [R2] b (mention_count=1)"

    def test_cap_keeps_highest_counts(self):
        rng = random.Random(7)
        counts = [rng.randint(1, 100) for _ in range(50)]
        bank = bank_with(*counts)
        lines = summarize(bank, max_rules=20).splitlines()
        assert len(lines) == 20
        shown = [int(line.rsplit("=", 1)[1].rstrip(")")) for line in lines]
        assert shown == sorted(counts, reverse=True)[:20]

    def test_pure_function_of_contents(self):
        bank = bank_with(3, 1, 2)
        assert summarize(bank) == summarize(bank)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        bank = bank_with(2, 5, 1)
        bank.updated_step = 4
        path = tmp_path / "bank.json"
        save_rulebank(bank, path)
        loaded = load_rulebank(path)
        assert loaded == bank

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "bank.json"
        save_rulebank(RuleBank(), path)
        assert load_rulebank(path) == RuleBank()

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "bank.json"
        save_rulebank(bank_with(1), path)
        path.write_text(path.read_text()[:20])
        with pytest.raises(RuleBankError, match="rulebank unreadable"):
            load_rulebank(path)


def test_apply_ops_only_reachable_from_purification():
    """The raw-gradient path must have no handle to apply_ops."""
    import pathlib

    src = pathlib.Path(__file__).parent.parent / "src" / "promptreg"
    allowed = {"rulebank.py", "purification.py"}
    offenders = [
        p.name
        for p in src.rglob("*.py")
        if "apply_ops" in p.read_text() and p.name not in allowed
    ]
    assert offenders == []
