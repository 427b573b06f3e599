import json
import random
import string

import pytest

from conftest import scripted_gateway
from promptreg.errors import DatasetError
from promptreg.evaluation import (
    Sample,
    evaluate,
    exact_match,
    extract_answer,
    generalization_gap,
    load_dataset,
    normalize_answer,
)
from promptreg.metrics import PromptVersion

PROMPT = PromptVersion.create("Answer the question.", version=0)


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )


class TestLoadDataset:
    def test_order_preserved(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"question": f"q{i}", "answer": str(i)} for i in range(3)])
        samples = load_dataset(path)
        assert [s.question for s in samples] == ["q0", "q1", "q2"]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"question": "q", "answer": "a"}\n{"question": "q"}\n'
        )
        with pytest.raises(DatasetError, match="line 2: missing field answer"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"question": "q", "answer": "a"}\n\n{"question": \n',
             "line 3: invalid JSON"),
            ('{"question": "q", "answer": "a"}\n"q, a"\n', "line 2: not a JSON object"),
            ('{"question": "q", "answer": "a"}\n5\n', "line 2: not a JSON object"),
            ('{"question": "q", "answer": "a"}\n{"question": "q", "answer": null}\n',
             "line 2: field answer is None"),
            ('{"question": ["q"], "answer": "a"}\n', "line 1: field question is"),
            ('{"question": "q", "answer": "a"}\n{"question": "q", "answer": {}}\n',
             "line 2: field answer is"),
        ],
        ids=["not-json-after-blank", "string", "number", "null-answer",
             "list-question", "object-answer"],
    )
    def test_malformed_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "d.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetError, match=message):
            load_dataset(path)

    def test_numbers_read_as_their_text(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"question": 7, "answer": 2.5}\n')
        assert load_dataset(path) == [Sample(question="7", answer="2.5")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="dataset not found"):
            load_dataset(tmp_path / "absent.jsonl")

    def test_crlf_equals_lf(self, tmp_path):
        records = [{"question": "q", "answer": "a"}] * 2
        lf = tmp_path / "lf.jsonl"
        crlf = tmp_path / "crlf.jsonl"
        write_jsonl(lf, records)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_dataset(lf) == load_dataset(crlf)


# Expected extractions computed by hand for the declared three-tier rule.
EXTRACTION_CASES = [
    ("...reasoning... Answer: (B)", "(B)"),
    ("The total is 42.", "42"),
    ("Answer: 7.0", "7"),
    ("answer: blue whale", "blue whale"),
    ("First 3, then 5, so 8 total", "8"),
    ("ANSWER:   17 apples ", "17 apples"),
    ("no numbers and no marker", "no numbers and no marker"),
    ("Answer: -4.50", "-4.5"),
    ("Answer: 007", "7"),
    ("it is 12.5%, roughly", "12.5"),
    ("Answer:", ""),
    ("Answer: (A).", "(A)"),
    ("The answer: 9; done", "9; done"),
    ("2 + 2 = 4", "4"),
    ("Answer: yes!", "yes"),
    ("result   is\n\n 0.50", "0.5"),
    ("Answer: x = 3", "x = 3"),
    ("-7", "-7"),
    ("Answer: 0.0", "0"),
    ("Answer:  many   spaced   words  ", "many spaced words"),
]


class TestExtractAnswer:
    @pytest.mark.parametrize("raw,expected", EXTRACTION_CASES)
    def test_cases(self, raw, expected):
        assert extract_answer(raw) == expected


class TestNormalize:
    def test_idempotent_random(self):
        rng = random.Random(31337)
        alphabet = string.printable
        for _ in range(10_000):
            s = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 40))
            )
            once = normalize_answer(s)
            assert normalize_answer(once) == once

    def test_numeric_canonicalization(self):
        assert normalize_answer("7.0") == "7"
        assert normalize_answer("007") == "7"
        assert normalize_answer("-0") == "0"
        assert normalize_answer("+3.20") == "3.2"


class TestExactMatch:
    def test_equal_literals(self):
        assert exact_match("(B)", "(B)")

    def test_strict_about_parentheses(self):
        assert not exact_match("B", "(B)")

    def test_numeric_equivalence(self):
        assert exact_match("7", "7.0")

    def test_symmetric_reflexive(self):
        for a, b in [("x", "x"), ("7.0", "7"), ("a", "b")]:
            assert exact_match(a, b) == exact_match(b, a)
            assert exact_match(a, a)


def forward_fixtures(samples, wrong_indices=()):
    return [
        {
            "role": "FORWARD",
            "match_substring": s.question,
            "response": "Answer: WRONG" if i in wrong_indices
            else f"Answer: {s.answer}",
        }
        for i, s in enumerate(samples)
    ]


class TestEvaluate:
    def test_all_correct(self):
        samples = [Sample(f"q{i}", str(i)) for i in range(3)]
        gw = scripted_gateway(forward_fixtures(samples))
        report = evaluate(PROMPT, samples, gw)
        assert report.accuracy == 1.0

    def test_one_wrong_of_four(self):
        samples = [Sample(f"q{i}", str(i)) for i in range(4)]
        gw = scripted_gateway(forward_fixtures(samples, wrong_indices={2}))
        report = evaluate(PROMPT, samples, gw)
        assert report.accuracy == 0.75
        assert [r.correct for r in report.per_sample] == [True, True, False, True]

    def test_concurrency_cap_invariance(self):
        samples = [Sample(f"q{i}", str(i)) for i in range(12)]
        fixtures = forward_fixtures(samples, wrong_indices={1, 5})
        reports = [
            evaluate(PROMPT, samples, scripted_gateway(fixtures),
                     concurrency_cap=cap)
            for cap in (1, 8)
        ]
        assert reports[0].accuracy == reports[1].accuracy
        assert reports[0].per_sample == reports[1].per_sample

    def test_permutation_invariance(self):
        samples = [Sample(f"q{i}", str(i)) for i in range(10)]
        fixtures = forward_fixtures(samples, wrong_indices={0, 3, 4})
        base = evaluate(PROMPT, samples, scripted_gateway(fixtures))
        shuffled = samples[:]
        random.Random(5).shuffle(shuffled)
        perm = evaluate(PROMPT, shuffled, scripted_gateway(fixtures))
        assert base.accuracy == perm.accuracy

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(PROMPT, [], scripted_gateway([]))


class TestGeneralizationGap:
    def make(self, acc, version=0):
        from promptreg.evaluation import EvalReport

        return EvalReport(
            dataset="d", engine="e", prompt_version=version,
            accuracy=acc, per_sample=(),
        )

    def test_positive_gap(self):
        assert generalization_gap(self.make(0.60), self.make(0.80)) == pytest.approx(0.20)

    def test_zero_gap(self):
        assert generalization_gap(self.make(0.5), self.make(0.5)) == 0.0

    def test_negative_gap_allowed(self):
        assert generalization_gap(self.make(0.85), self.make(0.80)) == pytest.approx(-0.05)

    def test_version_mismatch(self):
        with pytest.raises(ValueError):
            generalization_gap(self.make(0.5, 0), self.make(0.5, 1))
