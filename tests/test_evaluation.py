import json
import random
import string
import threading
from contextlib import closing
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scripted_gateway, within
from promptreg.errors import ConfigError, DatasetError
from promptreg.evaluation import (
    CallPool,
    Sample,
    evaluate,
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
    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"question": "q", "answer": "1"}\n')
        assert load_dataset(path) == [Sample("q", "1")]

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
            ('{"question": "q", "answer": true}\n',
             "line 1: field answer is True, not text or a number"),
            ('{"question": "q", "answer": NaN}\n',
             "line 1: field answer is nan, not text or a number"),
            ('{"question": Infinity, "answer": "a"}\n',
             "line 1: field question is inf, not text or a number"),
            ('{"question": "q", "answer": 1e400}\n',
             "line 1: field answer is inf, not text or a number"),
            ('{"question": "", "answer": "a"}\n',
             "line 1: empty field question"),
            ('{"question": "q", "answer": "a"}\n{"question": "q", "answer": ""}\n',
             "line 2: empty field answer"),
        ],
        ids=["not-json-after-blank", "string", "number", "null-answer",
             "list-question", "object-answer", "boolean-answer", "nan",
             "infinity", "overflow", "empty-question", "empty-answer"],
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
    # "İ" lowercases to two code points; the marker is found in the text.
    ("İİİ Answer: 42", "42"),
]


class TestExtractAnswer:
    @pytest.mark.parametrize("raw,expected", EXTRACTION_CASES)
    def test_cases(self, raw, expected):
        assert extract_answer(raw) == expected


class TestNormalize:
    # Any code point, with the whitespace, trailing punctuation and number
    # characters that normalization acts on drawn often.
    @settings(max_examples=2000, deadline=None)
    @given(st.text(st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(string.whitespace + ".,;:!?+-0123456789\u00a0\u0660"),
    )))
    def test_idempotent_random(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once

    def test_numeric_canonicalization(self):
        assert normalize_answer("7.0") == "7"
        assert normalize_answer("007") == "7"
        assert normalize_answer("-0") == "0"
        assert normalize_answer("+3.20") == "3.2"


class TestSample:
    def test_normalized_answer_is_no_field(self):
        sample = Sample("q", " 7.0. ")
        assert sample.normalized_answer == "7"
        assert asdict(sample) == {"question": "q", "answer": " 7.0. "}
        assert sample == Sample("q", " 7.0. ")
        assert repr(sample) == "Sample(question='q', answer=' 7.0. ')"


class TestExactMatch:
    """``evaluate`` scores a sample correct when its extracted answer equals
    the normalized gold answer; both sides pass through ``normalize_answer``."""

    def test_equal_literals(self):
        assert normalize_answer("(B)") == normalize_answer("(B)")

    def test_strict_about_parentheses(self):
        assert normalize_answer("B") != normalize_answer("(B)")

    def test_numeric_equivalence(self):
        assert normalize_answer("7") == normalize_answer("7.0")

    def test_symmetric_reflexive(self):
        for a, b in [("x", "x"), ("7.0", "7"), ("a", "b")]:
            assert (normalize_answer(a) == normalize_answer(b)) == (
                normalize_answer(b) == normalize_answer(a)
            )
            assert normalize_answer(a) == normalize_answer(a)


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

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_refused_before_any_call(self, tmp_path, cap):
        samples = [Sample(f"q{i}", str(i)) for i in range(3)]
        transcript = tmp_path / "t.jsonl"
        gw = scripted_gateway(forward_fixtures(samples), transcript)
        message = "concurrency_cap must be at least 1"
        with closing(gw), pytest.raises(ConfigError, match=message):
            evaluate(PROMPT, samples, gw, concurrency_cap=cap)
        assert not transcript.exists()

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


class TestCallPool:
    """Background tasks fill only slots that nothing else waits for."""

    @staticmethod
    def blocked(pool):
        """Hold the pool's one slot until the event returned is set."""
        release = threading.Event()
        pool.submit(release.wait)
        return release

    def test_background_task_waits_for_every_other_task(self):
        order = []
        with CallPool(1) as pool:
            release = self.blocked(pool)
            pool.submit_background(order.append, "background")
            pool.submit(order.append, "first")
            pool.submit(order.append, "second")
            release.set()
        assert order == ["first", "second", "background"]

    def test_slot_asked_for_is_served_before_a_background_task(self):
        order = []
        with CallPool(1) as pool:
            release = self.blocked(pool)
            pool.submit_background(order.append, "background")
            # The slot is asked for before the work it waits on lets go.
            with pool.slot(release.set):
                order.append("slot")
        assert order == ["slot", "background"]

    def test_submit_after_shutdown_is_refused(self):
        pool = CallPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError) as raised:
            pool.submit(int)
        assert str(raised.value) == "cannot schedule new futures after shutdown"

    def test_decided_evaluation_sends_the_rest_only_when_asked(self, tmp_path):
        samples = [Sample(f"q{i}", str(i)) for i in range(5)]
        transcript = tmp_path / "t.jsonl"
        gw = scripted_gateway(forward_fixtures(samples, wrong_indices={3}),
                              transcript)
        full = evaluate(PROMPT, samples, scripted_gateway(
            forward_fixtures(samples, wrong_indices={3})))
        with closing(gw), CallPool(1) as pool:
            # No call runs before ``decide`` is first asked, at (0, 5), so
            # the first result alone decides.
            release = self.blocked(pool)
            gate = evaluate(PROMPT, samples, gw, pool=pool,
                            on_queued=release.set,
                            decide=lambda correct, remaining: correct >= 1 or None)
            assert gate.outcome is True
            # The slot is free again, but the rest of the calls are held.
            pool.submit(int).result()
            assert not gate.landed()
            assert len(transcript.read_text().splitlines()) == 1
            pool.hold(False)
            assert gate.report() == full
            assert gate.landed()
        assert len(transcript.read_text().splitlines()) == 5

    def test_gate_decided_before_any_call_is_sent_returns_at_once(self):
        samples = [Sample(f"q{i}", str(i)) for i in range(3)]
        gw = scripted_gateway(forward_fixtures(samples))
        with CallPool(1) as pool:
            release = self.blocked(pool)
            try:
                # Every call is held, so none lands for the gate to wait on.
                gate = within(5, lambda: evaluate(
                    PROMPT, samples, gw, pool=pool, decide=lambda *tally: True))
                assert gate.outcome is True
                assert not gate.landed()
            finally:
                release.set()
            pool.hold(False)
            assert gate.report().accuracy == 1.0

    def test_decide_is_first_asked_once_on_queued_has_returned(self):
        """The results that land while ``on_queued`` runs are counted when
        ``decide`` is first asked."""
        samples = [Sample(f"q{i}", str(i)) for i in range(5)]
        gw = scripted_gateway(forward_fixtures(samples, wrong_indices={3}))
        asked = []
        with CallPool(1) as pool:
            gate = evaluate(
                PROMPT, samples, gw, pool=pool,
                # One slot, so this task runs once every call has landed.
                on_queued=lambda: pool.submit(int).result(),
                decide=lambda *tally: asked.append(tally) or True,
            )
            assert gate.landed()
        assert asked == [(4, 0)]
        assert gate.outcome is True

    def test_held_calls_run_after_every_task_and_before_later_gates(
        self, tmp_path
    ):
        """A decided gate's calls on hold, once released, wait for every
        task, even one queued after the release, and run before the calls
        of a gate queued after them."""
        samples = [Sample(f"q{i}", str(i)) for i in range(5)]
        transcript = tmp_path / "t.jsonl"
        gw = scripted_gateway(forward_fixtures(samples), transcript)

        def steps():
            return [json.loads(line)["step"]
                    for line in transcript.read_text().splitlines()]

        seen = []

        def count_lines():
            seen.append(len(steps()))

        with closing(gw), CallPool(1) as pool:
            gate = evaluate(PROMPT, samples, gw, step=1, pool=pool,
                            decide=lambda correct, remaining: correct >= 1 or None)
            release = self.blocked(pool)
            try:
                pool.hold(False)
                pool.submit(count_lines)
                later = evaluate(
                    PROMPT, samples, gw, step=2, pool=pool,
                    on_queued=lambda: (pool.submit(count_lines), release.set()),
                    decide=lambda correct, remaining: remaining == 0 or None,
                )
            finally:
                release.set()
            assert gate.report().accuracy == 1.0
            assert later.landed()
        assert seen == [1, 1]
        assert steps() == [1] * 5 + [2] * 5


class TestGeneralizationGap:
    def make(self, acc, prompt="p"):
        from promptreg.evaluation import EvalReport

        return EvalReport(
            dataset="d", engine="e", prompt=prompt, accuracy=acc, per_sample=(),
        )

    def test_positive_gap(self):
        assert generalization_gap(self.make(0.60), self.make(0.80)) == pytest.approx(0.20)

    def test_zero_gap(self):
        assert generalization_gap(self.make(0.5), self.make(0.5)) == 0.0

    def test_negative_gap_allowed(self):
        assert generalization_gap(self.make(0.85), self.make(0.80)) == pytest.approx(-0.05)

    def test_version_mismatch(self):
        with pytest.raises(ValueError):
            generalization_gap(self.make(0.5, "p"), self.make(0.5, "q"))
