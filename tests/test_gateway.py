import json

import pytest
from hypothesis import given, strategies as st

from conftest import scripted_gateway
from promptreg.errors import (
    FixtureMissError,
    MalformedOutputError,
    MissingFieldError,
    TagsAbsentError,
)
from promptreg.gateway import (
    ChatRequest,
    EngineConfig,
    Role,
    extract_tagged_variable,
    parse_json_object,
)


def req(role=Role.GRADIENT, user="hello", step=0, system=""):
    return ChatRequest(role=role, system=system, user=user, step=step)


class TestScriptedBackend:
    def test_step_keyed_replay(self):
        gw = scripted_gateway(
            [{"role": "GRADIENT", "step": 0, "response": "fixture text"}]
        )
        assert gw.complete(req()) == "fixture text"

    def test_fixture_miss(self):
        gw = scripted_gateway([{"role": "GRADIENT", "step": 1, "response": "x"}])
        with pytest.raises(FixtureMissError, match="role=GRADIENT step=0"):
            gw.complete(req(step=0))

    def test_substring_fallback(self):
        gw = scripted_gateway(
            [{"role": "FORWARD", "match_substring": "apples", "response": "3"}]
        )
        assert gw.complete(req(Role.FORWARD, "How many apples?", step=5)) == "3"

    def test_specific_match_wins(self):
        gw = scripted_gateway(
            [
                {"role": "FORWARD", "match_substring": "apples", "response": "loose"},
                {
                    "role": "FORWARD",
                    "step": 2,
                    "match_substring": "apples",
                    "response": "tight",
                },
            ]
        )
        assert gw.complete(req(Role.FORWARD, "count apples", step=2)) == "tight"
        assert gw.complete(req(Role.FORWARD, "count apples", step=3)) == "loose"

    def test_determinism(self):
        fixtures = [
            {"role": "OPTIMIZER", "step": i, "response": f"resp {i}"}
            for i in range(5)
        ]
        runs = []
        for _ in range(2):
            gw = scripted_gateway(fixtures)
            runs.append(
                [gw.complete(req(Role.OPTIMIZER, step=i)) for i in range(5)]
            )
        assert runs[0] == runs[1]


class TestTranscript:
    def test_appends_one_line_per_call(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        gw = scripted_gateway(
            [{"role": "GRADIENT", "step": 0, "response": "r"}], transcript_path=path
        )
        gw.complete(req())
        gw.complete(req())
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {
            "step", "role", "system", "user", "response", "latency_ms"
        }

    def test_call_order_preserved(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        gw = scripted_gateway(
            [
                {"role": "GRADIENT", "step": 0, "response": "first"},
                {"role": "OPTIMIZER", "step": 0, "response": "second"},
            ],
            transcript_path=path,
        )
        gw.complete(req(Role.GRADIENT))
        gw.complete(req(Role.OPTIMIZER))
        responses = [json.loads(l)["response"] for l in path.read_text().splitlines()]
        assert responses == ["first", "second"]


class TestCompleteJson:
    def test_repair_reask(self):
        gw = scripted_gateway(
            [
                {"role": "GRADIENT", "step": 0, "response": "not json at all"},
                {
                    "role": "GRADIENT",
                    "step": 0,
                    "match_substring": "valid JSON only",
                    "response": '{"guidance": "g"}',
                },
            ]
        )
        assert gw.complete_json(req(), ["guidance"]) == {"guidance": "g"}

    def test_hard_failure_after_reask(self):
        gw = scripted_gateway(
            [{"role": "GRADIENT", "step": 0, "response": "still not json"}]
        )
        with pytest.raises(MalformedOutputError):
            gw.complete_json(req(), ["guidance"])


class TestParseJsonObject:
    def test_plain_object(self):
        out = parse_json_object(
            '{"purified_gradient": "x"}', ["purified_gradient"]
        )
        assert out == {"purified_gradient": "x"}

    def test_fenced_object(self):
        out = parse_json_object('```json\n{"guidance": "g"}\n```', ["guidance"])
        assert out == {"guidance": "g"}

    def test_surrounding_prose(self):
        out = parse_json_object(
            'Sure! Here is the result: {"operations": []} Hope that helps.',
            ["operations"],
        )
        assert out == {"operations": []}

    def test_no_json(self):
        with pytest.raises(MalformedOutputError):
            parse_json_object("no json here", [])

    def test_missing_key(self):
        with pytest.raises(MissingFieldError, match="missing field: guidance"):
            parse_json_object('{"other": 1}', ["guidance"])

    @pytest.mark.parametrize(
        "payload",
        [
            {"purified_gradient": "Enumerate items before counting."},
            {"operations": [{"type": "insert", "canonical_description": "x",
                             "value": 1}]},
            {"rules_changed": [{"description": "d", "type": "CASE_PATCH"}],
             "specificity_direction": "increase"},
            {"guidance": "Merge redundant rules."},
        ],
    )
    def test_round_trip_on_output_schemas(self, payload):
        keys = list(payload)
        assert parse_json_object(json.dumps(payload), keys) == payload


class TestExtractTaggedVariable:
    def test_basic(self):
        assert (
            extract_tagged_variable(
                "<IMPROVED>new prompt</IMPROVED>", "<IMPROVED>", "</IMPROVED>"
            )
            == "new prompt"
        )

    def test_missing_end_tag(self):
        with pytest.raises(TagsAbsentError, match="variable tags absent"):
            extract_tagged_variable("<A>text only", "<A>", "</A>")

    def test_first_span_wins(self):
        text = "<T>first</T> junk <T>second</T>"
        assert extract_tagged_variable(text, "<T>", "</T>") == "first"

    def test_invalid_tags(self):
        with pytest.raises(ValueError):
            extract_tagged_variable("x", "<T>", "<T>")

    @given(st.text(max_size=200))
    def test_left_inverse_of_wrapping(self, body):
        if "<S>" in body or "</S>" in body:
            return
        assert extract_tagged_variable("<S>" + body + "</S>", "<S>", "</S>") == (
            body.strip()
        )


class TestHttpBackend:
    def test_missing_credential(self, monkeypatch):
        from promptreg.errors import BackendUnavailableError
        from promptreg.gateway import HttpBackend

        monkeypatch.delenv("PROMPTREG_TEST_KEY", raising=False)
        backend = HttpBackend()
        engine = EngineConfig(
            name="live",
            endpoint="http://localhost:1/v1/chat/completions",
            model_id="m",
            auth_env_var="PROMPTREG_TEST_KEY",
        )
        with pytest.raises(BackendUnavailableError, match="missing credential"):
            backend.complete(req(Role.FORWARD), engine)

    def test_network_failure_retries_then_unavailable(self):
        from promptreg.errors import BackendUnavailableError
        from promptreg.gateway import HttpBackend

        sleeps = []
        backend = HttpBackend(timeout=0.2, sleep=sleeps.append)
        engine = EngineConfig(
            name="live",
            endpoint="http://127.0.0.1:9/v1/chat/completions",
            model_id="m",
        )
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.complete(req(Role.FORWARD), engine)
        assert sleeps == [1.0, 4.0, 16.0]

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[1]",
            b"{}",
            b'{"choices": []}',
            b'{"choices": [{"message": {}}]}',
            b'{"choices": [{"message": {"content": null}}]}',
        ],
    )
    def test_malformed_success_body(self, monkeypatch, body):
        import requests

        from promptreg.gateway import HttpBackend

        response = requests.Response()
        response.status_code = 200
        response._content = body
        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: response)
        engine = EngineConfig(
            name="live",
            endpoint="http://127.0.0.1:9/v1/chat/completions",
            model_id="m",
        )
        with pytest.raises(MalformedOutputError, match="malformed response body"):
            HttpBackend().complete(req(Role.FORWARD), engine)
