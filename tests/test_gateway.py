import json
import tempfile
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ok_reply, scripted_gateway
from promptreg.errors import (
    BackendUnavailableError,
    ConfigError,
    FixtureMissError,
    MalformedOutputError,
    MissingFieldError,
    RequestRejectedError,
    TagsAbsentError,
)
from promptreg.gateway import (
    ChatRequest,
    EngineConfig,
    Fixture,
    HttpBackend,
    Role,
    ScriptedBackend,
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


class TestFixtureFile:
    GOOD = '{"role": "FORWARD", "step": 0, "response": "r"}'

    @pytest.mark.parametrize(
        "lines, line_number, message",
        [
            (['{"role": "FORWARD", "response": '], 2, "invalid JSON"),
            (['{"role": "FORWARD", "step": 1}'], 2, "missing field response"),
            (['{"role": "NOPE", "response": "r"}'], 2, "role 'NOPE'"),
            (['{"role": ["FORWARD"], "response": "r"}'], 2, "role ['FORWARD']"),
            (["", '["FORWARD", "r"]'], 3, "not a JSON object"),
            (['{"role": "FORWARD", "response": null}'], 2, "not a string"),
            (['{"role": "FORWARD", "step": "1", "response": "r"}'], 2,
             "step '1'"),
            (['{"role": "FORWARD", "response": "a"}, {"role": "FORWARD", '
              '"response": "b"}'], 2, "invalid JSON"),
            (['{"role": "FORWARD", "response": ["a"', '"b"], "step": 0}'], 2,
             "invalid JSON"),
            # Two records on one line, then one record split over two lines:
            # a decode of the joined lines counts as many records as lines.
            (['{"role": "FORWARD", "response": "a"}, {"role": "FORWARD", '
              '"response": "b"}', '{"role": "FORWARD"', '"response": "c"}'], 2,
             "invalid JSON"),
        ],
        ids=["not-json", "no-response", "bad-role", "list-role", "not-object",
             "null-response", "string-step", "two-per-line", "split-record",
             "merge-and-split"],
    )
    def test_malformed_file_names_path_and_line(
        self, tmp_path, lines, line_number, message
    ):
        path = tmp_path / "fixtures.jsonl"
        path.write_text("\n".join([self.GOOD, *lines]) + "\n")
        with pytest.raises(ConfigError) as caught:
            ScriptedBackend.from_jsonl(path)
        assert str(path) in str(caught.value)
        assert f"line {line_number}: " in str(caught.value)
        assert message in str(caught.value)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(ConfigError, match="fixture file not found: .*absent"):
            ScriptedBackend.from_jsonl(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        lines = [
            json.dumps({"role": "OPTIMIZER", "step": i, "response": f"r{i}"})
            for i in range(30)
        ]
        lines[11:11] = ["", "  "]
        path.write_text("\n".join(lines) + "\n")
        backend = ScriptedBackend.from_jsonl(path)
        engine = EngineConfig(name="scripted")
        assert [backend.complete(req(Role.OPTIMIZER, step=i), engine)
                for i in range(30)] == [f"r{i}" for i in range(30)]
        lines[25] = lines[25][:-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="line 26: invalid JSON"):
            ScriptedBackend.from_jsonl(path)

    def test_blank_lines_and_crlf_are_skipped(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_bytes(
            b'\r\n{"role": "GRADIENT", "step": 0, "response": "a"}\r\n  \r\n'
            b'{"role": "GRADIENT", "response": "b"}\r\n'
        )
        backend = ScriptedBackend.from_jsonl(path)
        engine = EngineConfig(name="scripted")
        assert backend.complete(req(step=0), engine) == "a"
        assert backend.complete(req(step=1), engine) == "b"


def linear_scan(fixtures: list[Fixture], request: ChatRequest) -> str:
    """The matcher before the (role, step) index: one pass over all fixtures."""

    def specificity(fixture: Fixture) -> int:
        return (2 if fixture.step is not None else 0) + (
            1 if fixture.match_substring is not None else 0
        )

    best = None
    for fixture in fixtures:
        if fixture.role != request.role:
            continue
        if fixture.step is not None and fixture.step != request.step:
            continue
        if (
            fixture.match_substring is not None
            and fixture.match_substring not in request.user
        ):
            continue
        if best is None or specificity(fixture) > specificity(best):
            best = fixture
    if best is None:
        raise FixtureMissError(
            f"fixture miss: role={request.role.value} step={request.step}"
        )
    return best.response


ROLES = st.sampled_from([Role.FORWARD, Role.GRADIENT])
STEPS = st.integers(min_value=0, max_value=2)
FIXTURES = st.lists(
    st.builds(
        Fixture,
        role=ROLES,
        step=st.none() | STEPS,
        match_substring=st.none() | st.text(alphabet="ab", max_size=2),
        response=st.text(alphabet="xyz", max_size=2),
    ),
    max_size=12,
)
REQUESTS = st.builds(
    ChatRequest, role=ROLES, system=st.just(""),
    user=st.text(alphabet="ab", max_size=4), step=STEPS,
)


class TestMatcherAgainstLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(FIXTURES, st.lists(REQUESTS, min_size=1, max_size=5))
    def test_same_response_or_same_miss(self, fixtures, requests_):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fixtures.jsonl"
            path.write_text("".join(
                json.dumps({"role": f.role.value, "step": f.step,
                            "match_substring": f.match_substring,
                            "response": f.response}) + "\n"
                for f in fixtures
            ))
            backends = [ScriptedBackend(fixtures), ScriptedBackend.from_jsonl(path)]
        engine = EngineConfig(name="scripted")
        for request in requests_:
            try:
                expected = linear_scan(fixtures, request)
            except FixtureMissError as miss:
                for backend in backends:
                    with pytest.raises(FixtureMissError) as caught:
                        backend.complete(request, engine)
                    assert str(caught.value) == str(miss)
                continue
            for backend in backends:
                assert backend.complete(request, engine) == expected


class TestTranscript:
    def test_appends_one_line_per_call(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        with closing(scripted_gateway(
            [{"role": "GRADIENT", "step": 0, "response": "r"}], transcript_path=path
        )) as gw:
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
        with closing(scripted_gateway(
            [
                {"role": "GRADIENT", "step": 0, "response": "first"},
                {"role": "OPTIMIZER", "step": 0, "response": "second"},
            ],
            transcript_path=path,
        )) as gw:
            gw.complete(req(Role.GRADIENT))
            gw.complete(req(Role.OPTIMIZER))
        responses = [json.loads(l)["response"] for l in path.read_text().splitlines()]
        assert responses == ["first", "second"]

    def test_call_after_close_reopens_and_appends(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        gw = scripted_gateway(
            [{"role": "GRADIENT", "step": 0, "response": "r"}], transcript_path=path
        )
        gw.close()  # nothing opened yet
        gw.complete(req(user="before"))
        gw.close()
        gw.close()
        gw.complete(req(user="after"))
        gw.close()
        users = [json.loads(l)["user"] for l in path.read_text().splitlines()]
        assert users == ["before", "after"]


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


def engine_at(url: str) -> EngineConfig:
    return EngineConfig(name="live", endpoint=url, model_id="m")


class TestHttpBackend:
    """The real transport against the loopback server of ``conftest``."""

    def test_missing_credential(self, monkeypatch):
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
        sleeps = []
        backend = HttpBackend(timeout=0.2, sleep=sleeps.append)
        engine = engine_at("http://127.0.0.1:9/v1/chat/completions")
        with pytest.raises(BackendUnavailableError, match="after 4 attempts"):
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
    def test_malformed_success_body(self, loopback, body):
        loopback.script((200, body, {}))
        with pytest.raises(MalformedOutputError, match="malformed response body"):
            HttpBackend().complete(req(Role.FORWARD), engine_at(loopback.url))

    @pytest.mark.parametrize("status", [500, 502, 503])
    def test_server_error_is_retried(self, loopback, status):
        posts = loopback.script((status, b"busy", {}), ok_reply())
        sleeps = []
        backend = HttpBackend(sleep=sleeps.append)
        assert backend.complete(req(Role.FORWARD), engine_at(loopback.url)) == "done"
        assert len(posts) == 2
        assert sleeps == [1.0]

    def test_numeric_retry_after_lengthens_the_wait(self, loopback):
        loopback.script(
            (503, b"", {"Retry-After": "7"}),
            (429, b"", {"Retry-After": "2"}),
            (429, b"", {"Retry-After": "30.5"}),
            ok_reply(),
        )
        sleeps = []
        HttpBackend(sleep=sleeps.append).complete(
            req(Role.FORWARD), engine_at(loopback.url)
        )
        assert sleeps == [7.0, 4.0, 30.5]

    @pytest.mark.parametrize(
        "status, retry_after",
        [
            (429, "Wed, 21 Oct 2015 07:28:00 GMT"),
            (429, "-5"),
            (429, "nan"),
            (500, "9"),
        ],
    )
    def test_other_retry_after_keeps_the_backoff(
        self, loopback, status, retry_after
    ):
        loopback.script((status, b"", {"Retry-After": retry_after}), ok_reply())
        sleeps = []
        HttpBackend(sleep=sleeps.append).complete(
            req(Role.FORWARD), engine_at(loopback.url)
        )
        assert sleeps == [1.0]

    @pytest.mark.parametrize(
        "status, cause", [(429, "rate limited"), (502, "\\(502\\): down")]
    )
    def test_four_attempts_and_no_wait_after_the_last(
        self, loopback, status, cause
    ):
        posts = loopback.script(*[(status, b"down", {})] * 4)
        sleeps = []
        with pytest.raises(BackendUnavailableError, match="after 4 attempts: .*"
                           + cause):
            HttpBackend(sleep=sleeps.append).complete(
                req(Role.FORWARD), engine_at(loopback.url)
            )
        assert len(posts) == 4
        assert sleeps == [1.0, 4.0, 16.0]

    def test_client_error_is_not_retried(self, loopback):
        posts = loopback.script((400, b"bad request", {}))
        sleeps = []
        with pytest.raises(RequestRejectedError, match="400"):
            HttpBackend(sleep=sleeps.append).complete(
                req(Role.FORWARD), engine_at(loopback.url)
            )
        assert len(posts) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [307, 308])
    def test_redirect_of_the_post_is_not_followed(self, loopback, status):
        posts = loopback.script((status, b"moved", {"Location": loopback.url}))
        sleeps = []
        with pytest.raises(RequestRejectedError, match=f"{status}\\): moved"):
            HttpBackend(sleep=sleeps.append).complete(
                req(Role.FORWARD), engine_at(loopback.url)
            )
        assert len(posts) == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "endpoint", ["", "api.example.com/v1", "foo://x/y", "http:///v1"],
        ids=["missing", "no-scheme", "other-scheme", "no-host"],
    )
    def test_endpoint_that_cannot_be_sent_fails_at_once(self, endpoint):
        sleeps = []
        with pytest.raises(ConfigError, match="engine live: endpoint .* is "
                           "not an http:// or https:// URL"):
            HttpBackend(sleep=sleeps.append).complete(
                req(Role.FORWARD), engine_at(endpoint)
            )
        assert sleeps == []

    def test_port_that_cannot_be_sent_fails_at_once(self):
        sleeps = []
        with pytest.raises(ConfigError, match="cannot be sent: nonnumeric port"):
            HttpBackend(sleep=sleeps.append).complete(
                req(Role.FORWARD), engine_at("http://127.0.0.1:port/v1")
            )
        assert sleeps == []

    @pytest.mark.parametrize("key", ["sk\nX-Injected: 1", "sk-€"],
                             ids=["newline", "not-latin-1"])
    def test_header_that_cannot_be_sent_fails_at_once(
        self, loopback, monkeypatch, key
    ):
        monkeypatch.setenv("PROMPTREG_TEST_KEY", key)
        engine = replace(engine_at(loopback.url), auth_env_var="PROMPTREG_TEST_KEY")
        sleeps = []
        with pytest.raises(ConfigError, match="engine live: request cannot be sent"):
            HttpBackend(sleep=sleeps.append).complete(req(Role.FORWARD), engine)
        assert sleeps == []
        assert loopback.received == []
