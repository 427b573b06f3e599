import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from promptreg.errors import DegenerateTransitionError, LogDecompositionError
from promptreg.metrics import (
    Channel,
    ChannelDiagnostics,
    PromptVersion,
    ScopeEstimate,
    active_channels,
    capacity_growth,
    capacity_trigger,
    inefficiency,
    log_decomposition,
    threshold_from_log,
    whitespace_token_count,
)


def pv(tokens: int, version: int = 0) -> PromptVersion:
    return PromptVersion(text="w " * tokens, token_count=tokens, version=version)


class TestTokenCount:
    def test_empty(self):
        assert whitespace_token_count("") == 0

    def test_three_words(self):
        assert whitespace_token_count("a b c") == 3

    def test_create_counts(self):
        p = PromptVersion.create("one two  three\nfour")
        assert p.token_count == 4


class TestCapacityGrowth:
    def test_no_change(self):
        assert capacity_growth(pv(100), pv(100, 1)) == 0.0

    def test_growth(self):
        assert capacity_growth(pv(100), pv(125, 1)) == 0.25

    def test_shrinkage(self):
        assert capacity_growth(pv(200), pv(150, 1)) == -0.25

    def test_zero_length_prev(self):
        with pytest.raises(DegenerateTransitionError):
            capacity_growth(pv(0), pv(10, 1))


class TestCapacityTrigger:
    def test_above(self):
        assert capacity_trigger(0.25, 0.2) is True

    def test_boundary_is_strict(self):
        assert capacity_trigger(0.2, 0.2) is False

    def test_shrinkage_never_triggers(self):
        assert capacity_trigger(-0.1, 0.2) is False

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            capacity_trigger(0.0, -1.0)


class TestThresholdFromLog:
    def test_zero(self):
        assert threshold_from_log(0.0) == 0.0

    def test_log_1_2(self):
        assert threshold_from_log(math.log(1.2)) == pytest.approx(0.2, abs=1e-12)

    def test_one(self):
        assert threshold_from_log(1.0) == pytest.approx(math.e - 1)


class TestInefficiency:
    def test_basic(self):
        assert inefficiency(100, ScopeEstimate(0.75)) == 25.0

    def test_fully_broad(self):
        assert inefficiency(100, ScopeEstimate(1.0)) == 0.0

    def test_empty_prompt(self):
        assert inefficiency(0, ScopeEstimate(0.0)) == 0.0

    def test_monotone_in_capacity(self):
        scope = ScopeEstimate(0.4)
        values = [inefficiency(c, scope) for c in range(0, 200, 7)]
        assert values == sorted(values)

    def test_monotone_in_narrowness(self):
        values = [
            inefficiency(50, ScopeEstimate(1.0 - w / 100)) for w in range(101)
        ]
        assert values == sorted(values)


class TestLogDecomposition:
    def test_identity(self):
        assert log_decomposition(100, 0.25, 100, 0.25) == (0.0, 0.0)

    def test_pure_capacity(self):
        cap, scope = log_decomposition(100, 0.25, 120, 0.25)
        assert cap == pytest.approx(math.log(1.2))
        assert scope == 0.0

    def test_sums_to_direct_ratio(self):
        cap, scope = log_decomposition(100, 0.2, 110, 0.3)
        assert cap + scope == pytest.approx(
            math.log((110 * 0.3) / (100 * 0.2)), abs=1e-12
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(LogDecompositionError):
            log_decomposition(100, 0.0, 110, 0.3)


class TestActiveChannels:
    @pytest.mark.parametrize(
        "b_c,b_w,expected",
        [
            (False, False, frozenset()),
            (True, False, frozenset({Channel.CAPACITY})),
            (False, True, frozenset({Channel.SCOPE})),
            (True, True, frozenset({Channel.CAPACITY, Channel.SCOPE})),
        ],
    )
    def test_exhaustive(self, b_c, b_w, expected):
        assert active_channels(b_c, b_w) == expected


class TestDiagnosticsInvariants:
    def test_consistent_record(self):
        ChannelDiagnostics(
            rho_c=0.3, b_c=True, b_w=False,
            active=frozenset({Channel.CAPACITY}), sgn_delta_w="0",
        )

    def test_inconsistent_capacity(self):
        with pytest.raises(ValueError):
            ChannelDiagnostics(
                rho_c=0.3, b_c=True, b_w=False,
                active=frozenset(), sgn_delta_w="0",
            )

    def test_inconsistent_sign(self):
        with pytest.raises(ValueError):
            ChannelDiagnostics(
                rho_c=0.0, b_c=False, b_w=True,
                active=frozenset({Channel.SCOPE}), sgn_delta_w="0",
            )


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ScopeEstimate(1.5), "mean_scope must lie in [0, 1], got 1.5"),
        (lambda: ChannelDiagnostics(0.0, False, False, frozenset(), "?"),
         "invalid sign '?'"),
        (lambda: ChannelDiagnostics(0.0, False, False,
                                    frozenset({Channel.SCOPE}), "0"),
         "SCOPE membership inconsistent with b_w"),
        (lambda: inefficiency(-1, ScopeEstimate(0.5)),
         "capacity must be nonnegative, got -1"),
    ],
    ids=["scope-above-one", "unknown-sign", "scope-without-b_w",
         "negative-capacity"],
)
def test_out_of_range_value_is_refused(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


@given(
    prev=st.integers(min_value=1, max_value=10_000),
    curr=st.integers(min_value=1, max_value=10_000),
    theta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_trigger_equivalent_to_log_threshold(prev, curr, theta):
    # stay away from float ties at the trigger boundary; the equivalence is
    # exact in real arithmetic but a rounded exp/log pair can flip a strict
    # comparison that lands within an ulp of the threshold
    assume(abs(math.log(curr / prev) - theta) > 1e-9)
    rho = capacity_growth(pv(prev), pv(curr, 1))
    assert capacity_trigger(rho, threshold_from_log(theta)) == (
        math.log(curr / prev) > theta
    )


def test_log_decomposition_additivity_randomized():
    rng = random.Random(20240817)
    for _ in range(10_000):
        c0 = rng.uniform(1, 1000)
        c1 = rng.uniform(1, 1000)
        w0 = rng.uniform(1e-3, 1.0)
        w1 = rng.uniform(1e-3, 1.0)
        cap, scope = log_decomposition(c0, w0, c1, w1)
        assert abs((cap + scope) - math.log((c1 * w1) / (c0 * w0))) < 1e-9
