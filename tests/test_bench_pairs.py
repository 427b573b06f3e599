"""tools/bench_pairs.py's summary of alternating run pairs, on fabricated
runs: every perf claim's numbers come from it."""

import statistics

import pytest

from conftest import ROOT, load

bench_pairs = load(ROOT / "tools" / "bench_pairs.py")
baseline = load(ROOT / "bench" / "baseline.py")


def fabricated(side: str, pair: int, metrics: dict, failed=0, attempted=1):
    return {
        "workload": "w", "side": side, "pair": pair, "seed": pair,
        "result": {
            "metrics": {name: {"value": v} for name, v in metrics.items()},
            "failed": failed, "attempted": attempted,
        },
    }


def runs(parent: dict, change: dict, failed=None, attempted=None) -> list:
    """Runs of each side from per-metric value lists, one run per pair; the
    change side listed first, in reverse pair order, to show that the
    summary sorts each side by pair."""
    pairs = len(next(iter(parent.values())))
    failed = failed or {side: [0] * pairs for side in ("parent", "change")}
    attempted = attempted or {side: [1] * pairs for side in ("parent", "change")}
    out = []
    for side, values in (("change", change), ("parent", parent)):
        for i in reversed(range(pairs)):
            out.append(fabricated(
                side, i + 1, {name: v[i] for name, v in values.items()},
                failed[side][i], attempted[side][i],
            ))
    return out


class TestSummarize:
    def test_counts_follow_each_metric_direction(self):
        parent = {"time_s": [1.0, 2.0, 3.0, 4.0], "ratio": [0.5, 0.5, 0.5, 0.5]}
        change = {"time_s": [0.9, 2.5, 2.0, 4.0], "ratio": [0.6, 0.4, 0.7, 0.5]}
        summary = bench_pairs.summarize(
            runs(parent, change), {"time_s": "lower", "ratio": "higher"}
        )
        assert summary["time_s"]["change_better_in"] == "2 of 4"
        assert summary["time_s"]["change_worse_in"] == "1 of 4"
        assert summary["ratio"]["change_better_in"] == "2 of 4"
        assert summary["ratio"]["change_worse_in"] == "1 of 4"
        assert summary["ratio"]["better"] == "higher"

    def test_undeclared_metric_counts_lower_as_better(self):
        summary = bench_pairs.summarize(
            runs({"n": [5, 5]}, {"n": [4, 6]}), {}
        )
        assert summary["n"]["better"] == "lower"
        assert summary["n"]["change_better_in"] == "1 of 2"
        assert summary["n"]["change_worse_in"] == "1 of 2"

    def test_values_in_pair_order_with_medians_and_quartiles(self):
        parent = {"t": [4.0, 1.0, 3.0, 2.0, 9.0]}
        change = {"t": [3.0, 1.5, 2.0, 2.5, 0.5]}
        entry = bench_pairs.summarize(runs(parent, change), {})["t"]
        for side, values in (("parent", parent["t"]), ("change", change["t"])):
            expected = baseline.summarize(values)
            assert entry[side] == values
            assert entry[f"{side}_median"] == statistics.median(values)
            assert entry[f"{side}_quartiles"] == [expected["q1"], expected["q3"]]
            assert entry[f"{side}_iqr"] == expected["q3"] - expected["q1"]

    def test_failed_and_attempted_are_carried_per_side(self):
        failed = {"parent": [0, 1, 0], "change": [2, 0, 0]}
        attempted = {"parent": [10, 11, 12], "change": [13, 14, 15]}
        summary = bench_pairs.summarize(
            runs({"t": [1, 1, 1]}, {"t": [1, 1, 1]}, failed, attempted), {}
        )
        assert summary["failed"] == failed
        assert summary["attempted"] == attempted
        assert summary["t"]["change_better_in"] == "0 of 3"
        assert summary["t"]["change_worse_in"] == "0 of 3"


class TestQuartiles:
    @pytest.mark.parametrize("values", [
        [1.0, 2.0], [0.3, 0.1, 0.2], [5, 1, 4, 2, 3], [2.2] * 6,
        [0.145, 0.1315, 0.152, 0.139, 0.141, 0.148, 0.150, 0.133, 0.137, 0.144],
    ])
    def test_match_bench_baseline(self, values):
        expected = baseline.summarize(values)
        assert bench_pairs.quartiles(values) == (expected["q1"], expected["q3"])

    def test_one_value_is_both_quartiles(self):
        assert bench_pairs.quartiles([0.7]) == (0.7, 0.7)
