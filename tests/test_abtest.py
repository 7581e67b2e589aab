"""The verdict of ``tools/abtest.py`` on synthetic paired samples (no
perfbench runs)."""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # tools/ is a repo-root package, not in src/
    sys.path.insert(0, str(REPO))

from tools.abtest import (  # noqa: E402
    format_table, judge, load_benchmark, verdict)

PARENT = [6.4, 6.1, 6.6, 5.9, 6.3, 6.5, 6.0, 6.2, 6.4, 6.3]


def test_clear_gain():
    change = [1.0, 1.1, 1.0, 0.9, 1.05, 1.0, 1.0, 1.1, 0.95, 1.0]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["verdict"] == "gain"
    assert v["wins"] == v["pairs"] == 10
    assert v["ratio"] == pytest.approx(1.0 / 6.3)


def test_nine_of_ten_wins_is_enough_eight_is_not():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0] + 0.1  # one lost pair
    assert verdict(PARENT, change, "lower", 0.25)["verdict"] == "gain"
    change[1] = PARENT[1] + 0.1  # two lost pairs
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 8 and v["verdict"] == "same"


def test_gap_must_exceed_parent_iqr():
    # the change wins every pair, but by less than the parent's spread
    change = [p - 0.01 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10
    assert v["parent_iqr"] > 0.01
    assert v["verdict"] == "same"


def test_regression_against_bound():
    worse = [p * 1.3 for p in PARENT]  # beyond a 25% bound
    assert verdict(PARENT, worse, "lower", 0.25)["verdict"] == "regression"
    within = [p * 1.2 for p in PARENT]
    assert verdict(PARENT, within, "lower", 0.25)["verdict"] == "same"


def test_higher_is_better_direction():
    parent = [1.0] * 10
    assert verdict(parent, [1.0] * 10, "higher", 0.01)["verdict"] == "same"
    v = verdict(parent, [0.98] * 10, "higher", 0.01)
    assert v["verdict"] == "regression" and v["wins"] == 0
    v = verdict([0.5, 0.52, 0.48, 0.5] * 3, [0.9, 0.95, 0.9, 0.92] * 3,
                "higher", 0.01)
    assert v["verdict"] == "gain" and v["wins"] == 12


def test_fewer_than_ten_pairs_cannot_gain():
    change = [p / 6 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.25)["verdict"] == "gain"
    v = verdict(PARENT[:6], change[:6], "lower", 0.25)
    assert v["wins"] == 6 and v["verdict"] == "same"


def test_spread_wider_than_bound_is_unresolved():
    parent = [1.0, 1.2, 0.9, 1.1, 1.0, 0.95, 1.05, 1.15, 0.85, 1.0]
    v = verdict(parent, list(reversed(parent)), "lower", 0.05)
    assert v["parent_iqr"] > 0.05 * v["parent_median"]
    assert v["verdict"] == "unresolved"
    # unless every change run beats every parent run
    v = verdict(parent, [0.8] * 10, "lower", 0.05)
    assert v["verdict"] != "unresolved"


def test_ties_are_not_wins():
    v = verdict([100.0] * 10, [100.0] * 10, "lower", 0.05)
    assert v["wins"] == 0 and v["verdict"] == "same"


def test_rejects_unpaired_samples():
    with pytest.raises(ValueError, match="parent"):
        verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError, match="better"):
        verdict([1.0], [1.0], "sideways", 0.25)


def _result(wall_s, failed=0, attempted=400):
    """A perfbench ``--trace 0`` result with the given wall time and
    failure count; the other metrics are constant."""
    values = {"setup_s": 0.7, "wall_s": wall_s, "first_result_s": wall_s / 2,
              "batch_ms_p50": 1e3 * wall_s, "batch_ms_p95": 1.1e3 * wall_s,
              "peak_rss_mb": 100.0, "ok_frac": 1.0 - failed / attempted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def test_change_that_fails_more_gains_nothing():
    bounds, _ = load_benchmark()
    parent = [_result(w) for w in PARENT]
    # 6x faster, but one run failed 1 of 400 operations: ok_frac drops
    # by 0.25%, inside its 1% bound
    change = [_result(w / 6) for w in PARENT]
    change[3] = _result(PARENT[3] / 6, failed=1)
    report = judge({"parent": parent, "change": change}, bounds)
    assert report["failures"] == {
        "parent": {"incorrect_runs": 0, "failed": 0, "attempted": 4000},
        "change": {"incorrect_runs": 1, "failed": 1, "attempted": 4000}}
    assert report["change_failed_more"]
    assert report["verdicts"]["ok_frac"]["verdict"] == "same"
    assert report["verdicts"]["wall_s"]["wins"] == 10
    assert report["verdicts"]["wall_s"]["verdict"] == "unresolved"
    # the same samples without the failure are a gain
    change[3] = _result(PARENT[3] / 6)
    report = judge({"parent": parent, "change": change}, bounds)
    assert not report["change_failed_more"]
    assert report["verdicts"]["wall_s"]["verdict"] == "gain"


def test_failures_compare_as_shares_of_attempts():
    bounds, _ = load_benchmark()
    # the parent failed 1 of 400; the faster change failed 1 of 800
    parent = [_result(w) for w in PARENT]
    parent[0] = _result(PARENT[0], failed=1)
    change = [_result(w / 6, attempted=800) for w in PARENT]
    change[5] = _result(PARENT[5] / 6, failed=1, attempted=800)
    report = judge({"parent": parent, "change": change}, bounds)
    assert report["failures"]["parent"]["incorrect_runs"] == 1
    assert report["failures"]["change"]["incorrect_runs"] == 1
    assert not report["change_failed_more"]
    assert report["verdicts"]["wall_s"]["verdict"] == "gain"


def test_benchmark_spec_and_table_cover_every_end_to_end_metric():
    bounds, run_seconds = load_benchmark()
    assert run_seconds > 0
    assert {"wall_s", "peak_rss_mb", "ok_frac"} <= set(bounds)
    assert bounds["ok_frac"]["better"] == "higher"
    report = {"verdicts": {
        name: verdict([1.0, 1.0], [1.0, 1.0], b["better"], b["bound"])
        for name, b in bounds.items()}}
    table = format_table(report).splitlines()
    assert len(table) == 1 + len(bounds)
    assert all(line.endswith("same") for line in table[1:])
