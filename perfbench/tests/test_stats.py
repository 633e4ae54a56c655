"""The benchmark's own logic: tail rule, SLO rate, backlog, accounting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import math

import pytest

from stats import (account, accounting_holds, backlog_growing,
                   departure_rate, missed_as_inf, percentile, quartile_spread,
                   samples_beyond, slo_rate, summarize, tail_percentile)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ten_samples_lie_beyond_the_reported_tail():
    for n in (20, 99, 100, 199, 200, 999, 1000, 5000):
        q = tail_percentile(n)
        assert samples_beyond(n, q) >= 10
        higher = [c for c in (50.0, 90.0, 95.0, 99.0, 99.9) if c > q]
        assert all(samples_beyond(n, c) < 10 for c in higher)


@pytest.mark.parametrize("n,q", [(19, None), (20, 50.0), (99, 50.0),
                                 (100, 90.0), (199, 90.0), (200, 95.0),
                                 (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_thresholds(n, q):
    assert tail_percentile(n) == q


def test_summarize_reports_tail_only_when_supported():
    assert "tail" not in summarize([1.0] * 99)
    s = summarize([float(i) for i in range(100)])
    assert s["n"] == 100 and s["tail_q"] == 90.0 and s["tail"] == 89.0


def test_missed_requests_count_as_slo_misses():
    lats = missed_as_inf([100.0] * 89 + [None] * 11)
    assert percentile(lats, 90) == math.inf
    rows = [{"rate": 2.0, "p90_ms": 100.0, "backlog": False},
            {"rate": 5.0, "p90_ms": percentile(lats, 90), "backlog": False}]
    assert slo_rate(rows, 500.0) == 2.0


def test_slo_rate_picks_highest_passing_rate():
    rows = [{"rate": 3.0, "p90_ms": 200.0, "backlog": False},
            {"rate": 7.0, "p90_ms": 450.0, "backlog": False},
            {"rate": 10.0, "p90_ms": 900.0, "backlog": False},
            {"rate": 24.0, "p90_ms": 4000.0, "backlog": True}]
    assert slo_rate(rows, 500.0) == 7.0
    assert slo_rate(rows, 1000.0) == 10.0
    assert slo_rate(rows, 100.0) == 0.0


def test_slo_rate_rejects_a_growing_backlog_under_the_limit():
    rows = [{"rate": 3.0, "p90_ms": 200.0, "backlog": False},
            {"rate": 7.0, "p90_ms": 450.0, "backlog": True}]
    assert slo_rate(rows, 500.0) == 3.0


def test_backlog_detection():
    stable = [100.0, 140.0, 90.0, 120.0, 110.0, 95.0, 130.0, 105.0, 115.0]
    assert not backlog_growing(stable)
    growing = [100.0 + 150.0 * i for i in range(30)]
    assert backlog_growing(growing)
    # Relative growth of a fast system below the absolute floor is jitter.
    assert not backlog_growing([1.0] * 10 + [5.0] * 10 + [9.0] * 10)
    # Lost requests at the end of a phase read as backlog.
    assert backlog_growing([100.0] * 20 + [math.inf] * 10)
    assert not backlog_growing([1.0, 500.0, 1.0])  # too few to judge


def test_outcome_accounting():
    counts = account(["completed"] * 5 + ["rejected"] * 2 + ["expired",
                                                            "failed"])
    assert counts == {"completed": 5, "rejected": 2, "expired": 1,
                      "failed": 1, "untyped": 0, "offered": 9}
    assert accounting_holds(counts)
    counts["offered"] += 1  # a request that vanished
    assert not accounting_holds(counts)
    lost = account(["completed", "still pending"])
    assert lost["untyped"] == 1 and not accounting_holds(lost)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_departure_rate_ignores_ramp_and_tail():
    # Steady 10/s departures, a slow start and a straggler at the end.
    done = [0.0, 1.0] + [1.0 + 0.1 * i for i in range(1, 41)] + [9.0]
    assert departure_rate(done) == pytest.approx(10.0)
    assert departure_rate([1.0, 2.0]) == 0.0
    assert departure_rate([5.0] * 10) == 0.0
