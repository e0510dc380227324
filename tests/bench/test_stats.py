"""Percentile reporting for the benchmark: nearest rank, failures as +inf,
and the rule that a tail is reported only with ten samples beyond it."""

import math

import pytest

from bench.stats import (block_rate, percentile, quartiles, spread,
                         tail_percentile, timing_summary)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 20) == 1.0
    assert percentile(samples, 21) == 2.0
    assert percentile(samples, 100) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(samples, 0)


@pytest.mark.parametrize("n, expected", [
    (19, None),      # 9.5 samples above the median: not even p50
    (20, 50.0),
    (99, 50.0),      # p90 would have 9.9 beyond
    (100, 90.0),
    (999, 90.0),     # p99 would have 9.99 beyond
    (1000, 99.0),
    (10_000, 99.9),
    (100_000, 99.99),
])
def test_tail_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summary_reports_the_supported_tail_with_its_count():
    samples = [i / 1000.0 for i in range(1, 1001)]
    summary = timing_summary(samples)
    assert summary["n"] == 1000
    assert summary["p50"] == 0.5
    assert summary["tail_q"] == 99.0
    assert summary["tail"] == 0.99
    small = timing_summary([0.1] * 50)
    assert "tail" not in small and small["p50"] == 0.1


def test_failed_requests_count_as_infinite_latency():
    ok = [0.001] * 90
    failed = [math.inf] * 10
    # 10% failures: the median is unaffected, p90 is a real sample,
    # and any percentile reaching into the failures is infinite.
    assert percentile(ok + failed, 50) == 0.001
    assert percentile(ok + failed, 90) == 0.001
    assert percentile(ok + failed, 91) == math.inf
    assert timing_summary(ok + failed)["tail"] == 0.001  # p90 at n=100
    # Half the requests failing makes the median a failure, not nan.
    assert percentile([0.001, math.inf], 100) == math.inf
    assert percentile([math.inf] * 3, 50) == math.inf


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, med, q3 = quartiles(values)
    assert (q1, med, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([3.0]) == 0.0


def test_block_rate_is_robust_to_a_short_stall():
    steady = [0.01 * i for i in range(1, 501)]          # 100 events/s
    stalled = steady[:250] + [t + 1.0 for t in steady[250:]]
    assert block_rate(steady, 50, 5.0) == pytest.approx(100.0)
    assert block_rate(stalled, 50, 6.0) == pytest.approx(100.0)
    assert len(stalled) / 6.0 < 85.0                     # the total is not
    assert block_rate([0.5, 1.0], 50, 2.0) == 1.0       # too few: total
