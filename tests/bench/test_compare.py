"""Verdicts of bench/compare.py under BENCHMARK.json's bounds."""

import pytest

from bench.compare import compare, verdict
from bench.run import load_spec


def test_verdicts_against_the_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    # Lower is better, bound 10%.
    assert verdict(base, [x * 1.2 for x in base], 0.1, True)[0] == "worse"
    assert verdict(base, [x * 0.8 for x in base], 0.1, True)[0] == "better"
    assert verdict(base, [x * 1.05 for x in base], 0.1, True)[0] == \
        "within-bound"
    # Higher is better: the same numbers read the other way.
    assert verdict(base, [x * 1.2 for x in base], 0.1, False)[0] == "better"
    word, change = verdict(base, [x * 0.8 for x in base], 0.1, False)
    assert word == "worse" and abs(change - 0.2) < 1e-9


def test_wide_spread_is_unresolved_unless_separated():
    noisy = [50.0, 100.0, 150.0, 75.0, 125.0]
    assert verdict(noisy, noisy, 0.1, True)[0] == "unresolved"
    # Every new run beats every base run: decided despite the spread.
    assert verdict(noisy, [10.0, 20.0, 30.0], 0.1, True)[0] == "better"
    assert verdict(noisy, [400.0, 500.0, 600.0], 0.1, True)[0] == "worse"


def _record(workload, values, failed=0, seconds=20.0):
    return {"stamp": {}, "runs": [
        {"workload": workload, "trace": False, "smoke": False,
         "seconds": seconds, "attempted": 10, "failed": failed,
         "metrics": {"latency_p50_ms": v, "throughput_per_s": 1000.0 / v,
                     "peak_rss_mb": 80.0, "setup_s": 0.2}}
        for v in values]}


def test_rows_per_workload_and_absolute_failed_frac():
    spec = load_spec()
    base = _record("des_fleet", [10.0, 10.1, 9.9])
    new = _record("des_fleet", [14.0, 14.1, 13.9], failed=1)
    # Traced runs are ignored.
    new["runs"].append(dict(new["runs"][0], trace=True,
                            metrics={"latency_p50_ms": 1.0}))
    rows = compare(spec, base, new)
    assert [r["workload"] for r in rows] == ["des_fleet"]
    verdicts = {m: v[0] for m, v in rows[0]["verdicts"].items()}
    assert verdicts == {"latency_p50_ms": "worse", "throughput_per_s": "worse",
                        "peak_rss_mb": "within-bound",
                        "setup_s": "within-bound", "failed_frac": "worse"}


def test_runs_of_different_budgets_are_not_compared():
    spec = load_spec()
    base = _record("des_fleet", [10.0, 10.1, 9.9])
    with pytest.raises(ValueError, match="different --seconds"):
        compare(spec, base, _record("des_fleet", [10.0], seconds=5.0))
    # Smoke runs never count.
    smoke = _record("des_fleet", [1.0], seconds=0.5)
    smoke["runs"][0]["smoke"] = True
    assert compare(spec, base, smoke) == []
