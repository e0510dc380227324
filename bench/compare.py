"""Compare two benchmark records under the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py BASE.json NEW.json

One row per workload, one verdict per end-to-end metric:

- ``worse``: the new median is worse than the base median by more than
  the metric's bound;
- ``better``: it is better by more than the bound;
- ``within-bound``: neither;
- ``unresolved``: either side's spread (interquartile distance over the
  median) exceeds the bound, unless every run of one side beats every
  run of the other, which decides it.

``failed_frac`` (failed over attempted checks) is compared absolutely:
any increase is worse.  Only untraced, full-size runs are compared, and
only runs measured for the same ``--seconds``: a shorter budget changes
how many jobs a run holds, so its medians mean something else.  Exits 1
when any verdict is ``worse``, 2 when the records cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.run import load_spec  # noqa: E402
from bench.stats import quartiles, spread  # noqa: E402


def verdict(base: Sequence[float], new: Sequence[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """``(verdict, signed change)``; a positive change is a worsening."""
    sign = 1.0 if lower_is_better else -1.0
    base_med, new_med = quartiles(base)[1], quartiles(new)[1]
    change = sign * (new_med - base_med) / abs(base_med)
    new_wins = all(sign * (n - b) < 0 for n in new for b in base)
    base_wins = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        if new_wins:
            return "better", change
        if base_wins:
            return ("worse" if change > bound else "within-bound"), change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


def failed_verdict(base_runs: List[dict], new_runs: List[dict]
                   ) -> Tuple[str, float, float]:
    def frac(runs):
        return (sum(r["failed"] for r in runs)
                / max(1, sum(r["attempted"] for r in runs)))
    b, n = frac(base_runs), frac(new_runs)
    return ("worse" if n > b else "better" if n < b else "within-bound"), b, n


def compare(spec: dict, base: dict, new: dict) -> List[Dict[str, object]]:
    """Rows ``{"workload", "verdicts": {metric: (verdict, detail)}}``."""
    def untraced(record):
        out: Dict[str, List[dict]] = {}
        for run in record["runs"]:
            if not run["trace"] and not run.get("smoke"):
                out.setdefault(run["workload"], []).append(run)
        return out

    base_runs, new_runs = untraced(base), untraced(new)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base_runs or workload not in new_runs:
            continue
        b_runs, n_runs = base_runs[workload], new_runs[workload]
        seconds = {r["seconds"] for r in b_runs + n_runs}
        if len(seconds) > 1:
            raise ValueError(f"{workload}: runs measured for different "
                             f"--seconds {sorted(seconds)}")
        verdicts = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in b_runs]
            n = [r["metrics"][name] for r in n_runs]
            word, change = verdict(b, n, metric["bound"],
                                   metric["better"] == "lower")
            verdicts[name] = (word, f"{quartiles(b)[1]:.6g} -> "
                                    f"{quartiles(n)[1]:.6g} {metric['unit']} "
                                    f"({change:+.1%} worse, bound "
                                    f"{metric['bound']:.0%}, n={len(b)}/"
                                    f"{len(n)})")
        word, b_frac, n_frac = failed_verdict(b_runs, n_runs)
        verdicts["failed_frac"] = (word, f"{b_frac:.4g} -> {n_frac:.4g}")
        rows.append({"workload": workload, "verdicts": verdicts})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    print(f"base {base['stamp'].get('commit')} dirty={base['stamp'].get('dirty')}"
          f"  new {new['stamp'].get('commit')} dirty={new['stamp'].get('dirty')}")
    try:
        rows = compare(spec, base, new)
    except ValueError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    for row in rows:
        words = "  ".join(f"{m}={v[0]}" for m, v in row["verdicts"].items())
        print(f"{row['workload']:<16} {words}")
        for metric, (_word, detail) in row["verdicts"].items():
            print(f"    {metric:<18} {detail}")
    worse = any(v[0] == "worse" for row in rows for v in row["verdicts"].values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
