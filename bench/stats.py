"""Order statistics for the benchmark: inf-safe percentiles and spreads.

Failed requests enter latency samples as ``+inf`` (a failure misses any
latency limit), so percentiles use the nearest-rank definition: it never
interpolates between a finite sample and an infinite one, which would
yield ``nan``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer, the number is one or two outliers.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    ordered = sorted(samples)
    # Rounded first: 90 / 100 * 100 is 90.00000000000001 in floating point.
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 6)))
    return ordered[rank - 1]


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for q in PERCENTILE_LADDER:
        beyond = round(n_samples * (100.0 - q) / 100.0, 6)
        if beyond >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def timing_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest supported tail, with the sample count.

    Keys: ``n``, ``p50`` and, when the sample supports one above the
    median, ``tail_q`` (the percentile) and ``tail``.
    """
    out: Dict[str, float] = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = percentile(samples, 50.0)
    q = tail_percentile(len(samples))
    if q is not None and q > 50.0:
        out["tail_q"] = q
        out["tail"] = percentile(samples, q)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if one value)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)



def block_rate(event_s: Sequence[float], block: int,
               duration_s: float) -> float:
    """Median rate over consecutive blocks of ``block`` events.

    Each block's rate is ``block`` over the time its events took, so a
    short stall moves a few blocks and not the median, unlike a total
    over the phase.  With fewer than two whole blocks, the total rate
    over ``duration_s``.
    """
    times = sorted(event_s)
    starts = range(0, len(times) - block, block)
    if len(starts) < 2:
        return len(times) / duration_s
    return statistics.median(block / (times[i + block] - times[i])
                             for i in starts)
