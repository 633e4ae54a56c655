"""Pure statistics used by the benchmark: percentiles, the tail rule,
SLO-rate selection, backlog detection and request-outcome accounting.

Everything here is deterministic and free of I/O so that
``perfbench/tests`` can check it directly.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Candidate percentiles for the reported tail, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: The request outcomes the server can give an offered request.
OUTCOMES = ("completed", "rejected", "expired", "failed")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the samples at or below it.  ``inf`` entries (a
    request that missed) sort last, as they should."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` nearest-rank samples lie above the q-th."""
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (None if none)."""
    best = None
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the sample size supports, and n."""
    out: Dict[str, float] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 50.0)
    q = tail_percentile(len(values))
    if q is not None and q > 50.0:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quantile method."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def backlog_growing(latencies_ms: Sequence[float], ratio: float = 2.0,
                    min_growth_ms: float = 100.0) -> bool:
    """Whether latency grew across an open-loop phase.

    ``latencies_ms`` is in arrival order.  A stable queue keeps the
    median latency of the last third of arrivals near that of the
    first third; a queue that fills up makes later arrivals wait for
    all earlier ones.  Growth must be both relative (``ratio``) and
    absolute (``min_growth_ms``) so that a fast system's jitter does
    not read as backlog.  A missed request (``inf``) counts as very
    late.
    """
    n = len(latencies_ms)
    if n < 6:
        return False
    third = n // 3
    first = median(latencies_ms[:third])
    last = median(latencies_ms[n - third:])
    return last > ratio * first and last - first > min_growth_ms


def slo_rate(rows: Sequence[Dict[str, float]], slo_ms: float) -> float:
    """The highest fixed rate whose p90 latency meets ``slo_ms`` with no
    growing backlog, or 0.0 if none does.

    Each row carries ``rate``, ``p90_ms`` (misses count as ``inf``) and
    ``backlog`` (bool).
    """
    passing = [r["rate"] for r in rows
               if r["p90_ms"] <= slo_ms and not r["backlog"]]
    return max(passing) if passing else 0.0


def departure_rate(done_s: Sequence[float], lo: float = 0.1,
                   hi: float = 0.9) -> float:
    """Completions per second between the ``lo`` and ``hi`` quantiles of
    the completion times, which leaves out the ramp-up before the queue
    fills and the last request's lone run."""
    done = sorted(done_s)
    if len(done) < 3:
        return 0.0
    i, j = int(lo * (len(done) - 1)), int(round(hi * (len(done) - 1)))
    span = done[j] - done[i]
    return (j - i) / span if span > 0 else 0.0


def account(outcomes: Sequence[str]) -> Dict[str, int]:
    """Count request outcomes; anything not in :data:`OUTCOMES` counts
    as ``untyped``."""
    counts = {k: 0 for k in OUTCOMES}
    counts["untyped"] = 0
    for o in outcomes:
        counts[o if o in OUTCOMES else "untyped"] += 1
    counts["offered"] = len(outcomes)
    return counts


def accounting_holds(counts: Dict[str, int]) -> bool:
    """offered == completed + rejected + expired + failed."""
    return counts["offered"] == sum(counts[k] for k in OUTCOMES)


def missed_as_inf(latencies_ms: Sequence[Optional[float]]) -> List[float]:
    """Replace a missing latency (refused, expired, failed) by ``inf``
    so that it counts as missing any latency limit."""
    return [math.inf if v is None else float(v) for v in latencies_ms]
