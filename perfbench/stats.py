"""The benchmark's own arithmetic, kept free of I/O so it is unit-tested.

- :func:`percentile` / :func:`summarize`: latency percentiles with the
  sample count behind them.
- :func:`rung_passes` / :func:`highest_passing` / :func:`capacity`: the
  ``max_qps`` rule, the highest rate on a fixed ladder whose p90 meets the
  latency limit with no growing backlog, interpolated to the limit.
- :func:`self_times`: a span's duration minus the part of it that its
  child spans cover.
- :func:`allowed_generations`: which model generations a read that
  overlapped hot reloads may legitimately have been answered by.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

#: Latency recorded for a request that failed or was refused, in seconds.
#: Longer than any limit the benchmark sets, so a failure always misses it.
FAILED_LATENCY_S = 30.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` by linear
    interpolation between closest ranks (NumPy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(n: int, candidates=(99.9, 99.0, 90.0, 50.0)) -> float | None:
    """The highest candidate percentile with at least ten samples beyond
    it, or ``None`` when even the median lacks them."""
    for q in candidates:
        if n * (100 - q) / 100 >= 10 - 1e-9:
            return q
    return None


def summarize(latencies_s: Sequence[float]) -> dict:
    """Median, p90, p99 in milliseconds, plus the sample count and the
    highest percentile the sample supports (see
    :func:`supported_percentile`)."""
    n = len(latencies_s)
    if n == 0:
        return {"n": 0}
    ms = [value * 1e3 for value in latencies_s]
    return {
        "n": n,
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "p99_ms": percentile(ms, 99),
        "supported_pct": supported_percentile(n),
    }


def rung_passes(latencies_s: Sequence[float], limit_ms: float, rate: float,
                backlog_end: int, aborted: bool = False) -> bool:
    """One ladder rung's verdict: p90 over its requests meets ``limit_ms``
    and the backlog has not grown. By Little's law a queue whose requests
    meet the limit holds about ``rate * limit`` of them, so more than that
    outstanding when the last request was sent means it was growing. An
    aborted rung (the backlog cap was hit) or an empty one fails."""
    if aborted or not latencies_s:
        return False
    return (percentile(latencies_s, 90) <= limit_ms / 1e3
            and backlog_end <= max(rate * limit_ms / 1e3, 1.0))


def highest_passing(ladder: Sequence[float], passes) -> tuple[float | None, list[tuple[float, bool]]]:
    """Binary-search ``ladder`` (ascending) for its highest rung that
    ``passes``, assuming a rung passes only if every lower one does.
    Returns the rung (``None`` when the lowest fails) and the probes made
    as ``(rate, passed)`` in order."""
    if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be non-empty and strictly ascending")
    probes: list[tuple[float, bool]] = []
    low, high = -1, len(ladder)  # ladder[low] passed, ladder[high] failed
    while high - low > 1:
        mid = (low + high) // 2
        passed = bool(passes(ladder[mid]))
        probes.append((ladder[mid], passed))
        if passed:
            low = mid
        else:
            high = mid
    return (ladder[low] if low >= 0 else None), probes


def capacity(ladder: Sequence[float], p90_ms: dict[float, float],
             best: float | None, limit_ms: float) -> float:
    """The rate at which p90 reaches ``limit_ms``, interpolated between
    the highest passing rung ``best`` and the rung above it (their p90s in
    ``p90_ms``), so the answer moves smoothly instead of jumping a rung.
    Saturates at the top rung; below the lowest rung it scales that rung
    by ``limit / p90``."""
    if best is None:
        lowest = ladder[0]
        return lowest * min(1.0, limit_ms / p90_ms[lowest])
    index = list(ladder).index(best)
    if index + 1 == len(ladder):
        return best
    above = ladder[index + 1]
    low_p90, high_p90 = p90_ms[best], p90_ms.get(above)
    if high_p90 is None or high_p90 <= low_p90:
        return best
    share = (limit_ms - low_p90) / (high_p90 - low_p90)
    return best + (above - best) * min(max(share, 0.0), 1.0)


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's own interval.

    Spans are dicts with ``id``, ``start``, ``end`` and ``parent`` (the
    parent's id or ``None``)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


def allowed_generations(
    sent: float,
    received: float,
    reloads: Sequence[tuple[float, float]],
    base: int = 1,
) -> set[int]:
    """Generations a read in flight over ``[sent, received]`` may match.

    ``reloads`` are the ``(sent, acked)`` times of each reload in order;
    reload ``k`` (1-based) moves the server from generation ``base+k-1``
    to ``base+k``. The new generation may answer from the moment its
    reload is sent; the old one may answer until the reload's ack. So a
    read sent after an ack must match the new generation, and a read that
    overlaps a reload may match either side."""
    allowed = set()
    for index in range(len(reloads) + 1):
        live_from = reloads[index - 1][0] if index else -math.inf
        live_until = reloads[index][1] if index < len(reloads) else math.inf
        if sent <= live_until and received >= live_from:
            allowed.add(base + index)
    return allowed


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (all of them when fewer
    than four)."""
    if not values:
        raise ValueError("mean of an empty sample")
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return sum(middle) / len(middle)


def median(values: Sequence[float]) -> float:
    """The 50th percentile (see :func:`percentile`)."""
    return percentile(values, 50)
