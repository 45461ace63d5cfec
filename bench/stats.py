"""Arithmetic the benchmark reports: percentiles, self time, failure counts.

Pure functions on plain lists so they can be tested without running lcuout.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# The tail percentile must leave at least this many operations beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it sits at and the sample size."""

    value: float
    percentile: float
    count: int
    beyond: int


def tail(values: list[float]) -> Tail:
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples above it.

    With n sorted samples, sample i (0-based) is the ``100 (i + 1) / n``
    percentile and has ``n - 1 - i`` samples beyond it, so the rule picks
    ``i = n - 1 - TAIL_BEYOND``.  With fewer than ``TAIL_BEYOND + 1`` samples
    no percentile qualifies; the maximum is returned with ``beyond == 0`` so
    the report shows the rule was not met.
    """
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    n = len(xs)
    i = n - 1 - TAIL_BEYOND
    if i < 0:
        return Tail(value=xs[-1], percentile=100.0, count=n, beyond=0)
    return Tail(value=xs[i], percentile=100.0 * (i + 1) / n, count=n, beyond=n - 1 - i)


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def host_scaled(span: tuple[float, float], samples: list[tuple[float, float]], ref: float) -> float:
    """An operation's time as it would read on a host that runs the probe in ``ref``.

    ``span`` is the operation's ``(start, end)``; ``samples`` are probe runs
    ``(start, end)`` on the same clock, sorted, with at least one ending
    before the operation and one starting after it.  The probes inside the
    span are taken out of its time; the last probe before, those inside and
    the first after give the host's speed by their mean duration.
    """
    t0, t1 = span
    before = [s for s in samples if s[1] <= t0][-1:]
    inside = [s for s in samples if s[0] >= t0 and s[1] <= t1]
    after = [s for s in samples if s[0] >= t1][:1]
    if not (before and after):
        raise ValueError("the operation is not bracketed by probes")
    used = before + inside + after
    speed = sum(e - s for s, e in used) / len(used)
    return (t1 - t0 - sum(e - s for s, e in inside)) * ref / speed


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts)
    total, reach = 0.0, lo
    for a, b in clipped:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each span ``(start, end, parent_index)``; parent -1 is a root.

    A span's self time is its duration minus the part of its interval that
    its direct children cover.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered((start, end), kids)
        for (start, end, _), kids in zip(spans, children)
    ]


@dataclass
class OpOutcome:
    """How one operation ended: its exit code, any exception, failed checks."""

    label: str
    seconds: float
    exit_code: int | None = None
    error: str | None = None
    check_errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.exit_code != 0 or bool(self.check_errors)


def fail_frac(outcomes: list[OpOutcome]) -> float:
    """Failed operations over attempted operations."""
    if not outcomes:
        raise ValueError("no operations attempted")
    return sum(o.failed for o in outcomes) / len(outcomes)
