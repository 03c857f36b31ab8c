"""Arithmetic of the benchmark: self times, percentiles, failure accounting,
and the `-X importtime` breakdown. Pure functions, no I/O."""

from __future__ import annotations

import re
import statistics

#: Percentiles a timing may be summarised by besides its median, highest
#: first. One is reported only when at least ten samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reached = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reached), min(b, hi)
        if b > a:
            total += b - a
            reached = b
    return total


def span_self_times(spans) -> list[float]:
    """Self time of every span.

    A span is ``(name, start, end, parent, counted_s)``: ``parent`` is the
    index of the enclosing span, or a negative number when there is none,
    and ``counted_s`` is the time of aggregated (counted, not recorded)
    calls made directly under it. Self time is the span's duration minus
    the part of it covered by its child spans, where overlapping children
    count once, minus ``counted_s``.
    """
    children = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, counted_s) in enumerate(spans):
        covered = covered_length(children.get(i, ()), start, end)
        out.append((end - start) - covered - counted_s)
    return out


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (p in [0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int):
    """Highest percentile with at least ten of ``n`` samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        # in tenths of a percent, so that 99.9 is exact
        if n * (1000 - round(p * 10)) >= TAIL_MIN_BEYOND * 1000:
            return p
    return None


def hodges_lehmann(values) -> float:
    """Median of the averages of all pairs of values (each value paired with
    itself too): the Hodges-Lehmann estimate of the centre.

    Like the median it ignores a few outliers; unlike the median it does not
    jump when the samples fall into two clusters, as run times do on a host
    that alternates between a fast and a slow speed."""
    xs = list(values)
    return statistics.median(
        (xs[i] + xs[j]) / 2.0 for i in range(len(xs)) for j in range(i, len(xs))
    )


def summarize(values) -> dict:
    """Centre (Hodges-Lehmann), median, the supported tail percentile (if
    any) and the sample count."""
    out = {"center": hodges_lehmann(values), "median": statistics.median(values),
           "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def fail_ratio(children) -> tuple[int, int]:
    """(attempted, failed) over child runs.

    Each child is ``(expected, failed)`` where ``failed`` is None for a
    crashed child: every operation it should have produced counts as
    failed.
    """
    attempted = failed = 0
    for expected, bad in children:
        attempted += expected
        failed += expected if bad is None else bad
    return attempted, failed


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_breakdown(stderr_text: str, packages) -> dict:
    """Seconds spent importing each top-level package.

    Sums the self time of every module whose top-level package is in
    ``packages``, so a package's figure excludes the dependencies it pulls
    in. ``total`` is the sum over all modules imported.
    """
    out = {pkg: 0.0 for pkg in packages}
    total = 0.0
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_s = int(m.group(1)) * 1e-6
        total += self_s
        root = m.group(4).split(".")[0]
        if root in out:
            out[root] += self_s
    out["total"] = total
    return out
