"""Arithmetic and result schema of the campaign benchmark.

Everything here is pure: no clocks, no files. test_perfbench.py pins it.
"""

import math
import statistics

# Percentiles tried, highest first, when reporting a timing's tail.
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def geomean(values):
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(values, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least min_beyond samples beyond it.

    Nearest-rank definition: the p-th percentile of n sorted samples is
    the one at rank ceil(p/100 * n), and n - rank samples lie beyond it.
    Returns (p, value), or None when even the median has too few samples
    beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
        rank = max(1, math.ceil(round(p / 100.0 * n, 6)))
        if n - rank >= min_beyond:
            return p, xs[rank - 1]
    return None


def timing_summary(values):
    """Median, tail percentile and sample count of one timing series."""
    out = {"n": len(values)}
    if values:
        out["median"] = median(values)
        tail = tail_percentile(values)
        if tail:
            out["p%g" % tail[0]] = tail[1]
    return out


def ratio(num, den):
    return num / den if den else 0.0


def check_result(result, metric_names):
    """Problems with a result object; an empty list means it is valid.

    The result must have exactly the keys correct/attempted/failed/metrics,
    whole-number counts with attempted >= 1, and exactly the named metrics,
    each a finite number with a unit.
    """
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    if tuple(sorted(result)) != tuple(sorted(RESULT_KEYS)):
        problems.append("keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if sorted(metrics) != sorted(metric_names):
        missing = sorted(set(metric_names) - set(metrics))
        extra = sorted(set(metrics) - set(metric_names))
        problems.append("metrics missing %s, extra %s" % (missing, extra))
    for name, m in metrics.items():
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            problems.append("%s is not {value, unit}" % name)
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or \
                not math.isfinite(v):
            problems.append("%s value is not a finite number" % name)
        if not isinstance(m["unit"], str) or not m["unit"]:
            problems.append("%s has no unit" % name)
    return problems
