"""Small, dependency-free statistics the benchmark reports."""

from __future__ import annotations

import hashlib
import json
import math

#: A ``*_p99_ms`` needs at least this many samples: ten beyond the
#: 99th percentile.
P99_MIN_SAMPLES = 1000


def percentile(values, q: float) -> float:
    """The *q*-th percentile of *values* (linear interpolation between
    closest ranks).  Raises on an empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def median(values) -> float:
    return percentile(values, 50.0)


def p99_or_none(values) -> float | None:
    """The 99th percentile, or None when the sample is too small to
    have ten values beyond it."""
    if len(values) < P99_MIN_SAMPLES:
        return None
    return percentile(values, 99.0)


def failed_frac(attempted: int, raised: int, wrong: int) -> float:
    """(operations that raised + wrong answers) / operations attempted."""
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted op")
    return (raised + wrong) / attempted


def ratio(numerator: float, denominator: float) -> float:
    """*numerator* / *denominator*, 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def digest(payload) -> str:
    """A stable SHA-256 of a JSON-serialisable *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
