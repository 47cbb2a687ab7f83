"""Medians, quartiles and the regression rule used by ``compare``."""

from __future__ import annotations

import statistics
from typing import Sequence


def summarize(values: Sequence[float]) -> dict:
    """Median, first and third quartile, and sample count."""
    if not values:
        raise ValueError("summarize needs at least one value")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def classify(
    old: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    """Judge ``new`` against ``old`` for one metric.

    Returns ``"worse"`` or ``"better"`` only when the medians differ by
    more than ``bound`` (a share of the old median) and the two
    interquartile ranges do not overlap; ``"unresolved"`` when either
    side's interquartile range is wider than ``bound``, unless every new
    sample beats every old one; ``"same"`` otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    # Flip higher-is-better metrics so that larger always means worse.
    sign = 1.0 if better == "lower" else -1.0
    old_w = [sign * v for v in old]
    new_w = [sign * v for v in new]
    o, n = summarize(old_w), summarize(new_w)
    scale = abs(o["median"]) or 1.0
    if max(o["q3"] - o["q1"], n["q3"] - n["q1"]) / scale > bound:
        return "better" if max(new_w) < min(old_w) else "unresolved"
    change = (n["median"] - o["median"]) / scale
    if change > bound and n["q1"] > o["q3"]:
        return "worse"
    if change < -bound and n["q3"] < o["q1"]:
        return "better"
    return "same"
