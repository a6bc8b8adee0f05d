"""Exact order statistics, output checks and the result line.

Pure functions with no dependency on the program under test, so the
benchmark's own tests can exercise them without building a model.
Percentiles are computed from the raw samples (linear interpolation
between the two closest ranks), never from a bucketed histogram: a
histogram's bucket width would be a sizeable share of the bounds the
benchmark enforces.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, exactly."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def count_wrong(answers: Sequence[str], expected: Sequence[str]) -> int:
    """Answers whose label differs from the oracle's label."""
    if len(answers) != len(expected):
        raise ValueError(
            f"{len(answers)} answers for {len(expected)} expected labels"
        )
    return sum(1 for got, want in zip(answers, expected) if got != want)


def accuracy_mismatches(
    measured: Mapping[str, float], expected: Mapping[str, float]
) -> list[str]:
    """One message per baseline whose accuracy is not the expected one.

    Fold-averaged accuracies are means of per-fold count ratios, so a
    correct run reproduces them to the last bit; the tolerance only
    absorbs the summation order of the mean.
    """
    problems = []
    for name, want in expected.items():
        got = measured.get(name)
        if got is None:
            problems.append(f"{name}: no accuracy reported")
        elif abs(got - want) > 1e-12:
            problems.append(f"{name}: accuracy {got!r}, expected {want!r}")
    for name in measured.keys() - expected.keys():
        problems.append(f"{name}: unexpected baseline")
    return problems


def result_line(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, tuple[float, str]],
) -> str:
    """The machine-readable last line: ``{correct, attempted, failed, metrics}``."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
