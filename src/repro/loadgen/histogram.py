"""HDR-style latency histogram with bounded relative error.

Recording a latency takes O(1) and constant memory regardless of how
many samples arrive: values land in geometrically spaced buckets
(``growth`` per step, default 1.05), so any reported percentile is
within ±2.5% of the true sample value — the same guarantee shape as
HdrHistogram, without the dependency.  That is what makes million-
request open-loop runs feasible: the alternative (keeping every sample
and sorting) is exactly the bounded-window shortcut that quietly drops
the tail on long runs.

Bucket ``i`` holds the values in ``(lowest_ms * growth**(i-1),
lowest_ms * growth**i]``, so its upper edge (:meth:`upper_edge_ms`) is
a Prometheus ``le`` bound and :meth:`cumulative_counts` yields exact
``_bucket`` counts at any ladder of those edges.

Histograms ``merge`` (same bucket config required) and round-trip
through :meth:`to_dict`/:meth:`from_dict`, so per-worker histograms can
be combined and a run's full latency distribution can be committed or
uploaded as an artifact next to the scalar percentiles.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Fixed-precision latency histogram over milliseconds.

    Parameters
    ----------
    lowest_ms:
        Values at or below this land in bucket 0 (the resolution floor).
    growth:
        Geometric bucket width; relative quantile error is bounded by
        ``(sqrt(growth) - 1)`` ≈ 2.5% at the default 1.05.
    """

    __slots__ = ("lowest_ms", "growth", "_log_growth", "_counts", "count", "max_ms")

    def __init__(self, *, lowest_ms: float = 0.01, growth: float = 1.05) -> None:
        if lowest_ms <= 0:
            raise ValueError("lowest_ms must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.lowest_ms = lowest_ms
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: dict[int, int] = {}
        self.count = 0
        self.max_ms = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _index(self, value_ms: float) -> int:
        if value_ms <= self.lowest_ms:
            return 0
        index = math.ceil(math.log(value_ms / self.lowest_ms) / self._log_growth)
        # The log can round a value near an edge into the neighbouring
        # bucket; the edges themselves decide, so ``le`` counts are exact.
        if value_ms > self.upper_edge_ms(index):
            return index + 1
        if value_ms <= self.upper_edge_ms(index - 1):
            return index - 1
        return index

    def _value_at(self, index: int) -> float:
        if index <= 0:
            return self.lowest_ms
        # Geometric midpoint of the bucket, clipped to the true max so
        # the top of the distribution is reported exactly.
        mid = self.lowest_ms * self.growth ** (index - 0.5)
        return min(mid, self.max_ms) if self.max_ms > 0 else mid

    def record(self, value_ms: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value_ms`` (clamped at >= 0)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        value_ms = max(0.0, float(value_ms))
        index = self._index(value_ms)
        self._counts[index] = self._counts.get(index, 0) + n
        self.count += n
        if value_ms > self.max_ms:
            self.max_ms = value_ms

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Latency (ms) at percentile ``q`` in [0, 100]; 0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * q / 100.0))
        occupied = sorted(self._counts)
        seen = 0
        for index in occupied:
            seen += self._counts[index]
            if seen >= target:
                # The highest occupied bucket is represented by the true
                # max, so p100 (and any quantile landing there) is exact.
                if index == occupied[-1]:
                    return self.max_ms
                return self._value_at(index)
        return self.max_ms  # pragma: no cover - unreachable (counts sum)

    def percentiles(self) -> dict[str, float]:
        """The standard tail summary: p50/p90/p95/p99/p999 and max."""
        return {
            "p50_ms": self.percentile(50),
            "p90_ms": self.percentile(90),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "p999_ms": self.percentile(99.9),
            "max_ms": self.max_ms,
        }

    def upper_edge_ms(self, index: int) -> float:
        """Inclusive upper bound of bucket ``index``."""
        return self.lowest_ms * self.growth**index

    def cumulative_counts(self, indices: Sequence[int]) -> list[int]:
        """Samples at or below each of the ascending bucket ``indices``.

        Entry ``k`` counts every sample up to :meth:`upper_edge_ms` of
        ``indices[k]``: the ``_bucket`` series of a Prometheus histogram
        whose ``le`` ladder is those edges.
        """
        per_step = [0] * len(indices)
        for index, n in self._counts.items():
            step = bisect.bisect_left(indices, index)
            if step < len(indices):
                per_step[step] += n
        return list(itertools.accumulate(per_step))

    def mean_ms(self) -> float:
        """Approximate mean from bucket midpoints (same error bound)."""
        if self.count == 0:
            return 0.0
        total = sum(self._value_at(i) * c for i, c in self._counts.items())
        return total / self.count

    # ------------------------------------------------------------------
    # Merge / serialisation
    # ------------------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (same bucket config)."""
        if (other.lowest_ms, other.growth) != (self.lowest_ms, self.growth):
            raise ValueError("cannot merge histograms with different buckets")
        for index, n in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + n
        self.count += other.count
        self.max_ms = max(self.max_ms, other.max_ms)
        return self

    def copy(self) -> "LatencyHistogram":
        """An independent histogram with the same buckets and counts."""
        clone = LatencyHistogram(lowest_ms=self.lowest_ms, growth=self.growth)
        clone._counts = dict(self._counts)
        clone.count = self.count
        clone.max_ms = self.max_ms
        return clone

    def to_dict(self) -> dict:
        return {
            "lowest_ms": self.lowest_ms,
            "growth": self.growth,
            "count": self.count,
            "max_ms": self.max_ms,
            "counts": {str(index): n for index, n in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatencyHistogram":
        histogram = cls(
            lowest_ms=float(payload["lowest_ms"]), growth=float(payload["growth"])
        )
        histogram._counts = {
            int(index): int(n) for index, n in payload["counts"].items()
        }
        histogram.count = int(payload["count"])
        histogram.max_ms = float(payload["max_ms"])
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.count == 0:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(n={self.count}, p50={self.percentile(50):.2f}ms, "
            f"p99={self.percentile(99):.2f}ms, max={self.max_ms:.2f}ms)"
        )
