"""Analysis utilities: tier clustering, outliers, utilization tables.

The paper's narrative repeatedly reduces a matrix or series to a few
statements: "two values of bandwidth: 50 GB/s and 37–38 GB/s",
"four outliers within 17.8–18.2 µs", "43–44 % of theoretical".  These
helpers compute those statements from raw results so the benchmark
harness can assert them mechanically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import BenchmarkError


@dataclass(frozen=True)
class Tier:
    """A cluster of near-equal measurements."""

    center: float
    members: tuple[int, ...]  # indices into the input sequence

    @property
    def count(self) -> int:
        """Number of measurements in this tier."""
        return len(self.members)


def cluster_tiers(
    values: Sequence[float], *, rel_gap: float = 0.12
) -> list[Tier]:
    """Group values into tiers separated by relative gaps > ``rel_gap``.

    Sorts values and cuts where consecutive values differ by more than
    ``rel_gap`` of the larger one.  Returns tiers in ascending order of
    center.  This is how "two bandwidth tiers" (Fig. 6c) and "three
    bandwidth tiers" (Fig. 8) are detected.  Equal values keep their
    input order within a tier.
    """
    if not values:
        raise BenchmarkError("cannot cluster an empty sequence")
    if any(v < 0 for v in values):
        raise BenchmarkError("tier clustering expects non-negative values")
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=values.__getitem__)
    groups: list[list[int]] = [[order[0]]]
    for prev, idx in zip(order, order[1:]):
        low, current = values[prev], values[idx]
        if low > 0 and (current - low) / max(current, low) > rel_gap:
            groups.append([])
        groups[-1].append(idx)
    return [
        Tier(sum(values[i] for i in group) / len(group), tuple(group))
        for group in groups
    ]


def _percentile(ascending: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``q < 100``) of two or more ascending values.

    Hyndman & Fan type 7: interpolates linearly between the two order
    statistics around ``(n - 1) * q / 100`` as ``a + (b - a) * t``, or
    ``b - (b - a) * (1 - t)`` when ``t >= 0.5``.  Those are the
    operations of the usual array-library ``percentile`` default, so
    the IQR fences match it bit for bit
    (``tests/core/test_stdlib_ports.py``).
    """
    virtual = (len(ascending) - 1) * (q / 100)
    lower = math.floor(virtual)
    a, b = ascending[lower], ascending[lower + 1]
    t = virtual - lower
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def detect_outliers_iqr(
    values: Sequence[float], *, factor: float = 1.5
) -> list[int]:
    """Indices of IQR outliers (the Fig. 6b latency outliers)."""
    if len(values) < 4:
        return []
    values = [float(v) for v in values]
    ascending = sorted(values)
    q1, q3 = _percentile(ascending, 25), _percentile(ascending, 75)
    iqr = q3 - q1
    lo, hi = q1 - factor * iqr, q3 + factor * iqr
    return [i for i, v in enumerate(values) if v < lo or v > hi]


def value_range(values: Sequence[float]) -> tuple[float, float]:
    """``(min, max)`` of a non-empty series."""
    if not values:
        raise BenchmarkError("empty sequence has no range")
    return (min(values), max(values))


@dataclass(frozen=True)
class UtilizationRow:
    """One row of a measured-vs-theoretical comparison."""

    label: str
    measured: float
    theoretical: float

    @property
    def ratio(self) -> float:
        """Measured / theoretical fraction."""
        return self.measured / self.theoretical

    def format(self, unit_scale: float = 1e9, unit: str = "GB/s") -> str:
        """One aligned report line with the percentage label."""
        return (
            f"{self.label:24s} {self.measured / unit_scale:8.1f} {unit}  "
            f"of {self.theoretical / unit_scale:8.1f} {unit}  "
            f"({self.ratio:6.1%})"
        )


def utilization_table(
    rows: Mapping[str, tuple[float, float]]
) -> list[UtilizationRow]:
    """Build utilization rows from {label: (measured, theoretical)}."""
    table = []
    for label, (measured, theoretical) in rows.items():
        if theoretical <= 0:
            raise BenchmarkError(f"row {label!r}: theoretical must be positive")
        table.append(UtilizationRow(label, measured, theoretical))
    return table


def crossover_size(
    sizes: Sequence[int],
    series_a: Sequence[float],
    series_b: Sequence[float],
) -> int | None:
    """First size where series A pulls ahead of series B for good.

    Used for the Fig. 3 pinned-vs-managed crossover at the 32 MB LLC:
    returns the smallest size after which ``a > b`` at every point, or
    ``None`` if A never stays ahead.
    """
    if not (len(sizes) == len(series_a) == len(series_b)):
        raise BenchmarkError("crossover inputs must be equal length")
    for start in range(len(sizes)):
        if all(a > b for a, b in zip(series_a[start:], series_b[start:])):
            return sizes[start]
    return None


def scaling_efficiency(
    baseline: float, scaled: float, scale_factor: int
) -> float:
    """Parallel efficiency of a scaled measurement vs a baseline."""
    if baseline <= 0 or scale_factor <= 0:
        raise BenchmarkError("baseline and scale factor must be positive")
    return scaled / (baseline * scale_factor)
