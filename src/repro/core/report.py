"""Paper-style rendering of experiment results.

Turns :class:`~repro.core.experiment.ExperimentResult` objects into
the rows/series/matrices the paper prints: bandwidth-vs-size series
(Fig. 3/7/8), GCD×GCD matrices (Fig. 6), grouped bars (Fig. 4/5/9/10),
and collective latency tables (Fig. 11/12).  Plain text, aligned — the
benchmark harness pipes these to stdout so a run reads like the
paper's evaluation section.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..errors import BenchmarkError
from ..units import format_size, geometric_mean, to_gbps, to_us
from .experiment import ExperimentResult


def _fmt_cell(value: float, width: int = 7, digits: int = 1) -> str:
    return f"{value:{width}.{digits}f}"


def series_table(
    result: ExperimentResult,
    *,
    series_key: str,
    x_formatter: Callable[[float], str] = lambda x: format_size(int(x)),
    value_scale: float = 1e9,
    value_unit: str = "GB/s",
) -> str:
    """Multi-series table: one row per x, one column per series label."""
    labels = result.labels(series_key)
    if not labels:
        raise BenchmarkError(f"no series labelled by {series_key!r}")
    xs = sorted({m.x for m in result.measurements})
    header = f"{'size':>10s} " + " ".join(f"{str(l):>14s}" for l in labels)
    lines = [f"# {result.title} [{value_unit}]", header]
    for x in xs:
        cells = []
        for label in labels:
            points = [
                m
                for m in result.measurements
                if m.x == x and m.meta.get(series_key) == label
            ]
            if points:
                cells.append(f"{points[0].value / value_scale:14.2f}")
            else:
                cells.append(f"{'-':>14s}")
        lines.append(f"{x_formatter(x):>10s} " + " ".join(cells))
    return "\n".join(lines)


def matrix_table(
    values: Mapping[tuple[int, int], float],
    *,
    title: str,
    scale: float = 1.0,
    unit: str = "",
    diagonal: str = "-",
    digits: int = 1,
) -> str:
    """GCD×GCD matrix, like Fig. 6's three panels."""
    if not values:
        raise BenchmarkError("empty matrix")
    indices = sorted({i for pair in values for i in pair})
    width = max(7, digits + 5)
    header = "src\\dst " + " ".join(f"{d:>{width}d}" for d in indices)
    lines = [f"# {title}" + (f" [{unit}]" if unit else ""), header]
    for src in indices:
        cells = []
        for dst in indices:
            if src == dst and (src, dst) not in values:
                cells.append(f"{diagonal:>{width}s}")
            else:
                cells.append(_fmt_cell(values[(src, dst)] / scale, width, digits))
        lines.append(f"{src:>7d} " + " ".join(cells))
    return "\n".join(lines)


def bar_table(
    rows: Sequence[tuple[str, float]],
    *,
    title: str,
    scale: float = 1e9,
    unit: str = "GB/s",
    reference: Mapping[str, float] | None = None,
) -> str:
    """Grouped-bar stand-in: label, value, optional % of reference."""
    lines = [f"# {title} [{unit}]"]
    for label, value in rows:
        line = f"{label:32s} {value / scale:10.2f}"
        if reference and label in reference:
            ratio = value / reference[label]
            line += f"   ({ratio:6.1%} of {reference[label] / scale:.1f})"
        lines.append(line)
    return "\n".join(lines)


def latency_table(
    result: ExperimentResult,
    *,
    row_key: str = "partners",
    col_key: str = "library",
) -> str:
    """Collective latency grid: partners × library, in µs."""
    rows = sorted({m.meta[row_key] for m in result.measurements})
    cols = result.labels(col_key)
    header = f"{row_key:>10s} " + " ".join(f"{str(c):>12s}" for c in cols)
    lines = [f"# {result.title} [us]", header]
    for row in rows:
        cells = []
        for col in cols:
            points = [
                m
                for m in result.measurements
                if m.meta.get(row_key) == row and m.meta.get(col_key) == col
            ]
            if points:
                cells.append(f"{to_us(points[0].value):12.1f}")
            else:
                cells.append(f"{'-':>12s}")
        lines.append(f"{row!s:>10s} " + " ".join(cells))
    return "\n".join(lines)


def peak_summary(result: ExperimentResult, series_key: str) -> str:
    """One line per series: its peak value (the Fig. 2/3 boxes)."""
    lines = [f"# {result.title} — peaks"]
    for label in result.labels(series_key):
        peak = result.peak(**{series_key: label})
        lines.append(
            f"{str(label):28s} {to_gbps(peak.value):8.2f} GB/s "
            f"at {format_size(int(peak.x))}"
        )
    return "\n".join(lines)


def comparison_summary(
    title: str, entries: Mapping[str, Any]
) -> str:
    """Key-value summary block for EXPERIMENTS.md snippets."""
    width = max(len(k) for k in entries) if entries else 0
    lines = [f"# {title}"]
    for key, value in entries.items():
        lines.append(f"{key:<{width}s} : {value}")
    return "\n".join(lines)


def geometric_summary(values: Sequence[float]) -> dict[str, float]:
    """min/max/mean/gmean summary of a series."""
    if not values:
        raise BenchmarkError("empty series")
    values = [float(v) for v in values]
    out = {
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
    }
    if out["min"] > 0:
        out["gmean"] = geometric_mean(values)
    return out
