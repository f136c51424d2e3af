"""Figure 5: CPU-GPU STREAM scaling from one to eight GCDs (spread)."""

from __future__ import annotations

from typing import Sequence

from ..bench_suites.stream import scaling_points, scaling_result
from ..context import resolve_default as resolve_default_topology
from ..core.bounds import cpu_gpu_peak_bidirectional
from ..core.experiment import ExperimentResult
from ..core.report import bar_table
from ..core.sweep import MULTI_GPU_STREAM_BYTES, SCALING_GCD_COUNTS
from ..runner import SimPoint

TITLE = "CPU-GPU STREAM scaling, spread placement (Figure 5)"
ARTIFACT = "Figure 5"


def sweep_points(
    gcd_counts: Sequence[int] = SCALING_GCD_COUNTS,
    size: int = MULTI_GPU_STREAM_BYTES,
) -> list[SimPoint]:
    """Decompose the reproduction into independent sim points."""
    return scaling_points(gcd_counts, size)


def merge_outputs(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    gcd_counts: Sequence[int] = SCALING_GCD_COUNTS,
    size: int = MULTI_GPU_STREAM_BYTES,
) -> ExperimentResult:
    """Assemble the figure result from point outputs (in order)."""
    result = scaling_result(points, outputs)
    result.title = TITLE
    return result


def run(
    gcd_counts: Sequence[int] = SCALING_GCD_COUNTS,
    size: int = MULTI_GPU_STREAM_BYTES,
) -> ExperimentResult:
    """Run the reproduction; returns its :class:`ExperimentResult`."""
    points = sweep_points(gcd_counts, size)
    return merge_outputs(points, [p.execute() for p in points])


def report(result: ExperimentResult) -> str:
    """Paper-style text rendering of a result."""
    topology = resolve_default_topology()
    rows = []
    reference = {}
    for m in result.measurements:
        label = f"{int(m.x)} GCD(s)"
        rows.append((label, m.value))
        reference[label] = cpu_gpu_peak_bidirectional(
            topology, m.meta["placement"]
        )
    return bar_table(rows, title=TITLE, reference=reference)
