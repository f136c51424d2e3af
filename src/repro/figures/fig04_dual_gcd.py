"""Figure 4: dual-GCD CPU-GPU STREAM, same-GPU vs spread placement."""

from __future__ import annotations

from typing import Sequence

from ..bench_suites.stream import dual_gcd_points, dual_gcd_result
from ..context import resolve_default as resolve_default_topology
from ..core.bounds import cpu_gpu_peak_bidirectional
from ..core.experiment import ExperimentResult
from ..core.report import bar_table
from ..core.sweep import MULTI_GPU_STREAM_BYTES
from ..runner import SimPoint

TITLE = "CPU-GPU STREAM: one vs two GCDs (Figure 4)"
ARTIFACT = "Figure 4"


def sweep_points(size: int = MULTI_GPU_STREAM_BYTES) -> list[SimPoint]:
    """Decompose the reproduction into independent sim points."""
    return dual_gcd_points(size)


def merge_outputs(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    size: int = MULTI_GPU_STREAM_BYTES,
) -> ExperimentResult:
    """Assemble the figure result from point outputs (in order)."""
    result = dual_gcd_result(points, outputs)
    result.title = TITLE
    return result


def run(size: int = MULTI_GPU_STREAM_BYTES) -> ExperimentResult:
    """Run the reproduction; returns its :class:`ExperimentResult`."""
    points = sweep_points(size)
    return merge_outputs(points, [p.execute() for p in points])


def report(result: ExperimentResult) -> str:
    """Paper-style text rendering of a result."""
    topology = resolve_default_topology()
    rows = []
    reference = {}
    for m in result.measurements:
        label = str(m.meta["case"])
        rows.append((label, m.value))
        reference[label] = cpu_gpu_peak_bidirectional(
            topology, m.meta["placement"]
        )
    return bar_table(rows, title=TITLE, reference=reference)
