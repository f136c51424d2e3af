"""Figure 7: hipMemcpyPeer bandwidth vs size, GCD0 → adjacent GCDs."""

from __future__ import annotations

from typing import Sequence

from ..bench_suites.comm_scope import peer_points, peer_result
from ..context import resolve_default as resolve_default_topology
from ..core.experiment import ExperimentResult
from ..core.report import peak_summary, series_table
from ..runner import SimPoint

TITLE = "hipMemcpyPeer bandwidth from GCD0 to adjacent GCDs (Figure 7)"
ARTIFACT = "Figure 7"


def sweep_points(
    dst_gcds: Sequence[int] = (1, 2, 6),
    sizes: Sequence[int] | None = None,
) -> list[SimPoint]:
    """Decompose the reproduction into independent sim points."""
    return peer_points(0, dst_gcds, sizes)


def merge_outputs(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    dst_gcds: Sequence[int] = (1, 2, 6),
    sizes: Sequence[int] | None = None,
) -> ExperimentResult:
    """Assemble the figure result from point outputs (in order)."""
    result = peer_result(points, outputs, src_gcd=0)
    result.title = TITLE
    topology = resolve_default_topology()
    for dst in dst_gcds:
        tier = topology.peer_tier(0, dst)
        if tier is not None:
            result.note(
                f"GCD0-GCD{dst}: {tier.name.lower()} link, theoretical "
                f"{tier.peak_unidirectional / 1e9:.0f} GB/s per direction"
            )
    return result


def run(
    dst_gcds: Sequence[int] = (1, 2, 6),
    sizes: Sequence[int] | None = None,
) -> ExperimentResult:
    """Run the reproduction; returns its :class:`ExperimentResult`."""
    points = sweep_points(dst_gcds, sizes)
    return merge_outputs(points, [p.execute() for p in points], dst_gcds)


def report(result: ExperimentResult) -> str:
    """Paper-style text rendering of a result."""
    return "\n".join(
        [
            series_table(result, series_key="dst"),
            "",
            peak_summary(result, "dst"),
            *result.notes,
        ]
    )
