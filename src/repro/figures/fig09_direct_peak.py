"""Figure 9: peak bidirectional direct-access bandwidth + utilization.

The maxima of the Figure 8 sweep against the theoretical bidirectional
link peaks — the paper reports 43–44 % for all three tiers.
"""

from __future__ import annotations

from typing import Sequence

from ..context import resolve_default as resolve_default_topology
from ..core.experiment import ExperimentResult
from ..core.report import bar_table
from ..runner import SimPoint
from ..units import GiB

TITLE = "Peak bidirectional direct-access bandwidth (Figure 9)"
ARTIFACT = "Figure 9"


def sweep_points(
    data_gcds: Sequence[int] = (1, 2, 6), size: int = 4 * GiB
) -> list[SimPoint]:
    """Decompose the reproduction into independent sim points."""
    return [
        SimPoint.make(
            "fig09",
            f"direct/{data_gcd}",
            "repro.bench_suites.stream:remote_stream_copy",
            executor_gcd=0,
            data_gcd=data_gcd,
            size=size,
        )
        for data_gcd in data_gcds
    ]


def merge_outputs(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    data_gcds: Sequence[int] = (1, 2, 6),
    size: int = 4 * GiB,
) -> ExperimentResult:
    """Assemble the figure result from point outputs (in order)."""
    topology = resolve_default_topology()
    result = ExperimentResult("fig09", TITLE)
    for point, bandwidth in zip(points, outputs):
        data_gcd = point.kwargs["data_gcd"]
        tier = topology.peer_tier(0, data_gcd)
        assert tier is not None
        result.add(
            data_gcd,
            bandwidth,
            "B/s",
            data_gcd=data_gcd,
            tier=tier.name.lower(),
            theoretical=tier.peak_bidirectional,
        )
    return result


def run(
    data_gcds: Sequence[int] = (1, 2, 6), size: int = 4 * GiB
) -> ExperimentResult:
    """Run the reproduction; returns its :class:`ExperimentResult`."""
    points = sweep_points(data_gcds, size)
    return merge_outputs(points, [p.execute() for p in points])


def report(result: ExperimentResult) -> str:
    """Paper-style text rendering of a result."""
    rows = []
    reference = {}
    for m in result.measurements:
        label = f"GCD0 <-> GCD{m.meta['data_gcd']} ({m.meta['tier']})"
        rows.append((label, m.value))
        reference[label] = m.meta["theoretical"]
    return bar_table(rows, title=TITLE, reference=reference)
