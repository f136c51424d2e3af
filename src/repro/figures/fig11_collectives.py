"""Figure 11: five collectives, MPI vs RCCL, 2–8 partners, 1 MiB."""

from __future__ import annotations

from typing import Any, Sequence

from ..core.experiment import ExperimentResult
from ..core.report import latency_table
from ..core.sweep import OSU_COLLECTIVE_BYTES, PARTNER_COUNTS
from ..mpi.collectives import COLLECTIVES
from ..runner import SimPoint

TITLE = "Collective latency, MPI vs RCCL (Figure 11)"
ARTIFACT = "Figure 11"

#: Panel order as in the paper: (a) Reduce … (e) AllGather.
PANEL_ORDER = ("reduce", "broadcast", "allreduce", "reduce_scatter", "allgather")


def sweep_points(
    collectives: Sequence[str] = PANEL_ORDER,
    partner_counts: Sequence[int] = PARTNER_COUNTS,
    message_bytes: int = OSU_COLLECTIVE_BYTES,
) -> list[SimPoint]:
    """Decompose the reproduction into independent sim points.

    MPI and RCCL points interleave per (collective, partners) cell, in
    figure order."""
    points = []
    for collective in collectives:
        if collective not in COLLECTIVES:
            raise KeyError(f"unknown collective {collective!r}")
        for partners in partner_counts:
            points.append(
                SimPoint.make(
                    "fig11",
                    f"mpi/{collective}/{partners}",
                    "repro.bench_suites.osu:osu_collective_latency",
                    collective=collective,
                    num_partners=partners,
                    message_bytes=message_bytes,
                )
            )
            points.append(
                SimPoint.make(
                    "fig11",
                    f"rccl/{collective}/{partners}",
                    "repro.bench_suites.rccl_tests:rccl_collective_latency",
                    collective=collective,
                    num_threads=partners,
                    message_bytes=message_bytes,
                )
            )
    return points


def merge_outputs(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    collectives: Sequence[str] = PANEL_ORDER,
    partner_counts: Sequence[int] = PARTNER_COUNTS,
    message_bytes: int = OSU_COLLECTIVE_BYTES,
) -> ExperimentResult:
    """Assemble the figure result from point outputs (in order)."""
    result = ExperimentResult("fig11", TITLE)
    for point, latency in zip(points, outputs):
        kwargs = point.kwargs
        if point.label.startswith("mpi/"):
            partners, library = kwargs["num_partners"], "MPI"
        else:
            partners, library = kwargs["num_threads"], "RCCL"
        result.add(
            partners,
            latency,
            "s",
            collective=kwargs["collective"],
            partners=partners,
            library=library,
        )
    return result


def run(
    collectives: Sequence[str] = PANEL_ORDER,
    partner_counts: Sequence[int] = PARTNER_COUNTS,
    message_bytes: int = OSU_COLLECTIVE_BYTES,
) -> ExperimentResult:
    """Run the reproduction; returns its :class:`ExperimentResult`."""
    points = sweep_points(collectives, partner_counts, message_bytes)
    return merge_outputs(points, [p.execute() for p in points])


def report(result: ExperimentResult) -> str:
    """Paper-style text rendering of a result."""
    panels: dict[Any, list] = {}
    for m in result.measurements:
        panels.setdefault(m.meta.get("collective"), []).append(m)
    parts = []
    for collective in PANEL_ORDER:
        sub = ExperimentResult("fig11", f"{collective} latency (1 MiB)")
        sub.measurements = panels.get(collective, [])
        if sub.measurements:
            parts.append(latency_table(sub))
            parts.append("")
    return "\n".join(parts).rstrip()
