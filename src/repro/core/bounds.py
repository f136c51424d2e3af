"""Theoretical peaks and analytical bounds (paper §II-A, §VI).

Everything the paper compares measurements against:

- link-tier peak bandwidths (50/100/200 GB/s per direction GCD-GCD,
  36 GB/s per direction CPU-GCD);
- aggregate CPU-GPU bandwidth for a GCD placement (Fig. 4/5's
  "theoretical bandwidth" line);
- HBM peak (1.6 TB/s per GCD);
- the collective latency lower bounds of §VI: single-round
  collectives ≥ min p2p latency (8.7 µs), dual-round ≥ twice that
  (17.4 µs);
- the max-rate time of an RCCL ring collective (every flow at its
  cap), exact when no fabric channel binds and a lower bound always.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import BenchmarkError
from ..topology.link import LinkTier
from ..topology.node import NodeTopology
from ..topology.routing import bandwidth_maximizing_path
from .calibration import CalibrationProfile, DEFAULT_CALIBRATION

#: Collectives with one communication pass (§VI).
SINGLE_ROUND_COLLECTIVES = frozenset({"reduce", "broadcast"})
#: Collectives with two communication passes (§VI).
DUAL_ROUND_COLLECTIVES = frozenset({"allreduce", "reduce_scatter", "allgather"})


def link_peak_unidirectional(tier: LinkTier) -> float:
    """Per-direction peak of a link tier (bytes/s)."""
    return tier.peak_unidirectional


def link_peak_bidirectional(tier: LinkTier) -> float:
    """Bidirectional peak of a link tier (bytes/s)."""
    return tier.peak_bidirectional


def pair_peak_unidirectional(topology: NodeTopology, src: int, dst: int) -> float:
    """Peak achievable per-direction bandwidth between two GCDs.

    The bottleneck link capacity of the bandwidth-maximizing route —
    the reference line of Fig. 6c / Fig. 10.
    """
    if src == dst:
        return topology.gcd(src).hbm_peak_bw
    return bandwidth_maximizing_path(topology, src, dst).bottleneck_capacity


def cpu_gpu_peak_bidirectional(
    topology: NodeTopology, placement: Sequence[int]
) -> float:
    """Theoretical total bidirectional CPU-GPU bandwidth of a placement.

    Each selected GCD contributes its own 36+36 GB/s CPU link — the
    reference line of Fig. 4 and Fig. 5 (which is *not* reachable when
    GCDs share a NUMA port; that is the measured finding).
    """
    if not placement:
        raise BenchmarkError("placement must select at least one GCD")
    total = 0.0
    for gcd in placement:
        total += topology.cpu_link_of_gcd(gcd).capacity_bidirectional
    return total


def hbm_peak(topology: NodeTopology, gcd_index: int) -> float:
    """HBM2e peak of one GCD (1.6 TB/s)."""
    return topology.gcd(gcd_index).hbm_peak_bw


@dataclass(frozen=True)
class CollectiveLatencyBound:
    """The §VI analytical lower bound for a collective."""

    collective: str
    rounds: int
    bound: float

    def describe(self) -> str:
        """One-line rendering of the bound (used in Fig. 12 notes)."""
        return (
            f"{self.collective}: ≥ {self.bound * 1e6:.1f} us "
            f"({self.rounds} round(s))"
        )


def min_p2p_latency(calibration: CalibrationProfile = DEFAULT_CALIBRATION) -> float:
    """Lowest GCD-GCD latency in the Fig. 6b matrix (8.7 µs)."""
    return calibration.p2p_latency_base


def collective_latency_bound(
    collective: str,
    calibration: CalibrationProfile = DEFAULT_CALIBRATION,
) -> CollectiveLatencyBound:
    """§VI: single-round ≥ 8.7 µs, dual-round ≥ 17.4 µs."""
    name = collective.lower()
    if name in SINGLE_ROUND_COLLECTIVES:
        rounds = 1
    elif name in DUAL_ROUND_COLLECTIVES:
        rounds = 2
    else:
        raise BenchmarkError(f"unknown collective {collective!r}")
    base = min_p2p_latency(calibration)
    return CollectiveLatencyBound(name, rounds, rounds * base)


def max_rate_collective_time(
    comm: Any, collective: str, nbytes: int, root: int = 0
) -> float:
    """Bienz et al.'s max-rate time of one RCCL ring collective.

    Every segment flow of a step runs at its own cap, the segment's
    kernel rate (``comm.segment_rate``), so a step lasts as long as its
    slowest segment, relay penalty included, plus the per-step
    overhead:

    ``launch + steps * (max over segments of
    (relay_penalty * [relayed] + chunk / rate) + step_overhead)``

    ``allreduce`` runs ``2(n-1)`` steps of ``ceil(S/n)``-byte chunks;
    ``reduce``, ``reduce_scatter`` and ``allgather`` run ``n-1``.
    ``broadcast`` pipelines ``min(S, rccl_chunk_bytes)`` chunks along
    the ``n-1`` forward segments from ``root`` in ``(n-1) +
    (num_chunks-1)`` stages, at ``rate * rccl_ll_efficiency``.

    The simulated time equals this (to rounding) when no fabric
    channel binds, and is never shorter: a rate never exceeds its cap.
    ``comm`` is an :class:`~repro.rccl.communicator.RcclCommunicator`
    with at least two members.
    """
    calibration = comm.calibration
    n = comm.size
    name = collective.lower()
    factor = 1.0
    if name == "broadcast":
        factor = calibration.rccl_ll_efficiency
        chunk = min(nbytes, calibration.rccl_chunk_bytes)
        segments = []
        member = root
        for _ in range(n - 1):
            segment = comm.ring.segment_from(member)
            segments.append(segment)
            member = segment.dst
        steps = len(segments) + -(-nbytes // chunk) - 1
    elif name in DUAL_ROUND_COLLECTIVES | SINGLE_ROUND_COLLECTIVES:
        chunk = -(-nbytes // n)
        segments = list(comm.ring.segments)
        steps = 2 * (n - 1) if name == "allreduce" else n - 1
    else:
        raise BenchmarkError(f"unknown collective {collective!r}")
    slowest = max(
        (calibration.rccl_relay_penalty if segment.is_relayed else 0.0)
        + chunk / (comm.segment_rate(segment) * factor)
        for segment in segments
    )
    return calibration.rccl_launch_overhead + steps * (
        slowest + calibration.rccl_step_overhead
    )


def utilization(measured: float, theoretical: float) -> float:
    """Measured/theoretical ratio, as the paper's percentage labels."""
    if theoretical <= 0:
        raise BenchmarkError("theoretical peak must be positive")
    if measured < 0:
        raise BenchmarkError("measured value must be non-negative")
    return measured / theoretical
