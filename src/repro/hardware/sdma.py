"""SDMA copy-engine model.

``hipMemcpy``-family transfers are executed by System DMA engines
rather than by compute kernels.  The paper's key finding about them
(§V-A2): they are tuned for PCIe-4.0 x16 and cannot drive more than
≈ 50 GB/s no matter how wide the underlying Infinity Fabric bundle is
— producing the counter-intuitive Fig. 6c matrix with only two
bandwidth tiers (37–38 GB/s on single links, 50 GB/s elsewhere)
instead of the theoretical three.

Each GCD gets one ingress and one egress engine channel (MI250X
hardware dedicates separate SDMA queues per direction), so a
bidirectional pair of copies does not halve each other, but two
same-direction copies on one GCD share an engine — both effects are
observable in the p2pBandwidthLatencyTest full-matrix mode.
"""

from __future__ import annotations

from typing import Hashable

from ..core.calibration import CalibrationProfile
from ..topology.link import LinkTier
from ..topology.routing import Route

#: Rate efficiency of a copy redirected to the opposite-direction
#: engine while its own engine is stalled (fault injection).  The
#: queues are direction-tuned, so the fallback path pays a modeled
#: penalty on top of now sharing the other direction's engine.
SDMA_FALLBACK_EFFICIENCY = 0.7


def sdma_channel_id(gcd_index: int, direction: str) -> Hashable:
    """Channel id of a GCD's ``"in"`` (ingress) or ``"out"`` (egress) engine."""
    return ("sdma", gcd_index, direction)


def sdma_channels(
    gcd_index: int, calibration: CalibrationProfile
) -> list[tuple[Hashable, float]]:
    """``(channel id, capacity)`` of a GCD's engine pair, ingress first."""
    throughput = calibration.sdma_engine_throughput
    return [
        (sdma_channel_id(gcd_index, "in"), throughput),
        (sdma_channel_id(gcd_index, "out"), throughput),
    ]


class SdmaEngines:
    """The SDMA engine pair of one GCD."""

    def __init__(self, gcd_index: int, calibration: CalibrationProfile) -> None:
        self.gcd_index = gcd_index
        self._calibration = calibration
        self.ingress_channel = sdma_channel_id(gcd_index, "in")
        self.egress_channel = sdma_channel_id(gcd_index, "out")
        self._stalled = {"in": False, "out": False}

    def engine_channel(self, *, outbound: bool) -> Hashable:
        """Engine channel for a copy leaving (or entering) this GCD."""
        return self.egress_channel if outbound else self.ingress_channel

    # -- fault injection -----------------------------------------------------

    def stall(self, *, outbound: bool) -> None:
        """Mark one engine stalled (``SdmaStall`` fault event)."""
        self._stalled["out" if outbound else "in"] = True

    def clear_stall(self, *, outbound: bool) -> None:
        """Clear a stall; subsequent copies plan on their own engine."""
        self._stalled["out" if outbound else "in"] = False

    def is_stalled(self, *, outbound: bool) -> bool:
        """Whether the given direction's engine is currently stalled."""
        return self._stalled["out" if outbound else "in"]

    def plan_engine(self, *, outbound: bool) -> "tuple[Hashable, float]":
        """Stall-aware engine selection: ``(channel, efficiency)``.

        Healthy engines plan on themselves at full efficiency.  A copy
        whose engine is stalled falls back to the opposite-direction
        engine at :data:`SDMA_FALLBACK_EFFICIENCY` (and now contends
        with that direction's traffic); with both engines stalled the
        copy limps along its own engine at the squared penalty.
        """
        direction = "out" if outbound else "in"
        if not self._stalled[direction]:
            return self.engine_channel(outbound=outbound), 1.0
        if not self._stalled["out" if direction == "in" else "in"]:
            return (
                self.engine_channel(outbound=not outbound),
                SDMA_FALLBACK_EFFICIENCY,
            )
        return (
            self.engine_channel(outbound=outbound),
            SDMA_FALLBACK_EFFICIENCY * SDMA_FALLBACK_EFFICIENCY,
        )

    def rate_cap_for_route(self, route: Route) -> float:
        """Protocol-efficiency cap for an SDMA copy along ``route``.

        The binding tier is the narrowest link of the path; the cap is
        ``min(engine, efficiency × bottleneck)`` per
        :meth:`CalibrationProfile.sdma_cap_for_tier`.
        """
        if route.is_local:
            # Device-local hipMemcpy (D2D same GCD): engine-bound.
            return self._calibration.sdma_engine_throughput
        bottleneck = min(route.links, key=lambda l: l.capacity_per_direction)
        return self._calibration.sdma_cap_for_tier(bottleneck.tier)

    def copy_latency(self, route: Route, pair_jitter: float = 0.0) -> float:
        """Small-transfer latency of an engine copy along ``route``.

        This is the Fig. 6b model: base + per-extra-hop + tier-fanout
        setup, evaluated on the bandwidth-maximizing route the runtime
        actually programs.
        """
        if route.is_local:
            return self._calibration.p2p_latency_base
        direct_tier: LinkTier | None = (
            route.links[0].tier if route.num_hops == 1 else None
        )
        return self._calibration.p2p_latency(
            route.num_hops, direct_tier, pair_jitter
        )
