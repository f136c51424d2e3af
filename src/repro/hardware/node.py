"""The assembled hardware node: devices + channels + routes.

:class:`HardwareNode` is the root simulation object.  It owns the DES
engine and flow network, instantiates every device model from a
:class:`~repro.topology.node.NodeTopology`, registers all channels,
and provides the route/channel primitives the runtime layers (HIP,
MPI, RCCL) compose their transfers from.

One :class:`HardwareNode` == one simulated machine.  Benchmarks create
a fresh node per measurement run, so runs are fully isolated and
deterministic.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

from ..configs import check_capacities
from ..context import active, resolve_default
from ..core.calibration import CalibrationProfile, DEFAULT_CALIBRATION
from ..errors import TopologyError
from ..obs.metrics import MetricsRegistry, resolve_metrics
from ..obs.spans import SpanRecorder, resolve_spans
from ..sim.engine import SimEngine
from ..sim.flow import Flow, FlowNetwork
from ..sim.trace import Tracer
from ..topology.link import LinkEndpoint, LinkTier
from ..topology.node import NodeTopology
from ..topology.routing import Route, RoutingPolicy
from .cpu import CpuSocket
from .gcd import GcdDevice
from .xgmi import channels_for_route, register_link_channels


class HardwareNode:
    """A live simulated multi-GPU node."""

    def __init__(
        self,
        topology: NodeTopology | None = None,
        calibration: CalibrationProfile | None = None,
        *,
        engine: SimEngine | None = None,
        trace: bool = False,
        trace_capacity: int | None = None,
        metrics: "MetricsRegistry | bool | None" = None,
        metrics_capacity: int | None = None,
        spans: "SpanRecorder | bool | None" = None,
        faults: "object | None" = None,
    ) -> None:
        check_capacities("HardwareNode", trace_capacity, metrics_capacity)
        # Explicit arguments win; otherwise the ambient SimContext
        # (entered by `--topology`/`--algorithm` runs, `repro inject`,
        # `repro trace`/`--metrics` captures and sweep workers) donates
        # its topology, fault scenario and observation, so measurement
        # code that builds its own nodes adopts them without signature
        # changes.  The topology falls back to the paper's Fig. 1 node.
        context = active()
        self.topology = resolve_default(
            context.topology if topology is None else topology
        )
        self.calibration = (
            calibration if calibration is not None else DEFAULT_CALIBRATION
        )
        # Observation plumbing: an ambient capture donates its shared
        # registry and span recorder, and with the recorder its tracer.
        ambient = context.obs
        if metrics is None and ambient is not None:
            self.metrics = ambient.metrics
            ambient.adoptions += 1
        else:
            self.metrics = resolve_metrics(metrics, sample_capacity=metrics_capacity)
        adopted = spans is None and ambient is not None
        self.spans = ambient.spans if adopted else resolve_spans(spans)
        if trace and not self.spans.tracer:
            # Finished spans are the timeline's only producer, so asking
            # for a trace switches spans on and attaches a tracer — to a
            # recorder of this node's own unless it was passed in.
            if adopted or not self.spans:
                self.spans = SpanRecorder()
            self.spans.tracer = Tracer(enabled=True, capacity=trace_capacity)
        self.tracer = self.spans.tracer if self.spans.tracer is not None else Tracer()
        self.engine = engine if engine is not None else SimEngine(metrics=self.metrics)
        self.network = FlowNetwork(
            self.engine, metrics=self.metrics, spans=self.spans
        )

        register_link_channels(self.network, self.topology.links())
        self.cpu = CpuSocket(self.topology, self.calibration, self.network)
        self.gcds: dict[int, GcdDevice] = {
            info.index: GcdDevice(info, self.calibration, self.network)
            for info in self.topology.gcds()
        }
        # Routes and their channels come from the process-wide table
        # shared by every node on an equal topology.
        self._compiled = self.topology.compiled()

        # Fault injection: explicit scenario, else the ambient one.
        self._failed_links: frozenset[str] = frozenset()
        self.faults = None
        if faults is None:
            faults = context.faults
        if faults:
            from ..faults.injector import FaultInjector

            self.faults = FaultInjector(self, faults)
            self.faults.arm()

    # -- accessors -----------------------------------------------------------

    @property
    def num_gcds(self) -> int:
        """Number of GCDs on this node."""
        return self.topology.num_gcds

    def gcd(self, index: int) -> GcdDevice:
        """The live device object of a GCD index."""
        try:
            return self.gcds[index]
        except KeyError:
            raise TopologyError(f"no GCD {index} on this node") from None

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.engine.now

    # -- link health (fault injection) ---------------------------------------

    def failed_links(self) -> frozenset[str]:
        """Names of links currently failed (capacity 0 both ways).

        The RCCL layer consults this to rebuild rings around dead
        links; empty on a healthy node.
        """
        return self._failed_links

    def mark_link_failed(self, link_name: str) -> None:
        """Record a link as failed (called by the fault injector)."""
        self._failed_links = self._failed_links | {link_name}

    def mark_link_restored(self, link_name: str) -> None:
        """Record a link as healed (called by the fault injector)."""
        self._failed_links = self._failed_links - {link_name}

    # -- routing -----------------------------------------------------------------

    def route(
        self,
        src: LinkEndpoint,
        dst: LinkEndpoint,
        policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
    ) -> Route:
        """Cached route lookup, avoiding currently-failed links.

        Routes are static per topology *and link-health state*: the
        set of failed links is part of the cache key, so routes
        computed while a link is down detour around it and the
        original routes come back once it heals.
        """
        return self._compiled.route(src, dst, policy, avoid=self._failed_links)

    def gcd_route(
        self,
        src_gcd: int,
        dst_gcd: int,
        policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
    ) -> Route:
        """Route between two GCDs under a policy (cached)."""
        return self._compiled.route(
            src_gcd, dst_gcd, policy, avoid=self._failed_links
        )

    def cpu_link_route(self, gcd_index: int, *, to_gcd: bool) -> Route:
        """The one-hop route over a GCD's own CPU link.

        Buffer NUMA placement is handled separately via
        :meth:`CpuSocket.host_side_channels`; the Infinity Fabric hop
        is always the GCD's own link (the socket fabric carries any
        cross-NUMA leg).
        """
        numa = LinkEndpoint.numa(self.topology.numa_of_gcd(gcd_index))
        gcd = LinkEndpoint.gcd(gcd_index)
        if to_gcd:
            return self.route(numa, gcd)
        return self.route(gcd, numa)

    def bottleneck_tier(self, route: Route) -> LinkTier:
        """Tier of the narrowest link along a non-local route."""
        if route.is_local:
            raise TopologyError("local route has no bottleneck link")
        return min(route.links, key=lambda l: l.capacity_per_direction).tier

    # -- channel composition ----------------------------------------------------

    def fabric_channels(self, route: Route) -> list[Hashable]:
        """Directional link channels for a route (delegates to xgmi)."""
        return channels_for_route(route)

    def host_to_gcd_channels(
        self, buffer_numa: int, gcd_index: int
    ) -> list[Hashable]:
        """All channels of a host→GCD data path (excluding engines)."""
        route = self.cpu_link_route(gcd_index, to_gcd=True)
        return (
            self.cpu.host_side_channels(buffer_numa, gcd_index)
            + self.fabric_channels(route)
            + [self.gcd(gcd_index).hbm.channel]
        )

    def gcd_to_host_channels(
        self, gcd_index: int, buffer_numa: int
    ) -> list[Hashable]:
        """All channels of a GCD→host data path (excluding engines)."""
        route = self.cpu_link_route(gcd_index, to_gcd=False)
        return (
            [self.gcd(gcd_index).hbm.channel]
            + self.fabric_channels(route)
            + self.cpu.host_side_channels(buffer_numa, gcd_index)
        )

    def gcd_to_gcd_channels(
        self,
        src_gcd: int,
        dst_gcd: int,
        policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
    ) -> list[Hashable]:
        """All channels of a GCD→GCD data path (excluding engines)."""
        fabric = self._compiled.fabric_channels(
            src_gcd, dst_gcd, policy, avoid=self._failed_links
        )
        channels: list[Hashable] = [self.gcd(src_gcd).hbm.channel]
        channels.extend(fabric)
        if dst_gcd != src_gcd:
            channels.append(self.gcd(dst_gcd).hbm.channel)
        return channels

    # -- flow helpers --------------------------------------------------------------

    def start_flow(
        self,
        channels: Iterable[Hashable],
        size: float,
        *,
        cap: float = math.inf,
        label: str = "",
        span: "object" = None,
    ) -> Flow:
        """Start a flow on the node's network; returns it live."""
        return self.network.transfer(channels, size, cap=cap, label=label, span=span)

    def run_all(self) -> float:
        """Drain the event queue; returns the final simulated time."""
        return self.engine.run()

    def describe(self) -> str:
        """Topology plus calibration summary text."""
        return "\n".join(
            [
                self.topology.describe(),
                self.calibration.describe(),
            ]
        )

