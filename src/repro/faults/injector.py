"""Replays a :class:`FaultScenario` against a live hardware node.

The :class:`FaultInjector` resolves every event target (link, SDMA
engine, NUMA domain) against the node's topology up front — a typo'd
scenario fails at construction, not minutes into a run — then arms one
engine timer per event.  Timers fire in ``at`` order with listing-order
FIFO tie-breaks, so faulted runs stay bit-deterministic.

Event semantics (see the event classes for detail):

- ``LinkDegrade`` → :meth:`FlowNetwork.set_capacity` on both
  directional channels to ``factor × healthy``, plus a blame alias so
  ``repro explain`` attributes time frozen on the link to
  ``fault:link-degrade:<lo>-><hi>``.
- ``LinkFail`` → capacity 0 (in-flight flows fail with
  :class:`~repro.errors.LinkDownError`), the link is recorded in
  :meth:`HardwareNode.failed_links` for reroute decisions, and with
  ``until`` a heal timer restores it.
- ``SdmaStall`` → :meth:`SdmaEngines.stall`; new copies fall back to
  the opposite-direction engine at a modeled penalty until the stall
  clears.
- ``PageMigrationStorm`` → the NUMA domain's DRAM channel loses
  ``rate`` bytes/s of capacity for the duration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..errors import ConfigurationError, SimulationError
from ..topology.link import Link, LinkEndpoint
from .scenario import (
    FaultScenario,
    LinkDegrade,
    LinkFail,
    PageMigrationStorm,
    SdmaStall,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hardware.node import HardwareNode


def _parse_endpoint(token: str) -> LinkEndpoint:
    token = token.strip()
    if token.startswith("gcd"):
        body, kind = token[3:], "gcd"
    elif token.startswith("numa"):
        body, kind = token[4:], "numa"
    else:
        body, kind = token, "gcd"
    try:
        index = int(body)
    except ValueError:
        raise ConfigurationError(f"bad link endpoint {token!r}") from None
    return LinkEndpoint(kind, index)


def resolve_link(topology: "object", spec: str) -> Link:
    """Resolve a scenario link spec to a topology :class:`Link`.

    Accepts an exact :attr:`Link.name` (``"gcd1-gcd3:single"``), an
    endpoint pair (``"gcd1-gcd3"``, ``"gcd0-numa0"``), or a bare GCD
    pair (``"1-3"``).
    """
    links = list(topology.links())
    for link in links:
        if link.name == spec:
            return link
    head, sep, _ = spec.partition(":")
    parts = head.split("-")
    if sep == "" and len(parts) == 2:
        a, b = _parse_endpoint(parts[0]), _parse_endpoint(parts[1])
        link = topology.link_between(a, b)
        if link is not None:
            return link
    known = ", ".join(link.name for link in links)
    raise ConfigurationError(
        f"scenario references unknown link {spec!r}; known links: {known}"
    )


def _parse_engine(spec: str) -> "tuple[int, tuple[bool, ...]]":
    """``"gcd0:out"`` → ``(0, (True,))``; bare ``"gcd0"`` stalls both."""
    head, sep, direction = spec.partition(":")
    token = head.strip()
    if token.startswith("gcd"):
        token = token[3:]
    try:
        gcd = int(token)
    except ValueError:
        raise ConfigurationError(f"bad SDMA engine spec {spec!r}") from None
    if not sep:
        return gcd, (True, False)
    direction = direction.strip().lower()
    if direction in ("out", "egress"):
        return gcd, (True,)
    if direction in ("in", "ingress"):
        return gcd, (False,)
    raise ConfigurationError(
        f"bad SDMA engine direction {direction!r} in {spec!r} "
        "(expected 'in' or 'out')"
    )


def _endpoint_label(endpoint: LinkEndpoint) -> str:
    return str(endpoint.index) if endpoint.is_gcd else str(endpoint)


class FaultInjector:
    """Arms a scenario's events on a node's simulation clock."""

    def __init__(self, node: "HardwareNode", scenario: FaultScenario) -> None:
        self.node = node
        self.scenario = scenario
        self._armed = False
        #: Healthy capacity of every channel this injector touched,
        #: keyed by channel id — the restore target for heal events.
        self._healthy: dict[Hashable, float] = {}
        self._validate()

    # -- validation (construction time) --------------------------------------

    def _validate(self) -> None:
        topology = self.node.topology
        for event in self.scenario.events:
            if isinstance(event, (LinkDegrade, LinkFail)):
                resolve_link(topology, event.link)
            elif isinstance(event, SdmaStall):
                gcd, _ = _parse_engine(event.engine)
                self.node.gcd(gcd)  # raises TopologyError when absent
            elif isinstance(event, PageMigrationStorm):
                channel = self.node.cpu.dram_channel(event.numa)
                healthy = self.node.network.capacity(channel)
                if event.rate >= healthy:
                    raise ConfigurationError(
                        f"page-migration storm rate {event.rate:g} B/s would "
                        f"exceed NUMA {event.numa}'s DRAM bandwidth "
                        f"({healthy:g} B/s)"
                    )

    # -- arming ---------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every event (and its heal, if any) on the engine.

        Events are scheduled in listing order, so same-time events fire
        in listing order (engine FIFO tie-break) — scenario replay is
        deterministic.
        """
        if self._armed:
            raise SimulationError("fault injector is already armed")
        self._armed = True
        engine = self.node.engine
        now = engine.now
        for event in self.scenario.events:
            if event.at < now:
                raise ConfigurationError(
                    f"fault event at t={event.at:g}s is in the past "
                    f"(now={now:g}s)"
                )
            engine.schedule(event.at - now, self._applier(event))
            heal_at = self._heal_time(event)
            if heal_at is not None:
                engine.schedule(heal_at - now, self._healer(event))

    @staticmethod
    def _heal_time(event: object) -> "float | None":
        if isinstance(event, LinkFail):
            return event.until
        if isinstance(event, SdmaStall):
            return event.at + event.duration
        if isinstance(event, PageMigrationStorm):
            if event.duration == float("inf"):
                return None
            return event.at + event.duration
        return None

    def _applier(self, event: object):
        if isinstance(event, LinkDegrade):
            return lambda: self._apply_link_degrade(event)
        if isinstance(event, LinkFail):
            return lambda: self._apply_link_fail(event)
        if isinstance(event, SdmaStall):
            return lambda: self._apply_sdma_stall(event)
        if isinstance(event, PageMigrationStorm):
            return lambda: self._apply_page_storm(event)
        raise ConfigurationError(f"not a fault event: {event!r}")

    def _healer(self, event: object):
        if isinstance(event, LinkFail):
            return lambda: self._heal_link(event)
        if isinstance(event, SdmaStall):
            return lambda: self._heal_sdma_stall(event)
        if isinstance(event, PageMigrationStorm):
            return lambda: self._heal_page_storm(event)
        raise ConfigurationError(f"event {event!r} has no heal action")

    # -- link events -----------------------------------------------------------

    def _link_channels(self, link: Link) -> "tuple[Hashable, Hashable]":
        from ..hardware.xgmi import both_channels

        return both_channels(link)

    def _remember_healthy(self, channel: Hashable) -> float:
        network = self.node.network
        return self._healthy.setdefault(channel, network.capacity(channel))

    def _apply_link_degrade(self, event: LinkDegrade) -> None:
        link = resolve_link(self.node.topology, event.link)
        lo, hi = sorted(link.endpoints())
        alias = (
            f"fault:link-degrade:{_endpoint_label(lo)}->{_endpoint_label(hi)}"
        )
        network = self.node.network
        for channel in self._link_channels(link):
            self._remember_healthy(channel)
            # Alias first: the re-level triggered by set_capacity blames
            # flows frozen at this channel under the fault bucket.
            if event.factor < 1.0:
                network.set_blame_alias(channel, alias)
            else:
                network.clear_blame_alias(channel)
            network.set_capacity(
                channel, link.capacity_per_direction * event.factor
            )

    def _apply_link_fail(self, event: LinkFail) -> None:
        link = resolve_link(self.node.topology, event.link)
        lo, hi = sorted(link.endpoints())
        alias = f"fault:link-fail:{_endpoint_label(lo)}->{_endpoint_label(hi)}"
        network = self.node.network
        for channel in self._link_channels(link):
            self._remember_healthy(channel)
            network.set_blame_alias(channel, alias)
            network.set_capacity(channel, 0.0)
        self.node.mark_link_failed(link.name)

    def _heal_link(self, event: LinkFail) -> None:
        link = resolve_link(self.node.topology, event.link)
        network = self.node.network
        for channel in self._link_channels(link):
            network.clear_blame_alias(channel)
            network.set_capacity(
                channel, self._healthy.get(channel, link.capacity_per_direction)
            )
        self.node.mark_link_restored(link.name)

    # -- SDMA events -----------------------------------------------------------

    def _apply_sdma_stall(self, event: SdmaStall) -> None:
        gcd, directions = _parse_engine(event.engine)
        sdma = self.node.gcd(gcd).sdma
        for outbound in directions:
            sdma.stall(outbound=outbound)

    def _heal_sdma_stall(self, event: SdmaStall) -> None:
        gcd, directions = _parse_engine(event.engine)
        sdma = self.node.gcd(gcd).sdma
        for outbound in directions:
            sdma.clear_stall(outbound=outbound)

    # -- page-migration storms ---------------------------------------------------

    def _apply_page_storm(self, event: PageMigrationStorm) -> None:
        channel = self.node.cpu.dram_channel(event.numa)
        healthy = self._remember_healthy(channel)
        network = self.node.network
        network.set_blame_alias(channel, f"fault:page-storm:numa{event.numa}")
        network.set_capacity(channel, healthy - event.rate)

    def _heal_page_storm(self, event: PageMigrationStorm) -> None:
        channel = self.node.cpu.dram_channel(event.numa)
        network = self.node.network
        network.clear_blame_alias(channel)
        network.set_capacity(channel, self._healthy[channel])
