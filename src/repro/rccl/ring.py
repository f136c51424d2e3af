"""Ring construction over the xGMI topology.

Two search strategies:

- :func:`build_greedy_ring` — what the simulator uses by default,
  modelling RCCL's heuristic pattern search: starting from the lowest
  member, repeatedly hop to the unvisited member behind the *widest*
  direct link (ties to the lowest index); members with no direct link
  get a *relayed* segment routed over the fabric.  On the Fig. 1
  topology this finds the perfect all-direct ring for all 8 GCDs
  (0-1-3-2-4-5-7-6) but leaves a relayed segment for the 7-GCD subset
  — the mechanism behind the Fig. 12 latency drop from 7 to 8 threads.
- :func:`build_optimal_ring` — exhaustive search minimising relays
  then maximising the bottleneck; used by the ablation benchmark to
  quantify what the heuristic costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..errors import RcclError, RoutingError, TopologyError
from ..topology.node import NodeTopology
from ..topology.routing import Route, bandwidth_maximizing_path


@dataclass(frozen=True)
class RingSegment:
    """One directed hop of the ring: member → next member.

    ``route`` is the fabric path; ``is_relayed`` when it crosses an
    intermediate die (no direct link between the members).
    """

    src: int
    dst: int
    route: Route

    @property
    def is_relayed(self) -> bool:
        """True when the segment crosses an intermediate die."""
        return self.route.num_hops > 1

    @property
    def bottleneck_capacity(self) -> float:
        """Narrowest per-direction link capacity on the route."""
        return self.route.bottleneck_capacity


@dataclass(frozen=True)
class Ring:
    """A closed ring over the communicator members."""

    order: tuple[int, ...]
    segments: tuple[RingSegment, ...]

    @property
    def size(self) -> int:
        """Number of ring members."""
        return len(self.order)

    @property
    def num_relayed(self) -> int:
        """Count of relayed segments (the Fig. 12 penalty)."""
        return sum(1 for s in self.segments if s.is_relayed)

    @property
    def bottleneck_capacity(self) -> float:
        """Narrowest segment bottleneck of the whole ring."""
        return min(s.bottleneck_capacity for s in self.segments)

    def segment_from(self, member: int) -> RingSegment:
        """The outgoing segment of a member."""
        for segment in self.segments:
            if segment.src == member:
                return segment
        raise RcclError(f"GCD {member} is not a ring member")

    def next_member(self, member: int) -> int:
        """Successor of a member along the ring."""
        return self.segment_from(member).dst

    def describe(self) -> str:
        """Compact rendering; ``~>`` marks relayed segments."""
        parts = []
        for segment in self.segments:
            arrow = "~>" if segment.is_relayed else "->"
            parts.append(f"{segment.src}{arrow}")
        return "".join(parts) + str(self.order[0])


def _segments_for_order(
    topology: NodeTopology,
    order: Sequence[int],
    avoid_links: "frozenset[str] | set[str] | None" = None,
) -> tuple[RingSegment, ...]:
    segments = []
    for i, src in enumerate(order):
        dst = order[(i + 1) % len(order)]
        try:
            route = bandwidth_maximizing_path(
                topology, src, dst, avoid=avoid_links
            )
        except RoutingError as exc:
            # The avoid set (failed links) exhausted every path between
            # two adjacent members: surface a communicator-level error
            # rather than a raw routing failure from deep inside the
            # builder — callers handle RcclError, not RoutingError.
            raise RcclError(
                f"no usable path between ring members {src} and {dst}: "
                f"{exc}"
            ) from exc
        segments.append(RingSegment(src, dst, route))
    return tuple(segments)


def _validate_members(topology: NodeTopology, members: Sequence[int]) -> list[int]:
    members = list(members)
    if len(members) < 2:
        raise RcclError("a ring needs at least two members")
    if len(set(members)) != len(members):
        raise RcclError("duplicate GCDs in communicator")
    for member in members:
        try:
            topology.gcd(member)
        except TopologyError as exc:
            # Only the "no such GCD" lookup failure becomes an
            # RcclError; anything else (e.g. AttributeError from a
            # malformed topology object) is a programming error and
            # must propagate unmasked.
            raise RcclError(f"GCD {member} not in topology: {exc}") from exc
    return members


def build_greedy_ring(
    topology: NodeTopology,
    members: Sequence[int],
    *,
    avoid_links: "frozenset[str] | set[str] | None" = None,
) -> Ring:
    """RCCL-style heuristic: widest direct link first, relay otherwise.

    ``avoid_links`` (link names, from
    :meth:`HardwareNode.failed_links`) excludes dead links: they are
    not candidates for direct hops and segment routes detour around
    them, so rebuilding a ring after a ``LinkFail`` yields a ring that
    relays around the dead link exactly like RCCL re-running its
    pattern search on the degraded topology.
    """
    members = _validate_members(topology, members)
    peers = topology.compiled().xgmi_peers
    by_index = sorted(members)
    lowest = 0
    start = by_index[0]
    order = [start]
    unvisited = set(members) - {start}
    current = start
    while unvisited:
        direct = [
            (link.tier.peak_unidirectional, -candidate, candidate)
            for candidate, link in peers[current]
            if candidate in unvisited
            and not (avoid_links and link.name in avoid_links)
        ]
        if direct:
            _, _, chosen = max(direct)
        else:
            # No direct link: relay to the lowest-index remaining member.
            while by_index[lowest] not in unvisited:
                lowest += 1
            chosen = by_index[lowest]
        order.append(chosen)
        unvisited.discard(chosen)
        current = chosen
    return Ring(
        tuple(order), _segments_for_order(topology, order, avoid_links)
    )


def build_optimal_ring(topology: NodeTopology, members: Sequence[int]) -> Ring:
    """Exhaustive search: fewest relays, then widest bottleneck.

    Factorial in the member count — fine for ≤ 8 GCDs.  Exists to
    quantify the cost of the greedy heuristic (ablation benchmark).
    """
    members = _validate_members(topology, members)
    start = members[0]
    best_ring: Ring | None = None
    best_key: tuple[int, float, tuple[int, ...]] | None = None
    rest = [m for m in sorted(members) if m != start]
    for perm in itertools.permutations(rest):
        order = (start, *perm)
        segments = _segments_for_order(topology, order)
        ring = Ring(order, segments)
        key = (ring.num_relayed, -ring.bottleneck_capacity, order)
        if best_key is None or key < best_key:
            best_key = key
            best_ring = ring
    assert best_ring is not None
    return best_ring
