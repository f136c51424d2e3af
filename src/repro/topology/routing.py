"""Routing policies over the Infinity Fabric mesh.

The paper's §V-A observation is that the HIP runtime routes
``hipMemcpyPeer`` traffic along the *bandwidth-maximizing* path rather
than the hop-count-shortest path: GCD pair 1-7 has a two-hop shortest
path (1-3-7 over single links) but is actually served by the three-hop
path 1-0-6-7 whose bottleneck is a dual link — visible both as the
latency outliers in Fig. 6b and as the 50 GB/s bandwidth (not 37) in
Fig. 6c.

This module implements both policies:

- :func:`shortest_path` — fewest hops (Fig. 6a's matrix).
- :func:`bandwidth_maximizing_path` — maximize the bottleneck link
  capacity (widest path); ties broken by fewest hops, then
  lexicographically smallest node sequence, so routing is deterministic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..errors import RoutingError
from .link import EndpointLike, Link, LinkEndpoint

if TYPE_CHECKING:
    from .node import NodeTopology


class RoutingPolicy(enum.Enum):
    """Which path-selection rule to apply."""

    SHORTEST = "shortest"
    BANDWIDTH_MAX = "bandwidth_max"


@dataclass(frozen=True)
class Route:
    """A concrete path through the topology.

    ``nodes`` is the endpoint sequence (source first), ``links`` the
    corresponding edges; ``len(links) == len(nodes) - 1``.
    """

    nodes: tuple[LinkEndpoint, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise RoutingError("route must contain at least one node")
        if len(self.links) != len(self.nodes) - 1:
            raise RoutingError("route links/nodes length mismatch")

    @property
    def source(self) -> LinkEndpoint:
        """First endpoint of the path."""
        return self.nodes[0]

    @property
    def destination(self) -> LinkEndpoint:
        """Last endpoint of the path."""
        return self.nodes[-1]

    @property
    def num_hops(self) -> int:
        """Number of links traversed."""
        return len(self.links)

    @property
    def bottleneck_capacity(self) -> float:
        """Per-direction capacity of the narrowest link on the path."""
        if not self.links:
            return float("inf")
        return min(link.capacity_per_direction for link in self.links)

    @property
    def is_local(self) -> bool:
        """True for zero-hop (same endpoint) routes."""
        return self.num_hops == 0

    def hop_pairs(self) -> Iterator[tuple[LinkEndpoint, LinkEndpoint, Link]]:
        """Yield ``(from, to, link)`` per hop, in path order."""
        for i, link in enumerate(self.links):
            yield self.nodes[i], self.nodes[i + 1], link

    def describe(self) -> str:
        """Dash-joined endpoint sequence."""
        return "-".join(str(n) for n in self.nodes)


def shortest_path(
    topology: NodeTopology, src: EndpointLike, dst: EndpointLike
) -> Route:
    """Fewest-hop route; deterministic tie-break (lexicographic).

    Among all fewest-hop paths the one with the smallest node sequence
    wins, nodes comparing by ``(kind, index)``.
    """
    return topology.compiled().route(src, dst, RoutingPolicy.SHORTEST)


def bandwidth_maximizing_path(
    topology: NodeTopology,
    src: EndpointLike,
    dst: EndpointLike,
    *,
    max_extra_hops: int = 2,
    avoid: "frozenset[str] | set[str] | None" = None,
) -> Route:
    """Widest path: maximize bottleneck capacity, then minimize hops.

    The search is bounded to ``shortest + max_extra_hops`` hops, which
    matches hardware behaviour: the runtime only considers short
    detours (the observed 1-0-6-7 route is one hop longer than the
    shortest).  Candidates are ranked by the total key
    ``(-bottleneck, node count, node sequence)``, so ties on
    (bottleneck, hops) break lexicographically on the node sequence,
    making the route deterministic and therefore the simulated latency
    matrix reproducible.

    ``avoid`` names links (by :attr:`Link.name`) the route must not
    cross — failed fabric links under fault injection.  Candidate paths
    crossing an avoided link are discarded; when no candidate survives
    within the hop bound, :class:`RoutingError` is raised.

    Routes are computed once per topology structure and link-health
    state (:mod:`repro.topology.compiled`).
    """
    return topology.compiled().route(
        src,
        dst,
        RoutingPolicy.BANDWIDTH_MAX,
        max_extra_hops=max_extra_hops,
        avoid=frozenset(avoid) if avoid else frozenset(),
    )


def route_between(
    topology: NodeTopology,
    src: EndpointLike,
    dst: EndpointLike,
    policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
    *,
    avoid: "frozenset[str] | set[str] | None" = None,
) -> Route:
    """Route under the given policy (bandwidth-max is the HW default).

    ``avoid`` (link names) detours around failed links; it only
    applies to the bandwidth-max policy — the shortest-path matrix is
    a static topology property (Fig. 6a), not a live routing decision.
    """
    if policy is RoutingPolicy.SHORTEST:
        return shortest_path(topology, src, dst)
    if policy is RoutingPolicy.BANDWIDTH_MAX:
        return bandwidth_maximizing_path(topology, src, dst, avoid=avoid)
    raise RoutingError(f"unknown policy {policy!r}")


def all_pairs_hops(topology: NodeTopology) -> dict[tuple[int, int], int]:
    """Shortest-path hop counts between all GCD pairs (Fig. 6a).

    Keys are ordered pairs ``(src, dst)`` including the diagonal (0).
    """
    result: dict[tuple[int, int], int] = {}
    indices = [g.index for g in topology.gcds()]
    for a, b in itertools.product(indices, repeat=2):
        if a == b:
            result[(a, b)] = 0
        else:
            result[(a, b)] = shortest_path(topology, a, b).num_hops
    return result


def all_pairs_routes(
    topology: NodeTopology,
    policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
) -> dict[tuple[int, int], Route]:
    """Routes between all distinct GCD pairs under a policy."""
    result: dict[tuple[int, int], Route] = {}
    indices = [g.index for g in topology.gcds()]
    for a, b in itertools.permutations(indices, 2):
        result[(a, b)] = route_between(topology, a, b, policy)
    return result


def detour_pairs(topology: NodeTopology) -> list[tuple[int, int]]:
    """GCD pairs whose bandwidth-max route is longer than shortest.

    On the Frontier topology this returns exactly {(1,7),(7,1),(3,5),
    (5,3)} — the latency outliers of Fig. 6b.
    """
    pairs: list[tuple[int, int]] = []
    indices = [g.index for g in topology.gcds()]
    for a, b in itertools.permutations(indices, 2):
        short = shortest_path(topology, a, b)
        wide = bandwidth_maximizing_path(topology, a, b)
        if wide.num_hops > short.num_hops:
            pairs.append((a, b))
    return pairs
