"""Compiled topology: the static routing tables of a topology, built once.

A :class:`~repro.topology.node.NodeTopology` is immutable, so what
routing derives from it is a pure function of its structure: endpoint
ids, per-endpoint adjacency, the xGMI components, and every route (and
its directional channel ids, which each :class:`Link` computes once)
the simulation asks for.
:func:`compile_topology` builds one :class:`CompiledTopology` per
:meth:`~repro.topology.node.NodeTopology.fingerprint` and keeps it in a
process-wide table of at most :data:`MAX_COMPILED` entries (least
recently used evicted).  Every ``Session``, ring build and sweep point
on an equal topology therefore shares one route table.  The fingerprint
covers ``capacity_override``, so topologies that differ in one link's
capacity never share a table; failed links are part of each route key,
so fault detours never leak into healthy lookups.

Each compiled topology also keeps the nodes' channel tables
(:meth:`CompiledTopology.channel_table`), one per calibration
fingerprint and at most :data:`MAX_CHANNEL_TABLES` of them, so a node
adopts its channel ids, capacities and solver indices instead of
registering them channel by channel.

Route search is stdlib only.  A BFS from the target gives hop
distances; the fewest-hop route follows them in endpoint order, and
the widest route is a depth-first search over simple paths of at most
``shortest + max_extra_hops`` hops, pruned by those distances and by
the best route found so far.  Both selectors compare the total keys
documented in :mod:`repro.topology.routing`, so search order never
reaches a result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, TypeVar

from ..errors import RoutingError
from .link import EndpointLike, Link, LinkEndpoint, as_endpoint
from .routing import Route, RoutingPolicy

if TYPE_CHECKING:
    from ..core.calibration import CalibrationProfile
    from ..sim.flow import ChannelTable
    from .node import NodeTopology

#: Compiled topologies kept process-wide, keyed by fingerprint.
MAX_COMPILED = 16
#: Channel tables kept per compiled topology, keyed by calibration
#: fingerprint (calibration fits try many profiles).
MAX_CHANNEL_TABLES = 16

_NO_LINKS: frozenset[str] = frozenset()
_TABLE: "OrderedDict[str, CompiledTopology]" = OrderedDict()
_TABLE_LOCK = threading.Lock()

_T = TypeVar("_T")


def _memoised(
    table: "OrderedDict[str, _T]", key: str, build: Callable[[], _T], bound: int
) -> _T:
    """``table[key]``, built on a miss; least recently used past ``bound`` go.

    Builds run outside the lock; when two threads race, both get the
    value published first.
    """
    with _TABLE_LOCK:
        value = table.get(key)
        if value is not None:
            table.move_to_end(key)
            return value
    value = build()
    with _TABLE_LOCK:
        value = table.setdefault(key, value)
        table.move_to_end(key)
        while len(table) > bound:
            table.popitem(last=False)
    return value


def compile_topology(topology: "NodeTopology") -> "CompiledTopology":
    """The shared :class:`CompiledTopology` of ``topology``'s fingerprint."""
    return _memoised(
        _TABLE, topology.fingerprint(), lambda: CompiledTopology(topology), MAX_COMPILED
    )


class CompiledTopology:
    """Dense-id tables and memoised routes of one topology structure.

    Endpoint ids follow endpoint order (GCDs, then NUMA domains, each by
    index), so comparing id sequences is comparing node sequences.
    """

    def __init__(self, topology: "NodeTopology") -> None:
        self.endpoints: tuple[LinkEndpoint, ...] = tuple(
            [LinkEndpoint.gcd(g.index) for g in topology.gcds()]
            + [LinkEndpoint.numa(n.index) for n in topology.numa_domains()]
        )
        self.ids = {endpoint: i for i, endpoint in enumerate(self.endpoints)}
        self.links: tuple[Link, ...] = tuple(topology.links())
        self.link_ids = {link.name: i for i, link in enumerate(self.links)}
        self.capacity = [link.capacity_per_direction for link in self.links]
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.endpoints]
        peers: dict[int, list[tuple[int, Link]]] = {
            e.index: [] for e in self.endpoints if e.is_gcd
        }
        for link_id, link in enumerate(self.links):
            a, b = self.ids[link.a], self.ids[link.b]
            adjacency[a].append((b, link_id))
            adjacency[b].append((a, link_id))
            if link.a.is_gcd and link.b.is_gcd:
                peers[link.a.index].append((link.b.index, link))
                peers[link.b.index].append((link.a.index, link))
        #: ``(neighbour id, link id)`` pairs per endpoint id, by neighbour.
        self.adjacency = tuple(tuple(sorted(pairs)) for pairs in adjacency)
        #: ``(peer GCD, link)`` pairs per GCD index over xGMI links only.
        self.xgmi_peers = {
            gcd: tuple(sorted(pairs, key=lambda pair: pair[0]))
            for gcd, pairs in peers.items()
        }
        #: xGMI component label (its smallest GCD index) per GCD index.
        self.xgmi_component: dict[int, int] = {}
        for gcd in sorted(peers):
            if gcd in self.xgmi_component:
                continue
            self.xgmi_component[gcd] = gcd
            stack = [gcd]
            while stack:
                for peer, _ in self.xgmi_peers[stack.pop()]:
                    if peer not in self.xgmi_component:
                        self.xgmi_component[peer] = gcd
                        stack.append(peer)
        self._routes: dict[tuple, Route] = {}
        self._fabric: dict[tuple, tuple[Hashable, ...]] = {}
        self._channel_tables: "OrderedDict[str, ChannelTable]" = OrderedDict()

    # -- memoised lookups ------------------------------------------------

    def route(
        self,
        src: EndpointLike,
        dst: EndpointLike,
        policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
        *,
        max_extra_hops: int = 2,
        avoid: frozenset[str] = _NO_LINKS,
    ) -> Route:
        """The route under ``policy``; ``avoid`` applies to bandwidth-max only."""
        if policy is RoutingPolicy.SHORTEST:
            max_extra_hops, avoid = 0, _NO_LINKS
        key = (src, dst, policy, max_extra_hops, avoid)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._search(
                src, dst, policy, max_extra_hops, avoid
            )
        return route

    def fabric_channels(
        self,
        src: EndpointLike,
        dst: EndpointLike,
        policy: RoutingPolicy = RoutingPolicy.BANDWIDTH_MAX,
        *,
        avoid: frozenset[str] = _NO_LINKS,
    ) -> tuple[Hashable, ...]:
        """Directional link channels along :meth:`route`, memoised."""
        key = (src, dst, policy, avoid)
        channels = self._fabric.get(key)
        if channels is None:
            route = self.route(src, dst, policy, avoid=avoid)
            channels = self._fabric[key] = tuple(
                link.channel(a, b) for a, b, link in route.hop_pairs()
            )
        return channels

    def channel_table(
        self,
        calibration: "CalibrationProfile",
        build: "Callable[[], ChannelTable]",
    ) -> "ChannelTable":
        """The nodes' shared channel table under ``calibration``.

        ``build`` compiles it on the first request per calibration
        fingerprint; at most :data:`MAX_CHANNEL_TABLES` are kept.
        """
        return _memoised(
            self._channel_tables,
            calibration.fingerprint(),
            build,
            MAX_CHANNEL_TABLES,
        )

    # -- search -------------------------------------------------------------

    def _search(
        self,
        src: EndpointLike,
        dst: EndpointLike,
        policy: RoutingPolicy,
        max_extra_hops: int,
        avoid: frozenset[str],
    ) -> Route:
        if policy not in (RoutingPolicy.SHORTEST, RoutingPolicy.BANDWIDTH_MAX):
            raise RoutingError(f"unknown policy {policy!r}")
        source, target = as_endpoint(src), as_endpoint(dst)
        if source == target:
            return Route((source,), ())
        s, t = self.ids.get(source), self.ids.get(target)
        distance = (
            None if s is None or t is None else self._distances(s, t, max_extra_hops)
        )
        if distance is None:
            raise RoutingError(f"no path from {source} to {target}")
        if policy is RoutingPolicy.SHORTEST:
            nodes, links = self._fewest_hops(s, t, distance)
        else:
            cutoff = distance[s] + max_extra_hops
            found = self._widest(s, t, cutoff, distance, avoid)
            if found is None:
                raise RoutingError(
                    f"no path from {source} to {target} within {cutoff} hops "
                    f"avoiding {sorted(avoid)}"
                )
            nodes, links = found
        return Route(
            tuple(self.endpoints[i] for i in nodes),
            tuple(self.links[i] for i in links),
        )

    def _distances(self, s: int, t: int, extra: int) -> "dict[int, int] | None":
        """Hop distance to ``t`` of every endpoint within ``d(s, t) + extra``.

        ``None`` when ``s`` cannot reach ``t`` at all.
        """
        distance = {t: 0}
        frontier = [t]
        depth = 0
        limit = None
        while frontier:
            if limit is None and s in distance:
                limit = distance[s] + extra
            if limit is not None and depth >= limit:
                break
            depth += 1
            reached = []
            for v in frontier:
                for w, _ in self.adjacency[v]:
                    if w not in distance:
                        distance[w] = depth
                        reached.append(w)
            frontier = reached
        return distance if s in distance else None

    def _fewest_hops(
        self, s: int, t: int, distance: dict[int, int]
    ) -> tuple[list[int], list[int]]:
        """Smallest node sequence among the fewest-hop paths.

        Neighbours are scanned in id order, so taking the first one a
        hop closer to ``t`` at every step yields the lexicographic
        minimum over all shortest paths.
        """
        nodes, links = [s], []
        v = s
        while v != t:
            closer = distance[v] - 1
            v, link = next(
                (w, link) for w, link in self.adjacency[v] if distance.get(w) == closer
            )
            nodes.append(v)
            links.append(link)
        return nodes, links

    def _widest(
        self,
        s: int,
        t: int,
        cutoff: int,
        distance: dict[int, int],
        avoid: frozenset[str],
    ) -> "tuple[list[int], list[int]] | None":
        """Minimum of ``(-bottleneck, len(nodes), nodes)`` over simple paths.

        Only paths of at most ``cutoff`` hops that cross no ``avoid``
        link compete.  A branch is cut when it cannot reach ``t`` within
        the cutoff, or when every completion is already worse than the
        best key on bottleneck, or on hop count at an equal bottleneck.
        """
        adjacency, capacity = self.adjacency, self.capacity
        banned = {self.link_ids[name] for name in avoid if name in self.link_ids}
        beyond = cutoff + 1
        nodes, links, on_path = [s], [], {s}
        best_key: "tuple[float, int, list[int]] | None" = None
        best_links: list[int] = []

        def extend(v: int, width: float) -> None:
            nonlocal best_key, best_links
            hops = len(nodes)
            for w, link in adjacency[v]:
                if w in on_path or link in banned:
                    continue
                remaining = distance.get(w, beyond)
                if hops + remaining > cutoff:
                    continue
                narrow = min(width, capacity[link])
                if best_key is not None and (-narrow, hops + 1 + remaining) > best_key[:2]:
                    continue
                nodes.append(w)
                links.append(link)
                if w == t:
                    key = (-narrow, len(nodes), list(nodes))
                    if best_key is None or key < best_key:
                        best_key, best_links = key, list(links)
                else:
                    on_path.add(w)
                    extend(w, narrow)
                    on_path.discard(w)
                nodes.pop()
                links.pop()

        extend(s, float("inf"))
        return None if best_key is None else (best_key[2], best_links)
