"""Brute-force routing and island oracles.

These re-derive what :mod:`repro.topology.routing` and
:func:`repro.rccl.algorithms.xgmi_islands` compute, the slow obvious
way: enumerate every simple path by plain depth-first search (no
distance pruning, no branch and bound, no memo) and take the minimum
of the same total keys.  The differential tests compare the two with
``==``.  Only the test suite uses this module.
"""

from __future__ import annotations

from typing import Iterator

from repro.topology.link import Link, LinkEndpoint, as_endpoint
from repro.topology.node import NodeTopology


def _adjacency(topology: NodeTopology) -> dict[LinkEndpoint, list[tuple[LinkEndpoint, Link]]]:
    adjacency: dict[LinkEndpoint, list[tuple[LinkEndpoint, Link]]] = {}
    for gcd in topology.gcds():
        adjacency[LinkEndpoint.gcd(gcd.index)] = []
    for numa in topology.numa_domains():
        adjacency[LinkEndpoint.numa(numa.index)] = []
    for link in topology.links():
        adjacency[link.a].append((link.b, link))
        adjacency[link.b].append((link.a, link))
    return adjacency


def simple_paths(
    topology: NodeTopology, source: LinkEndpoint, target: LinkEndpoint, max_hops: int
) -> Iterator[tuple[tuple[LinkEndpoint, ...], tuple[Link, ...]]]:
    """Every simple ``source``→``target`` path of at most ``max_hops`` links."""
    adjacency = _adjacency(topology)
    if source not in adjacency or target not in adjacency:
        return

    def walk(nodes, links):
        if nodes[-1] == target:
            yield tuple(nodes), tuple(links)
            return
        if len(links) == max_hops:
            return
        for neighbour, link in adjacency[nodes[-1]]:
            if neighbour not in nodes:
                yield from walk(nodes + [neighbour], links + [link])

    yield from walk([source], [])


def _fewest_hops(topology, source, target) -> "int | None":
    """Smallest hop count of any simple path, by iterative deepening."""
    for hops in range(1, topology.num_gcds + topology.num_numa_domains):
        if next(simple_paths(topology, source, target, hops), None) is not None:
            return hops
    return None


def _order(nodes) -> list[tuple[str, int]]:
    return [(node.kind, node.index) for node in nodes]


def oracle_shortest_path(topology, src, dst):
    """``(nodes, links)`` of the fewest-hop route, or ``None`` if none."""
    source, target = as_endpoint(src), as_endpoint(dst)
    if source == target:
        return (source,), ()
    hops = _fewest_hops(topology, source, target)
    if hops is None:
        return None
    candidates = [
        path
        for path in simple_paths(topology, source, target, hops)
        if len(path[1]) == hops
    ]
    return min(candidates, key=lambda path: _order(path[0]))


def oracle_widest_path(topology, src, dst, *, max_extra_hops=2, avoid=()):
    """``(nodes, links)`` of the bandwidth-maximizing route, or ``None``."""
    source, target = as_endpoint(src), as_endpoint(dst)
    if source == target:
        return (source,), ()
    hops = _fewest_hops(topology, source, target)
    if hops is None:
        return None
    best = None
    best_key = None
    for nodes, links in simple_paths(topology, source, target, hops + max_extra_hops):
        if any(link.name in avoid for link in links):
            continue
        width = min(link.capacity_per_direction for link in links)
        key = (-width, len(nodes), _order(nodes))
        if best_key is None or key < best_key:
            best, best_key = (nodes, links), key
    return best


def oracle_xgmi_islands(topology, members) -> list[list[int]]:
    """Members grouped by GCD-GCD reachability (transitive closure)."""
    reach = {g.index: {g.index} for g in topology.gcds()}
    changed = True
    while changed:
        changed = False
        for link in topology.xgmi_links():
            a, b = link.a.index, link.b.index
            merged = reach[a] | reach[b]
            if merged != reach[a] or merged != reach[b]:
                for gcd in merged:
                    reach[gcd] = merged
                changed = True
    islands: list[list[int]] = []
    for member in sorted(members):
        for island in islands:
            if island[0] in reach[member]:
                island.append(member)
                break
        else:
            islands.append([member])
    return islands
