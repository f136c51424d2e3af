"""Compiled routing against the brute-force oracle in ``route_oracle.py``.

Random connected topologies (2-12 GCDs, random xGMI tiers, per-link
capacity overrides, NIC links and failed-link sets) must give exactly
the oracle's route for both policies, raise :class:`RoutingError`
exactly where the oracle finds no path, and group GCDs into the same
xGMI islands.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.rccl.algorithms import xgmi_islands
from repro.topology.link import LinkEndpoint
from repro.topology.node import GcdInfo, NodeTopologyBuilder, NumaDomainInfo
from repro.topology.routing import bandwidth_maximizing_path, shortest_path

from .route_oracle import (
    oracle_shortest_path,
    oracle_widest_path,
    oracle_xgmi_islands,
)


@st.composite
def topologies(draw):
    """A connected topology: every NUMA domain holds a CPU-linked GCD."""
    n_gcds = draw(st.integers(min_value=2, max_value=12))
    n_numa = draw(st.integers(min_value=1, max_value=min(4, n_gcds)))
    builder = NodeTopologyBuilder("random")
    for numa in range(n_numa):
        builder.add_numa_domain(NumaDomainInfo(index=numa))
    numa_of = [
        gcd if gcd < n_numa else draw(st.integers(0, n_numa - 1))
        for gcd in range(n_gcds)
    ]
    # GCD ``numa`` anchors NUMA domain ``numa`` through its CPU link;
    # other GCDs get one at random.
    cpu_linked = set(range(n_numa))
    for gcd in range(n_gcds):
        builder.add_gcd(GcdInfo(index=gcd, gpu_package=gcd, numa_domain=numa_of[gcd]))
        if gcd in cpu_linked or draw(st.booleans()):
            cpu_linked.add(gcd)
            builder.connect_cpu(gcd, numa_of[gcd])
    # A random xGMI forest plus a few chords and NIC links.
    pairs = set()
    for gcd in range(1, n_gcds):
        if draw(st.integers(0, 3)):
            pairs.add((draw(st.integers(0, gcd - 1)), gcd))
    for _ in range(draw(st.integers(0, n_gcds))):
        pair = draw(st.lists(st.integers(0, n_gcds - 1), min_size=2, max_size=2, unique=True))
        pairs.add(tuple(sorted(pair)))
    nics = [
        (a, b)
        for a, b in itertools.combinations(range(n_numa), 2)
        if draw(st.integers(0, 3)) == 0
    ]
    # Bridge every part still apart to GCD 0 with one more xGMI link.
    group = list(range(n_gcds))

    def root(gcd):
        while group[gcd] != gcd:
            gcd = group[gcd]
        return gcd

    joins = [*pairs, *nics, *((numa_of[gcd], gcd) for gcd in cpu_linked)]
    for a, b in joins:
        group[root(b)] = root(a)
    for gcd in range(n_gcds):
        if root(gcd) != root(0):
            pairs.add((0, gcd))
            group[root(gcd)] = root(0)
    for a, b in sorted(pairs):
        width = draw(st.sampled_from([1, 2, 4]))
        capacity = draw(st.sampled_from([None, None, 30.0, 50.0, 120.0]))
        builder.connect_gcds(a, b, width, capacity_gbps=capacity)
    for a, b in nics:
        builder.connect_nic(a, b)
    return builder.build()


@st.composite
def cases(draw):
    topology = draw(topologies())
    names = [link.name for link in topology.links()]
    avoid = frozenset(draw(st.lists(st.sampled_from(names), max_size=3)))
    extra = draw(st.integers(min_value=0, max_value=3))
    return topology, avoid, extra


def _endpoints(topology):
    return [LinkEndpoint.gcd(g.index) for g in topology.gcds()] + [
        LinkEndpoint.numa(n.index) for n in topology.numa_domains()
    ]


def _as_pair(route):
    return route.nodes, route.links


@settings(max_examples=60, deadline=None)
@given(cases())
def test_routes_match_oracle(case):
    topology, avoid, extra = case
    for src, dst in itertools.product(_endpoints(topology), repeat=2):
        assert _as_pair(shortest_path(topology, src, dst)) == oracle_shortest_path(
            topology, src, dst
        )
        expected = oracle_widest_path(
            topology, src, dst, max_extra_hops=extra, avoid=avoid
        )
        if expected is None:
            with pytest.raises(RoutingError):
                bandwidth_maximizing_path(
                    topology, src, dst, max_extra_hops=extra, avoid=avoid
                )
        else:
            route = bandwidth_maximizing_path(
                topology, src, dst, max_extra_hops=extra, avoid=avoid
            )
            assert _as_pair(route) == expected


@settings(max_examples=60, deadline=None)
@given(topologies(), st.data())
def test_xgmi_islands_match_oracle(topology, data):
    indices = [g.index for g in topology.gcds()]
    members = data.draw(st.lists(st.sampled_from(indices), min_size=1, unique=True))
    assert xgmi_islands(topology, members) == oracle_xgmi_islands(topology, members)


def test_unknown_endpoint_raises_like_oracle(topology):
    assert oracle_shortest_path(topology, 0, 99) is None
    assert oracle_widest_path(topology, 0, 99) is None
    with pytest.raises(RoutingError):
        shortest_path(topology, 0, 99)
    with pytest.raises(RoutingError):
        bandwidth_maximizing_path(topology, 0, 99)


def test_frontier_all_pairs_match_oracle(topology):
    """The paper's node: 1-0-6-7 (widest) and 1-3-7 (fewest hops) included."""
    for a, b in itertools.product(range(8), repeat=2):
        assert _as_pair(shortest_path(topology, a, b)) == oracle_shortest_path(
            topology, a, b
        )
        assert _as_pair(bandwidth_maximizing_path(topology, a, b)) == (
            oracle_widest_path(topology, a, b)
        )
    assert bandwidth_maximizing_path(topology, 1, 7).describe() == "gcd1-gcd0-gcd6-gcd7"
    assert shortest_path(topology, 1, 7).describe() == "gcd1-gcd3-gcd7"
