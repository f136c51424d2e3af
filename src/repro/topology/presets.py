"""Canonical topologies.

:func:`frontier_node` reproduces Fig. 1 of the paper — the node layout
shared by ORNL Frontier and LUMI: four MI250X packages (GCD pairs 0-1,
2-3, 4-5, 6-7 with quad intra-package links), an even-GCD ring
0-2-4-6 alternating single and dual bundles, an odd-GCD ring 1-3-7-5
of single bundles, and one 36 GB/s CPU link per GCD into the NUMA
domain of its package.

The structure is cross-checked against the paper's §II-A narrative:
"Taking GCD0 as an example, it is also directly connected through a
dual link to GCD6 [...] and through a single link to GCD2"; and the
single-link pair list from §V-A1, {0-2, 1-3, 1-5, 3-7, 4-6, 5-7}.
"""

from __future__ import annotations

import functools

from ..errors import TopologyError
from .node import GcdInfo, NodeTopology, NodeTopologyBuilder, NumaDomainInfo

#: Paper Fig. 1 GCD-GCD bundles: (gcd_a, gcd_b, xGMI width).
FRONTIER_XGMI_BUNDLES: tuple[tuple[int, int, int], ...] = (
    # quad links: the two dies of each physical MI250X
    (0, 1, 4),
    (2, 3, 4),
    (4, 5, 4),
    (6, 7, 4),
    # dual links: alternate edges of the even-GCD ring
    (0, 6, 2),
    (2, 4, 2),
    # single links: remaining even-ring edges + the odd-GCD ring
    (0, 2, 1),
    (4, 6, 1),
    (1, 3, 1),
    (3, 7, 1),
    (5, 7, 1),
    (1, 5, 1),
)

#: NUMA domain of each GCD (rocm-smi --showtoponuma on Frontier/LUMI):
#: GCDs {0,1}→NUMA 3, {2,3}→NUMA 1, {4,5}→NUMA 0, {6,7}→NUMA 2 — but the
#: paper only relies on the *pairing* (one NUMA per package).  We use
#: the natural package ordering, which preserves every effect studied.
FRONTIER_GCD_NUMA: tuple[int, ...] = (0, 0, 1, 1, 2, 2, 3, 3)

#: The paper's single-link GCD pairs (§V-A1), used in validation tests.
FRONTIER_SINGLE_LINK_PAIRS: frozenset[frozenset[int]] = frozenset(
    frozenset(p) for p in ((0, 2), (1, 3), (1, 5), (3, 7), (4, 6), (5, 7))
)


def frontier_node(*, name: str = "frontier-mi250x") -> NodeTopology:
    """The Fig. 1 MI250X node (8 GCDs, 4 packages, 4 NUMA domains).

    With the default name it is built and checked once per process and
    shared: a :class:`NodeTopology` is immutable (fault state lives on
    the simulated node), and every point of a sweep that names no
    topology asks for this one.
    """
    if name == "frontier-mi250x":
        return _shared_frontier_node()
    return _build_frontier_node(name)


@functools.cache
def _shared_frontier_node() -> NodeTopology:
    return _build_frontier_node("frontier-mi250x")


def _build_frontier_node(name: str) -> NodeTopology:
    builder = NodeTopologyBuilder(name)
    for numa in range(4):
        builder.add_numa_domain(NumaDomainInfo(index=numa))
    for gcd in range(8):
        builder.add_gcd(
            GcdInfo(
                index=gcd,
                gpu_package=gcd // 2,
                numa_domain=FRONTIER_GCD_NUMA[gcd],
            )
        )
        builder.connect_cpu(gcd, FRONTIER_GCD_NUMA[gcd])
    for a, b, width in FRONTIER_XGMI_BUNDLES:
        builder.connect_gcds(a, b, width)
    topology = builder.build()
    _check_frontier_invariants(topology)
    return topology


def _check_frontier_invariants(topology: NodeTopology) -> None:
    """Sanity-check the preset against the paper's stated structure."""
    from .link import LinkTier

    census = topology.link_census()
    if census.get(LinkTier.QUAD) != 4:
        raise TopologyError("frontier preset must have 4 quad bundles")
    if census.get(LinkTier.DUAL) != 2:
        raise TopologyError("frontier preset must have 2 dual bundles")
    if census.get(LinkTier.SINGLE) != 6:
        raise TopologyError("frontier preset must have 6 single bundles")
    if census.get(LinkTier.CPU) != 8:
        raise TopologyError("frontier preset must have 8 CPU links")
    singles = {
        frozenset((l.a.index, l.b.index))
        for l in topology.xgmi_links()
        if l.tier is LinkTier.SINGLE
    }
    if singles != set(FRONTIER_SINGLE_LINK_PAIRS):
        raise TopologyError("single-link pairs disagree with paper §V-A1")


def mi250x_cluster(nodes: int = 4, *, name: str | None = None) -> NodeTopology:
    """``nodes`` Fig. 1 frontier nodes bridged by inter-node NIC links.

    Each node replicates the exact frontier layout — GCDs ``8n..8n+7``,
    packages ``4n..4n+3``, NUMA domains ``4n..4n+3``, the Fig. 1 xGMI
    bundles and per-GCD CPU links — and every NUMA domain carries one
    Slingshot-style 25 GB/s NIC into the same-ranked domain of the next
    node, forming four parallel NIC rails around a node ring (the
    Frontier blade wiring, reduced to a ring so the preset stays
    parametric).

    This is the scale-out stage for the solver benchmarks: a ring
    allreduce over the cluster couples all ``8 * nodes`` GCDs into one
    fairshare component, which is exactly the regime where dirty-set
    re-leveling has to beat the full component re-solve.
    """
    # nodes=1 would thread through the ``nodes - 1`` NIC-census special
    # case below and build a degenerate zero-NIC "cluster" that is just
    # a mislabelled frontier node; fail loudly instead.
    if nodes < 2:
        raise TopologyError(
            f"a cluster needs at least two nodes, got {nodes}; "
            "use frontier_node() for a single MI250X node"
        )
    if name is None:
        name = f"mi250x-cluster-{nodes}"
    builder = NodeTopologyBuilder(name)
    for node in range(nodes):
        numa_base = 4 * node
        gcd_base = 8 * node
        for numa in range(4):
            builder.add_numa_domain(NumaDomainInfo(index=numa_base + numa))
        for gcd in range(8):
            builder.add_gcd(
                GcdInfo(
                    index=gcd_base + gcd,
                    gpu_package=4 * node + gcd // 2,
                    numa_domain=numa_base + FRONTIER_GCD_NUMA[gcd],
                )
            )
            builder.connect_cpu(
                gcd_base + gcd, numa_base + FRONTIER_GCD_NUMA[gcd]
            )
        for a, b, width in FRONTIER_XGMI_BUNDLES:
            builder.connect_gcds(gcd_base + a, gcd_base + b, width)
    # NIC ring: rail d joins NUMA domain d of node n to domain d of node
    # n+1.  A two-node ring would duplicate each edge, so stop early.
    ring_edges = nodes if nodes > 2 else nodes - 1
    for node in range(ring_edges):
        peer = (node + 1) % nodes
        for rail in range(4):
            builder.connect_nic(4 * node + rail, 4 * peer + rail)
    topology = builder.build()
    _check_cluster_invariants(topology, nodes)
    return topology


def _check_cluster_invariants(topology: NodeTopology, nodes: int) -> None:
    """Sanity-check the cluster preset: N exact frontier nodes + rails."""
    from .link import LinkTier

    census = topology.link_census()
    expected = {
        LinkTier.QUAD: 4 * nodes,
        LinkTier.DUAL: 2 * nodes,
        LinkTier.SINGLE: 6 * nodes,
        LinkTier.CPU: 8 * nodes,
    }
    # Two-node rings collapse to one edge per rail (the duplicate-edge
    # fix); three nodes and up close the ring.
    expected[LinkTier.NIC] = 4 * (nodes if nodes > 2 else nodes - 1)
    for tier, count in expected.items():
        if census.get(tier) != count:
            raise TopologyError(
                f"cluster preset expected {count} {tier.name.lower()} "
                f"links, found {census.get(tier, 0)}"
            )
    singles = {
        frozenset((l.a.index % 8, l.b.index % 8))
        for l in topology.xgmi_links()
        if l.tier is LinkTier.SINGLE
    }
    if singles != set(FRONTIER_SINGLE_LINK_PAIRS):
        raise TopologyError("cluster single-link pairs disagree with §V-A1")


def single_gpu_node(*, name: str = "single-mi250x") -> NodeTopology:
    """A one-package node: two GCDs joined by a quad bundle.

    Useful for unit tests and for isolating intra-package effects.
    """
    builder = NodeTopologyBuilder(name)
    builder.add_numa_domain(NumaDomainInfo(index=0))
    for gcd in range(2):
        builder.add_gcd(GcdInfo(index=gcd, gpu_package=0, numa_domain=0))
        builder.connect_cpu(gcd, 0)
    builder.connect_gcds(0, 1, 4)
    return builder.build()


def dense_hive_node(
    num_packages: int = 4, *, name: str | None = None
) -> NodeTopology:
    """A hypothetical fully-connected variant for what-if studies.

    Every pair of GCDs on distinct packages gets a single xGMI bundle,
    package pairs keep quad bundles.  Not a real machine; used by the
    ablation benchmarks to show how much the sparse Fig. 1 mesh costs
    relative to an idealised full mesh.
    """
    if num_packages < 1:
        raise TopologyError("need at least one package")
    if name is None:
        name = f"dense-hive-{num_packages}pkg"
    builder = NodeTopologyBuilder(name)
    num_gcds = 2 * num_packages
    num_numa = min(4, num_packages)
    for numa in range(num_numa):
        builder.add_numa_domain(NumaDomainInfo(index=numa))
    for gcd in range(num_gcds):
        numa = (gcd // 2) % num_numa
        builder.add_gcd(GcdInfo(index=gcd, gpu_package=gcd // 2, numa_domain=numa))
        builder.connect_cpu(gcd, numa)
    for a in range(num_gcds):
        for b in range(a + 1, num_gcds):
            if a // 2 == b // 2:
                builder.connect_gcds(a, b, 4)
            else:
                builder.connect_gcds(a, b, 1)
    return builder.build()
