"""The queryable node topology graph.

:class:`NodeTopology` holds the static structure of a compute node:
which GCDs exist, how they pair into physical GPU packages, which NUMA
domain each attaches to, and the Infinity Fabric edges.  It keeps a
plain per-endpoint adjacency map of links and exposes a typed API; path
queries run on its shared :class:`~repro.topology.compiled.CompiledTopology`
(see :meth:`NodeTopology.compiled`).

The topology is *immutable after construction*: builders assemble it
via :class:`NodeTopologyBuilder` and then freeze.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import TopologyError
from .compiled import CompiledTopology, compile_topology
from .link import (
    EndpointLike,
    Link,
    LinkEndpoint,
    LinkTier,
    as_endpoint,
)


@dataclass(frozen=True)
class GcdInfo:
    """Static description of one Graphics Compute Die (paper §II).

    Defaults match MI250X: 64 GB HBM2e at 1.6 TB/s, 8 MB L2, 110
    compute units per GCD.
    """

    index: int
    gpu_package: int
    numa_domain: int
    hbm_bytes: int = 64 * 10**9
    hbm_peak_bw: float = 1.6e12
    l2_bytes: int = 8 * 2**20
    compute_units: int = 110

    def __post_init__(self) -> None:
        if self.index < 0 or self.gpu_package < 0 or self.numa_domain < 0:
            raise TopologyError("GCD indices must be non-negative")
        if self.hbm_bytes <= 0 or self.hbm_peak_bw <= 0:
            raise TopologyError("GCD memory parameters must be positive")


@dataclass(frozen=True)
class NumaDomainInfo:
    """Static description of one CPU NUMA domain (paper §II, §IV-B).

    The EPYC socket exposes 512 GB DDR4 split across four domains; each
    domain fronts the Infinity Fabric ports of one physical GPU (two
    GCDs).
    """

    index: int
    dram_bytes: int = 128 * 10**9
    dram_peak_bw: float = 204.8e9 / 4
    dram_latency: float = 96e-9

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TopologyError("NUMA index must be non-negative")
        if self.dram_bytes <= 0 or self.dram_peak_bw <= 0:
            raise TopologyError("NUMA memory parameters must be positive")


class NodeTopology:
    """Immutable multi-GPU node topology.

    Use :class:`NodeTopologyBuilder` (or a preset from
    :mod:`repro.topology.presets`) to construct one.
    """

    def __init__(
        self,
        gcds: Sequence[GcdInfo],
        numa_domains: Sequence[NumaDomainInfo],
        links: Sequence[Link],
        *,
        name: str = "custom",
    ) -> None:
        self.name = name
        self._gcds = {g.index: g for g in gcds}
        self._numa = {n.index: n for n in numa_domains}
        if len(self._gcds) != len(gcds):
            raise TopologyError("duplicate GCD index")
        if len(self._numa) != len(numa_domains):
            raise TopologyError("duplicate NUMA index")

        self._links: dict[str, Link] = {}
        # endpoint -> {neighbour: link}; both directions of every link.
        self._adjacency: dict[LinkEndpoint, dict[LinkEndpoint, Link]] = {
            endpoint: {} for endpoint in self._all_endpoints()
        }
        for link in links:
            self._add_link(link)
        self._validate()
        self._fingerprint: str | None = None

    # -- construction helpers ------------------------------------------

    def _all_endpoints(self) -> Iterator[LinkEndpoint]:
        for index in self._gcds:
            yield LinkEndpoint.gcd(index)
        for index in self._numa:
            yield LinkEndpoint.numa(index)

    def _add_link(self, link: Link) -> None:
        for endpoint in link.endpoints():
            if endpoint not in self._adjacency:
                raise TopologyError(f"link {link.name} references unknown {endpoint}")
        if link.name in self._links:
            raise TopologyError(f"duplicate link {link.name}")
        if link.b in self._adjacency[link.a]:
            raise TopologyError(
                f"parallel connection between {link.a} and {link.b}; "
                "widen the tier instead"
            )
        self._links[link.name] = link
        self._adjacency[link.a][link.b] = link
        self._adjacency[link.b][link.a] = link

    def _validate(self) -> None:
        for gcd in self._gcds.values():
            if gcd.numa_domain not in self._numa:
                raise TopologyError(
                    f"GCD {gcd.index} references unknown NUMA {gcd.numa_domain}"
                )
        # Every GCD must reach every other endpoint: the paper's data
        # movement analysis presumes a connected fabric.
        if not self._gcds:
            return
        start = next(iter(self._adjacency))
        reached = {start}
        stack = [start]
        while stack:
            for neighbour in self._adjacency[stack.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    stack.append(neighbour)
        if len(reached) != len(self._adjacency):
            raise TopologyError("topology graph is not connected")

    # -- basic accessors -------------------------------------------------

    @property
    def num_gcds(self) -> int:
        """Number of GCDs."""
        return len(self._gcds)

    @property
    def num_numa_domains(self) -> int:
        """Number of NUMA domains."""
        return len(self._numa)

    @property
    def num_gpu_packages(self) -> int:
        """Number of physical GPU packages."""
        return len({g.gpu_package for g in self._gcds.values()})

    def gcd(self, index: int) -> GcdInfo:
        """Static info of a GCD index."""
        try:
            return self._gcds[index]
        except KeyError:
            raise TopologyError(f"no GCD {index} in topology {self.name!r}") from None

    def numa_domain(self, index: int) -> NumaDomainInfo:
        """Static info of a NUMA domain index."""
        try:
            return self._numa[index]
        except KeyError:
            raise TopologyError(f"no NUMA domain {index} in {self.name!r}") from None

    def gcds(self) -> Iterator[GcdInfo]:
        """GCDs in index order."""
        return iter(sorted(self._gcds.values(), key=lambda g: g.index))

    def numa_domains(self) -> Iterator[NumaDomainInfo]:
        """NUMA domains in index order."""
        return iter(sorted(self._numa.values(), key=lambda n: n.index))

    def links(self) -> Iterator[Link]:
        """All links, sorted by name."""
        return iter(sorted(self._links.values(), key=lambda l: l.name))

    def xgmi_links(self) -> Iterator[Link]:
        """GCD-GCD links only (excludes CPU and inter-node NIC links)."""
        return (l for l in self.links() if l.a.is_gcd and l.b.is_gcd)

    def cpu_links(self) -> Iterator[Link]:
        """CPU-GCD links only."""
        return (l for l in self.links() if l.is_cpu_link)

    def nic_links(self) -> Iterator[Link]:
        """Inter-node NIC links only (empty on single-node topologies)."""
        return (l for l in self.links() if l.is_nic_link)

    # -- structural queries ----------------------------------------------

    def link_between(self, x: EndpointLike, y: EndpointLike) -> Link | None:
        """The direct link between two endpoints, or ``None``."""
        neighbours = self._adjacency.get(as_endpoint(x))
        return None if neighbours is None else neighbours.get(as_endpoint(y))

    def require_link(self, x: EndpointLike, y: EndpointLike) -> Link:
        """Direct link between two endpoints; raises if absent."""
        link = self.link_between(x, y)
        if link is None:
            raise TopologyError(
                f"no direct link between {as_endpoint(x)} and {as_endpoint(y)}"
            )
        return link

    def neighbors(self, endpoint: EndpointLike) -> list[LinkEndpoint]:
        """Endpoints directly connected to the given one."""
        endpoint = as_endpoint(endpoint)
        try:
            return sorted(self._adjacency[endpoint])
        except KeyError:
            raise TopologyError(f"no {endpoint} in topology {self.name!r}") from None

    def gcd_neighbors(self, gcd_index: int) -> list[int]:
        """Indices of GCDs directly connected to ``gcd_index`` via xGMI."""
        return [
            n.index
            for n in self.neighbors(LinkEndpoint.gcd(gcd_index))
            if n.is_gcd
        ]

    def peer_tier(self, a: int, b: int) -> LinkTier | None:
        """Link tier between two GCDs, or ``None`` if not adjacent."""
        link = self.link_between(a, b)
        return None if link is None else link.tier

    def same_package(self, a: int, b: int) -> bool:
        """Whether two GCDs are the two dies of one physical MI250X."""
        return self.gcd(a).gpu_package == self.gcd(b).gpu_package

    def package_peer(self, gcd_index: int) -> int | None:
        """The other GCD on the same physical GPU package, if any."""
        package = self.gcd(gcd_index).gpu_package
        for other in self._gcds.values():
            if other.index != gcd_index and other.gpu_package == package:
                return other.index
        return None

    def numa_of_gcd(self, gcd_index: int) -> int:
        """NUMA domain attached to a GCD (rocm-smi --showtoponuma)."""
        return self.gcd(gcd_index).numa_domain

    def gcds_of_numa(self, numa_index: int) -> list[int]:
        """GCD indices attached to a NUMA domain."""
        self.numa_domain(numa_index)
        return sorted(
            g.index for g in self._gcds.values() if g.numa_domain == numa_index
        )

    def cpu_link_of_gcd(self, gcd_index: int) -> Link:
        """The Infinity Fabric link connecting a GCD to its NUMA port."""
        numa = self.numa_of_gcd(gcd_index)
        return self.require_link(
            LinkEndpoint.gcd(gcd_index), LinkEndpoint.numa(numa)
        )

    def compiled(self) -> CompiledTopology:
        """The shared routing tables of this topology's structure.

        One :class:`~repro.topology.compiled.CompiledTopology` per
        :meth:`fingerprint`, built on first use and shared process-wide.
        """
        return compile_topology(self)

    # -- summaries ---------------------------------------------------------

    def link_census(self) -> Mapping[LinkTier, int]:
        """Count of links per tier — the Fig. 1 inventory."""
        census: dict[LinkTier, int] = {}
        for link in self.links():
            census[link.tier] = census.get(link.tier, 0) + 1
        return census

    def aggregate_cpu_bandwidth(self) -> float:
        """Sum of per-direction CPU-link capacity over all GCDs."""
        return sum(l.capacity_per_direction for l in self.cpu_links())

    def describe(self) -> str:
        """Inventory summary (the Fig. 1 census)."""
        census = self.link_census()
        lines = [
            f"Topology {self.name!r}: {self.num_gcds} GCDs on "
            f"{self.num_gpu_packages} GPU packages, "
            f"{self.num_numa_domains} NUMA domains",
        ]
        for tier in (
            LinkTier.QUAD,
            LinkTier.DUAL,
            LinkTier.SINGLE,
            LinkTier.CPU,
            LinkTier.NIC,
        ):
            if tier in census:
                lines.append(
                    f"  {census[tier]}x {tier.name.lower()} links "
                    f"({tier.peak_unidirectional / 1e9:.0f}+"
                    f"{tier.peak_unidirectional / 1e9:.0f} GB/s)"
                )
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Stable content hash of the node structure.

        Covers every performance-relevant attribute — GCDs (package,
        NUMA affinity, HBM size/bandwidth, caches, CUs), NUMA domains
        (DRAM size/bandwidth/latency) and the link inventory with tiers
        — but not the cosmetic ``name``.  Two topologies with the same
        fingerprint produce identical simulation results, which is what
        the result cache (:mod:`repro.runner`) keys on.
        """
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        import hashlib

        parts: list[str] = []
        for gcd in sorted(self._gcds.values(), key=lambda g: g.index):
            parts.append(
                f"gcd:{gcd.index}:{gcd.gpu_package}:{gcd.numa_domain}:"
                f"{gcd.hbm_bytes}:{float(gcd.hbm_peak_bw).hex()}:"
                f"{gcd.l2_bytes}:{gcd.compute_units}"
            )
        for numa in sorted(self._numa.values(), key=lambda n: n.index):
            parts.append(
                f"numa:{numa.index}:{numa.dram_bytes}:"
                f"{float(numa.dram_peak_bw).hex()}:"
                f"{float(numa.dram_latency).hex()}"
            )
        edges = []
        for link in self.links():
            a, b = sorted((link.a, link.b))
            part = f"link:{a}:{b}:{link.tier.name}"
            # Appended only when set so every pre-override fingerprint
            # (and thus every cached result) stays stable.
            if link.capacity_override is not None:
                part += f":{float(link.capacity_override).hex()}"
            edges.append(part)
        parts.extend(sorted(edges))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class NodeTopologyBuilder:
    """Incremental builder for :class:`NodeTopology`."""

    def __init__(self, name: str = "custom") -> None:
        self.name = name
        self._gcds: list[GcdInfo] = []
        self._numa: list[NumaDomainInfo] = []
        self._links: list[Link] = []

    def add_gcd(self, info: GcdInfo) -> "NodeTopologyBuilder":
        """Register a GCD."""
        self._gcds.append(info)
        return self

    def add_numa_domain(self, info: NumaDomainInfo) -> "NodeTopologyBuilder":
        """Register a NUMA domain."""
        self._numa.append(info)
        return self

    def connect_gcds(
        self,
        a: int,
        b: int,
        width: int,
        *,
        capacity_gbps: float | None = None,
    ) -> "NodeTopologyBuilder":
        """Add a GCD-GCD bundle of ``width`` xGMI links.

        ``capacity_gbps`` overrides the tier's per-direction peak for
        this one edge (Pearson-style bandwidth heterogeneity).
        """
        tier = LinkTier.from_width(width)
        override = None if capacity_gbps is None else float(capacity_gbps) * 1e9
        self._links.append(
            Link(
                LinkEndpoint.gcd(a),
                LinkEndpoint.gcd(b),
                tier,
                capacity_override=override,
            )
        )
        return self

    def connect_cpu(self, gcd: int, numa: int) -> "NodeTopologyBuilder":
        """Add a GCD's CPU link to a NUMA domain port."""
        self._links.append(
            Link(LinkEndpoint.gcd(gcd), LinkEndpoint.numa(numa), LinkTier.CPU)
        )
        return self

    def connect_nic(self, numa_a: int, numa_b: int) -> "NodeTopologyBuilder":
        """Add an inter-node NIC link between two NUMA domain ports."""
        self._links.append(
            Link(
                LinkEndpoint.numa(numa_a),
                LinkEndpoint.numa(numa_b),
                LinkTier.NIC,
            )
        )
        return self

    def build(self) -> NodeTopology:
        """Validate and freeze into a :class:`NodeTopology`."""
        return NodeTopology(self._gcds, self._numa, self._links, name=self.name)
