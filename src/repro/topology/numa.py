"""NUMA affinity queries and placement reasoning (paper §IV-B).

The EPYC socket's memory is split into four NUMA domains, each fronting
the Infinity Fabric ports of one MI250X package (two GCDs).  The paper
probes two facts about this layout:

1. ``hipHostMalloc`` places pinned memory on the NUMA node closest to
   the active GPU by default — modeled by
   :meth:`NumaMap.default_host_numa_for`.
2. Deliberately mismatching NUMA node and GCD shows *no* bandwidth
   degradation, because inter-NUMA bandwidth on the socket far exceeds
   the 36 GB/s Infinity Fabric link — modeled by the distance matrix
   and by the CPU-side capacity model in :mod:`repro.hardware.cpu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import TopologyError
from .node import NodeTopology

#: Typical ACPI SLIT-style distances on a single-socket EPYC: 10 local,
#: 12 to any sibling domain in the same socket.
_LOCAL_DISTANCE = 10
_REMOTE_DISTANCE = 12


@dataclass(frozen=True)
class NumaMap:
    """GCD↔NUMA affinity table, as ``rocm-smi --showtoponuma`` reports."""

    gcd_to_numa: tuple[int, ...]

    @classmethod
    def from_topology(cls, topology: NodeTopology) -> "NumaMap":
        return cls(
            tuple(topology.numa_of_gcd(g.index) for g in topology.gcds())
        )

    @property
    def num_gcds(self) -> int:
        """Number of GCDs in the map."""
        return len(self.gcd_to_numa)

    @property
    def num_numa_domains(self) -> int:
        """Number of distinct NUMA domains."""
        return len(set(self.gcd_to_numa))

    def default_host_numa_for(self, gcd_index: int) -> int:
        """NUMA node `hipHostMalloc` targets when ``gcd_index`` is active."""
        try:
            return self.gcd_to_numa[gcd_index]
        except IndexError:
            raise TopologyError(f"no GCD {gcd_index} in NUMA map") from None

    def gcds_of(self, numa_index: int) -> tuple[int, ...]:
        """GCDs attached to a NUMA domain."""
        gcds = tuple(
            g for g, n in enumerate(self.gcd_to_numa) if n == numa_index
        )
        if not gcds:
            raise TopologyError(f"no GCDs attached to NUMA {numa_index}")
        return gcds

    def is_local(self, gcd_index: int, numa_index: int) -> bool:
        """Whether a host buffer on ``numa_index`` is GCD-local."""
        return self.default_host_numa_for(gcd_index) == numa_index

    def as_table(self) -> Mapping[int, int]:
        """``{gcd: numa}`` mapping, the showtoponuma output shape."""
        return dict(enumerate(self.gcd_to_numa))


def numa_distance_matrix(num_domains: int) -> tuple[tuple[int, ...], ...]:
    """SLIT-style distance matrix for a single-socket node, row by row.

    All off-diagonal distances are equal — the property responsible for
    the paper's finding that NUMA-mismatched placement does not hurt
    CPU→GPU copy bandwidth.
    """
    if num_domains < 1:
        raise TopologyError("need at least one NUMA domain")
    return tuple(
        tuple(
            _LOCAL_DISTANCE if i == j else _REMOTE_DISTANCE
            for j in range(num_domains)
        )
        for i in range(num_domains)
    )


def interleave_placement(
    buffer_index: int, num_domains: int
) -> int:
    """Round-robin NUMA target, modeling ``numactl --interleave``."""
    if num_domains < 1:
        raise TopologyError("need at least one NUMA domain")
    return buffer_index % num_domains


def numa_mismatch_pairs(topology: NodeTopology) -> list[tuple[int, int]]:
    """All (gcd, numa) combinations that are *not* the default affinity.

    These are the combinations CommScope's NUMA-to-GPU benchmark sweeps
    when probing for placement sensitivity (§IV-B).
    """
    numa_map = NumaMap.from_topology(topology)
    pairs: list[tuple[int, int]] = []
    for gcd in range(numa_map.num_gcds):
        for numa in sorted(set(numa_map.gcd_to_numa)):
            if not numa_map.is_local(gcd, numa):
                pairs.append((gcd, numa))
    return pairs


def gcds_per_numa_count(placement: Sequence[int], topology: NodeTopology) -> dict[int, int]:
    """How many of the selected GCDs share each NUMA domain.

    The Fig. 4/5 scaling behaviour is governed by this count: a NUMA
    domain's Infinity Fabric port saturates once one of its GCDs is
    driving traffic, so two selected GCDs on the same domain do not
    scale.
    """
    counts: dict[int, int] = {}
    for gcd in placement:
        numa = topology.numa_of_gcd(gcd)
        counts[numa] = counts.get(numa, 0) + 1
    return counts
