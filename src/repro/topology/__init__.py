"""Node topology: GCDs, CPU, NUMA domains, and Infinity Fabric links.

This package models Fig. 1 of the paper: a single-socket third-
generation EPYC CPU with four NUMA domains, four MI250X packages (eight
GCDs), and the xGMI/Infinity Fabric link mesh with its three GCD-GCD
bandwidth tiers (single/dual/quad 50+50 GB/s links) plus one CPU link
per GCD (36+36 GB/s).

Public entry points:

- :func:`repro.topology.presets.frontier_node` builds the exact Fig. 1
  topology (also used by LUMI).
- :class:`repro.topology.node.NodeTopology` is the queryable graph.
- :mod:`repro.topology.routing` implements the two routing policies the
  paper contrasts: shortest-path and bandwidth-maximizing.
"""

from .context import install_topology
from .link import (
    Link,
    LinkTier,
    LinkEndpoint,
    XGMI_LINK_BW,
    CPU_LINK_BW,
    NIC_LINK_BW,
)
from .node import NodeTopology, GcdInfo, NumaDomainInfo
from .presets import (
    frontier_node,
    dense_hive_node,
    mi250x_cluster,
    single_gpu_node,
)
from .routing import (
    Route,
    RoutingPolicy,
    shortest_path,
    bandwidth_maximizing_path,
    all_pairs_hops,
    route_between,
)
from .numa import NumaMap, numa_distance_matrix
from .schema import (
    TOPOLOGY_SCHEMA,
    dump_topology,
    export_preset_files,
    load_topology,
    topology_from_json,
    topology_to_json,
)


__all__ = [
    "Link",
    "LinkTier",
    "LinkEndpoint",
    "XGMI_LINK_BW",
    "CPU_LINK_BW",
    "NIC_LINK_BW",
    "NodeTopology",
    "GcdInfo",
    "NumaDomainInfo",
    "frontier_node",
    "dense_hive_node",
    "mi250x_cluster",
    "single_gpu_node",
    "Route",
    "RoutingPolicy",
    "shortest_path",
    "bandwidth_maximizing_path",
    "all_pairs_hops",
    "route_between",
    "NumaMap",
    "numa_distance_matrix",
    "TOPOLOGY_SCHEMA",
    "load_topology",
    "dump_topology",
    "topology_from_json",
    "topology_to_json",
    "export_preset_files",
    "install_topology",
]
