"""EPYC socket model: DRAM per NUMA domain, socket fabric, IF ports.

Three CPU-side resources shape the paper's CPU-GPU results:

- **DRAM channels** (204.8 GB/s socket-wide, 96 ns latency — §IV):
  modeled as one channel per NUMA domain.  They never bind for a
  single GCD (28.3 GB/s ≪ 51.2 GB/s), which is *why* the paper finds
  no NUMA-placement sensitivity (§IV-B).
- **Socket fabric**: the on-die interconnect crossed when a buffer's
  NUMA domain differs from the GCD's attached domain.  Its capacity is
  deliberately generous — "much higher inter-NUMA bandwidth, compared
  to the bandwidth over the interconnect" (§IV-B).
- **NUMA IF ports**: each domain fronts the Infinity Fabric links of
  one GPU package (two GCDs).  The port saturates around a single
  GCD's bidirectional streaming throughput, which is the mechanism
  behind Fig. 4 (same-GPU dual-GCD does not scale) and Fig. 5 (eight
  GCDs no better than four).  The port is a *single* channel summing
  both directions, matching the observed behaviour where even
  opposite-direction traffic of the sibling GCD fails to add.
"""

from __future__ import annotations

from typing import Hashable

from ..core.calibration import CalibrationProfile
from ..errors import TopologyError
from ..topology.node import NodeTopology

#: Channel id of the socket fabric (one per node).
SOCKET_CHANNEL: Hashable = ("socket",)


def dram_channel_id(numa_index: int) -> Hashable:
    """Channel id of a NUMA domain's DRAM."""
    return ("dram", numa_index)


def port_channel_id(numa_index: int) -> Hashable:
    """Channel id of a NUMA domain's Infinity Fabric port."""
    return ("numaport", numa_index)


def cpu_channels(
    topology: NodeTopology, calibration: CalibrationProfile
) -> list[tuple[Hashable, float]]:
    """``(channel id, capacity)`` of the socket: its fabric, then per NUMA
    domain its DRAM and its IF port."""
    channels = [(SOCKET_CHANNEL, calibration.socket_fabric_bw)]
    for numa in topology.numa_domains():
        channels.append((dram_channel_id(numa.index), calibration.dram_bw_per_numa))
        channels.append((port_channel_id(numa.index), calibration.numa_ifport_bw))
    return channels


class CpuSocket:
    """CPU-side channels and affinity queries."""

    def __init__(self, topology: NodeTopology, calibration: CalibrationProfile) -> None:
        self.topology = topology
        self._calibration = calibration
        self.dram_latency = calibration.dram_latency
        self.socket_channel = SOCKET_CHANNEL
        self._dram_channels: dict[int, Hashable] = {}
        self._port_channels: dict[int, Hashable] = {}
        for numa in topology.numa_domains():
            self._dram_channels[numa.index] = dram_channel_id(numa.index)
            self._port_channels[numa.index] = port_channel_id(numa.index)

    def dram_channel(self, numa_index: int) -> Hashable:
        """DRAM channel id of a NUMA domain."""
        try:
            return self._dram_channels[numa_index]
        except KeyError:
            raise TopologyError(f"no NUMA domain {numa_index}") from None

    def port_channel(self, numa_index: int) -> Hashable:
        """Infinity Fabric port channel id of a NUMA domain."""
        try:
            return self._port_channels[numa_index]
        except KeyError:
            raise TopologyError(f"no NUMA domain {numa_index}") from None

    def host_side_channels(
        self, buffer_numa: int, gcd_index: int
    ) -> list[Hashable]:
        """CPU-side channels a CPU↔GCD transfer crosses.

        Always the GCD's NUMA port and the buffer's DRAM channel; plus
        the socket fabric when buffer and GCD live on different
        domains.  This is the code path CommScope's NUMA-to-GPU
        benchmark exercises: the extra socket hop exists but never
        binds, reproducing the paper's "no degradation" finding.
        """
        gcd_numa = self.topology.numa_of_gcd(gcd_index)
        channels: list[Hashable] = [
            self.port_channel(gcd_numa),
            self.dram_channel(buffer_numa),
        ]
        if buffer_numa != gcd_numa:
            channels.append(self.socket_channel)
        return channels

    def host_memcpy_channels(self, src_numa: int, dst_numa: int) -> list[Hashable]:
        """Channels for a host→host copy (pageable staging)."""
        channels: list[Hashable] = [self.dram_channel(src_numa)]
        if dst_numa != src_numa:
            channels.append(self.dram_channel(dst_numa))
            channels.append(self.socket_channel)
        return channels

    @property
    def total_dram_bandwidth(self) -> float:
        """Socket-wide DRAM bandwidth (204.8 GB/s on the testbed)."""
        return self._calibration.dram_bw_per_numa * len(self._dram_channels)
