"""What-if scenarios: named variants of the node for ablation studies.

Each scenario returns a ``(topology, calibration, description)``
triple that the benchmark suites accept, isolating exactly one design
parameter of the system.  The ablation benchmarks in
``benchmarks/test_ablations.py`` run the affected experiment under the
baseline and the variant and report the delta — quantifying the design
choices DESIGN.md calls out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from ..errors import BenchmarkError
from ..topology.node import NodeTopology
from ..topology.presets import dense_hive_node, frontier_node
from ..units import gbps, us
from .calibration import CalibrationProfile, DEFAULT_CALIBRATION


@dataclass(frozen=True)
class Scenario:
    """One named what-if configuration."""

    name: str
    topology: NodeTopology
    calibration: CalibrationProfile
    description: str


def baseline() -> Scenario:
    """The paper's testbed: Fig. 1 topology, MI250X calibration."""
    return Scenario(
        "baseline",
        frontier_node(),
        DEFAULT_CALIBRATION,
        "Fig. 1 MI250X node, ROCm 5.7 calibration",
    )


def unconstrained_sdma() -> Scenario:
    """SDMA engines able to drive full link bundles.

    Isolates the paper's central §V-A2 finding: with the PCIe-4-tuned
    engine cap removed, hipMemcpyPeer would show the three theoretical
    bandwidth tiers instead of two.
    """
    calibration = DEFAULT_CALIBRATION.with_(
        sdma_engine_throughput=gbps(200.0)
    )
    return Scenario(
        "unconstrained-sdma",
        frontier_node(),
        calibration,
        "SDMA engine cap lifted to 200 GB/s (hypothetical)",
    )


def double_numa_ports() -> Scenario:
    """NUMA IF ports with twice the capacity.

    Isolates the Fig. 4 mechanism: with 90 GB/s ports, both GCDs of a
    package can stream concurrently and the same-GPU placement scales.
    """
    calibration = DEFAULT_CALIBRATION.with_(numa_ifport_bw=gbps(90.0))
    return Scenario(
        "double-numa-ports",
        frontier_node(),
        calibration,
        "NUMA IF port capacity doubled to 90 GB/s (hypothetical)",
    )


def fast_fault_handling() -> Scenario:
    """XNACK fault service in half the time.

    Sensitivity of the 2.8 GB/s page-migration plateau to driver
    fault-handling latency.
    """
    calibration = DEFAULT_CALIBRATION.with_(
        xnack_fault_service=us(0.66)
    )
    return Scenario(
        "fast-fault-handling",
        frontier_node(),
        calibration,
        "XNACK fault service halved to 0.66 us (hypothetical driver)",
    )


def large_migration_pages() -> Scenario:
    """2 MiB migration granules instead of 4 KiB.

    The other lever on migration bandwidth: amortizing one fault over
    a huge page pushes the fault-bound rate toward the link rate.
    """
    calibration = DEFAULT_CALIBRATION.with_(page_size=2 * 2**20)
    return Scenario(
        "large-migration-pages",
        frontier_node(),
        calibration,
        "2 MiB migration granule (THP-style)",
    )


def dense_fabric() -> Scenario:
    """Fully-connected GCD mesh (single link per non-package pair)."""
    return Scenario(
        "dense-fabric",
        dense_hive_node(),
        DEFAULT_CALIBRATION,
        "hypothetical all-to-all single-link mesh",
    )


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "baseline": baseline,
    "unconstrained-sdma": unconstrained_sdma,
    "double-numa-ports": double_numa_ports,
    "fast-fault-handling": fast_fault_handling,
    "large-migration-pages": large_migration_pages,
    "dense-fabric": dense_fabric,
}


def get_scenario(name: str) -> Scenario:
    """The named scenario; unknown names raise.

    Each scenario is built once per process and shared, like
    :func:`~repro.topology.presets.frontier_node`: a :class:`Scenario`,
    its topology and its calibration are immutable (fault state lives
    on the simulated node), so a warm what-if request neither rebuilds
    a topology nor re-fingerprints a calibration.
    """
    if name not in SCENARIOS:
        raise BenchmarkError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return _shared_scenario(name)


@functools.cache
def _shared_scenario(name: str) -> Scenario:
    return SCENARIOS[name]()
