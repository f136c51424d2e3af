"""CommScope-style microbenchmarks (Pearson et al. [12]).

Host-to-device bandwidth sweeps for every interface of Table I, the
NUMA-to-GPU placement probe of §IV-B, and the peer-copy sweep of
Fig. 7.  Every measurement builds a *fresh* simulated node so runs are
independent and deterministic.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..config import SimEnvironment
from ..context import resolve_default as resolve_default_topology
from ..core.calibration import CalibrationProfile
from ..core.experiment import ExperimentResult
from ..core.sweep import COMM_SCOPE_H2D, COMM_SCOPE_P2P
from ..errors import BenchmarkError
from ..hip.enums import HostMallocFlags
from ..hip.runtime import HipRuntime
from ..memory.placement import ExplicitNumaPolicy
from ..runner import SimPoint, SweepRunner, execute_points
from ..session import Session
from ..topology.node import NodeTopology

#: The four host-to-device interfaces of Fig. 2/3.
H2D_INTERFACES = (
    "pageable_memcpy",
    "pinned_memcpy",
    "managed_zerocopy",
    "managed_migration",
)


def _fresh_runtime(
    interface: str,
    topology: NodeTopology | None,
    calibration: CalibrationProfile | None,
) -> HipRuntime:
    session = Session(
        topology,
        calibration=calibration,
        xnack_enabled=(interface == "managed_migration"),
    )
    return session.hip


def measure_h2d(
    interface: str,
    size: int,
    *,
    gcd: int = 0,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
) -> float:
    """One host-to-device bandwidth point (bytes/s)."""
    if interface not in H2D_INTERFACES:
        raise BenchmarkError(f"unknown interface {interface!r}")
    if size <= 0:
        raise BenchmarkError("transfer size must be positive")
    hip = _fresh_runtime(interface, topology, calibration)
    hip.set_device(gcd)

    def run() -> Generator:
        dst = hip.malloc(size)
        if interface == "pageable_memcpy":
            src = hip.pageable_malloc(
                size, numa_index=hip.node.topology.numa_of_gcd(gcd)
            )
            t0 = hip.now
            yield from hip.memcpy(dst, src)
        elif interface == "pinned_memcpy":
            src = hip.host_malloc(size, HostMallocFlags.NON_COHERENT)
            t0 = hip.now
            yield from hip.memcpy(dst, src)
        else:
            src = hip.malloc_managed(size)
            t0 = hip.now
            yield hip.launch_stream_copy(dst, src)
        return size / (hip.now - t0)

    return hip.run(run())


def h2d_points(
    interfaces: Sequence[str] = H2D_INTERFACES,
    sizes: Sequence[int] | None = None,
    *,
    gcd: int = 0,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    experiment_id: str = "fig03",
) -> list[SimPoint]:
    """The Fig. 3 sweep decomposed into independent sim points."""
    if sizes is None:
        sizes = COMM_SCOPE_H2D.sizes()
    return [
        SimPoint.make(
            experiment_id,
            f"h2d/{interface}/{size}",
            "repro.bench_suites.comm_scope:measure_h2d",
            interface=interface,
            size=size,
            gcd=gcd,
            topology=topology,
            calibration=calibration,
        )
        for interface in interfaces
        for size in sizes
    ]


def h2d_sweep(
    interfaces: Sequence[str] = H2D_INTERFACES,
    sizes: Sequence[int] | None = None,
    *,
    gcd: int = 0,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """The Fig. 3 sweep: bandwidth vs size for each interface."""
    points = h2d_points(
        interfaces, sizes, gcd=gcd, topology=topology, calibration=calibration
    )
    return h2d_result(points, execute_points(points, runner))


def h2d_result(points: Sequence[SimPoint], outputs: Sequence[float]) -> ExperimentResult:
    """Assemble the Fig. 3 sweep result from point outputs (in order)."""
    result = ExperimentResult(
        "fig03", "Host-to-device bandwidth vs transfer size (CommScope)"
    )
    for point, bandwidth in zip(points, outputs):
        kwargs = point.kwargs
        result.add(
            kwargs["size"], bandwidth, "B/s", interface=kwargs["interface"]
        )
    return result


def measure_numa_to_gpu(
    gcd: int,
    numa_index: int,
    size: int,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
) -> float:
    """Pinned H2D bandwidth with forced NUMA placement (§IV-B probe)."""
    hip = _fresh_runtime("pinned_memcpy", topology, calibration)
    hip.set_device(gcd)

    def run() -> Generator:
        src = hip.host_malloc(
            size,
            HostMallocFlags.NON_COHERENT | HostMallocFlags.NUMA_USER,
            policy=ExplicitNumaPolicy(numa_index),
        )
        dst = hip.malloc(size)
        t0 = hip.now
        yield from hip.memcpy(dst, src)
        return size / (hip.now - t0)

    return hip.run(run())


def numa_to_gpu_matrix(
    size: int,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
) -> ExperimentResult:
    """All (GCD, NUMA) placements — flat per the paper's finding."""
    node_topology = resolve_default_topology(topology)
    result = ExperimentResult(
        "numa_probe", "Pinned H2D bandwidth per (GCD, NUMA) placement"
    )
    for gcd_info in node_topology.gcds():
        for numa in node_topology.numa_domains():
            bandwidth = measure_numa_to_gpu(
                gcd_info.index,
                numa.index,
                size,
                topology=node_topology,
                calibration=calibration,
            )
            result.add(
                size,
                bandwidth,
                "B/s",
                gcd=gcd_info.index,
                numa=numa.index,
                local=(node_topology.numa_of_gcd(gcd_info.index) == numa.index),
            )
    return result


def measure_peer_copy(
    src_gcd: int,
    dst_gcd: int,
    size: int,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
) -> float:
    """One hipMemcpyPeer bandwidth point (bytes/s)."""
    hip = Session(topology, calibration=calibration, env=env).hip

    def run() -> Generator:
        src = hip.malloc(size, device=src_gcd)
        dst = hip.malloc(size, device=dst_gcd)
        t0 = hip.now
        yield from hip.memcpy_peer(dst, dst_gcd, src, src_gcd)
        return size / (hip.now - t0)

    return hip.run(run())


def peer_points(
    src_gcd: int = 0,
    dst_gcds: Sequence[int] = (1, 2, 6),
    sizes: Sequence[int] | None = None,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
    experiment_id: str = "fig07",
) -> list[SimPoint]:
    """The Fig. 7 sweep decomposed into independent sim points."""
    if sizes is None:
        sizes = COMM_SCOPE_P2P.sizes()
    return [
        SimPoint.make(
            experiment_id,
            f"peer/{src_gcd}-{dst}/{size}",
            "repro.bench_suites.comm_scope:measure_peer_copy",
            src_gcd=src_gcd,
            dst_gcd=dst,
            size=size,
            topology=topology,
            calibration=calibration,
            env=env,
        )
        for dst in dst_gcds
        for size in sizes
    ]


def peer_sweep(
    src_gcd: int = 0,
    dst_gcds: Sequence[int] = (1, 2, 6),
    sizes: Sequence[int] | None = None,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """The Fig. 7 sweep: GCD0 → adjacent GCDs, 256 B to 8 GB."""
    points = peer_points(
        src_gcd,
        dst_gcds,
        sizes,
        topology=topology,
        calibration=calibration,
        env=env,
    )
    return peer_result(points, execute_points(points, runner), src_gcd=src_gcd)


def peer_result(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    *,
    src_gcd: int = 0,
) -> ExperimentResult:
    """Assemble the Fig. 7 sweep result from point outputs (in order)."""
    result = ExperimentResult(
        "fig07", f"hipMemcpyPeer bandwidth from GCD{src_gcd} (CommScope)"
    )
    for point, bandwidth in zip(points, outputs):
        kwargs = point.kwargs
        result.add(kwargs["size"], bandwidth, "B/s", dst=kwargs["dst_gcd"])
    return result
