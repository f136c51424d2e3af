"""HIPified p2pBandwidthLatencyTest (Fig. 6).

Reproduces the three matrices of Fig. 6:

- hop counts of the shortest path between all GCD pairs (6a),
- latency of a 16-byte ``hipMemcpyPeerAsync`` timed with HIP events,
  averaged over repetitions (6b),
- unidirectional large-transfer bandwidth (6c).

As in the original tool, memory comes from ``hipMalloc`` on both ends
and peer access is enabled first.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..config import SimEnvironment
from ..context import resolve_default as resolve_default_topology
from ..core.calibration import CalibrationProfile
from ..core.experiment import ExperimentResult
from ..errors import BenchmarkError
from ..runner import SimPoint, SweepRunner, execute_points
from ..session import Session
from ..topology.node import NodeTopology
from ..topology.routing import all_pairs_hops
from ..units import MiB

#: Transfer size of the latency test (paper §V-A1: 16 bytes).
LATENCY_TRANSFER_BYTES = 16
#: Repetitions of the latency measurement (paper: 100).
LATENCY_REPETITIONS = 100
#: Transfer size of the bandwidth matrix test.
BANDWIDTH_TRANSFER_BYTES = 256 * MiB


def hop_matrix(
    topology: NodeTopology | None = None,
) -> dict[tuple[int, int], int]:
    """Fig. 6a: shortest-path hop counts."""
    return all_pairs_hops(resolve_default_topology(topology))


def measure_pair_latency(
    src_gcd: int,
    dst_gcd: int,
    *,
    repetitions: int = LATENCY_REPETITIONS,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
) -> float:
    """Average latency (seconds) of a 16 B hipMemcpyPeerAsync.

    Timed GPU-side with the HIP event API on the copy stream, exactly
    as the paper describes (§V-A1).
    """
    if src_gcd == dst_gcd:
        raise BenchmarkError("latency test requires distinct GCDs")
    if repetitions <= 0:
        raise BenchmarkError("need at least one repetition")
    hip = Session(topology, calibration=calibration, env=env).hip
    hip.enable_all_peer_access()

    def run() -> Generator:
        src = hip.malloc(LATENCY_TRANSFER_BYTES, device=src_gcd)
        dst = hip.malloc(LATENCY_TRANSFER_BYTES, device=dst_gcd)
        stream = hip.stream_create(device=src_gcd)
        total = 0.0
        for _ in range(repetitions):
            start_event = hip.event_create()
            stop_event = hip.event_create()
            start_event.record(stream)
            hip.memcpy_peer_async(
                dst, dst_gcd, src, src_gcd, LATENCY_TRANSFER_BYTES, stream
            )
            stop_event.record(stream)
            yield from stream.synchronize()
            total += stop_event.elapsed_since(start_event)
        return total / repetitions

    return hip.run(run())


def measure_pair_bandwidth(
    src_gcd: int,
    dst_gcd: int,
    *,
    size: int = BANDWIDTH_TRANSFER_BYTES,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
) -> float:
    """Unidirectional hipMemcpyPeer bandwidth (bytes/s) for one pair."""
    if src_gcd == dst_gcd:
        raise BenchmarkError("bandwidth test requires distinct GCDs")
    hip = Session(topology, calibration=calibration, env=env).hip
    hip.enable_all_peer_access()

    def run() -> Generator:
        src = hip.malloc(size, device=src_gcd)
        dst = hip.malloc(size, device=dst_gcd)
        t0 = hip.now
        yield from hip.memcpy_peer(dst, dst_gcd, src, src_gcd)
        return size / (hip.now - t0)

    return hip.run(run())


def latency_matrix(
    *,
    repetitions: int = 3,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
) -> dict[tuple[int, int], float]:
    """Fig. 6b: all-pairs latency (seconds).

    The simulator is deterministic, so a handful of repetitions gives
    the same average as the paper's 100; callers can raise it.
    """
    node_topology = resolve_default_topology(topology)
    indices = [g.index for g in node_topology.gcds()]
    matrix: dict[tuple[int, int], float] = {}
    for src in indices:
        for dst in indices:
            if src == dst:
                continue
            matrix[(src, dst)] = measure_pair_latency(
                src,
                dst,
                repetitions=repetitions,
                topology=node_topology,
                calibration=calibration,
                env=env,
            )
    return matrix


def bandwidth_matrix(
    *,
    size: int = BANDWIDTH_TRANSFER_BYTES,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
) -> dict[tuple[int, int], float]:
    """Fig. 6c: all-pairs unidirectional bandwidth (bytes/s)."""
    node_topology = resolve_default_topology(topology)
    indices = [g.index for g in node_topology.gcds()]
    matrix: dict[tuple[int, int], float] = {}
    for src in indices:
        for dst in indices:
            if src == dst:
                continue
            matrix[(src, dst)] = measure_pair_bandwidth(
                src,
                dst,
                size=size,
                topology=node_topology,
                calibration=calibration,
                env=env,
            )
    return matrix


def measure_pair_bandwidth_bidirectional(
    gcd_a: int,
    gcd_b: int,
    *,
    size: int = BANDWIDTH_TRANSFER_BYTES,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    env: SimEnvironment | None = None,
) -> float:
    """Bidirectional bandwidth: simultaneous peer copies both ways.

    The p2pBandwidthLatencyTest's second matrix mode.  Each GCD's SDMA
    engines serve one direction, so with engines per direction the two
    copies overlap fully and the total approaches twice the
    unidirectional SDMA plateau.
    """
    if gcd_a == gcd_b:
        raise BenchmarkError("bidirectional test requires distinct GCDs")
    hip = Session(topology, calibration=calibration, env=env).hip
    hip.enable_all_peer_access()

    def run() -> Generator:
        a_src = hip.malloc(size, device=gcd_a)
        a_dst = hip.malloc(size, device=gcd_a)
        b_src = hip.malloc(size, device=gcd_b)
        b_dst = hip.malloc(size, device=gcd_b)
        stream_a = hip.stream_create(device=gcd_a)
        stream_b = hip.stream_create(device=gcd_b)
        t0 = hip.now
        done_ab = hip.memcpy_peer_async(b_dst, gcd_b, a_src, gcd_a, size, stream_a)
        done_ba = hip.memcpy_peer_async(a_dst, gcd_a, b_src, gcd_b, size, stream_b)
        yield hip.engine.all_of([done_ab, done_ba])
        return 2 * size / (hip.now - t0)

    return hip.run(run())


def matrix_points(
    *,
    latency_repetitions: int = 3,
    size: int = BANDWIDTH_TRANSFER_BYTES,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    experiment_id: str = "fig06",
) -> list[SimPoint]:
    """Fig. 6's measured panels (b, c) as independent per-pair points.

    Panel (a) — hop counts — is a pure graph query and is computed
    during merge rather than dispatched as work.
    """
    node_topology = resolve_default_topology(topology)
    indices = [g.index for g in node_topology.gcds()]
    points = []
    for src in indices:
        for dst in indices:
            if src == dst:
                continue
            points.append(
                SimPoint.make(
                    experiment_id,
                    f"latency/{src}-{dst}",
                    "repro.bench_suites.p2p_matrix:measure_pair_latency",
                    src_gcd=src,
                    dst_gcd=dst,
                    repetitions=latency_repetitions,
                    topology=node_topology,
                    calibration=calibration,
                )
            )
    for src in indices:
        for dst in indices:
            if src == dst:
                continue
            points.append(
                SimPoint.make(
                    experiment_id,
                    f"bandwidth/{src}-{dst}",
                    "repro.bench_suites.p2p_matrix:measure_pair_bandwidth",
                    src_gcd=src,
                    dst_gcd=dst,
                    size=size,
                    topology=node_topology,
                    calibration=calibration,
                )
            )
    return points


def full_experiment(
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """All three Fig. 6 panels in one result."""
    node_topology = resolve_default_topology(topology)
    points = matrix_points(topology=node_topology, calibration=calibration)
    outputs = execute_points(points, runner)
    return matrix_result(points, outputs, topology=node_topology)


def matrix_result(
    points: Sequence[SimPoint],
    outputs: Sequence[float],
    *,
    topology: NodeTopology | None = None,
) -> ExperimentResult:
    """Assemble the Fig. 6 result: panel (a) from the topology graph,
    panels (b, c) from point outputs (in order)."""
    node_topology = resolve_default_topology(topology)
    result = ExperimentResult("fig06", "p2pBandwidthLatencyTest matrices")
    for (src, dst), hops in hop_matrix(node_topology).items():
        if src != dst:
            result.add(src * 8 + dst, float(hops), "hops", panel="a", src=src, dst=dst)
    for point, value in zip(points, outputs):
        kwargs = point.kwargs
        src, dst = kwargs["src_gcd"], kwargs["dst_gcd"]
        if point.label.startswith("latency/"):
            result.add(src * 8 + dst, value, "s", panel="b", src=src, dst=dst)
        else:
            result.add(src * 8 + dst, value, "B/s", panel="c", src=src, dst=dst)
    return result
