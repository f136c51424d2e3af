"""Ablation benchmarks: quantify the design choices behind the findings.

Each test isolates one mechanism the paper identifies, runs the
affected experiment under the baseline and a what-if scenario (or an
alternative algorithm), and asserts the direction and rough magnitude
of the change.  Together they demonstrate that the reproduced shapes
come from the modeled mechanisms, not from hard-coded outputs.
"""

import pytest

from repro.bench_suites.comm_scope import measure_h2d, measure_peer_copy
from repro.bench_suites.p2p_matrix import (
    measure_pair_bandwidth,
    measure_pair_bandwidth_bidirectional,
)
from repro.bench_suites.stream import direct_p2p_read, multi_gpu_cpu_stream
from repro.core.whatif import get_scenario
from repro.hardware.node import HardwareNode
from repro.rccl.communicator import RcclCommunicator
from repro.rccl.ring import build_greedy_ring, build_optimal_ring
from repro.rccl.tree import tree_allreduce
from repro.units import GiB, KiB, MiB, to_gbps, to_us


def _rccl_latency(gcds, nbytes, *, ring_builder=build_greedy_ring, algo="ring"):
    node = HardwareNode()
    comm = RcclCommunicator(node, gcds, ring_builder=ring_builder)

    def run():
        t0 = node.now
        if algo == "tree":
            yield from tree_allreduce(comm, nbytes)
        else:
            yield from comm.allreduce(nbytes)
        return node.now - t0

    return node.engine.run_process(run())


class TestSdmaEngineCap:
    """§V-A2: the SDMA cap is why Fig. 6c has two tiers, not three."""

    def test_lifting_the_cap_restores_three_tiers(self, benchmark):
        scenario = get_scenario("unconstrained-sdma")

        def run():
            return {
                dst: measure_peer_copy(
                    0, dst, 1 * GiB, calibration=scenario.calibration
                )
                for dst in (1, 2, 6)
            }

        rates = benchmark.pedantic(run, rounds=1, iterations=1)
        print("\nhypothetical unconstrained SDMA engines (GB/s):")
        for dst, rate in rates.items():
            print(f"  GCD0->{dst}: {to_gbps(rate):6.1f}")
        # Three distinct tiers reappear, tracking the link widths.
        assert rates[1] > 1.8 * rates[6] > 1.6 * rates[2]
        # Baseline: quad and dual are indistinguishable (both 50).
        baseline_quad = measure_peer_copy(0, 1, 1 * GiB)
        baseline_dual = measure_peer_copy(0, 6, 1 * GiB)
        assert baseline_quad == pytest.approx(baseline_dual, rel=0.02)


class TestNumaPortCapacity:
    """§IV-C: the shared NUMA port is why same-GPU dual-GCD is flat."""

    def test_doubling_ports_makes_same_gpu_scale(self, benchmark):
        scenario = get_scenario("double-numa-ports")

        def run():
            return (
                multi_gpu_cpu_stream([0, 1]),
                multi_gpu_cpu_stream(
                    [0, 1], calibration=scenario.calibration
                ),
            )

        baseline_rate, widened_rate = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        print(
            f"\nsame-GPU dual-GCD STREAM: baseline "
            f"{to_gbps(baseline_rate):.1f} GB/s, doubled ports "
            f"{to_gbps(widened_rate):.1f} GB/s (now DRAM-bound)"
        )
        # Widening the IF port helps — and immediately exposes the next
        # bottleneck in the chain: the NUMA domain's 51.2 GB/s DRAM
        # channel, which both GCDs' host buffers share.  Removing one
        # constraint surfaces the next; same-GPU placement stays
        # structurally disadvantaged.
        assert widened_rate > 1.1 * baseline_rate
        assert to_gbps(widened_rate) == pytest.approx(51.2, rel=0.02)


class TestXnackSensitivity:
    """Fig. 3's 2.8 GB/s is fault-service-bound, not link-bound."""

    def test_faster_faults_raise_migration_bandwidth(self, benchmark):
        scenario = get_scenario("fast-fault-handling")

        def run():
            return (
                measure_h2d("managed_migration", 128 * MiB),
                measure_h2d(
                    "managed_migration",
                    128 * MiB,
                    calibration=scenario.calibration,
                ),
            )

        base, fast = benchmark.pedantic(run, rounds=1, iterations=1)
        print(
            f"\nXNACK migration: baseline {to_gbps(base):.2f} GB/s, "
            f"halved fault cost {to_gbps(fast):.2f} GB/s"
        )
        assert 1.7 * base < fast < 2.1 * base

    def test_huge_pages_approach_link_rate(self, benchmark):
        scenario = get_scenario("large-migration-pages")
        rate = benchmark.pedantic(
            lambda: measure_h2d(
                "managed_migration",
                256 * MiB,
                calibration=scenario.calibration,
            ),
            rounds=1,
            iterations=1,
        )
        print(f"\n2 MiB-granule migration: {to_gbps(rate):.1f} GB/s")
        # One fault per 2 MiB amortizes: close to the 28.3 GB/s engine rate.
        assert to_gbps(rate) > 24


class TestRingHeuristic:
    """Fig. 12's 7→8 drop comes from the greedy ring's relay at 7."""

    def test_optimal_ring_erases_the_seven_rank_penalty(self, benchmark):
        def run():
            return (
                _rccl_latency(list(range(7)), 1 * MiB),
                _rccl_latency(
                    list(range(7)), 1 * MiB, ring_builder=build_optimal_ring
                ),
                _rccl_latency(list(range(8)), 1 * MiB),
            )

        greedy7, optimal7, greedy8 = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        print(
            f"\nallreduce 1 MiB: greedy 7-ring {to_us(greedy7):.1f} us, "
            f"optimal 7-ring {to_us(optimal7):.1f} us, "
            f"8-ring {to_us(greedy8):.1f} us"
        )
        assert optimal7 < greedy7          # the heuristic costs real time
        assert optimal7 < greedy8          # and a relay-free 7-ring beats 8
        assert greedy8 < greedy7           # the paper's observed drop


class TestRingVsTree:
    """Extension: RCCL's tree algorithm vs the ring (NCCL_ALGO)."""

    def test_tree_wins_small_ring_wins_large(self, benchmark):
        def run():
            return {
                size: (
                    _rccl_latency(list(range(8)), size),
                    _rccl_latency(list(range(8)), size, algo="tree"),
                )
                for size in (32 * KiB, 16 * MiB)
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        small_ring, small_tree = results[32 * KiB]
        large_ring, large_tree = results[16 * MiB]
        print(
            f"\nallreduce 32 KiB: ring {to_us(small_ring):.1f} us, "
            f"tree {to_us(small_tree):.1f} us"
        )
        print(
            f"allreduce 16 MiB: ring {to_us(large_ring):.0f} us, "
            f"tree {to_us(large_tree):.0f} us"
        )
        assert small_tree < small_ring
        assert large_ring < large_tree


class TestTopologyWhatIf:
    """Extra links remove detours but cannot fix engine-bound copies."""

    def test_dense_mesh_helps_kernels_not_sdma(self, benchmark):
        scenario = get_scenario("dense-fabric")

        def run():
            return (
                direct_p2p_read(0, 3, 1 * GiB),
                direct_p2p_read(0, 3, 1 * GiB, topology=scenario.topology),
                measure_pair_bandwidth(0, 3, size=1 * GiB),
                measure_pair_bandwidth(
                    0, 3, size=1 * GiB, topology=scenario.topology
                ),
            )

        kernel_base, kernel_dense, sdma_base, sdma_dense = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        print(
            f"\nGCD0->3 kernel: frontier {to_gbps(kernel_base):.1f}, "
            f"dense {to_gbps(kernel_dense):.1f} GB/s; "
            f"SDMA: frontier {to_gbps(sdma_base):.1f}, "
            f"dense {to_gbps(sdma_dense):.1f} GB/s"
        )
        # 0-3 keeps a single-link bottleneck either way (the dense mesh
        # adds a *direct* single link), so the kernel rate is unchanged
        # but the route shortens; SDMA stays engine/protocol-capped.
        assert kernel_dense == pytest.approx(kernel_base, rel=0.02)
        assert sdma_dense == pytest.approx(sdma_base, rel=0.02)


class TestBidirectionalPeer:
    """Extension: p2pBandwidthLatencyTest's bidirectional matrix mode."""

    def test_bidirectional_doubles_sdma_plateau(self, benchmark):
        def run():
            return (
                measure_pair_bandwidth(0, 1, size=1 * GiB),
                measure_pair_bandwidth_bidirectional(0, 1, size=1 * GiB),
            )

        uni, bidi = benchmark.pedantic(run, rounds=1, iterations=1)
        print(
            f"\nGCD0<->1 SDMA: unidirectional {to_gbps(uni):.1f} GB/s, "
            f"bidirectional total {to_gbps(bidi):.1f} GB/s"
        )
        # Per-direction engines: the two directions overlap fully.
        assert bidi == pytest.approx(2 * uni, rel=0.05)


class TestCoherentFabric:
    """MI300A-style what-if: cache-coherent fabric lifts the MI250X
    rule that coherent memory bypasses GPU caches (paper §II-C)."""

    def test_cacheable_zero_copy_closes_the_fig3_gap(self, benchmark):
        from repro.hip.runtime import HipRuntime
        from repro.memory.coherence import CoherencePolicy

        def measure(mi300: bool, size):
            hip = HipRuntime(
                HardwareNode(),
                coherence=CoherencePolicy(mi300_coherent_fabric=mi300),
            )
            host = hip.host_malloc(size)  # pinned coherent
            dev = hip.malloc(size)

            def run():
                t0 = hip.now
                yield hip.launch_stream_copy(dev, host)
                return size / (hip.now - t0)

            return hip.run(run())

        def run_all():
            small = 16 * MiB  # LLC-resident working set
            return (
                measure(False, small),
                measure(True, small),
                measure(True, 256 * MiB),  # beyond the LLC
            )

        mi250, mi300_small, mi300_large = benchmark.pedantic(
            run_all, rounds=1, iterations=1
        )
        print(
            f"\nzero-copy H2D at 16 MiB: MI250X-coherent "
            f"{to_gbps(mi250):.1f} GB/s, coherent-fabric "
            f"{to_gbps(mi300_small):.1f} GB/s; at 256 MiB "
            f"{to_gbps(mi300_large):.1f} GB/s"
        )
        # With caching allowed, LLC-resident zero-copy reaches the
        # pinned-memcpy efficiency tier; beyond the LLC it falls back.
        assert mi300_small > 1.08 * mi250
        assert mi300_large == pytest.approx(mi250, rel=0.05)
