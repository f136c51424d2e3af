"""Tests for hipMemcpy / hipMemcpyPeer paths."""

import pytest

from repro.config import SimEnvironment
from repro.errors import HipError
from repro.hardware.node import HardwareNode
from repro.hip.enums import HostMallocFlags, MemcpyKind
from repro.hip.memcpy import pageable_variation, pair_jitter
from repro.hip.runtime import HipRuntime
from repro.units import GiB, KiB, MiB, to_gbps


def measure_memcpy(hip, dst, src, nbytes=None):
    def run():
        t0 = hip.now
        yield from hip.memcpy(dst, src, nbytes)
        return (nbytes or min(dst.size, src.size)) / (hip.now - t0)

    return hip.run(run())


class TestKindResolution:
    def test_resolve(self, hip):
        host = hip.host_malloc(1 * MiB)
        dev = hip.malloc(1 * MiB)
        from repro.hip.memcpy import CopyApi

        assert CopyApi.resolve_kind(dev, host) is MemcpyKind.HOST_TO_DEVICE
        assert CopyApi.resolve_kind(host, dev) is MemcpyKind.DEVICE_TO_HOST
        assert CopyApi.resolve_kind(host, host) is MemcpyKind.HOST_TO_HOST
        assert CopyApi.resolve_kind(dev, dev) is MemcpyKind.DEVICE_TO_DEVICE


class TestHostDevice:
    def test_pinned_h2d_hits_paper_peak(self, hip):
        host = hip.host_malloc(1 * GiB, HostMallocFlags.NON_COHERENT)
        dev = hip.malloc(1 * GiB)
        rate = measure_memcpy(hip, dev, host)
        assert to_gbps(rate) == pytest.approx(28.3, rel=0.01)

    def test_d2h_symmetric(self, hip):
        host = hip.host_malloc(1 * GiB, HostMallocFlags.NON_COHERENT)
        dev = hip.malloc(1 * GiB)
        rate = measure_memcpy(hip, host, dev)
        assert to_gbps(rate) == pytest.approx(28.3, rel=0.01)

    def test_pageable_slower_and_varying(self, hip):
        rates = []
        for size in (64 * MiB, 128 * MiB, 256 * MiB):
            src = hip.pageable_malloc(size)
            dst = hip.malloc(size)
            rates.append(measure_memcpy(hip, dst, src))
        assert all(to_gbps(r) < 28.3 for r in rates)
        # Deterministic variation: distinct sizes give distinct rates.
        assert len({round(to_gbps(r), 3) for r in rates}) == 3

    def test_small_transfer_is_latency_bound(self, hip):
        host = hip.host_malloc(4 * KiB, HostMallocFlags.NON_COHERENT)
        dev = hip.malloc(4 * KiB)
        rate = measure_memcpy(hip, dev, host)
        assert to_gbps(rate) < 0.5  # dominated by the 10 us call latency

    def test_host_to_host(self, hip):
        a = hip.pageable_malloc(64 * MiB, numa_index=0)
        b = hip.pageable_malloc(64 * MiB, numa_index=2)
        rate = measure_memcpy(hip, b, a)
        assert to_gbps(rate) == pytest.approx(12.0, rel=0.05)

    def test_oversized_copy_rejected(self, hip):
        host = hip.host_malloc(1 * MiB)
        dev = hip.malloc(2 * MiB)
        with pytest.raises(HipError):
            hip.run(hip.memcpy(dev, host, 2 * MiB))

    def test_zero_byte_copy(self, hip):
        host = hip.host_malloc(1 * MiB)
        dev = hip.malloc(1 * MiB)

        def run():
            yield from hip.memcpy(dev, host, 0)
            return hip.now

        assert hip.run(run()) == pytest.approx(10e-6)  # latency only


class TestPeerCopies:
    @pytest.mark.parametrize(
        "dst,expected",
        [(2, 37.75), (6, 50.0), (1, 50.0)],
    )
    def test_sdma_tiers(self, hip, dst, expected):
        src_buf = hip.malloc(1 * GiB, device=0)
        dst_buf = hip.malloc(1 * GiB, device=dst)

        def run():
            t0 = hip.now
            yield from hip.memcpy_peer(dst_buf, dst, src_buf, 0)
            return (1 * GiB) / (hip.now - t0)

        assert to_gbps(hip.run(run())) == pytest.approx(expected, rel=0.01)

    def test_blit_kernel_uses_full_link(self):
        env = SimEnvironment(peer_sdma_enabled=False)
        hip = HipRuntime(HardwareNode(), env=env)
        src_buf = hip.malloc(1 * GiB, device=0)
        dst_buf = hip.malloc(1 * GiB, device=1)

        def run():
            t0 = hip.now
            yield from hip.memcpy_peer(dst_buf, 1, src_buf, 0)
            return (1 * GiB) / (hip.now - t0)

        # Quad link at kernel efficiency: 0.88 × 200 = 176 GB/s.
        assert to_gbps(hip.run(run())) == pytest.approx(176.0, rel=0.01)

    def test_same_device_peer_copy(self, hip):
        a = hip.malloc(256 * MiB, device=0)
        b = hip.malloc(256 * MiB, device=0)

        def run():
            t0 = hip.now
            yield from hip.memcpy_peer(b, 0, a, 0)
            return (256 * MiB) / (hip.now - t0)

        assert to_gbps(hip.run(run())) == pytest.approx(50.0, rel=0.02)

    def test_d2d_memcpy_routes_to_peer_path(self, hip):
        a = hip.malloc(1 * GiB, device=0)
        b = hip.malloc(1 * GiB, device=2)
        rate = measure_memcpy(hip, b, a)
        assert to_gbps(rate) == pytest.approx(37.75, rel=0.01)


class TestAsyncAndStreams:
    def test_async_copies_serialize_on_stream(self, hip):
        host = hip.host_malloc(256 * MiB, HostMallocFlags.NON_COHERENT)
        dev = hip.malloc(256 * MiB)
        stream = hip.stream_create(device=0)
        e1 = hip.memcpy_async(dev, host, None, MemcpyKind.HOST_TO_DEVICE, stream)
        e2 = hip.memcpy_async(host, dev, None, MemcpyKind.DEVICE_TO_HOST, stream)

        def run():
            yield e2
            return hip.now

        elapsed = hip.run(run())
        single = 256 * MiB / 28.3e9
        # Two serialized copies, not two parallel ones.
        assert elapsed == pytest.approx(2 * single, rel=0.05)

    def test_concurrent_h2d_d2h_overlap_on_distinct_streams(self, hip):
        host1 = hip.host_malloc(256 * MiB, HostMallocFlags.NON_COHERENT)
        host2 = hip.host_malloc(256 * MiB, HostMallocFlags.NON_COHERENT)
        dev1 = hip.malloc(256 * MiB)
        dev2 = hip.malloc(256 * MiB)
        s1 = hip.stream_create(device=0)
        s2 = hip.stream_create(device=0)
        e1 = hip.memcpy_async(dev1, host1, None, MemcpyKind.HOST_TO_DEVICE, s1)
        e2 = hip.memcpy_async(host2, dev2, None, MemcpyKind.DEVICE_TO_HOST, s2)

        def run():
            yield hip.engine.all_of([e1, e2])
            return hip.now

        elapsed = hip.run(run())
        single = 256 * MiB / 28.3e9
        # Opposite directions ride separate engines and link directions
        # — full overlap (then the NUMA port at 45 GB/s binds slightly).
        assert elapsed < 1.5 * single


class TestDeterministicHelpers:
    def test_pair_jitter_stable_and_bounded(self):
        assert pair_jitter(0, 1) == pair_jitter(0, 1)
        assert pair_jitter(0, 1) != pair_jitter(1, 0)
        for a in range(8):
            for b in range(8):
                assert 0.0 <= pair_jitter(a, b) < 1.0

    def test_pageable_variation_stable(self):
        assert pageable_variation(1024) == pageable_variation(1024)
        assert 0.0 <= pageable_variation(12345) < 1.0
