"""Tests for the MPI transport model's path selection."""

import pytest

from repro.config import SimEnvironment
from repro.errors import MpiError
from repro.hardware.node import HardwareNode
from repro.hip.runtime import HipRuntime
from repro.mpi.comm import MpiWorld
from repro.mpi.p2p import TransportModel
from repro.units import GiB, KiB, MiB, to_gbps


@pytest.fixture
def transport():
    node = HardwareNode()
    return TransportModel(node, SimEnvironment()), HipRuntime(node)


class TestPlanning:
    def test_device_device_sdma_plan(self, transport):
        model, hip = transport
        src = hip.malloc(1 * MiB, device=0)
        dst = hip.malloc(1 * MiB, device=2)
        channels, cap = model.plan(src, dst, 1 * MiB)
        assert ("sdma", 0, "out") in channels
        assert to_gbps(cap) == pytest.approx(37.75)

    def test_device_device_blit_plan(self):
        node = HardwareNode()
        model = TransportModel(node, SimEnvironment(sdma_enabled=False))
        hip = HipRuntime(node)
        src = hip.malloc(1 * MiB, device=0)
        dst = hip.malloc(1 * MiB, device=1)
        channels, cap = model.plan(src, dst, 1 * MiB)
        assert all(c[0] != "sdma" for c in channels)
        # 0.87 × 0.88 × 200 GB/s.
        assert to_gbps(cap) == pytest.approx(0.87 * 176, rel=0.01)

    def test_host_to_device_plan(self, transport):
        model, hip = transport
        src = hip.host_malloc(1 * MiB, device=0)
        dst = hip.malloc(1 * MiB, device=3)
        channels, cap = model.plan(src, dst, 1 * MiB)
        assert ("sdma", 3, "in") in channels
        assert to_gbps(cap) == pytest.approx(28.3, rel=0.01)

    def test_device_to_host_plan(self, transport):
        model, hip = transport
        src = hip.malloc(1 * MiB, device=5)
        dst = hip.host_malloc(1 * MiB, device=0)
        channels, cap = model.plan(src, dst, 1 * MiB)
        assert ("sdma", 5, "out") in channels

    def test_host_host_plan(self, transport):
        model, hip = transport
        src = hip.host_malloc(1 * MiB, device=0)
        dst = hip.host_malloc(1 * MiB, device=6)
        channels, cap = model.plan(src, dst, 1 * MiB)
        assert ("socket",) in channels
        assert to_gbps(cap) == pytest.approx(12.0)

    def test_same_device_plan(self, transport):
        model, hip = transport
        src = hip.malloc(1 * MiB, device=4)
        dst = hip.malloc(1 * MiB, device=4)
        channels, cap = model.plan(src, dst, 1 * MiB)
        assert channels == [("hbm", 4)]

    def test_gpu_support_required_for_mixed(self):
        node = HardwareNode()
        model = TransportModel(node, SimEnvironment(mpich_gpu_support=False))
        hip = HipRuntime(node)
        src = hip.host_malloc(1 * MiB, device=0)
        dst = hip.malloc(1 * MiB, device=1)
        with pytest.raises(MpiError):
            model.plan(src, dst, 1 * MiB)

    def test_rendezvous_threshold(self, transport):
        model, _hip = transport
        assert model.rendezvous_handshake_latency(8 * KiB) == 0.0
        assert model.rendezvous_handshake_latency(8 * KiB + 1) > 0.0


class TestMixedEndToEnd:
    def test_host_to_device_message(self):
        """A rank sending from host memory into a peer's device buffer."""
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])
        size = 256 * MiB

        def main(ctx):
            if ctx.rank == 0:
                buf = ctx.hip.host_malloc(size)
                yield from ctx.barrier()
                t0 = ctx.now
                yield from ctx.send(buf, 1)
            else:
                buf = ctx.hip.malloc(size)
                yield from ctx.barrier()
                t0 = ctx.now
                yield from ctx.recv(buf, 0)
            return size / (ctx.now - t0)

        rate = world.run(main)[1]
        # Staged over the CPU link at the SDMA H2D rate.
        assert to_gbps(rate) == pytest.approx(28.3, rel=0.05)

    def test_host_to_host_message(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 4])
        size = 64 * MiB

        def main(ctx):
            buf = ctx.hip.host_malloc(size)
            yield from ctx.barrier()
            t0 = ctx.now
            if ctx.rank == 0:
                yield from ctx.send(buf, 1)
            else:
                yield from ctx.recv(buf, 0)
            return size / (ctx.now - t0)

        rate = world.run(main)[1]
        assert to_gbps(rate) == pytest.approx(12.0, rel=0.05)
