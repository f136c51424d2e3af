"""Tests for the MPI world: matching, p2p semantics, barriers."""

import pytest

from repro.config import SimEnvironment
from repro.errors import MpiError
from repro.hardware.node import HardwareNode
from repro.mpi.comm import MpiWorld
from repro.units import GiB, KiB, MiB, to_gbps


class TestWorldSetup:
    def test_default_world_is_eight_ranks(self):
        world = MpiWorld(HardwareNode())
        assert world.size == 8
        assert world.rank_gcds == tuple(range(8))

    def test_each_rank_bound_to_its_gcd(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[3, 5])

        def main(ctx):
            return ctx.hip.physical_device()
            yield  # pragma: no cover

        assert world.run(main) == [3, 5]

    def test_empty_world_rejected(self):
        with pytest.raises(MpiError):
            MpiWorld(HardwareNode(), rank_gcds=[])

    def test_context_bounds(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])
        with pytest.raises(MpiError):
            world.context(2)


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * MiB)
            if ctx.rank == 0:
                yield from ctx.send(buf, 1, tag=7)
            else:
                yield from ctx.recv(buf, 0, tag=7)
            return ctx.now

        times = world.run(main)
        assert times[0] > 0 and times[1] > 0

    def test_recv_posted_first(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(64 * KiB)
            if ctx.rank == 1:
                request = ctx.irecv(buf, 0)
                yield from ctx.barrier()  # sender arrives later
                yield from request.wait()
            else:
                yield from ctx.barrier()
                yield from ctx.send(buf, 1)
            return True

        assert world.run(main) == [True, True]

    def test_message_truncation_detected(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            if ctx.rank == 0:
                big = ctx.hip.malloc(2 * MiB)
                yield from ctx.send(big, 1)
            else:
                small = ctx.hip.malloc(1 * MiB)
                yield from ctx.recv(small, 0)

        with pytest.raises(MpiError, match="truncation"):
            world.run(main)

    def test_invalid_rank(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(64)
            yield from ctx.send(buf, 5)

        with pytest.raises(MpiError):
            world.run(main)

    def test_tag_separation(self):
        """Messages with different tags match their own receivers."""
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            a = ctx.hip.malloc(64 * KiB)
            b = ctx.hip.malloc(128 * KiB)
            if ctx.rank == 0:
                ra = ctx.isend(a, 1, tag=1, nbytes=64 * KiB)
                rb = ctx.isend(b, 1, tag=2, nbytes=128 * KiB)
                yield from ra.wait()
                yield from rb.wait()
                return None
            # Post in reverse tag order: matching must be by tag.
            rb = ctx.irecv(b, 0, tag=2)
            ra = ctx.irecv(a, 0, tag=1)
            got_b = yield from _wait_value(rb)
            got_a = yield from _wait_value(ra)
            return (got_a, got_b)

        results = world.run(main)
        assert results[1] == (64 * KiB, 128 * KiB)

    def test_connection_serialization(self):
        """A window of Isends cannot exceed the single-copy rate."""
        world = MpiWorld(
            HardwareNode(), env=SimEnvironment(sdma_enabled=True), rank_gcds=[0, 1]
        )
        size = 256 * MiB

        def main(ctx):
            buf = ctx.hip.malloc(size)
            yield from ctx.barrier()
            t0 = ctx.now
            if ctx.rank == 0:
                requests = [ctx.isend(buf, 1, tag=i) for i in range(4)]
                for request in requests:
                    yield from request.wait()
            else:
                requests = [ctx.irecv(buf, 0, tag=i) for i in range(4)]
                for request in requests:
                    yield from request.wait()
            return 4 * size / (ctx.now - t0)

        rate = world.run(main)[0]
        # SDMA-capped quad-link copy: 50 GB/s — not 4 × 50.
        assert to_gbps(rate) == pytest.approx(50.0, rel=0.05)

    def test_sendrecv_concurrent(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])
        size = 256 * MiB

        def main(ctx):
            a = ctx.hip.malloc(size)
            b = ctx.hip.malloc(size)
            yield from ctx.barrier()
            t0 = ctx.now
            partner = 1 - ctx.rank
            yield from ctx.sendrecv(a, partner, b, partner)
            return ctx.now - t0

        elapsed = max(world.run(main))
        single = size / 50e9
        # Opposite directions overlap: much closer to 1× than 2×.
        assert elapsed < 1.3 * single


def _wait_value(request):
    yield from request.wait()
    return request.event.value


class TestBarrier:
    def test_barrier_synchronizes(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1, 2])

        def main(ctx):
            yield ctx.engine.timeout(float(ctx.rank))  # skewed arrivals
            yield from ctx.barrier()
            return ctx.now

        times = world.run(main)
        assert max(times) == min(times)
        assert min(times) > 2.0  # nobody leaves before the last arrival

    def test_barrier_reusable(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            for _ in range(3):
                yield from ctx.barrier()
            return True

        assert world.run(main) == [True, True]


class TestGpuAwareness:
    def test_device_buffers_require_gpu_support(self):
        env = SimEnvironment(mpich_gpu_support=False)
        world = MpiWorld(HardwareNode(), env=env, rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * MiB)
            if ctx.rank == 0:
                yield from ctx.send(buf, 1)
            else:
                yield from ctx.recv(buf, 0)

        with pytest.raises(MpiError, match="MPICH_GPU_SUPPORT"):
            world.run(main)

    def test_host_buffers_work_without_gpu_support(self):
        env = SimEnvironment(mpich_gpu_support=False)
        world = MpiWorld(HardwareNode(), env=env, rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.host_malloc(1 * MiB)
            if ctx.rank == 0:
                yield from ctx.send(buf, 1)
            else:
                yield from ctx.recv(buf, 0)
            return True

        assert world.run(main) == [True, True]

    def test_ipc_mapping_amortizes(self):
        """First message pays the map cost; repeats only the lookup."""
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])
        size = 64 * KiB

        def main(ctx):
            buf = ctx.hip.malloc(size)
            durations = []
            for i in range(3):
                yield from ctx.barrier()
                t0 = ctx.now
                if ctx.rank == 0:
                    yield from ctx.send(buf, 1, tag=i)
                else:
                    yield from ctx.recv(buf, 0, tag=i)
                durations.append(ctx.now - t0)
            return durations

        durations = world.run(main)[0]
        assert durations[0] > durations[1]
        assert durations[1] == pytest.approx(durations[2], rel=0.01)
