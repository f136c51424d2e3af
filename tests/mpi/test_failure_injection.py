"""Failure-injection tests for the MPI layer.

Distributed code fails in structured ways — unmatched messages,
deadlocks, mismatched collectives.  The simulator must *detect* these
rather than hang, because benchmark harness bugs would otherwise look
like performance anomalies.
"""

import pytest

from repro.errors import MpiError
from repro.hardware.node import HardwareNode
from repro.mpi.collectives import allreduce, broadcast
from repro.mpi.comm import MpiWorld
from repro.units import KiB, MiB


class TestDeadlockDetection:
    def test_recv_without_send(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            if ctx.rank == 1:
                yield from ctx.recv(buf, 0)  # rank 0 never sends
            return True

        with pytest.raises(MpiError, match="deadlock"):
            world.run(main)

    def test_mismatched_tags_deadlock(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            if ctx.rank == 0:
                yield from ctx.send(buf, 1, tag=1)
            else:
                yield from ctx.recv(buf, 0, tag=2)

        with pytest.raises(MpiError, match="deadlock"):
            world.run(main)

    def test_partial_collective_participation(self):
        """One rank skipping a collective deadlocks the communicator."""
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1, 2, 3])

        def main(ctx):
            send = ctx.hip.malloc(64 * KiB)
            recv = ctx.hip.malloc(64 * KiB)
            if ctx.rank != 3:  # rank 3 never joins
                yield from allreduce(ctx, send, recv, 64 * KiB)
            return True

        with pytest.raises(MpiError, match="deadlock"):
            world.run(main)

    def test_blocking_self_send_deadlocks(self):
        """A blocking rendezvous send to self with no posted recv."""
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * MiB)  # above the eager threshold
            if ctx.rank == 0:
                yield from ctx.send(buf, 0)
            return True

        with pytest.raises(MpiError, match="deadlock"):
            world.run(main)


class TestErrorPropagation:
    def test_rank_exception_surfaces(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            if ctx.rank == 1:
                raise RuntimeError("rank 1 exploded")
            yield ctx.engine.timeout(1e-6)
            return True

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            world.run(main)

    def test_root_mismatch_is_a_hang_not_corruption(self):
        """Ranks disagreeing on the broadcast root deadlock cleanly."""
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1, 2, 3])

        def main(ctx):
            buf = ctx.hip.malloc(64 * KiB)
            root = 0 if ctx.rank < 2 else 1
            yield from broadcast(ctx, buf, 64 * KiB, root=root)

        with pytest.raises(MpiError, match="deadlock"):
            world.run(main)


class TestResourceDiscipline:
    def test_many_iterations_do_not_leak_device_memory(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            send = ctx.hip.malloc(1 * MiB)
            recv = ctx.hip.malloc(1 * MiB)
            baseline = ctx.hip.node.gcd(ctx.gcd).hbm.allocated_bytes
            for _ in range(5):
                yield from allreduce(ctx, send, recv, 1 * MiB)
            return ctx.hip.node.gcd(ctx.gcd).hbm.allocated_bytes == baseline

        assert all(world.run(main))

    def test_ipc_cache_grows_once_per_buffer_peer(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(64 * KiB)
            for i in range(4):
                if ctx.rank == 0:
                    yield from ctx.send(buf, 1, tag=i)
                else:
                    yield from ctx.recv(buf, 0, tag=i)
            return True

        world.run(main)
        sender_cache = world._ipc_caches[0]
        assert sender_cache.map_events == 1
        assert sender_cache.lookup_events == 4
