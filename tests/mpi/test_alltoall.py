"""Tests for the MPI_Alltoall extension."""

import pytest

from repro.errors import MpiError
from repro.hardware.node import HardwareNode
from repro.mpi.collectives import alltoall
from repro.mpi.comm import MpiWorld
from repro.units import KiB, MiB


def run_alltoall(num_ranks, nbytes=512 * KiB):
    world = MpiWorld(HardwareNode(), rank_gcds=list(range(num_ranks)))

    def main(ctx):
        send = ctx.hip.malloc(nbytes)
        recv = ctx.hip.malloc(nbytes)
        t0 = ctx.now
        yield from alltoall(ctx, send, recv, nbytes)
        return ctx.now - t0

    return world.run(main)


class TestAlltoall:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_completes_at_every_size(self, n):
        durations = run_alltoall(n)
        assert len(durations) == n
        assert all(d > 0 for d in durations)

    def test_single_rank_noop(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0])

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            yield from alltoall(ctx, buf, buf, 1 * KiB)
            return ctx.now

        assert world.run(main) == [0.0]

    def test_traffic_scales_sublinearly(self):
        """Each rank moves (n-1)/n × nbytes: going 2→8 ranks multiplies
        per-rank traffic by 1.75, not 4 — but adds steps and link
        contention; growth stays well below step-count growth."""
        two = max(run_alltoall(2, nbytes=4 * MiB))
        eight = max(run_alltoall(8, nbytes=4 * MiB))
        assert two < eight < 7 * two

    def test_undersized_buffers_rejected(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            send = ctx.hip.malloc(1 * KiB)
            recv = ctx.hip.malloc(1 * KiB)
            yield from alltoall(ctx, send, recv, 2 * KiB)

        with pytest.raises(MpiError):
            world.run(main)

    def test_via_osu_harness(self):
        """The OSU-style latency harness accepts the extension."""
        from repro.bench_suites.osu import osu_collective_latency

        latency = osu_collective_latency("alltoall", 4, message_bytes=256 * KiB)
        assert latency > 0
