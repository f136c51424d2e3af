"""Tests for the MPI collective algorithms.

Correctness here means *communication-structure* correctness: the
algorithms run to completion for every communicator size 2–8 and root,
move the right amount of data, and show the algorithmically expected
scaling (logarithmic rounds for trees, (n-1)/n traffic for ring and
pairwise).  Latency *values* are covered by the integration tests.
"""

import pytest

from repro.hardware.node import HardwareNode
from repro.mpi.collectives import (
    COLLECTIVES,
    allgather,
    allreduce,
    broadcast,
    reduce,
    reduce_scatter,
)
from repro.mpi.comm import MpiWorld
from repro.units import KiB, MiB

SIZES = list(range(2, 9))


def run_collective(name, num_ranks, nbytes=256 * KiB, root=0):
    world = MpiWorld(HardwareNode(), rank_gcds=list(range(num_ranks)))
    fn = COLLECTIVES[name]

    def main(ctx):
        send = ctx.hip.malloc(nbytes)
        recv = ctx.hip.malloc(nbytes)
        t0 = ctx.now
        if name == "broadcast":
            yield from fn(ctx, send, nbytes, root)
        elif name == "reduce":
            yield from fn(ctx, send, recv, nbytes, root)
        else:
            yield from fn(ctx, send, recv, nbytes)
        return ctx.now - t0

    return world.run(main)


class TestCompletion:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    @pytest.mark.parametrize("num_ranks", SIZES)
    def test_all_sizes_complete(self, name, num_ranks):
        durations = run_collective(name, num_ranks)
        assert len(durations) == num_ranks
        assert all(d >= 0 for d in durations)

    @pytest.mark.parametrize("name", ["broadcast", "reduce"])
    @pytest.mark.parametrize("root", [0, 3, 7])
    def test_nonzero_roots(self, name, root):
        durations = run_collective(name, 8, root=root)
        assert all(d >= 0 for d in durations)

    def test_single_rank_is_noop(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0])

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            yield from broadcast(ctx, buf, 1 * KiB)
            yield from allreduce(ctx, buf, buf, 1 * KiB)
            return ctx.now

        assert world.run(main) == [0.0]


class TestAlgorithmShape:
    def test_broadcast_rounds_are_logarithmic(self):
        """Tree depth grows with log2(n): 8 ranks ≈ 3× the 2-rank time
        (plus contention), not 7×."""
        two = max(run_collective("broadcast", 2, nbytes=4 * MiB))
        eight = max(run_collective("broadcast", 8, nbytes=4 * MiB))
        assert eight < 5.0 * two

    def test_allgather_traffic_scales_with_n_minus_1_over_n(self):
        """Ring allgather total time ∝ (n-1)/n × message: 8 ranks is
        far cheaper than 8× the 2-rank chunk time."""
        nbytes = 8 * MiB
        two = max(run_collective("allgather", 2, nbytes=nbytes))
        eight = max(run_collective("allgather", 8, nbytes=nbytes))
        # (7/8)/(1/2) = 1.75× the data, plus per-step overheads.
        assert eight < 3.0 * two

    def test_allreduce_power_of_two_beats_fallback(self):
        """Recursive doubling (n=8) beats reduce+broadcast (n=7) even
        with one more rank — the non-power-of-two penalty of Fig. 11."""
        seven = max(run_collective("allreduce", 7, nbytes=1 * MiB))
        eight = max(run_collective("allreduce", 8, nbytes=1 * MiB))
        assert eight < seven

    def test_reduce_scatter_chunks_shrink_with_ranks(self):
        nbytes = 8 * MiB
        four = max(run_collective("reduce_scatter", 4, nbytes=nbytes))
        eight = max(run_collective("reduce_scatter", 8, nbytes=nbytes))
        # More steps but smaller chunks: sub-linear growth.
        assert eight < 2.0 * four


class TestValidation:
    def test_bad_root(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            yield from broadcast(ctx, buf, 1 * KiB, root=5)

        from repro.errors import MpiError

        with pytest.raises(MpiError):
            world.run(main)

    def test_reduce_scatter_recv_too_small(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            send = ctx.hip.malloc(1 * MiB)
            recv = ctx.hip.malloc(1 * KiB)  # chunk is 512 KiB
            yield from reduce_scatter(ctx, send, recv, 1 * MiB)

        from repro.errors import MpiError

        with pytest.raises(MpiError):
            world.run(main)

    def test_scratch_buffers_are_freed(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1, 2, 3])

        def main(ctx):
            send = ctx.hip.malloc(1 * MiB)
            recv = ctx.hip.malloc(1 * MiB)
            before = ctx.hip.node.gcd(ctx.gcd).hbm.allocated_bytes
            yield from allreduce(ctx, send, recv, 1 * MiB)
            after = ctx.hip.node.gcd(ctx.gcd).hbm.allocated_bytes
            return before == after

        assert all(world.run(main))
