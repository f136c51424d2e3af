"""RCCL ring collectives against the max-rate closed form.

When no fabric channel of a step can bind, every segment flow runs at
its cap and the simulated time is Bienz et al.'s max-rate form
(:func:`repro.core.bounds.max_rate_collective_time`), to rounding.  The
check goes through no solver code, so it covers the all-capped regime
by a second route.  A degraded link makes channels bind; the form must
then stay a lower bound, since a rate never exceeds its cap.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology.presets as presets
from repro import Session
from repro.core.bounds import max_rate_collective_time
from repro.errors import BenchmarkError
from repro.faults import FaultScenario
from repro.units import KiB, MiB

REPO = Path(__file__).resolve().parents[2]
DEGRADE_XGMI = FaultScenario.load(
    REPO / "benchmarks" / "scenarios" / "degrade_xgmi.json"
)
COLLECTIVES = ("reduce", "reduce_scatter", "allgather", "allreduce", "broadcast")
TOPOLOGIES = {
    "node": presets.frontier_node(),
    "cluster2": presets.mi250x_cluster(nodes=2),
}


def simulate(topology, gcds, collective, nbytes, root, faults=None):
    """(simulated time, max-rate time) of one collective."""
    with Session(topology, faults=faults) as session:
        comm = session.rccl_communicator(gcds)
        if collective in ("reduce", "broadcast"):
            process = getattr(comm, collective)(nbytes, root)
        else:
            process = getattr(comm, collective)(nbytes)
        session.run(process)
        return session.now, max_rate_collective_time(comm, collective, nbytes, root)


@st.composite
def collectives(draw, topologies=tuple(TOPOLOGIES)):
    label = draw(st.sampled_from(topologies))
    members = TOPOLOGIES[label].num_gcds
    gcds = sorted(
        draw(st.sets(st.integers(0, members - 1), min_size=2, max_size=members))
    )
    nbytes = draw(
        st.one_of(
            st.sampled_from([1, 1 * KiB, 128 * KiB, 1 * MiB, 64 * MiB]),
            st.integers(min_value=1, max_value=64 * MiB),
        )
    )
    return (
        TOPOLOGIES[label],
        gcds,
        draw(st.sampled_from(COLLECTIVES)),
        nbytes,
        draw(st.sampled_from(gcds)),
    )


class TestMaxRateOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=collectives())
    def test_healthy_rings_match_the_closed_form(self, case):
        simulated, closed_form = simulate(*case)
        assert simulated == pytest.approx(closed_form, rel=1e-12, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(case=collectives(topologies=("node",)))
    def test_degraded_link_keeps_it_a_lower_bound(self, case):
        simulated, closed_form = simulate(*case, faults=DEGRADE_XGMI)
        assert simulated >= closed_form * (1 - 1e-12)

    def test_degraded_link_is_slower_than_the_closed_form(self):
        # gcd1-gcd3 at half rate binds the 1->3 segment of the ring.
        simulated, closed_form = simulate(
            TOPOLOGIES["node"], list(range(8)), "allreduce", 64 * MiB, 0,
            faults=DEGRADE_XGMI,
        )
        assert simulated > 1.5 * closed_form

    def test_relayed_64_gcd_ring(self):
        topology = presets.mi250x_cluster(nodes=8)
        simulated, closed_form = simulate(
            topology, list(range(64)), "allreduce", 1 * MiB, 0
        )
        assert simulated == pytest.approx(closed_form, rel=1e-12, abs=0.0)

    def test_unknown_collective_is_rejected(self):
        with Session() as session:
            comm = session.rccl_communicator([0, 1])
            with pytest.raises(BenchmarkError):
                max_rate_collective_time(comm, "alltoall", 1 * MiB)
