"""Cluster collectives stay on the same solve path: pinned solver counters.

A 64 MiB ring allreduce on a 2-node cluster and a hierarchical-ring
allreduce on a 4-node cluster, each with its simulated time and the
seven counters ``perfbench`` pins for its full-size collectives
(``COLLECTIVE_COUNTERS`` in ``perfbench/workloads.py``).  The counters
prove that the same component solves run and that dirty-set replay
engages as often as before; a solver change that moves a solve, a
replay or a recorded round fails here, not only in the perfbench
guard.  Recompute the values with ``Session.stats()`` after the same
collective only for a change that is meant to move them.
"""

import pytest

from repro import Session
from repro.topology.presets import mi250x_cluster

ALLREDUCE_BYTES = 64 * 2**20
#: The counters ``perfbench`` pins per collective, in its order.
COUNTERS = (
    "events_delivered",
    "flows_added",
    "component_solves",
    "flows_releveled",
    "largest_component",
    "dirty_relevels",
    "replay_rounds",
)

PINNED = {
    (2, "ring"): {
        "sim_time": 0.008361722077922072,
        "events_delivered": 1563,
        "flows_added": 480,
        "component_solves": 870,
        "flows_releveled": 3810,
        "largest_component": 15,
        "dirty_relevels": 60,
        "replay_rounds": 240,
    },
    (4, "hierarchical_ring"): {
        "sim_time": 0.00932508020779221,
        "events_delivered": 1593,
        "flows_added": 472,
        "component_solves": 826,
        "flows_releveled": 2784,
        "largest_component": 8,
        "dirty_relevels": 56,
        "replay_rounds": 168,
    },
}


@pytest.mark.parametrize(("nodes", "algorithm"), sorted(PINNED))
def test_allreduce_counters_are_pinned(nodes, algorithm):
    with Session(mi250x_cluster(nodes=nodes)) as session:
        comm = session.rccl_communicator(algorithm=algorithm)
        session.run(comm.allreduce(ALLREDUCE_BYTES))
        stats = session.stats()
        observed = {"sim_time": session.now}
        observed.update((name, stats[name]) for name in COUNTERS)
    assert observed == PINNED[(nodes, algorithm)]
