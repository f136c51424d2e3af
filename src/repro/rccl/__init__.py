"""Simulated RCCL: topology-aware ring collectives.

RCCL (AMD's fork of NCCL) builds communication *rings* over the xGMI
topology at communicator-init time and executes collectives as chunked
ring pipelines inside persistent GPU kernels — no SDMA engines, no MPI
matching, no IPC-mapping per message.  That architecture is why the
paper finds RCCL ahead of MPI for every collective except Broadcast
(Fig. 11), and why its latencies depend so strongly on *which* GCDs
participate (Fig. 12's 7→8-thread drop).

- :mod:`repro.rccl.ring` — the greedy widest-link ring search
  (deliberately heuristic, like RCCL's own pattern search: for some
  subsets — 3, 5, 6, 7 ranks — it produces a relayed segment between
  non-adjacent GCDs, and for the full 8-GCD node it finds the perfect
  all-direct ring).
- :mod:`repro.rccl.communicator` — ``ncclCommInitAll``-style setup,
  one rank per GCD.
- :mod:`repro.rccl.collectives` — Reduce / Broadcast / AllReduce /
  ReduceScatter / AllGather as ring pipelines on the simulated fabric.
- :mod:`repro.rccl.algorithms` — the collective-algorithm zoo: the
  registry (ring / tree / double binary tree / hierarchical ring), the
  RCCL-style topology-aware selector, and the ambient default used by
  ``--algorithm`` sweeps.
- :mod:`repro.rccl.tree` / :mod:`repro.rccl.hierarchical` — the
  non-ring allreduce patterns.
"""

from .ring import Ring, RingSegment, build_greedy_ring, build_optimal_ring
from .communicator import RcclCommunicator
from .collectives import RCCL_COLLECTIVES
from .algorithms import (
    RCCL_ALGORITHMS,
    check_algorithm,
    install_algorithm,
    select_algorithm,
    xgmi_islands,
)

__all__ = [
    "Ring",
    "RingSegment",
    "build_greedy_ring",
    "build_optimal_ring",
    "RcclCommunicator",
    "RCCL_COLLECTIVES",
    "RCCL_ALGORITHMS",
    "check_algorithm",
    "install_algorithm",
    "select_algorithm",
    "xgmi_islands",
]
