"""Hierarchical ring allreduce for multi-node (NIC-bridged) topologies.

On a cluster the flat greedy ring is forced to relay every inter-node
segment over CPU+NIC hops, so the whole ring crawls at NIC pace.  The
hierarchical pattern — what RCCL does when ``NCCL_CROSS_NIC``-style
rails are available — keeps the slow stage short instead:

1. **Intra-island reduce-scatter** — every xGMI island (= node; see
   :func:`repro.rccl.algorithms.xgmi_islands`) runs a ring
   reduce-scatter concurrently over its fast xGMI mesh.
2. **Inter-island leader allreduce** — the smallest member of each
   island joins a leader ring whose segments cross the NIC rails; a
   ring allreduce over the leaders combines the per-island partials.
3. **Intra-island allgather** — each island fans the combined result
   back out over xGMI, again concurrently across islands.

Only phase 2 touches the NICs, and it moves ``S/L``-byte chunks across
``L`` leaders instead of dragging all ``8L`` members through NIC-paced
ring steps.
"""

from __future__ import annotations

from typing import Generator

from .algorithms import xgmi_islands
from .collectives import (
    BufferMap,
    _apply_reduction,
    _check,
    _check_buffers,
    allgather,
    allreduce,
    reduce_scatter,
)
from .communicator import RcclCommunicator


def _island_communicators(
    comm: RcclCommunicator, islands: "list[list[int]]"
) -> "list[RcclCommunicator]":
    """One sub-communicator per island, sharing the parent's node."""
    return [
        RcclCommunicator(
            node=comm.node, gcds=island, env=comm.env, retry=comm.retry
        )
        for island in islands
    ]


def hierarchical_allreduce(
    comm: RcclCommunicator,
    nbytes: int,
    sendbufs: "BufferMap | None" = None,
    recvbufs: "BufferMap | None" = None,
) -> Generator:
    """Three-phase hierarchical allreduce (see module docstring).

    Falls back to the flat ring allreduce when the members share a
    single xGMI island — on one node the hierarchy has nothing to
    amortise and the flat ring is the paper-measured pattern.
    """
    _check(comm, nbytes)
    _check_buffers(comm, sendbufs, nbytes, "send")
    _check_buffers(comm, recvbufs, nbytes, "recv")
    islands = xgmi_islands(comm.node.topology, comm.gcds)
    if len(islands) < 2:
        yield from allreduce(comm, nbytes, sendbufs, recvbufs)
        return

    engine = comm.engine
    spans = comm.node.spans
    collective_span = (
        spans.begin(
            "rccl",
            "rccl:hierarchical_allreduce",
            start=engine.now,
            islands=len(islands),
            bytes=nbytes,
        )
        if spans
        else None
    )
    sub_comms = _island_communicators(comm, islands)
    leaders = [island[0] for island in islands]
    leader_comm = RcclCommunicator(
        node=comm.node, gcds=leaders, env=comm.env, retry=comm.retry
    )

    # Phase 1: concurrent per-island reduce-scatter over xGMI.
    yield engine.all_of(
        [
            engine.process(reduce_scatter(sub, nbytes))
            for sub in sub_comms
        ]
    )
    # Phase 2: leader ring allreduce — the only NIC-crossing phase.
    yield from allreduce(leader_comm, nbytes)
    # Phase 3: concurrent per-island allgather of the combined result.
    yield engine.all_of(
        [engine.process(allgather(sub, nbytes)) for sub in sub_comms]
    )

    if collective_span is not None:
        spans.finish(collective_span, engine.now)
    metrics = comm.node.metrics
    if metrics:
        metrics.counter("rccl/hierarchical_allreduce").inc()
    _apply_reduction(sendbufs, recvbufs, nbytes)
