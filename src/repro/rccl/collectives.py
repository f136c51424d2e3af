"""RCCL ring collectives as DES processes.

All five collectives execute on the communicator's ring:

- **AllReduce** — the classic ring: a reduce-scatter pass followed by
  an allgather pass, ``2(n-1)`` synchronized steps of ``S/n``-byte
  chunks.
- **ReduceScatter / AllGather** — one pass, ``n-1`` steps of ``S/n``.
- **Reduce** — one pass of ``S/n`` chunks accumulating toward the
  root.
- **Broadcast** — chunk-pipelined ring under the LL protocol (50 %
  bandwidth efficiency), which is why MPI's binomial tree beats it in
  Fig. 11b.

Each step launches one flow per ring segment on the simulated fabric,
so segments sharing a physical link contend for it; relayed segments
pay the relay penalty and the reduced FIFO rate.  Per-step and
per-call overheads come from the calibration profile.
"""

from __future__ import annotations

from typing import Generator, Mapping

from ..errors import LinkDownError, RcclError
from ..memory.buffer import Buffer
from .communicator import RcclCommunicator
from .ring import RingSegment

#: Per-GCD buffer maps for functional payload mode.
BufferMap = Mapping[int, Buffer]


def _check(comm: RcclCommunicator, nbytes: int, root: int | None = None) -> None:
    if nbytes <= 0:
        raise RcclError("collective size must be positive")
    if root is not None and root not in comm.gcds:
        raise RcclError(f"root GCD {root} not in communicator {comm.gcds}")


def _check_buffers(
    comm: RcclCommunicator, buffers: BufferMap | None, nbytes: int, name: str
) -> None:
    if buffers is None:
        return
    missing = set(comm.gcds) - set(buffers)
    if missing:
        raise RcclError(f"{name} buffers missing for GCDs {sorted(missing)}")
    for gcd, buffer in buffers.items():
        if buffer.size < nbytes:
            raise RcclError(
                f"{name} buffer on GCD {gcd} smaller than the message"
            )


def _apply_reduction(
    sendbufs: BufferMap | None, recvbufs: BufferMap | None, nbytes: int
) -> None:
    """Functional mode: recv[g] = elementwise sum of all send buffers.

    The chunk-level data flow is not simulated (the ring moves fluid
    bytes); the *result* is computed once the collective's simulated
    time has elapsed, which is the observable contract.
    """
    if sendbufs is None or recvbufs is None:
        return
    materialized = any(b.has_data for b in sendbufs.values()) or any(
        b.has_data for b in recvbufs.values()
    )
    if not materialized:
        return
    total = None
    for buffer in sendbufs.values():
        data = buffer.ensure_data()[:nbytes]
        total = data.copy() if total is None else total + data
    assert total is not None
    for buffer in recvbufs.values():
        buffer.ensure_data()[:nbytes] = total


def _segment_step(
    comm: RcclCommunicator, segment: RingSegment, chunk: int,
    rate_factor: float = 1.0,
    span: "object" = None,
) -> Generator:
    """One segment's work within a step: relay penalty + chunk flow.

    ``rate_factor`` scales the sustained rate; broadcast passes the LL
    protocol efficiency here.  ``span`` binds the segment's flow to
    the enclosing step span (causality + blame attribution).

    If the segment's route crosses a link that fails (a
    :class:`~repro.errors.LinkDownError` either at flow start or
    mid-flight), the communicator rebuilds its ring around the dead
    links and the step retries on the new segment under ``comm.retry``
    — the DES analogue of RCCL re-initialising the communicator after
    a fabric error.  The whole chunk is resent on retry.
    """
    policy = comm.retry
    attempt = 1
    while True:
        try:
            if segment.is_relayed:
                yield comm.engine.timeout(comm.calibration.rccl_relay_penalty)
            flow = comm.node.start_flow(
                comm.node.gcd_to_gcd_channels(segment.src, segment.dst),
                chunk,
                cap=comm.segment_rate(segment) * rate_factor,
                label=f"rccl:{segment.src}->{segment.dst}",
                span=span,
            )
            yield flow.done
            return
        except LinkDownError as exc:
            if not policy.allows_retry(attempt):
                raise RcclError(
                    f"ring segment {segment.src}->{segment.dst} failed "
                    f"after {attempt} attempt(s): {exc}"
                ) from exc
            if comm.node.metrics:
                comm.node.metrics.counter("rccl/segment_retries").inc()
            delay = policy.delay(attempt)
            attempt += 1
            if delay > 0:
                yield comm.engine.timeout(delay)
            comm.rebuild_ring()
            segment = comm.ring.segment_from(segment.src)


def _synchronized_steps(
    comm: RcclCommunicator, num_steps: int, chunk: int, *, label: str
) -> Generator:
    """Run ``num_steps`` ring steps; all segments active each step."""
    assert comm.ring is not None
    engine = comm.engine
    spans = comm.node.spans
    collective_span = (
        spans.begin(
            "rccl", f"rccl:{label}", start=engine.now, steps=num_steps, chunk=chunk
        )
        if spans
        else None
    )
    yield engine.timeout(comm.calibration.rccl_launch_overhead)
    for step in range(num_steps):
        step_span = (
            spans.begin(
                "rccl-step",
                f"{label}/step{step}",
                start=engine.now,
                parent=collective_span,
            )
            if spans
            else None
        )
        processes = [
            engine.process(_segment_step(comm, segment, chunk, span=step_span))
            for segment in comm.ring.segments
        ]
        yield engine.all_of(processes)
        yield engine.timeout(comm.calibration.rccl_step_overhead)
        if step_span is not None:
            spans.finish(step_span, engine.now)
    if collective_span is not None:
        spans.finish(collective_span, engine.now)
    metrics = comm.node.metrics
    if metrics:
        metrics.counter(f"rccl/{label}").inc()
        metrics.counter("rccl/steps").inc(num_steps)


def allreduce(
    comm: RcclCommunicator,
    nbytes: int,
    sendbufs: BufferMap | None = None,
    recvbufs: BufferMap | None = None,
) -> Generator:
    """Ring allreduce: reduce-scatter pass + allgather pass.

    ``sendbufs``/``recvbufs`` ({gcd: Buffer}) enable functional payload
    mode: every recv buffer ends holding the elementwise sum.
    """
    _check(comm, nbytes)
    _check_buffers(comm, sendbufs, nbytes, "send")
    _check_buffers(comm, recvbufs, nbytes, "recv")
    if comm.size == 1:
        if sendbufs is not None and recvbufs is not None:
            _apply_reduction(sendbufs, recvbufs, nbytes)
        return
    n = comm.size
    chunk = -(-nbytes // n)
    yield from _synchronized_steps(comm, 2 * (n - 1), chunk, label="allreduce")
    _apply_reduction(sendbufs, recvbufs, nbytes)


def reduce_scatter(comm: RcclCommunicator, nbytes: int) -> Generator:
    """Ring reduce-scatter: one pass of S/n chunks."""
    _check(comm, nbytes)
    if comm.size == 1:
        return
    n = comm.size
    chunk = -(-nbytes // n)
    yield from _synchronized_steps(comm, n - 1, chunk, label="reduce_scatter")


def allgather(comm: RcclCommunicator, nbytes: int) -> Generator:
    """Ring allgather: one pass of S/n chunks."""
    _check(comm, nbytes)
    if comm.size == 1:
        return
    n = comm.size
    chunk = -(-nbytes // n)
    yield from _synchronized_steps(comm, n - 1, chunk, label="allgather")


def reduce(comm: RcclCommunicator, nbytes: int, root: int = 0) -> Generator:
    """Ring reduce: one chunked pass accumulating toward the root."""
    _check(comm, nbytes, root)
    if comm.size == 1:
        return
    n = comm.size
    chunk = -(-nbytes // n)
    yield from _synchronized_steps(comm, n - 1, chunk, label="reduce")


def broadcast(
    comm: RcclCommunicator,
    nbytes: int,
    root: int = 0,
    buffers: BufferMap | None = None,
) -> Generator:
    """Chunk-pipelined ring broadcast under the LL protocol.

    The message travels from the root around the ring in
    ``rccl_chunk_bytes`` chunks; the pipeline needs
    ``(ring_length - 1) + (num_chunks - 1)`` stages.  Broadcast is a
    single-producer pattern, so RCCL selects the low-latency (LL)
    protocol, which interleaves a flag word with every data word and
    halves effective bandwidth — the reason MPI's binomial tree wins
    broadcast at 1 MiB (Fig. 11b) while RCCL wins everything else.
    """
    _check(comm, nbytes, root)
    _check_buffers(comm, buffers, nbytes, "broadcast")
    if comm.size == 1:
        return
    assert comm.ring is not None
    engine = comm.engine
    spans = comm.node.spans
    collective_span = (
        spans.begin("rccl", "rccl:broadcast", start=engine.now, bytes=nbytes)
        if spans
        else None
    )
    yield engine.timeout(comm.calibration.rccl_launch_overhead)
    ll = comm.calibration.rccl_ll_efficiency
    chunk = min(nbytes, comm.calibration.rccl_chunk_bytes)
    num_chunks = -(-nbytes // chunk)
    # Forward segments only: the chain from root around the ring,
    # excluding the segment that would re-enter the root.
    ordered = []
    current = root
    for _ in range(comm.size - 1):
        segment = comm.ring.segment_from(current)
        ordered.append(segment)
        current = segment.dst
    num_stages = len(ordered) + num_chunks - 1
    for stage in range(num_stages):
        stage_span = (
            spans.begin(
                "rccl-step",
                f"broadcast/stage{stage}",
                start=engine.now,
                parent=collective_span,
            )
            if spans
            else None
        )
        processes = [
            engine.process(
                _segment_step(comm, segment, chunk, rate_factor=ll, span=stage_span)
            )
            for segment in ordered
        ]
        yield engine.all_of(processes)
        yield engine.timeout(comm.calibration.rccl_step_overhead)
        if stage_span is not None:
            spans.finish(stage_span, engine.now)
    if collective_span is not None:
        spans.finish(collective_span, engine.now)
    if buffers is not None and any(b.has_data for b in buffers.values()):
        source = buffers[root].ensure_data()[:nbytes]
        for gcd, buffer in buffers.items():
            if gcd != root:
                buffer.ensure_data()[:nbytes] = source
    metrics = comm.node.metrics
    if metrics:
        metrics.counter("rccl/broadcast").inc()
        metrics.counter("rccl/steps").inc(num_stages)


#: Name → implementation registry (mirrors rccl-tests binaries).
RCCL_COLLECTIVES = {
    "reduce": reduce,
    "broadcast": broadcast,
    "allreduce": allreduce,
    "reduce_scatter": reduce_scatter,
    "allgather": allgather,
}
