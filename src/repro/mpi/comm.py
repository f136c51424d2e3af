"""MPI world, rank contexts and message matching.

:class:`MpiWorld` spawns one simulated process per rank, each bound to
a GCD (as the paper's OSU runs bind one rank per GPU) and owning its
own :class:`~repro.hip.runtime.HipRuntime` view of the shared node —
separate virtual address spaces, exactly like real processes, which is
what makes the IPC-mapping overhead (§VI) a real cost here.

Message semantics are MPICH-like:

- *eager* below the threshold: the send proceeds without waiting for
  the receiver (payload parked in a system buffer);
- *rendezvous* above: the payload flow starts only once both sides
  have posted, after an RTS/CTS handshake.

Matching is (source, tag) FIFO per destination.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional, Sequence

from ..config import SimEnvironment
from ..errors import LinkDownError, MpiError
from ..faults.retry import NO_RETRY, RetryPolicy
from ..hardware.node import HardwareNode
from ..hip.runtime import HipRuntime
from ..memory.buffer import Buffer
from ..sim.engine import Event
from .gpu_aware import IpcMapCache
from .p2p import TransportModel


class Request:
    """Non-blocking operation handle (MPI_Request)."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event

    @property
    def complete(self) -> bool:
        """Whether the operation has finished."""
        return self.event.processed

    def wait(self) -> Generator:
        """DES process: block until the operation completes.

        A failed operation (retry budget exhausted on a dead link)
        raises its failure here — both when the wait blocks (the engine
        throws at the yield) and when the failure already landed.
        """
        if not self.event.processed:
            yield self.event
        elif self.event.failure is not None:
            raise self.event.failure


class _SendRecord:
    __slots__ = ("src_rank", "buffer", "nbytes", "request_event", "posted_at")

    def __init__(
        self, src_rank: int, buffer: Buffer, nbytes: int, event: Event, now: float
    ) -> None:
        self.src_rank = src_rank
        self.buffer = buffer
        self.nbytes = nbytes
        self.request_event = event
        self.posted_at = now


class _RecvRecord:
    __slots__ = ("dst_rank", "buffer", "nbytes", "request_event")

    def __init__(
        self, dst_rank: int, buffer: Buffer, nbytes: int, event: Event
    ) -> None:
        self.dst_rank = dst_rank
        self.buffer = buffer
        self.nbytes = nbytes
        self.request_event = event


class MpiWorld:
    """A set of ranks over one simulated node."""

    def __init__(
        self,
        node: HardwareNode,
        env: SimEnvironment | None = None,
        *,
        rank_gcds: Sequence[int] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.node = node
        self.env = env if env is not None else SimEnvironment()
        if rank_gcds is None:
            rank_gcds = [g.index for g in self.node.topology.gcds()]
        if not rank_gcds:
            raise MpiError("world needs at least one rank")
        self.rank_gcds = tuple(rank_gcds)
        self.size = len(self.rank_gcds)
        self.retry = retry if retry is not None else NO_RETRY
        self.transport = TransportModel(self.node, self.env)
        self._calibration = self.node.calibration
        self._ipc_caches = [IpcMapCache(self._calibration) for _ in range(self.size)]
        self._runtimes: list[HipRuntime] = []
        for gcd in self.rank_gcds:
            runtime = HipRuntime(self.node, self.env)
            runtime.set_device(gcd)
            self._runtimes.append(runtime)
        # Matching state: keyed by (src, dst, tag).
        self._pending_sends: dict[tuple[int, int, int], deque[_SendRecord]] = {}
        self._pending_recvs: dict[tuple[int, int, int], deque[_RecvRecord]] = {}
        # Per-connection serialization: one in-flight payload per ordered
        # rank pair, like a real MPI virtual channel.  Without this, a
        # window of Isends would stripe one logical stream across the
        # fabric several times and report super-engine bandwidth.
        self._connection_tail: dict[tuple[int, int], Event] = {}
        # Barrier state.
        self._barrier_waiting = 0
        self._barrier_event: Event | None = None

    @property
    def engine(self):
        """The node's DES engine."""
        return self.node.engine

    def context(self, rank: int) -> "RankContext":
        """The :class:`RankContext` of one rank."""
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} outside world of size {self.size}")
        return RankContext(self, rank)

    # -- message matching ----------------------------------------------------

    def post_send(
        self, src_rank: int, dst_rank: int, tag: int, buffer: Buffer, nbytes: int
    ) -> Request:
        """Post a send; matches a pending recv or queues."""
        if not 0 <= dst_rank < self.size:
            raise MpiError(f"send to invalid rank {dst_rank}")
        event = self.engine.event()
        record = _SendRecord(src_rank, buffer, nbytes, event, self.engine.now)
        key = (src_rank, dst_rank, tag)
        recvs = self._pending_recvs.get(key)
        if recvs:
            recv = recvs.popleft()
            self._start_transfer(record, recv, dst_rank, tag)
        else:
            self._pending_sends.setdefault(key, deque()).append(record)
        return Request(event)

    def post_recv(
        self, dst_rank: int, src_rank: int, tag: int, buffer: Buffer, nbytes: int
    ) -> Request:
        """Post a receive; matches a pending send or queues."""
        if not 0 <= src_rank < self.size:
            raise MpiError(f"recv from invalid rank {src_rank}")
        event = self.engine.event()
        record = _RecvRecord(dst_rank, buffer, nbytes, event)
        key = (src_rank, dst_rank, tag)
        sends = self._pending_sends.get(key)
        if sends:
            send = sends.popleft()
            self._start_transfer(send, record, dst_rank, tag)
        else:
            self._pending_recvs.setdefault(key, deque()).append(record)
        return Request(event)

    def _start_transfer(
        self, send: _SendRecord, recv: _RecvRecord, dst_rank: int, tag: int
    ) -> None:
        if recv.nbytes < send.nbytes:
            raise MpiError(
                f"message truncation: sent {send.nbytes}, recv buffer "
                f"{recv.nbytes} (tag {tag})"
            )
        nbytes = send.nbytes
        connection = (send.src_rank, dst_rank)
        previous_tail = self._connection_tail.get(connection)
        done = self.engine.event()
        self._connection_tail[connection] = done

        def transfer() -> Generator:
            if previous_tail is not None and not previous_tail.processed:
                yield previous_tail
            spans = self.node.spans
            span = (
                spans.begin(
                    "mpi",
                    f"mpi:{send.src_rank}->{dst_rank}",
                    start=self.engine.now,
                    bytes=nbytes,
                    src=send.src_rank,
                    dst=dst_rank,
                    tag=tag,
                )
                if spans
                else None
            )
            # Host-side costs: matching overhead, GPU-pointer handling,
            # rendezvous handshake for large messages.
            cost = self._calibration.mpi_message_overhead
            if self.transport.needs_gpu_pointer_handling(send.buffer, recv.buffer):
                cost += self._ipc_caches[send.src_rank].cost_for_transfer(
                    send.buffer.address, dst_rank
                )
            cost += self.transport.rendezvous_handshake_latency(nbytes)
            yield self.engine.timeout(cost)
            # Payload, under the world's retry policy: a LinkDownError
            # (the fault injector zeroed a link mid-flight, or the
            # planned route crosses a dead link) costs one attempt and
            # an exponential backoff; the plan is recomputed on every
            # attempt, so a healed link lets the retry through.
            policy = self.retry
            attempt = 1
            while True:
                try:
                    yield from self.transport.execute(
                        send.buffer,
                        recv.buffer,
                        nbytes,
                        label=f"mpi:{send.src_rank}->{dst_rank}",
                        span=span,
                    )
                    break
                except LinkDownError as exc:
                    if not policy.allows_retry(attempt):
                        failure = MpiError(
                            f"mpi transfer {send.src_rank}->{dst_rank} "
                            f"(tag {tag}, {nbytes} bytes) failed after "
                            f"{attempt} attempt(s): {exc}"
                        )
                        failure.__cause__ = exc
                        if self.node.metrics:
                            self.node.metrics.counter(
                                "mpi/transfer_failures"
                            ).inc()
                        if span is not None:
                            spans.finish(span, self.engine.now)
                        send.request_event.fail(failure)
                        recv.request_event.fail(failure)
                        # The connection tail still resolves: later
                        # transfers on this rank pair proceed (and fail
                        # on their own if the link is still dead).
                        done.succeed(None)
                        return
                    if self.node.metrics:
                        self.node.metrics.counter("mpi/retries").inc()
                    delay = policy.delay(attempt)
                    attempt += 1
                    if delay > 0:
                        yield self.engine.timeout(delay)
            if span is not None:
                spans.finish(span, self.engine.now)
            send.request_event.succeed(nbytes)
            recv.request_event.succeed(nbytes)
            done.succeed(None)

        self.engine.process(transfer(), name=f"mpi-xfer-{send.src_rank}-{dst_rank}")

    # -- barrier -----------------------------------------------------------------

    def barrier_arrive(self) -> Event:
        """Register arrival; the returned event fires when all arrive."""
        if self._barrier_event is None:
            self._barrier_event = self.engine.event()
        event = self._barrier_event
        self._barrier_waiting += 1
        if self._barrier_waiting == self.size:
            self._barrier_waiting = 0
            self._barrier_event = None
            # Dissemination barrier: ceil(log2 n) rounds of host messages.
            rounds = max(1, (self.size - 1).bit_length())
            delay = rounds * self._calibration.mpi_message_overhead
            self.engine.call_after(delay, event.succeed, None)
        return event

    # -- program driver -----------------------------------------------------------

    def run(
        self, rank_main: Callable[["RankContext"], Generator]
    ) -> list[Any]:
        """SPMD launch: run ``rank_main`` on every rank, return values."""
        processes = []
        for rank in range(self.size):
            ctx = self.context(rank)
            processes.append(
                self.engine.process(rank_main(ctx), name=f"rank{rank}")
            )
        self.engine.run()
        results: list[Any] = []
        for rank, process in enumerate(processes):
            if not process.triggered:
                raise MpiError(f"rank {rank} deadlocked")
            if process.failure is not None:
                raise process.failure
            results.append(process.value)
        return results


class RankContext:
    """One rank's view of the world (its ``MPI_COMM_WORLD``)."""

    def __init__(self, world: MpiWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.gcd = world.rank_gcds[rank]
        self.hip = world._runtimes[rank]
        self._collective_seq = 0

    def next_collective_tag(self) -> int:
        """A fresh tag for one collective invocation.

        All ranks call collectives in the same order (SPMD), so the
        per-rank counters agree; distinct invocations get distinct
        tags and cannot cross-match when ranks drift.
        """
        self._collective_seq += 1
        return 0x1000 + self._collective_seq

    @property
    def engine(self):
        """The shared DES engine."""
        return self.world.engine

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.world.engine.now

    # -- point-to-point -------------------------------------------------------

    def isend(
        self, buffer: Buffer, dst: int, tag: int = 0, nbytes: int | None = None
    ) -> Request:
        """``MPI_Isend``."""
        if nbytes is None:
            nbytes = buffer.size
        return self.world.post_send(self.rank, dst, tag, buffer, nbytes)

    def irecv(
        self, buffer: Buffer, src: int, tag: int = 0, nbytes: int | None = None
    ) -> Request:
        """``MPI_Irecv``."""
        if nbytes is None:
            nbytes = buffer.size
        return self.world.post_recv(self.rank, src, tag, buffer, nbytes)

    def send(
        self, buffer: Buffer, dst: int, tag: int = 0, nbytes: int | None = None
    ) -> Generator:
        """``MPI_Send`` (blocking)."""
        request = self.isend(buffer, dst, tag, nbytes)
        yield from request.wait()

    def recv(
        self, buffer: Buffer, src: int, tag: int = 0, nbytes: int | None = None
    ) -> Generator:
        """``MPI_Recv`` (blocking)."""
        request = self.irecv(buffer, src, tag, nbytes)
        yield from request.wait()

    def sendrecv(
        self,
        send_buffer: Buffer,
        dst: int,
        recv_buffer: Buffer,
        src: int,
        tag: int = 0,
        nbytes: int | None = None,
    ) -> Generator:
        """``MPI_Sendrecv``: both directions concurrently."""
        send_req = self.isend(send_buffer, dst, tag, nbytes)
        recv_req = self.irecv(recv_buffer, src, tag, nbytes)
        yield self.engine.all_of([send_req.event, recv_req.event])

    def barrier(self) -> Generator:
        """``MPI_Barrier``."""
        event = self.world.barrier_arrive()
        if not event.processed:
            yield event
