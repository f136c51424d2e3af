"""RCCL communicator setup (ncclCommInitAll-style).

The rccl-tests harness the paper uses drives one CPU thread per GPU;
all threads join one communicator whose ring is fixed at init time.
:class:`RcclCommunicator` reproduces that: it owns the ring over the
selected GCDs and exposes the five collectives as DES processes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..config import SimEnvironment
from ..context import active
from ..errors import RcclError
from ..faults.retry import NO_RETRY, RetryPolicy
from ..hardware.node import HardwareNode
from .ring import Ring, build_greedy_ring


class RcclCommunicator:
    """One RCCL communicator over a set of GCDs."""

    def __init__(
        self,
        node: HardwareNode,
        gcds: Sequence[int] | None = None,
        *,
        env: SimEnvironment | None = None,
        ring_builder: Callable[..., Ring] = build_greedy_ring,
        retry: RetryPolicy | None = None,
        algorithm: str | None = None,
    ) -> None:
        self.node = node
        self.env = env if env is not None else SimEnvironment()
        if gcds is None:
            gcds = [g.index for g in self.node.topology.gcds()]
        if len(gcds) < 1:
            raise RcclError("communicator needs at least one GCD")
        self.gcds = tuple(gcds)
        self.retry = retry if retry is not None else NO_RETRY
        # Algorithm resolution: explicit argument beats the ambient
        # default (installed by --algorithm sweeps), which beats the
        # paper-faithful ring.  "auto" runs the RCCL-style selector at
        # init time, like RCCL's tuner fixing its pattern per
        # communicator.
        from .algorithms import check_algorithm, select_algorithm

        if algorithm is None:
            algorithm = active().algorithm
        resolved = check_algorithm(algorithm) if algorithm is not None else "ring"
        if resolved == "auto":
            resolved = select_algorithm(self.node.topology, self.gcds)
        self.algorithm = resolved
        self._ring_builder = ring_builder
        self.ring_rebuilds = 0
        if len(self.gcds) >= 2:
            # Plan around links already known dead; custom builders
            # without an avoid_links parameter keep working.
            avoid = self.node.failed_links()
            try:
                self.ring = ring_builder(
                    self.node.topology, self.gcds, avoid_links=avoid
                )
            except TypeError:
                self.ring = ring_builder(self.node.topology, self.gcds)
        else:
            self.ring = None

    @property
    def size(self) -> int:
        """Number of communicator members."""
        return len(self.gcds)

    @property
    def engine(self):
        """The node's DES engine."""
        return self.node.engine

    @property
    def calibration(self):
        """The node's calibration profile."""
        return self.node.calibration

    def rebuild_ring(self) -> Ring:
        """Rebuild the ring around the node's currently failed links.

        Called by the collectives when a step trips on a dead link
        (:class:`~repro.errors.LinkDownError`): the ring builder is
        re-run with ``avoid_links=node.failed_links()``, like RCCL
        re-running its pattern search on the degraded topology.  Custom
        ring builders that do not accept ``avoid_links`` are re-run
        unchanged (they may re-read topology state themselves).
        """
        if self.ring is None:
            raise RcclError("single-GCD communicator has no ring")
        avoid = self.node.failed_links()
        try:
            ring = self._ring_builder(
                self.node.topology, self.gcds, avoid_links=avoid
            )
        except TypeError:
            ring = self._ring_builder(self.node.topology, self.gcds)
        self.ring = ring
        self.ring_rebuilds += 1
        if self.node.metrics:
            self.node.metrics.counter("rccl/ring_rebuilds").inc()
        return ring

    def segment_rate(self, segment) -> float:
        """Sustained bytes/s of one ring segment's kernel pipeline.

        Direct segments run at the unidirectional kernel rate of the
        link; relayed segments (no direct link between the members)
        sustain only ``rccl_relay_efficiency`` of the path's kernel
        rate (the ring FIFO's flow-control window cannot cover the
        doubled round trip).
        """
        tier = self.node.bottleneck_tier(segment.route)
        rate = self.calibration.kernel_remote_cap(tier, bidirectional=False)
        if segment.is_relayed:
            rate *= self.calibration.rccl_relay_efficiency
        return rate

    def describe(self) -> str:
        """Ring summary (order, relays, bottleneck)."""
        if self.ring is None:
            return f"RcclCommunicator(single GCD {self.gcds[0]})"
        return (
            f"RcclCommunicator({self.size} GCDs, {self.algorithm}, "
            f"ring {self.ring.describe()}, "
            f"{self.ring.num_relayed} relayed segment(s), bottleneck "
            f"{self.ring.bottleneck_capacity / 1e9:.0f} GB/s)"
        )

    # Collective entry points are attached from .collectives (and the
    # tree/hierarchical modules) to keep algorithm code in one place.
    def allreduce(self, nbytes: int, sendbufs=None, recvbufs=None):
        """Allreduce via the communicator's selected algorithm.

        ``"ring"`` (paper default) → :mod:`repro.rccl.collectives`;
        ``"tree"``/``"double_binary_tree"`` → :mod:`repro.rccl.tree`;
        ``"hierarchical_ring"`` → :mod:`repro.rccl.hierarchical`.
        """
        if self.algorithm == "tree":
            from .tree import tree_allreduce

            return tree_allreduce(self, nbytes, sendbufs, recvbufs)
        if self.algorithm == "double_binary_tree":
            from .tree import double_binary_tree_allreduce

            return double_binary_tree_allreduce(self, nbytes, sendbufs, recvbufs)
        if self.algorithm == "hierarchical_ring":
            from .hierarchical import hierarchical_allreduce

            return hierarchical_allreduce(self, nbytes, sendbufs, recvbufs)
        from .collectives import allreduce

        return allreduce(self, nbytes, sendbufs, recvbufs)

    def reduce(self, nbytes: int, root: int = 0):
        """Ring reduce toward ``root``."""
        from .collectives import reduce

        return reduce(self, nbytes, root)

    def broadcast(self, nbytes: int, root: int = 0, buffers=None):
        """Broadcast from ``root``.

        The tree algorithms use the binary-tree down-pass; the ring
        algorithms use the LL-protocol pipelined ring the paper
        measures.
        """
        if self.algorithm in ("tree", "double_binary_tree"):
            from .tree import tree_broadcast

            return tree_broadcast(self, nbytes, root, buffers)
        from .collectives import broadcast

        return broadcast(self, nbytes, root, buffers)

    def reduce_scatter(self, nbytes: int):
        """Single-pass ring reduce-scatter."""
        from .collectives import reduce_scatter

        return reduce_scatter(self, nbytes)

    def allgather(self, nbytes: int):
        """Single-pass ring allgather."""
        from .collectives import allgather

        return allgather(self, nbytes)
