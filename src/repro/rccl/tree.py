"""RCCL tree algorithm (extension beyond the paper's measurements).

RCCL, like NCCL, implements a second allreduce algorithm next to the
ring: a (double) binary tree, selected for small messages where the
ring's ``2(n-1)`` serialized steps dominate (``NCCL_ALGO=Tree``).  The
paper measures the default selection only; this module implements the
tree so the ablation benchmarks can quantify the ring/tree crossover
on the Fig. 1 topology.

The tree is built over the communicator's GCDs in index order (RCCL
builds its trees from the ring order); each tree edge is routed over
the fabric like a ring segment.  An allreduce is a reduce pass up the
tree followed by a broadcast pass down, pipelined in chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

from ..errors import RcclError
from ..topology.routing import bandwidth_maximizing_path
from .communicator import RcclCommunicator
from .ring import RingSegment


@dataclass(frozen=True)
class TreeNode:
    """One communicator member's position in the binary tree."""

    gcd: int
    parent: int | None
    children: tuple[int, ...]


def build_binary_tree(members: Sequence[int]) -> dict[int, TreeNode]:
    """In-order binary tree over ``members`` (index order).

    Node ``i``'s children are ``2i+1`` and ``2i+2`` in member order —
    the classic array-heap layout RCCL derives its trees from.
    """
    members = list(members)
    if len(members) < 1:
        raise RcclError("tree needs at least one member")
    nodes: dict[int, TreeNode] = {}
    for i, gcd in enumerate(members):
        parent = members[(i - 1) // 2] if i > 0 else None
        children = tuple(
            members[c] for c in (2 * i + 1, 2 * i + 2) if c < len(members)
        )
        nodes[gcd] = TreeNode(gcd, parent, children)
    return nodes


def tree_depth(nodes: dict[int, TreeNode]) -> int:
    """Longest leaf-to-root path length (edges)."""
    def depth_of(gcd: int) -> int:
        node = nodes[gcd]
        if not node.children:
            return 0
        return 1 + max(depth_of(c) for c in node.children)

    roots = [g for g, n in nodes.items() if n.parent is None]
    return depth_of(roots[0])


def _edge_segment(comm: RcclCommunicator, src: int, dst: int) -> RingSegment:
    route = bandwidth_maximizing_path(comm.node.topology, src, dst)
    return RingSegment(src, dst, route)


def _staged_edge_flows(
    comm: RcclCommunicator,
    stages: "list[list[tuple[RingSegment, int]]]",
    *,
    label: str,
) -> Generator:
    """Run pipeline stages of concurrent ``(segment, chunk)`` flows.

    Shared driver of the tree-family collectives: per stage, every
    listed segment moves its chunk concurrently (tree levels contend
    for links on the simulated fabric exactly like ring steps); then
    the per-step overhead — plus the relay penalty when any stage
    segment is relayed — elapses.  Span and metrics bookkeeping match
    :func:`repro.rccl.collectives._synchronized_steps`; the finished
    spans are also the collective's timeline records.
    """
    engine = comm.engine
    calibration = comm.calibration
    spans = comm.node.spans
    collective_span = (
        spans.begin("rccl", f"rccl:{label}", start=engine.now, steps=len(stages))
        if spans
        else None
    )
    yield engine.timeout(calibration.rccl_launch_overhead)
    for stage_index, stage in enumerate(stages):
        stage_span = (
            spans.begin(
                "rccl-step",
                f"{label}/stage{stage_index}",
                start=engine.now,
                parent=collective_span,
            )
            if spans
            else None
        )
        flows = [
            comm.node.start_flow(
                comm.node.gcd_to_gcd_channels(segment.src, segment.dst),
                chunk,
                cap=comm.segment_rate(segment),
                label=f"rccl-{label}:{segment.src}->{segment.dst}",
                span=stage_span,
            )
            for segment, chunk in stage
        ]
        yield engine.all_of([f.done for f in flows])
        relayed = any(segment.is_relayed for segment, _ in stage)
        extra = calibration.rccl_relay_penalty if relayed else 0.0
        yield engine.timeout(calibration.rccl_step_overhead + extra)
        if stage_span is not None:
            spans.finish(stage_span, engine.now)
    if collective_span is not None:
        spans.finish(collective_span, engine.now)
    metrics = comm.node.metrics
    if metrics:
        metrics.counter(f"rccl/{label}").inc()
        metrics.counter("rccl/steps").inc(len(stages))


def tree_allreduce(
    comm: RcclCommunicator,
    nbytes: int,
    sendbufs: "BufferMap | None" = None,
    recvbufs: "BufferMap | None" = None,
) -> Generator:
    """Binary-tree allreduce: chunked reduce-up + broadcast-down.

    Pipeline stages: ``2 × depth + (chunks - 1)`` levels, each level
    moving one chunk over every tree edge concurrently.  Latency scales
    with ``log2 n`` instead of the ring's ``n`` — the small-message
    regime where RCCL's tuner picks the tree.  ``sendbufs``/``recvbufs``
    enable the same functional payload contract as the ring allreduce.
    """
    from .collectives import _apply_reduction, _check, _check_buffers

    _check(comm, nbytes)
    _check_buffers(comm, sendbufs, nbytes, "send")
    _check_buffers(comm, recvbufs, nbytes, "recv")
    if comm.size == 1:
        if sendbufs is not None and recvbufs is not None:
            _apply_reduction(sendbufs, recvbufs, nbytes)
        return
    nodes = build_binary_tree(sorted(comm.gcds))
    depth = tree_depth(nodes)
    calibration = comm.calibration
    chunk = min(nbytes, calibration.rccl_chunk_bytes)
    num_chunks = -(-nbytes // chunk)

    # Every tree edge, used in both directions (up for reduce, down for
    # broadcast); built once.
    edges = [
        (
            _edge_segment(comm, node.gcd, node.parent),
            _edge_segment(comm, node.parent, node.gcd),
        )
        for node in nodes.values()
        if node.parent is not None
    ]
    stage = [(up, chunk) for up, _ in edges] + [(down, chunk) for _, down in edges]
    num_stages = 2 * depth + num_chunks - 1
    yield from _staged_edge_flows(
        comm, [stage] * num_stages, label="tree_allreduce"
    )
    _apply_reduction(sendbufs, recvbufs, nbytes)


def tree_broadcast(
    comm: RcclCommunicator,
    nbytes: int,
    root: int = 0,
    buffers: "BufferMap | None" = None,
) -> Generator:
    """Binary-tree broadcast: a chunk-pipelined down-pass from ``root``.

    The tree is built with the root at the heap apex (RCCL re-roots its
    trees per collective); stages: ``depth + (chunks - 1)``.  Unlike
    the ring broadcast there is no LL-protocol penalty — the tree's
    fan-out pattern keeps the send sides independent.
    """
    from .collectives import _check, _check_buffers

    _check(comm, nbytes, root)
    _check_buffers(comm, buffers, nbytes, "broadcast")
    if comm.size == 1:
        return
    ordered = [root] + [g for g in sorted(comm.gcds) if g != root]
    nodes = build_binary_tree(ordered)
    depth = tree_depth(nodes)
    calibration = comm.calibration
    chunk = min(nbytes, calibration.rccl_chunk_bytes)
    num_chunks = -(-nbytes // chunk)
    stage = [
        (_edge_segment(comm, node.parent, node.gcd), chunk)
        for node in nodes.values()
        if node.parent is not None
    ]
    num_stages = depth + num_chunks - 1
    yield from _staged_edge_flows(
        comm, [stage] * num_stages, label="tree_broadcast"
    )
    if buffers is not None and any(b.has_data for b in buffers.values()):
        source = buffers[root].ensure_data()[:nbytes]
        for gcd, buffer in buffers.items():
            if gcd != root:
                buffer.ensure_data()[:nbytes] = source


def build_double_binary_tree(
    members: Sequence[int],
) -> "tuple[dict[int, TreeNode], dict[int, TreeNode]]":
    """The two complementary trees of the double-binary-tree pattern.

    Tree 1 is the array-heap over members in ascending order; tree 2
    over *descending* order, so the heavily-loaded members near tree
    1's apex sit near tree 2's leaves and vice versa — the
    load-spreading idea behind NCCL/RCCL's double binary tree.
    """
    members = sorted(members)
    if len(members) < 1:
        raise RcclError("tree needs at least one member")
    return (
        build_binary_tree(members),
        build_binary_tree(list(reversed(members))),
    )


def double_binary_tree_allreduce(
    comm: RcclCommunicator,
    nbytes: int,
    sendbufs: "BufferMap | None" = None,
    recvbufs: "BufferMap | None" = None,
) -> Generator:
    """Double-binary-tree allreduce: two half-message trees in flight.

    The message is split in half; each half runs a reduce-up/
    broadcast-down pass on its own tree, both trees active in every
    stage.  Because the trees are complementary, each member is
    interior in at most one of them, which roughly doubles usable
    injection bandwidth over the single tree at large sizes.
    """
    from .collectives import _apply_reduction, _check, _check_buffers

    _check(comm, nbytes)
    _check_buffers(comm, sendbufs, nbytes, "send")
    _check_buffers(comm, recvbufs, nbytes, "recv")
    if comm.size == 1:
        if sendbufs is not None and recvbufs is not None:
            _apply_reduction(sendbufs, recvbufs, nbytes)
        return
    tree_one, tree_two = build_double_binary_tree(comm.gcds)
    calibration = comm.calibration
    half_one = nbytes - nbytes // 2
    half_two = nbytes // 2
    chunk_one = min(half_one, calibration.rccl_chunk_bytes)
    num_chunks = -(-half_one // chunk_one)
    chunk_two = min(half_two, calibration.rccl_chunk_bytes) if half_two else 0
    depth = max(tree_depth(tree_one), tree_depth(tree_two))

    stage: "list[tuple[RingSegment, int]]" = []
    for tree, chunk in ((tree_one, chunk_one), (tree_two, chunk_two)):
        if chunk <= 0:
            continue
        for node in tree.values():
            if node.parent is None:
                continue
            stage.append((_edge_segment(comm, node.gcd, node.parent), chunk))
            stage.append((_edge_segment(comm, node.parent, node.gcd), chunk))
    num_stages = 2 * depth + num_chunks - 1
    yield from _staged_edge_flows(
        comm, [stage] * num_stages, label="double_binary_tree_allreduce"
    )
    _apply_reduction(sendbufs, recvbufs, nbytes)


def tree_edge_count(num_members: int) -> int:
    """Edges in a binary tree of n members (n - 1)."""
    if num_members < 1:
        raise RcclError("tree needs at least one member")
    return num_members - 1
