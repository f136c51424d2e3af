"""The collective-algorithm zoo: registry, selection, ambient default.

RCCL implements several allreduce patterns next to the classic ring and
picks between them at communicator-init time from the detected
topology.  The simulator mirrors that:

- ``"ring"`` — the paper-faithful greedy ring
  (:mod:`repro.rccl.collectives`); always the default, so every golden
  figure reproduces the paper bit-identically unless an algorithm is
  asked for explicitly.
- ``"tree"`` — binary-tree reduce-up/broadcast-down
  (:func:`repro.rccl.tree.tree_allreduce`).
- ``"double_binary_tree"`` — two complementary binary trees each
  carrying half the message
  (:func:`repro.rccl.tree.double_binary_tree_allreduce`).
- ``"hierarchical_ring"`` — intra-node ring stages bracketing an
  inter-node NIC exchange
  (:func:`repro.rccl.hierarchical.hierarchical_allreduce`).
- ``"auto"`` — :func:`select_algorithm`'s RCCL-style topology-aware
  choice by member count, link census and NIC presence.

:func:`install_algorithm` sets the ``algorithm`` field of the ambient
:class:`~repro.context.SimContext`: ``--algorithm`` sweeps install it
so communicators built deep inside measurement functions adopt the
selection without signature changes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from ..context import use
from ..errors import RcclError
from ..topology.node import NodeTopology

#: Selectable collective algorithms (``"auto"`` resolves to one of these).
RCCL_ALGORITHMS: tuple[str, ...] = (
    "ring",
    "tree",
    "double_binary_tree",
    "hierarchical_ring",
)


def check_algorithm(name: str) -> str:
    """Validate an algorithm name (``"auto"`` allowed); returns it."""
    if name == "auto" or name in RCCL_ALGORITHMS:
        return name
    known = ", ".join(RCCL_ALGORITHMS + ("auto",))
    raise RcclError(f"unknown collective algorithm {name!r} (known: {known})")


@contextmanager
def install_algorithm(name: "str | None") -> Iterator["str | None"]:
    """Make ``name`` the ambient default algorithm for the block.

    One :func:`repro.context.use` call: nests, restores on exit, and
    installing ``None`` shields inner code from an outer context.
    """
    if name is not None:
        check_algorithm(name)
    with use(algorithm=name):
        yield name


def xgmi_islands(
    topology: NodeTopology, members: Sequence[int]
) -> "list[list[int]]":
    """Group ``members`` by connected component of the xGMI-only graph.

    On a single node every GCD shares one xGMI component and this
    returns one island.  On a cluster the xGMI mesh of each node is its
    own component (nodes only meet over CPU+NIC hops), so the islands
    are exactly the per-node member groups — derived from link structure
    alone, which is what makes the hierarchical algorithms work on
    file-defined topologies with no "node" annotation.  Islands are
    sorted by their smallest member; members inside an island keep
    ascending order.
    """
    component_of = topology.compiled().xgmi_component
    groups: dict[int, list[int]] = {}
    for member in sorted(members):
        groups.setdefault(component_of[member], []).append(member)
    return sorted(groups.values(), key=lambda island: island[0])


def select_algorithm(topology: NodeTopology, members: Sequence[int]) -> str:
    """RCCL-style topology-aware algorithm choice.

    Decision order (documented in ``docs/modeling.md`` §15):

    1. Members spanning more than one xGMI island on a topology with
       NIC links → ``"hierarchical_ring"`` (amortise the slow NIC stage
       over fast intra-node rings).
    2. Four or fewer members → ``"tree"`` (latency-bound small groups;
       ``log2 n`` depth beats the ring's ``n`` steps).
    3. A link census where every member has at least two direct xGMI
       peers among the members → ``"ring"`` (an all-direct ring exists;
       the paper's 8-GCD regime).
    4. Otherwise → ``"double_binary_tree"`` (a sparse census forces
       relayed ring segments; two half-message trees spread the load
       over more links instead).
    """
    members = sorted(set(members))
    if len(members) < 2:
        return "ring"
    islands = xgmi_islands(topology, members)
    if len(islands) > 1 and next(iter(topology.nic_links()), None) is not None:
        return "hierarchical_ring"
    if len(members) <= 4:
        return "tree"
    peers = topology.compiled().xgmi_peers
    chosen = set(members)
    degree = [
        sum(1 for peer, _ in peers[member] if peer in chosen) for member in members
    ]
    if min(degree) >= 2:
        return "ring"
    return "double_binary_tree"
