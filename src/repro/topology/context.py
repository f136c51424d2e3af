"""The topology spelling of the ambient simulation context.

:func:`install_topology` is how callers make a topology the default
for sessions that measurement functions build *internally* (fig06's
P2P matrix, fig11's per-collective sessions) — this is what ``repro
run fig11 --topology mi250x_node.json`` uses.  It holds no state of its
own: the topology lives in the one :class:`~repro.context.SimContext`,
which keys the cache, ships to pool workers and isolates threads for
all ambient settings alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..context import use

if TYPE_CHECKING:
    from .node import NodeTopology


@contextmanager
def install_topology(topology: "NodeTopology | None") -> Iterator["NodeTopology | None"]:
    """Make ``topology`` the ambient default for the block.

    One :func:`repro.context.use` call: nests, restores on exit, and
    installing ``None`` shields inner code from an outer topology.
    """
    with use(topology=topology):
        yield topology
