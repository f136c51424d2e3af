"""The ambient simulation context: one slot for what a run runs under.

A paper artifact's numbers depend on which machine runs (the Fig. 1
node or a ``--topology`` file), which links are degraded (a fault
scenario), which collective pattern RCCL picks (``--algorithm``), and —
without changing any number — who is watching (an observation
capture).  Measurement functions build their own sessions internally,
so these four settings reach them *ambiently*: one frozen
:class:`SimContext` held in one :class:`contextvars.ContextVar`.

- :func:`active` always returns a context; the empty one means "no
  context".  :class:`~repro.hardware.node.HardwareNode` reads it for
  topology, faults and observation, and
  :class:`~repro.rccl.communicator.RcclCommunicator` for the algorithm.
- :func:`use` installs a copy with some fields replaced, nests, and
  restores the previous context on exit.  Installing ``None`` for a
  field shields inner code from an outer setting.  The public
  spellings (``install_topology``, ``install_algorithm``,
  ``faults.install``, ``obs.capture``) are one ``use`` call each.
- :meth:`SimContext.key_params` is the one cache-key rule: the
  ``__faults__``/``__topology__``/``__algorithm__`` pseudo-params a
  :class:`~repro.runner.SweepRunner` appends to each point's params.
  Observation is never keyed and never pickled, so the context ships
  to pool workers as plain data.

Being a ``ContextVar``, the slot is per thread (and per asyncio task):
concurrent ``repro serve`` jobs each see only their own context.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Iterator


@dataclass(frozen=True)
class SimContext:
    """What simulations built in this context run under.

    ``topology`` is a :class:`~repro.topology.node.NodeTopology`,
    ``faults`` a :class:`~repro.faults.FaultScenario`, ``algorithm`` a
    collective-algorithm name and ``obs`` an
    :class:`~repro.obs.capture.ObservationContext`; ``None`` leaves the
    setting at its default.
    """

    topology: Any = None
    faults: Any = None
    algorithm: str | None = None
    obs: Any = None

    def key_params(self) -> tuple[tuple[str, Any], ...]:
        """The cache-key pseudo-params of the set fields, in key order.

        The cache folds the scenario and topology in through their
        ``fingerprint()``, so a topology loaded from a file keys like
        the fingerprint-equal code preset.  An empty fault scenario
        injects nothing, so it keys like no scenario at all.
        """
        params: tuple[tuple[str, Any], ...] = ()
        if self.faults:
            params += (("__faults__", self.faults),)
        if self.topology is not None:
            params += (("__topology__", self.topology),)
        if self.algorithm is not None:
            params += (("__algorithm__", self.algorithm),)
        return params

    def __reduce__(self) -> tuple[Any, ...]:
        # Observation stays in the process that installed it.
        return (SimContext, (self.topology, self.faults, self.algorithm))


_ACTIVE: "ContextVar[SimContext]" = ContextVar(
    "repro_sim_context", default=SimContext()
)


def active() -> SimContext:
    """The installed context (the empty one when nothing is installed)."""
    return _ACTIVE.get()


@contextmanager
def use(**fields: Any) -> Iterator[SimContext]:
    """Install a copy of :func:`active` with ``fields`` replaced.

    Nests: the previous context is restored on exit, also when the
    body raises.
    """
    context = replace(_ACTIVE.get(), **fields)
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)


def resolve_default(topology: Any = None) -> Any:
    """``topology`` if given, else the ambient one, else the Fig. 1 node.

    The one topology fallback of measurement functions, figure drivers,
    sessions and nodes: an explicit argument always wins, an installed
    topology (``--topology`` runs) comes next, and the paper's MI250X
    node is the default — so every paper artifact is unchanged unless a
    topology was asked for.
    """
    if topology is None:
        topology = _ACTIVE.get().topology
        if topology is None:
            from .topology.presets import frontier_node

            return frontier_node()
    return topology
