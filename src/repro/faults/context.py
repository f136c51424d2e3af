"""The fault-scenario spelling of the ambient simulation context.

:func:`install` is how ``repro inject`` and fault-sensitivity sweeps
make a scenario reach the nodes that measurement functions build
*internally*, without threading a ``faults=`` parameter through every
signature.  It holds no state of its own: the scenario lives in the
one :class:`~repro.context.SimContext`, which keys the cache, ships to
pool workers and isolates threads for all ambient settings alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..context import use

if TYPE_CHECKING:
    from .scenario import FaultScenario


@contextmanager
def install(scenario: "FaultScenario | None") -> Iterator["FaultScenario | None"]:
    """Make ``scenario`` ambient for the block.

    One :func:`repro.context.use` call: nests, restores on exit, and
    installing ``None`` shields inner code from an outer scenario.
    """
    with use(faults=scenario):
        yield scenario
