"""Fault injection and graceful degradation.

The paper measures a *healthy* MI250X node; this package asks "and
when it isn't?".  A declarative :class:`FaultScenario` describes timed
link degradations/failures, SDMA engine stalls and page-migration
storms; a :class:`FaultInjector` replays them off the simulation clock
by driving the flow network's dynamic-capacity machinery
(:meth:`FlowNetwork.set_capacity`).  The communication layers respond:
MPI p2p and RCCL steps retry with exponential backoff
(:class:`RetryPolicy`), RCCL rebuilds its ring around failed links,
and HIP memcpys fall back from a stalled SDMA engine at a modeled
penalty.

Entry points::

    scenario = FaultScenario(
        events=(LinkFail("1-3", at=0.5e-3),), name="kill-1-3"
    )
    with repro.Session(faults=scenario) as s: ...   # one session
    SweepRunner(jobs=4, faults=scenario)            # a faulted sweep
    # repro inject fig06 --scenario chaos.json      # from the CLI

Scenario fingerprints fold into result-cache keys, so faulted and
healthy runs of the same point never collide in the cache.
"""

from .context import install
from .injector import FaultInjector, resolve_link
from .retry import NO_RETRY, RetryPolicy
from .scenario import (
    SCENARIO_SCHEMA,
    FaultEvent,
    FaultScenario,
    LinkDegrade,
    LinkFail,
    PageMigrationStorm,
    SdmaStall,
)


__all__ = [
    "FaultScenario",
    "FaultEvent",
    "FaultInjector",
    "LinkDegrade",
    "LinkFail",
    "SdmaStall",
    "PageMigrationStorm",
    "RetryPolicy",
    "NO_RETRY",
    "SCENARIO_SCHEMA",
    "install",
    "resolve_link",
]
