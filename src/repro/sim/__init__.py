"""Deterministic discrete-event simulation core.

The performance model of the whole library runs on this package:

- :mod:`repro.sim.engine` — a minimal process-based DES kernel
  (events, timeouts, generator processes, composition combinators).
- :mod:`repro.sim.fairshare` — pure max-min fair ("water-filling")
  bandwidth allocation with per-flow rate caps.
- :mod:`repro.sim.flow` — a fluid-flow network: flows occupy directed
  link channels along a route; rates are re-solved max-min fairly on
  every arrival/departure; completions are exact under piecewise-
  constant rates.
- :mod:`repro.sim.trace` — structured timeline tracing.

Everything is deterministic: same inputs → same event order → same
simulated clock readings, which is what lets the benchmark harness
reproduce the paper's matrices exactly from run to run.
"""

from .engine import (
    SimEngine,
    Event,
    Timeout,
    Process,
    AllOf,
    AnyOf,
    Interrupt,
)
from .fairshare import FlowSpec, max_min_fair_rates
from .flow import Flow, FlowNetwork
from .trace import TraceRecord, Tracer

__all__ = [
    "SimEngine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "FlowSpec",
    "max_min_fair_rates",
    "Flow",
    "FlowNetwork",
    "TraceRecord",
    "Tracer",
]
