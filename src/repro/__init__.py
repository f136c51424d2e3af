"""repro — simulator-based reproduction of *Understanding Data Movement
in AMD Multi-GPU Systems with Infinity Fabric* (Schieffer et al.,
SC 2024).

The package models an MI250X multi-GPU node — Infinity Fabric link
mesh, SDMA engines, NUMA domains, HBM, page migration — as a
deterministic discrete-event simulation, layers HIP-, MPI- and
RCCL-like runtimes on top, and reimplements every benchmark suite of
the paper's Table II against them.  ``repro.figures`` regenerates each
table and figure of the evaluation.

Quickstart — :class:`Session` wires the whole stack in one object, and
:mod:`repro.api` is the stable, versioned import surface::

    from repro.api import ObsConfig, Session

    with Session(topology="mi250x", obs=ObsConfig(trace=True)) as s:
        src = s.hip.malloc(1 << 30, device=0)
        dst = s.hip.malloc(1 << 30, device=4)
        s.run(s.hip.memcpy_peer(dst, 4, src, 0))
        print(s.now, s.stats())

    import repro
    result, text = repro.figures.run_and_report("fig06")

Layering (bottom → top):

``units/errors/config`` → ``topology`` → ``sim`` → ``core.calibration``
→ ``hardware`` → ``memory`` → ``hip`` → ``mpi``/``rccl`` →
``bench_suites`` → ``figures`` → ``core.methodology``; ``Session``
fronts the whole stack.
"""

from . import config, errors, units
from .config import SimEnvironment
from .configs import ObsConfig, RunnerConfig
from .core.calibration import (
    CalibrationProfile,
    DEFAULT_CALIBRATION,
    dump_profile,
    load_profile,
)
from .faults import (
    FaultScenario,
    LinkDegrade,
    LinkFail,
    PageMigrationStorm,
    RetryPolicy,
    SdmaStall,
)
from .hardware.node import HardwareNode
from .hip.runtime import HipRuntime
from .runner import ResultCache, SimPoint, SweepRunner
from .session import Session, TOPOLOGY_PRESETS, resolve_topology
from .sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    max_min_fair_rates,
    max_min_fair_rates as solve,
)
from .sim.trace import TraceRecord, Tracer
from .topology.presets import (
    dense_hive_node,
    frontier_node,
    mi250x_cluster,
    single_gpu_node,
)
from .twin import (
    TelemetryStream,
    fit_calibration,
    load_telemetry,
    shadow_replay,
    synthesize_telemetry,
)

__version__ = "0.11.0"

__all__ = [
    # The blessed surface.
    "Session",
    "ObsConfig",
    "RunnerConfig",
    "SweepRunner",
    "SimPoint",
    "ResultCache",
    "solve",
    "TraceRecord",
    "Tracer",
    "FairshareSolver",
    "FlowSpec",
    "max_min_fair_rates",
    "FaultScenario",
    "LinkDegrade",
    "LinkFail",
    "SdmaStall",
    "PageMigrationStorm",
    "RetryPolicy",
    "TelemetryStream",
    "load_telemetry",
    "shadow_replay",
    "fit_calibration",
    "synthesize_telemetry",
    "TOPOLOGY_PRESETS",
    "resolve_topology",
    "frontier_node",
    "single_gpu_node",
    "dense_hive_node",
    "mi250x_cluster",
    # Building blocks (still public, but Session is the front door).
    "config",
    "errors",
    "units",
    "SimEnvironment",
    "CalibrationProfile",
    "DEFAULT_CALIBRATION",
    "dump_profile",
    "load_profile",
    "HardwareNode",
    "HipRuntime",
    "__version__",
]
