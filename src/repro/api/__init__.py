"""``repro.api`` — the versioned v1 surface of the simulator.

Everything a measurement script, figure driver, or service needs,
re-exported from one module with one import::

    from repro.api import Session, ObsConfig, RunnerConfig

    with Session("mi250x", obs=ObsConfig(trace=True, spans=True)) as s:
        src = s.hip.malloc(1 << 30, device=0)
        dst = s.hip.malloc(1 << 30, device=4)
        s.run(s.hip.memcpy_peer(dst, 4, src, 0))
        print(s.explain())

The surface is grouped by role:

**Front door** — :class:`Session` (one fully wired simulated machine),
:class:`ObsConfig` / :class:`RunnerConfig` (grouped construction
options), :data:`TOPOLOGY_PRESETS` / :func:`resolve_topology`.

**Topology as data** — :func:`load_topology` / :func:`dump_topology`
(the versioned ``repro-topology/1`` JSON/YAML schema, round-trip
fingerprint-identical with the code presets), :func:`install_topology`
(ambient topology context).

**Collective algorithms** — :data:`RCCL_ALGORITHMS`,
:func:`select_algorithm` (RCCL-style topology-aware choice),
:func:`install_algorithm` (ambient default for ``--algorithm`` runs).

**Sweeps** — :class:`SweepRunner`, :class:`SimPoint`,
:class:`ResultCache`.

**Fault injection** — :class:`FaultScenario` and its event types,
:class:`RetryPolicy`, :func:`install`.

**Observability** — :func:`capture` (ambient observation),
:class:`MetricsRegistry`, :class:`SpanRecorder`,
:func:`critical_path` / :func:`explain_spans` / :func:`blame_ranking`
(attribution), :func:`collect_report` / :func:`write_report`
(artifact reports), :func:`build_chrome_trace` /
:func:`write_chrome_trace` (Perfetto export).

**Digital twin** — :func:`load_telemetry` / :class:`TelemetryStream`
(the versioned ``repro-telemetry/1`` JSONL schema),
:func:`shadow_replay` (windowed replay with a per-link drift ledger),
:func:`fit_calibration` (the auto-calibrator),
:func:`synthesize_telemetry` (hardware-free streams from any figure
artifact), :func:`load_profile` / :func:`dump_profile` (fitted
``repro-calibration/1`` profiles with provenance).

Compatibility contract: within one :data:`API_VERSION`, names exported
here only gain parameters (keyword-only, defaulted) and never change
semantics; anything else in ``repro.*`` is internal layering that may
move between minor versions.
"""

from __future__ import annotations

from ..config import SimEnvironment
from ..configs import ObsConfig, RunnerConfig
from ..core.calibration import (
    CalibrationProfile,
    DEFAULT_CALIBRATION,
    dump_profile,
    load_profile,
)
from ..faults import (
    FaultScenario,
    LinkDegrade,
    LinkFail,
    PageMigrationStorm,
    RetryPolicy,
    SdmaStall,
    install,
)
from ..obs import (
    MetricsRegistry,
    SpanRecorder,
    blame_ranking,
    build_chrome_trace,
    capture,
    collect_report,
    critical_path,
    explain_spans,
    merge_snapshots,
    trace_experiment,
    write_chrome_trace,
    write_report,
)
from ..rccl import (
    RCCL_ALGORITHMS,
    install_algorithm,
    select_algorithm,
)
from ..runner import ResultCache, SimPoint, SweepRunner
from ..session import Session, TOPOLOGY_PRESETS, resolve_topology
from ..topology import (
    TOPOLOGY_SCHEMA,
    dump_topology,
    install_topology,
    load_topology,
    topology_from_json,
    topology_to_json,
)
from ..twin import (
    TelemetryStream,
    fit_calibration,
    load_telemetry,
    shadow_replay,
    synthesize_telemetry,
)

#: The version of this surface (bumped only on breaking changes).
API_VERSION = 1

__all__ = [
    "API_VERSION",
    # front door
    "Session",
    "ObsConfig",
    "RunnerConfig",
    "SimEnvironment",
    "CalibrationProfile",
    "DEFAULT_CALIBRATION",
    "TOPOLOGY_PRESETS",
    "resolve_topology",
    # topology as data
    "TOPOLOGY_SCHEMA",
    "load_topology",
    "dump_topology",
    "topology_from_json",
    "topology_to_json",
    "install_topology",
    # collective algorithms
    "RCCL_ALGORITHMS",
    "select_algorithm",
    "install_algorithm",
    # sweeps
    "SweepRunner",
    "SimPoint",
    "ResultCache",
    # fault injection
    "FaultScenario",
    "LinkDegrade",
    "LinkFail",
    "SdmaStall",
    "PageMigrationStorm",
    "RetryPolicy",
    "install",
    # observability
    "capture",
    "trace_experiment",
    "MetricsRegistry",
    "SpanRecorder",
    "merge_snapshots",
    "critical_path",
    "explain_spans",
    "blame_ranking",
    "collect_report",
    "write_report",
    "build_chrome_trace",
    "write_chrome_trace",
    # digital twin
    "TelemetryStream",
    "load_telemetry",
    "shadow_replay",
    "fit_calibration",
    "synthesize_telemetry",
    "load_profile",
    "dump_profile",
]
