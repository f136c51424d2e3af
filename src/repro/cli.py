"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the reproducible artifacts (tables/figures).
``run <artifact> [...]``
    Run one or more artifact drivers and print the paper-style report.
``methodology [steps...]``
    Run the three-step methodology (default: all steps).
``topology``
    Print the Fig. 1 node description and link inventory.
``calibration``
    Print the calibration profile with provenance summary.
``scenarios``
    List the what-if scenarios available for ablations.
``perf``
    Benchmark the simulation core itself (events/sec, flow churn,
    figure-sweep wall time); ``--json BENCH_core.json`` writes the report.
``cache``
    Inspect (``show``) or empty (``clear``) the on-disk result cache.
``trace <artifact> --out trace.json``
    Run one artifact with causal spans on and export a Perfetto/Chrome
    trace: one slice per span (per-GCD, per-copy-kind and per-collective
    tracks, blame in the slice args, causality arrows), per-link GB/s
    counter tracks, provenance in ``otherData``.
``report <artifact> [-o report.html] [--json report.json]``
    Run one artifact with causal spans on and write a self-contained
    run report: critical-path blame table, per-link utilization,
    validation PASS/FAIL lines, provenance.
``explain <artifact> [--span ID]``
    Run one artifact with spans on and print the ranked critical-path
    blame breakdown ("why did this take 840 µs").
``inject <artifact> --scenario chaos.json [--no-cache] [--explain]``
    Chaos run: replay a fault scenario (timed link failures/
    degradations, SDMA stalls, page-migration storms) against an
    artifact and print its paper-style report under faults.  Faulted
    results are cached under the scenario's fingerprint; ``--no-cache``
    bypasses the cache entirely.  ``--explain`` reruns with spans on
    and prints the blame table, where injected faults appear as
    ``fault:*`` buckets.

``shadow --telemetry FILE [--window SECONDS] [--json]``
    Digital-twin shadow mode: replay a ``repro-telemetry/1`` stream
    through the simulator and report per-link/per-tier/per-interface
    drift (predicted vs measured).  Exits non-zero when any ledger
    dimension drifts past ``--alert-threshold``.
``calibrate --telemetry FILE [--out profile.json]``
    Fit the calibration profile's efficiency constants to a telemetry
    stream (deterministic coordinate descent) and optionally write the
    fitted ``repro-calibration/1`` profile with provenance.

Artifact commands accept either registry ids (``fig11``) or driver
module names (``fig11_collectives``).

The sweep commands — ``run``, ``methodology``, ``validate``,
``report``, ``explain`` and ``inject`` — share one option vocabulary
(each flag spelled the same way everywhere): ``--jobs N`` (worker
processes; ``0``/``auto`` = all cores), ``--no-cache``,
``--cache-stats``, ``--metrics``, ``--scenario FILE`` (run
under a fault scenario), ``--topology FILE`` (run on a
``repro-topology/1`` file or preset name), ``--algorithm NAME``
(collective algorithm: ring/tree/double_binary_tree/hierarchical_ring/
auto), and ``--json [FILE]`` (machine-readable output to FILE or
stdout).  The sweep runner decomposes each artifact
into independent sim points, reuses cached point results, and
reassembles bit-identical reports regardless of job count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Sequence

from .core.calibration import DEFAULT_CALIBRATION
from .core.methodology import STEPS, Methodology
from .core.whatif import SCENARIOS, get_scenario
from .topology.presets import frontier_node


def _jobs_arg(value: str) -> int | str:
    """``--jobs`` values: a worker count, or ``auto`` for all cores."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"jobs must be an integer or 'auto', got {value!r}"
        ) from None


def _positive_int_arg(value: str) -> int:
    """An integer of at least 1 (``--trace-capacity``)."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return number


# Shared option vocabularies, as argparse parent parsers.  Every sweep
# command composes the same four parents, so a flag is spelled (and
# help-texted) once and behaves identically everywhere.


def _runner_options() -> argparse.ArgumentParser:
    """``--jobs/--no-cache/--cache-stats`` parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        metavar="N",
        help="worker processes for the sweep (0 or 'auto' = all cores)",
    )
    parent.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    parent.add_argument(
        "--cache-stats",
        action="store_true",
        help="print sweep-runner cache statistics afterwards",
    )
    return parent


def _obs_options() -> argparse.ArgumentParser:
    """``--metrics`` parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "capture per-point simulation metrics (engine/link/engine-"
            "occupancy counters) and print the aggregate afterwards"
        ),
    )
    return parent


def _scenario_options() -> argparse.ArgumentParser:
    """``--scenario FILE`` parent parser (fault injection)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        dest="fault_scenario",
        help="run under a fault scenario JSON file (repro.api.FaultScenario)",
    )
    return parent


def _topology_options() -> argparse.ArgumentParser:
    """``--topology/--algorithm`` parent parser (topology-as-data)."""
    from .rccl.algorithms import RCCL_ALGORITHMS

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--topology",
        default=None,
        metavar="FILE",
        dest="topology_spec",
        help=(
            "run every point on this topology: a repro-topology/1 "
            "JSON/YAML file (e.g. benchmarks/topologies/mi250x_node.json) "
            "or a preset name (mi250x-node, mi250x-cluster-N, ...)"
        ),
    )
    parent.add_argument(
        "--algorithm",
        choices=RCCL_ALGORITHMS + ("auto",),
        default=None,
        help=(
            "collective algorithm every communicator uses (default: the "
            "paper-faithful ring; 'auto' = RCCL-style topology-aware "
            "selection)"
        ),
    )
    return parent


def _telemetry_options() -> argparse.ArgumentParser:
    """``--telemetry FILE`` parent parser (digital-twin commands)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        dest="telemetry_path",
        help="repro-telemetry/1 JSONL stream (see repro.twin / docs §16)",
    )
    return parent


def _calibration_options() -> argparse.ArgumentParser:
    """``--calibration FILE`` parent parser (profile-as-data)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--calibration",
        default=None,
        metavar="FILE",
        dest="calibration_path",
        help=(
            "repro-calibration/1 profile JSON (e.g. written by "
            "'repro calibrate --out'); default: the built-in MI250X profile"
        ),
    )
    return parent


def _json_options() -> argparse.ArgumentParser:
    """``--json [FILE]`` parent parser (machine-readable output)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        dest="json_out",
        help=(
            "emit machine-readable results as JSON (to FILE, or stdout "
            "when no file is given)"
        ),
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Understanding Data Movement in AMD "
            "Multi-GPU Systems with Infinity Fabric' (SC 2024)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep_parents = [
        _runner_options(),
        _obs_options(),
        _scenario_options(),
        _topology_options(),
        _json_options(),
    ]

    sub.add_parser("list", help="list reproducible artifacts")

    run = sub.add_parser(
        "run", help="run artifact drivers", parents=sweep_parents
    )
    run.add_argument(
        "artifacts",
        nargs="+",
        metavar="ARTIFACT",
        help="artifact ids (fig01..fig12, tab01, tab02) or 'all'",
    )
    run.add_argument(
        "-o",
        "--output-dir",
        default=None,
        help="also write each report to <dir>/<artifact>.txt",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="append an ASCII chart to each report where applicable",
    )

    methodology = sub.add_parser(
        "methodology",
        help="run the three-step methodology",
        parents=sweep_parents,
    )
    methodology.add_argument(
        "steps",
        nargs="*",
        choices=list(STEPS) + [[]],
        metavar="STEP",
        help=f"subset of {sorted(STEPS)} (default: all)",
    )

    topology = sub.add_parser(
        "topology", help="print a node topology (default: Fig. 1 node)"
    )
    topology.add_argument(
        "spec",
        nargs="?",
        default=None,
        metavar="FILE",
        help=(
            "repro-topology/1 JSON/YAML file or preset name to describe "
            "(default: the Fig. 1 MI250X node)"
        ),
    )
    sub.add_parser("calibration", help="print the calibration profile")
    sub.add_parser("scenarios", help="list what-if scenarios")
    sub.add_parser("claims", help="list the paper claims and their tests")

    validate = sub.add_parser(
        "validate",
        help="run the system-validation battery",
        parents=sweep_parents,
    )
    validate.add_argument(
        "scenario",
        nargs="?",
        default="baseline",
        choices=sorted(SCENARIOS),
        help="what-if scenario to validate (default: baseline)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument(
        "action",
        nargs="?",
        default="show",
        choices=("show", "clear"),
        help="show cache contents (default) or delete every entry",
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    trace = sub.add_parser(
        "trace",
        help="run one artifact observed and export a Perfetto/Chrome trace",
    )
    trace.add_argument(
        "artifact",
        metavar="ARTIFACT",
        help="artifact id to trace (fig01..fig12, tab01, tab02)",
    )
    trace.add_argument(
        "-o",
        "--out",
        default="trace.json",
        metavar="FILE",
        help="output trace file (default: trace.json)",
    )
    trace.add_argument(
        "--trace-capacity",
        type=_positive_int_arg,
        default=None,
        metavar="N",
        help="keep only the N most recently finished spans per point",
    )
    trace.add_argument(
        "--check",
        action="store_true",
        help="validate the written file against the trace schema and exit",
    )

    report = sub.add_parser(
        "report",
        help="run one artifact with spans on and write a run report",
        parents=sweep_parents + [_telemetry_options(), _calibration_options()],
    )
    report.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="event-time window for the --telemetry drift section",
    )
    report.add_argument(
        "artifact",
        metavar="ARTIFACT",
        help="artifact id or module name (fig11, fig11_collectives, …)",
    )
    report.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help="HTML output file (default: report_<artifact>.html)",
    )
    report.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the validation battery section",
    )

    explain = sub.add_parser(
        "explain",
        help="run one artifact with spans on and print critical-path blame",
        parents=sweep_parents + [_calibration_options()],
    )
    explain.add_argument(
        "artifact",
        metavar="ARTIFACT",
        help="artifact id or module name (fig11, fig11_collectives, …)",
    )
    explain.add_argument(
        "--span",
        type=int,
        default=None,
        metavar="ID",
        help="restrict the breakdown to one span's subtree",
    )
    explain.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="blame entries to show (default: 10)",
    )

    inject = sub.add_parser(
        "inject",
        help="run one artifact under a fault scenario (chaos run)",
        parents=sweep_parents,
    )
    inject.add_argument(
        "artifact",
        metavar="ARTIFACT",
        help="artifact id or module name (fig06, fig11_collectives, …)",
    )
    inject.add_argument(
        "--explain",
        action="store_true",
        help="also print the critical-path blame table under the scenario",
    )
    inject.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="blame entries to show with --explain (default: 10)",
    )

    shadow = sub.add_parser(
        "shadow",
        help="replay a telemetry stream and report per-link model drift",
        parents=[
            _runner_options(),
            _topology_options(),
            _telemetry_options(),
            _calibration_options(),
            _json_options(),
        ],
    )
    shadow.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="replay in event-time windows of this length (default: one window)",
    )
    shadow.add_argument(
        "--alert-threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="per-dimension |drift| that raises an alert (default: 0.05)",
    )
    shadow.add_argument(
        "--top",
        type=int,
        default=8,
        metavar="N",
        help="per-link rows to print (default: 8)",
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="fit calibration efficiency constants to a telemetry stream",
        parents=[
            _topology_options(),
            _telemetry_options(),
            _calibration_options(),
            _json_options(),
        ],
    )
    calibrate.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the fitted repro-calibration/1 profile JSON here",
    )
    calibrate.add_argument(
        "--fields",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "fit only this efficiency field (repeatable; default: every "
            "field the stream is sensitive to)"
        ),
    )
    calibrate.add_argument(
        "--max-passes",
        type=int,
        default=None,
        metavar="N",
        help="coordinate-descent passes over the fields (default: 4)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived HTTP simulation service",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8042,
        help="bind port (default: 8042; 0 = ephemeral, printed on start)",
    )
    serve.add_argument(
        "--workers",
        type=_jobs_arg,
        default=4,
        metavar="N",
        help="job-queue worker threads (0 or 'auto' = schedulable CPUs)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help="bounded-queue admission limit (backpressure beyond it)",
    )
    serve.add_argument(
        "--quota-rate",
        type=float,
        default=50.0,
        metavar="PER_SECOND",
        help="per-tenant sustained submissions per second (default: 50)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=100.0,
        metavar="N",
        help="per-tenant burst allowance (token-bucket size, default: 100)",
    )
    serve.add_argument(
        "--runner-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per job's sweep (default: 1 — jobs "
        "already run concurrently on service threads)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result store (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared result store (every job recomputes)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a job to a running 'repro serve' and await it",
        parents=[_json_options()],
    )
    submit.add_argument(
        "kind",
        choices=("run", "sweep", "whatif", "shadow"),
        help="endpoint to submit to (POST /v1/<kind>)",
    )
    submit.add_argument(
        "targets",
        nargs="*",
        metavar="ARTIFACT",
        help="artifact id(s): one for run / whatif, several for sweep",
    )
    submit.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="service base URL (default: $REPRO_SERVE_URL or "
        "http://127.0.0.1:8042)",
    )
    submit.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="tenant the submission is charged to (X-Repro-Tenant)",
    )
    submit.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        dest="params",
        help="experiment parameter override (repeatable; VALUE parsed "
        "as JSON when possible)",
    )
    submit.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        dest="whatif_scenario",
        help="what-if scenario name (whatif submissions)",
    )
    submit.add_argument(
        "--algorithm",
        default=None,
        metavar="NAME",
        help="collective algorithm override (whatif submissions)",
    )
    submit.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        dest="topology_spec",
        help="topology preset name or file (whatif submissions)",
    )
    submit.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        dest="telemetry_path",
        help="repro-telemetry/1 JSONL file (shadow submissions)",
    )
    submit.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="event-time replay window (shadow submissions)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without polling",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long to await completion (default: 600)",
    )

    perf = sub.add_parser(
        "perf",
        help="benchmark the simulation core (events/sec, flow churn)",
        parents=[_json_options()],
    )
    perf.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down run for CI smoke checks (~seconds)",
    )
    perf.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "run only the named benchmark (repeatable; e.g. "
            "--only solver_scaling); the report carries just those "
            "sections and check_bench.py skips the rest"
        ),
    )
    return parser


def _cmd_list() -> int:
    from . import figures

    for artifact_id in figures.all_ids():
        experiment = figures.SUITE.get(artifact_id)
        print(f"{artifact_id:8s} {experiment.paper_artifact:10s} {experiment.title}")
    return 0


def _make_runner(
    args: argparse.Namespace, faults: Any = None, topology: Any = None
):
    from .runner import SweepRunner

    return SweepRunner(
        args.jobs,
        use_cache=not args.no_cache,
        capture_metrics=getattr(args, "metrics", False),
        faults=faults,
        topology=topology,
        algorithm=getattr(args, "algorithm", None),
    )


def _load_topology_arg(args: argparse.Namespace):
    """Resolve ``--topology FILE|preset`` if given; ``(topology, code)``.

    Mirrors :func:`_load_fault_scenario`: a ``None`` topology with exit
    code ``None`` means "no --topology requested"; a non-``None`` code
    means resolution failed and the command should return it.
    """
    spec = getattr(args, "topology_spec", None)
    if spec is None:
        return None, None
    from .errors import ConfigurationError, TopologyError
    from .session import resolve_topology

    try:
        return resolve_topology(spec), None
    except (OSError, ConfigurationError, TopologyError, ValueError) as exc:
        print(f"error: cannot load topology: {exc}", file=sys.stderr)
        return None, 2


def _load_fault_scenario(args: argparse.Namespace):
    """Load ``--scenario FILE`` if given; ``(scenario, exit_code)``.

    A ``None`` scenario with exit code ``None`` means "no scenario
    requested"; a non-``None`` exit code means loading failed and the
    command should return it.
    """
    path = getattr(args, "fault_scenario", None)
    if path is None:
        return None, None
    from .errors import ConfigurationError
    from .faults import FaultScenario

    try:
        return FaultScenario.load(path), None
    except (OSError, ConfigurationError, ValueError) as exc:
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        return None, 2


def _load_telemetry_arg(args: argparse.Namespace, *, required: bool = False):
    """Load ``--telemetry FILE`` if given; ``(stream, exit_code)``."""
    path = getattr(args, "telemetry_path", None)
    if path is None:
        if required:
            print(
                f"error: {args.command} requires --telemetry FILE",
                file=sys.stderr,
            )
            return None, 2
        return None, None
    from .errors import TelemetryError
    from .twin.schema import load_telemetry

    try:
        return load_telemetry(path), None
    except (OSError, TelemetryError, ValueError) as exc:
        print(f"error: cannot load telemetry: {exc}", file=sys.stderr)
        return None, 2


def _load_calibration_arg(args: argparse.Namespace):
    """Load ``--calibration FILE`` if given; ``(profile, exit_code)``."""
    path = getattr(args, "calibration_path", None)
    if path is None:
        return None, None
    from .core.calibration import load_profile
    from .errors import CalibrationError

    try:
        profile, _provenance = load_profile(path)
        return profile, None
    except (OSError, CalibrationError, ValueError) as exc:
        print(f"error: cannot load calibration: {exc}", file=sys.stderr)
        return None, 2


def _emit_json(payload: Any, json_out: str) -> None:
    """Write a ``--json`` payload to FILE, or stdout for ``-``."""
    import json

    text = json.dumps(payload, indent=1, default=str)
    if json_out == "-":
        print(text)
    else:
        with open(json_out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {json_out}")


def _print_runner_metrics(runner) -> None:
    """Render a runner's aggregated per-point metrics (``--metrics``)."""
    from .obs import format_snapshot

    print()
    if runner.stats.metrics is None:
        print(
            "no metrics captured (all points served from cache; "
            "re-run with --no-cache to re-measure)"
        )
        return
    print(format_snapshot(runner.stats.metrics))


def _cmd_run(
    artifact_ids: Sequence[str],
    output_dir: str | None = None,
    show_plot: bool = False,
    runner=None,
    cache_stats: bool = False,
    show_metrics: bool = False,
    json_out: str | None = None,
) -> int:
    from . import figures
    from .errors import BenchmarkError
    from .figures.plots import plot
    from .runner import SweepRunner

    known = figures.all_ids()
    if "all" in artifact_ids:
        artifact_ids = known
    else:
        artifact_ids = [figures.canonical_id(a) for a in artifact_ids]
    unknown = sorted(set(artifact_ids) - set(known))
    if unknown:
        print(
            f"error: unknown artifact(s): {', '.join(unknown)}\n"
            f"valid ids: {', '.join(known)} (or 'all')",
            file=sys.stderr,
        )
        return 2
    directory = None
    if output_dir is not None:
        import pathlib

        directory = pathlib.Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
    if runner is None:
        runner = SweepRunner()
    try:
        results = runner.run_many(list(artifact_ids))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if json_out is not None:
        _emit_json(
            {
                artifact_id: results[artifact_id].canonical()
                for artifact_id in dict.fromkeys(artifact_ids)
            },
            json_out,
        )
    for artifact_id in dict.fromkeys(artifact_ids):
        result = results[artifact_id]
        text = figures.report(artifact_id, result)
        if show_plot:
            chart = plot(artifact_id, result)
            if chart is not None:
                text = text + "\n\n" + chart
        if json_out != "-":
            print(text)
            print()
        if directory is not None:
            (directory / f"{artifact_id}.txt").write_text(text + "\n")
    if cache_stats:
        print(runner.stats.describe())
    if show_metrics:
        _print_runner_metrics(runner)
    return 0


def _cmd_methodology(
    steps: Sequence[str],
    runner=None,
    cache_stats: bool = False,
    show_metrics: bool = False,
    json_out: str | None = None,
) -> int:
    methodology = Methodology(list(steps) or None)
    report = methodology.run(runner=runner)
    if json_out is not None:
        _emit_json(
            {
                artifact_id: result.canonical()
                for artifact_id, result in report.results.items()
            },
            json_out,
        )
    if json_out != "-":
        print(report.text())
    if cache_stats and runner is not None:
        print(runner.stats.describe())
    if show_metrics and runner is not None:
        _print_runner_metrics(runner)
    return 0


def _cmd_topology(spec: str | None = None) -> int:
    if spec is None:
        topology = frontier_node()
    else:
        from .errors import ConfigurationError, TopologyError
        from .session import resolve_topology

        try:
            topology = resolve_topology(spec)
        except (OSError, ConfigurationError, TopologyError, ValueError) as exc:
            print(f"error: cannot load topology: {exc}", file=sys.stderr)
            return 2
    print(topology.describe())
    print(f"fingerprint: {topology.fingerprint()}")
    print()
    print("GCD-GCD bundles:")
    for link in topology.xgmi_links():
        print(
            f"  {link.a.index}-{link.b.index}: {link.tier.name.lower():7s}"
            f" ({link.capacity_per_direction / 1e9:.0f}+"
            f"{link.capacity_per_direction / 1e9:.0f} GB/s)"
        )
    nics = sum(1 for _ in topology.nic_links())
    if nics:
        print(f"inter-node NIC rails: {nics}")
    print("GCD -> NUMA affinity:", dict(
        (g.index, g.numa_domain) for g in topology.gcds()
    ))
    return 0


def _cmd_calibration() -> int:
    print(DEFAULT_CALIBRATION.describe())
    return 0


def _cmd_scenarios() -> int:
    for name in sorted(SCENARIOS):
        scenario = get_scenario(name)
        print(f"{name:24s} {scenario.description}")
    return 0


def _cmd_perf(
    smoke: bool,
    only: list[str] | None = None,
    json_out: str | None = None,
) -> int:
    from .perf.core import format_report, run_suite, write_report

    try:
        report = run_suite(smoke=smoke, only=only)
    except ValueError as exc:  # unknown --only name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if json_out == "-":
        import json

        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
        if json_out is not None:
            write_report(json_out, report)
            print(f"\nwrote {json_out}")
    return 0


def _cmd_validate(
    scenario_name: str,
    runner=None,
    cache_stats: bool = False,
    show_metrics: bool = False,
    json_out: str | None = None,
) -> int:
    from .core.validation import validate_node

    scenario = get_scenario(scenario_name)
    report = validate_node(
        scenario.topology, scenario.calibration, runner=runner
    )
    if json_out is not None:
        import json

        document = {"scenario": scenario.name, **report.as_dict()}
        text = json.dumps(document, indent=1)
        if json_out == "-":
            print(text)
        else:
            with open(json_out, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {json_out}")
    else:
        print(
            f"validating scenario {scenario.name!r}: {scenario.description}"
        )
        print(report.text())
    if cache_stats and runner is not None:
        print(runner.stats.describe())
    if show_metrics and runner is not None:
        _print_runner_metrics(runner)
    return 0 if report.passed else 1


def _cmd_trace(
    artifact: str,
    out: str,
    trace_capacity: int | None = None,
    check: bool = False,
) -> int:
    from . import obs
    from .errors import BenchmarkError

    artifact = _check_artifact(artifact)
    if artifact is None:
        return 2
    try:
        payload = obs.trace_experiment(artifact, trace_capacity=trace_capacity)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs.write_chrome_trace(out, payload)
    slices = sum(1 for e in payload["traceEvents"] if e.get("ph") == "X")
    counters = sum(1 for e in payload["traceEvents"] if e.get("ph") == "C")
    print(
        f"wrote {out}: {slices} slice(s), {counters} counter sample(s) "
        f"— open at https://ui.perfetto.dev or chrome://tracing"
    )
    if check:
        import json

        problems = obs.validate_chrome_trace(json.loads(open(out).read()))
        if problems:
            for problem in problems:
                print(f"schema problem: {problem}", file=sys.stderr)
            return 1
        print("schema check passed")
    return 0


def _check_artifact(artifact: str) -> str | None:
    """Resolve an artifact name/alias; print an error for unknown ones."""
    from . import figures

    experiment_id = figures.canonical_id(artifact)
    known = figures.all_ids()
    if experiment_id not in known:
        print(
            f"error: unknown artifact {artifact!r}\n"
            f"valid ids: {', '.join(known)}",
            file=sys.stderr,
        )
        return None
    return experiment_id


def _cmd_report(
    artifact: str,
    out: str | None,
    json_out: str | None,
    no_validate: bool,
    jobs: int | str | None,
    faults: Any = None,
    topology: Any = None,
    algorithm: str | None = None,
    calibration_path: str | None = None,
    telemetry: Any = None,
    window: float | None = None,
) -> int:
    from . import obs
    from .errors import BenchmarkError

    experiment_id = _check_artifact(artifact)
    if experiment_id is None:
        return 2
    if out is None and json_out is None:
        out = f"report_{experiment_id}.html"
    try:
        report = obs.collect_report(
            experiment_id,
            jobs=jobs,
            validate=not no_validate,
            faults=faults,
            topology=topology,
            algorithm=algorithm,
            # The path (not the loaded profile) keeps the file's
            # provenance block in the report's calibration section.
            calibration=calibration_path,
            telemetry=telemetry,
            window=window,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if json_out == "-":
        _emit_json(report, json_out)
        json_out = None
    written = obs.write_report(report, html_path=out, json_path=json_out)
    for path in written:
        print(f"wrote {path}")
    print()
    print(report["explain"])
    cal = report.get("calibration") or {}
    line = (
        f"calibration: {cal.get('source', 'default')} "
        f"({str(cal.get('fingerprint', ''))[:12]})"
    )
    if "final_rms" in cal:
        line += f", residual RMS {float(cal['final_rms']):.3%}"
    print(line)
    drift = report.get("drift")
    if drift:
        overall = drift.get("overall") or {}
        print(
            f"shadow drift vs {drift.get('telemetry')!r}: "
            f"mean |e| {float(overall.get('mean_abs_drift', 0.0)):.3%}, "
            f"max |e| {float(drift.get('max_abs_drift', 0.0)):.3%}, "
            f"{len(drift.get('alerts') or [])} alert(s)"
        )
    validation = report.get("validation")
    if validation is not None and not validation["passed"]:
        print(
            f"validation: {validation['failed']} of {validation['total']} "
            "check(s) FAILED",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_explain(
    artifact: str,
    span_id: int | None,
    top: int,
    jobs: int | str | None,
    faults: Any = None,
    topology: Any = None,
    algorithm: str | None = None,
    json_out: str | None = None,
    calibration_path: str | None = None,
) -> int:
    from . import obs
    from .errors import BenchmarkError
    from .obs.report import calibration_block

    experiment_id = _check_artifact(artifact)
    if experiment_id is None:
        return 2
    try:
        text = obs.explain_artifact(
            experiment_id,
            span_id=span_id,
            jobs=jobs,
            top=top,
            faults=faults,
            topology=topology,
            algorithm=algorithm,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    cal = calibration_block(calibration_path)
    cal_line = (
        f"calibration: {cal.get('source', 'default')} "
        f"({str(cal.get('fingerprint', ''))[:12]})"
    )
    if "final_rms" in cal:
        cal_line += f", residual RMS {float(cal['final_rms']):.3%}"
    if json_out is not None:
        _emit_json(
            {
                "artifact": experiment_id,
                "span": span_id,
                "explain": text,
                "calibration": cal,
            },
            json_out,
        )
        if json_out == "-":
            return 0
    print(text)
    print(cal_line)
    return 0


def _cmd_inject(
    artifact: str,
    scenario: Any,
    explain: bool,
    top: int,
    runner,
    json_out: str | None = None,
) -> int:
    from . import figures, obs
    from .errors import (
        BenchmarkError,
        MpiError,
        RcclError,
        SimulationError,
    )

    experiment_id = _check_artifact(artifact)
    if experiment_id is None:
        return 2
    quiet = json_out == "-"
    if not quiet:
        print(
            f"injecting scenario {scenario.name!r} "
            f"({len(scenario)} event(s), fingerprint "
            f"{scenario.fingerprint()[:12]}) into {experiment_id}"
        )
        for line in scenario.describe().splitlines():
            print(f"  {line}")
        print()
    try:
        result = runner.run_experiment(experiment_id)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, MpiError, RcclError) as exc:
        print(
            f"error: scenario {scenario.name!r} killed the run: {exc}",
            file=sys.stderr,
        )
        print(
            "hint: transfers without a RetryPolicy die when a link fails"
            " mid-flight; use link_degrade for recoverable pressure, or"
            " drive MPI/RCCL with retry= via the Session API",
            file=sys.stderr,
        )
        return 1
    if json_out is not None:
        _emit_json({experiment_id: result.canonical()}, json_out)
    if not quiet:
        print(figures.report(experiment_id, result))
        if explain:
            print()
            print(
                obs.explain_artifact(
                    experiment_id, jobs=runner.jobs, top=top, faults=scenario
                )
            )
    return 0


def _cmd_shadow(
    telemetry: Any,
    calibration: Any,
    topology: Any,
    window: float | None,
    alert_threshold: float | None,
    top: int,
    runner,
    cache_stats: bool = False,
    json_out: str | None = None,
) -> int:
    from .errors import TelemetryError
    from .twin.replay import DEFAULT_ALERT_THRESHOLD, shadow_replay

    try:
        report = shadow_replay(
            telemetry,
            topology=topology,
            calibration=calibration,
            window=window,
            alert_threshold=(
                alert_threshold
                if alert_threshold is not None
                else DEFAULT_ALERT_THRESHOLD
            ),
            runner=runner,
        )
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if json_out is not None:
        _emit_json(report.to_json(), json_out)
    if json_out != "-":
        print(report.describe(top=top))
    if cache_stats and runner is not None:
        print(runner.stats.describe())
    # Drift above threshold is the condition shadow mode exists to
    # surface — make it the exit status so CI can gate on it.
    return 1 if report.alerts else 0


def _cmd_calibrate(
    telemetry: Any,
    base: Any,
    topology: Any,
    fields: list[str] | None,
    max_passes: int | None,
    out: str | None,
    json_out: str | None = None,
) -> int:
    from .core.calibration import dump_profile
    from .errors import CalibrationError, TelemetryError
    from .twin.calibrate import fit_calibration

    kwargs: dict[str, Any] = {}
    if max_passes is not None:
        kwargs["max_passes"] = max_passes
    try:
        fit = fit_calibration(
            telemetry, topology=topology, base=base, fields=fields, **kwargs
        )
    except (CalibrationError, TelemetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if json_out is not None:
        _emit_json(fit.to_json(), json_out)
    if json_out != "-":
        print(fit.describe())
    if out is not None:
        dump_profile(fit.profile, out, provenance=fit.provenance())
        print(f"wrote {out}")
    return 0


def _cmd_cache(action: str, cache_dir: str | None = None) -> int:
    from .runner import ResultCache

    cache = ResultCache(cache_dir)
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    print(cache.describe())
    return 0


#: Default service URL the ``submit`` verb talks to.
SERVE_URL_ENV = "REPRO_SERVE_URL"
DEFAULT_SERVE_URL = "http://127.0.0.1:8042"


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServiceConfig, SimService, create_server, serve_forever

    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_limit,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        runner_jobs=args.runner_jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    try:
        service = SimService(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = create_server(service, host=args.host, port=args.port)
    except OSError as exc:
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        service.close()
        return 2
    server.verbose = args.verbose
    host, port = server.server_address[:2]
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"({service.queue.capacity} queue slots, "
        f"{len(service.queue._threads)} worker(s), store "
        f"{'disabled' if args.no_cache else 'shared'}); "
        f"SIGTERM drains gracefully",
        flush=True,
    )
    serve_forever(server)
    print("repro serve: drained, bye")
    return 0


def _parse_param_overrides(pairs: "Sequence[str] | None") -> dict:
    """``--param key=value`` pairs (values parsed as JSON, else str)."""
    import json

    params: dict = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--param expects KEY=VALUE, got {pair!r}"
            )
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _submit_payload(args: argparse.Namespace) -> dict:
    """Build the POST body for one ``repro submit`` invocation."""
    params = _parse_param_overrides(args.params)
    if args.kind == "run":
        if len(args.targets) != 1:
            raise ValueError("submit run takes exactly one artifact id")
        return {"artifact": args.targets[0], "params": params}
    if args.kind == "sweep":
        if not args.targets:
            raise ValueError("submit sweep takes one or more artifact ids")
        return {"artifacts": list(args.targets), "params": params}
    if args.kind == "whatif":
        payload: dict = {}
        if args.whatif_scenario is not None:
            payload["scenario"] = args.whatif_scenario
        if args.targets:
            if len(args.targets) != 1:
                raise ValueError("submit whatif takes at most one artifact")
            payload["artifact"] = args.targets[0]
            payload["params"] = params
            if args.topology_spec is not None:
                payload["topology"] = args.topology_spec
            if args.algorithm is not None:
                payload["algorithm"] = args.algorithm
        if not payload:
            raise ValueError(
                "submit whatif needs --scenario NAME or an artifact id"
            )
        return payload
    # shadow
    if args.telemetry_path is None:
        raise ValueError("submit shadow requires --telemetry FILE")
    with open(args.telemetry_path) as handle:
        text = handle.read()
    payload = {"telemetry": text}
    if args.window is not None:
        payload["window"] = args.window
    return payload


def _print_submit_result(kind: str, record: dict) -> None:
    """Human-readable rendering of a finished job."""
    result = record.get("result") or {}
    if kind in ("run", "whatif") and "report" in result:
        print(result["report"])
    elif kind == "sweep":
        for artifact_id in result.get("artifacts", ()):
            entry = result["results"][artifact_id]
            print(entry["report"])
            print()
    elif kind == "whatif" and "validation" in result:
        status = "PASS" if result.get("passed") else "FAIL"
        print(
            f"what-if {result.get('scenario')!r}: {status} — "
            f"{result.get('description', '')}"
        )
    elif kind == "shadow":
        shadow = result.get("shadow", {})
        overall = shadow.get("overall", {})
        print(
            f"shadow replay: {overall.get('count', 0)} record(s), "
            f"max |drift| {overall.get('max_abs_drift', 0.0):.3e}, "
            f"{len(shadow.get('alerts', []))} alert(s)"
        )
    latency = record.get("latency_seconds")
    if latency is not None:
        print(f"[job {record['id']}: {record['state']} in {latency:.3f}s]")


def _cmd_submit(args: argparse.Namespace) -> int:
    from .errors import BenchmarkError
    from .serve import JobFailedError, ServeClient, ServeError

    url = args.url or os.environ.get(SERVE_URL_ENV) or DEFAULT_SERVE_URL
    try:
        payload = _submit_payload(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(url, tenant=args.tenant, timeout=args.timeout)
    try:
        job_id = client.submit(args.kind, payload)
        if args.no_wait:
            print(f"{job_id} queued at {url}/v1/jobs/{job_id}")
            return 0
        record = client.wait(job_id, timeout=args.timeout)
    except ServeError as exc:
        hint = (
            f" (retry in {exc.retry_after:.0f}s)"
            if exc.status == 429 and exc.retry_after
            else ""
        )
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3 if exc.status == 429 else 2
    except JobFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_out is not None:
        _emit_json(record, args.json_out)
    if args.json_out != "-":
        _print_submit_result(args.kind, record)
    return 0


#: Exit status for a write onto a closed pipe (``repro ... | head``):
#: 128 + SIGPIPE, the shell convention for "terminated by the reader",
#: chosen over a traceback-and-1 so pipelines behave like any other
#: Unix tool's.
SIGPIPE_EXIT = 128 + 13


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status.

    Every verb writes to stdout, and any of them can be piped to a
    reader that stops early (``repro run all --json - | head``).
    Python turns the resulting ``SIGPIPE`` into a ``BrokenPipeError``
    on write; without handling it the CLI dies with a traceback *and*
    a second exception from the interpreter's stdout flush at exit.
    Catch it once here for all verbs: swallow the error, point stdout
    at devnull so shutdown flushes cannot re-raise, and exit with the
    conventional ``128 + SIGPIPE`` status.
    """
    try:
        args = _build_parser().parse_args(argv)
        # Refuse a --json FILE in a missing directory before the run,
        # not after it.
        json_out = getattr(args, "json_out", None)
        if json_out not in (None, "-"):
            parent = os.path.dirname(os.path.abspath(json_out))
            if not os.path.isdir(parent):
                print(
                    f"error: --json {json_out}: directory {parent} "
                    "does not exist",
                    file=sys.stderr,
                )
                return 2
        code = _dispatch(args)
        # Flush inside the try so a buffered write onto a closed pipe
        # surfaces here, not in the interpreter's exit machinery.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            # stdout may be a pytest capture or StringIO without a
            # real fd; there is nothing to redirect then.
            pass
        return SIGPIPE_EXIT


def _dispatch(args: argparse.Namespace) -> int:
    """Route parsed arguments to their command implementation."""
    if args.command == "list":
        return _cmd_list()
    if args.command in {"run", "methodology", "validate", "inject"}:
        scenario, error = _load_fault_scenario(args)
        if error is not None:
            return error
        topology, error = _load_topology_arg(args)
        if error is not None:
            return error
    if args.command == "run":
        return _cmd_run(
            args.artifacts,
            args.output_dir,
            args.plot,
            runner=_make_runner(args, faults=scenario, topology=topology),
            cache_stats=args.cache_stats,
            show_metrics=args.metrics,
            json_out=args.json_out,
        )
    if args.command == "methodology":
        return _cmd_methodology(
            args.steps,
            runner=_make_runner(args, faults=scenario, topology=topology),
            cache_stats=args.cache_stats,
            show_metrics=args.metrics,
            json_out=args.json_out,
        )
    if args.command == "topology":
        return _cmd_topology(args.spec)
    if args.command == "calibration":
        return _cmd_calibration()
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "claims":
        from .core.claims import format_claims

        print(format_claims())
        return 0
    if args.command == "validate":
        return _cmd_validate(
            args.scenario,
            runner=_make_runner(args, faults=scenario, topology=topology),
            cache_stats=args.cache_stats,
            show_metrics=args.metrics,
            json_out=args.json_out,
        )
    if args.command == "trace":
        return _cmd_trace(
            args.artifact, args.out, args.trace_capacity, args.check
        )
    if args.command == "report":
        scenario, error = _load_fault_scenario(args)
        if error is not None:
            return error
        topology, error = _load_topology_arg(args)
        if error is not None:
            return error
        telemetry, error = _load_telemetry_arg(args)
        if error is not None:
            return error
        _, error = _load_calibration_arg(args)  # validate the file early
        if error is not None:
            return error
        return _cmd_report(
            args.artifact,
            args.out,
            args.json_out,
            args.no_validate,
            args.jobs,
            faults=scenario,
            topology=topology,
            algorithm=args.algorithm,
            calibration_path=args.calibration_path,
            telemetry=telemetry,
            window=args.window,
        )
    if args.command == "explain":
        scenario, error = _load_fault_scenario(args)
        if error is not None:
            return error
        topology, error = _load_topology_arg(args)
        if error is not None:
            return error
        _, error = _load_calibration_arg(args)  # validate the file early
        if error is not None:
            return error
        return _cmd_explain(
            args.artifact,
            args.span,
            args.top,
            args.jobs,
            faults=scenario,
            topology=topology,
            algorithm=args.algorithm,
            json_out=args.json_out,
            calibration_path=args.calibration_path,
        )
    if args.command == "inject":
        if scenario is None:
            print(
                "error: inject requires --scenario FILE", file=sys.stderr
            )
            return 2
        return _cmd_inject(
            args.artifact,
            scenario,
            args.explain,
            args.top,
            runner=_make_runner(args, faults=scenario, topology=topology),
            json_out=args.json_out,
        )
    if args.command == "shadow":
        telemetry, error = _load_telemetry_arg(args, required=True)
        if error is not None:
            return error
        calibration, error = _load_calibration_arg(args)
        if error is not None:
            return error
        topology, error = _load_topology_arg(args)
        if error is not None:
            return error
        from .runner import SweepRunner

        runner = SweepRunner(args.jobs, use_cache=not args.no_cache)
        return _cmd_shadow(
            telemetry,
            calibration,
            topology,
            args.window,
            args.alert_threshold,
            args.top,
            runner,
            cache_stats=args.cache_stats,
            json_out=args.json_out,
        )
    if args.command == "calibrate":
        telemetry, error = _load_telemetry_arg(args, required=True)
        if error is not None:
            return error
        base, error = _load_calibration_arg(args)
        if error is not None:
            return error
        topology, error = _load_topology_arg(args)
        if error is not None:
            return error
        return _cmd_calibrate(
            telemetry,
            base,
            topology,
            args.fields,
            args.max_passes,
            args.out,
            json_out=args.json_out,
        )
    if args.command == "perf":
        return _cmd_perf(
            args.smoke,
            only=args.only,
            json_out=args.json_out,
        )
    if args.command == "cache":
        return _cmd_cache(args.action, args.cache_dir)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
