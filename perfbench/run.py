#!/usr/bin/env python3
"""End-to-end benchmark of the repro simulator's host time.

Run from the repository root::

    python3 perfbench/run.py --workload artifacts_cold --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``artifacts_cold``: all 14 paper artifacts, serial, empty cache;
- ``cluster_allreduce``: a ring allreduce on 64 GCDs plus a
  hierarchical allreduce on 512 GCDs;
- ``serve_warm``: closed-loop what-if requests against a warm
  ``repro serve``.

With ``--trace 0`` the workload is set up ``SETUP_SAMPLES`` times, each
in a fresh interpreter, and measured for ``--seconds`` in the last one;
the end-to-end metrics are printed, their times scaled to a reference
machine speed (``calibration.py``) and the raw wall times beside them.  With ``--trace 1`` one fixed unit
of work is timed untraced and traced, and the per-layer metrics are
printed.  The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("artifacts_cold", "cluster_allreduce", "serve_warm")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Every run, set-ups included, ends within this many seconds.
RUN_BUDGET_S = 170.0

#: Per-layer self times: metric name → tracer layer.
LAYER_SELF_S = {
    "topology.build_s": "topology.build",
    "rccl.comm_init_s": "rccl.comm_init",
    "figures.decompose_s": "figures.decompose",
    "figures.merge_s": "figures.merge",
    "runner.self_s": "runner",
    "runner.execute_s": "runner.execute",
    "cache.key_s": "cache.key",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "pages.migrate_s": "pages.migrate",
    "engine.self_s": "engine",
    "fairshare.solve_s": "fairshare.solve",
}
#: Per-layer counters taken from the tracer as they are.
LAYER_COUNTS = (
    "runner.points",
    "runner.executed",
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "pages.migrate_calls",
    "engine.events",
    "flow.transfers",
)
SOLVER_COUNTS = (
    "component_solves",
    "flows_releveled",
    "largest_component",
    "dirty_relevels",
    "replay_rounds",
)
SERVE_LAYERS = {
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.fetch_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.cache_hits": "count",
    "serve.rejected": "count",
}


class BenchmarkFailure(Exception):
    """A child run did not produce a result."""


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment of every child: default code paths, private cache."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "HSA_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(root / "src")
    # Never the user's ~/.cache/repro: a warm default cache would make
    # the cold workload warm.
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    return env


def run_child(
    phase: str,
    args: argparse.Namespace,
    root: Path,
    work: Path,
    deadline: float,
    extra: tuple[str, ...] = (),
) -> dict[str, Any]:
    """Run one ``workloads.py`` phase in a fresh interpreter."""
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--phase", phase,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--work-dir", str(work),
        *extra,
    ]
    spawned = time.monotonic()
    process = subprocess.Popen(
        [*command, "--spawned", repr(spawned)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=root,
        env=child_env(root, work),
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkFailure(f"{phase} run exceeded the time budget") from None
    finally:
        # The child's process group holds it and any server it started.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
    lines = [line for line in stdout.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise BenchmarkFailure(f"{phase} run exited with status {process.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(setups: list[float], measured: dict[str, Any]) -> dict[str, Any]:
    """The gated metrics, the named figures, and the raw wall times.

    Gated times are at reference speed (see ``calibration.py``).
    """
    ops = measured["ops_norm_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MiB"),
        "op_p50_ref_ms": (statistics.median(ops) * 1e3, "ms"),
        "ops_per_ref_s": (len(ops) / sum(ops), "1/s"),
    }
    named: dict[str, tuple[float, str]] = {}
    workload = measured["workload"]
    if workload == "artifacts_cold":
        named["artifacts_pass_s"] = (statistics.median(ops), "s")
    elif workload == "cluster_allreduce":
        parts = measured["parts_norm_s"]
        named["ring_allreduce_s"] = (statistics.median(parts["ring"]), "s")
        named["hier_allreduce_s"] = (statistics.median(parts["hier"]), "s")
    else:
        p95, beyond = percentile(ops, 0.95)
        named["warm_rps"] = metrics["ops_per_ref_s"]
        named["warm_p50_ms"] = metrics["op_p50_ref_ms"]
        named["warm_p95_ms"] = (p95 * 1e3, f"ms ({beyond} of {len(ops)} samples above)")
    wall = measured["ops_wall_s"]
    raw = {
        "setup_wall_s": (statistics.median(measured["setup_walls"]), "s"),
        "op_p50_wall_ms": (statistics.median(wall) * 1e3, "ms"),
        "ops_per_wall_s": (len(wall) / measured["loop_wall_s"], "1/s"),
        "calibration_ms": (measured["calibration_s"] * 1e3, "ms"),
    }
    return {"metrics": metrics, "named": named, "raw": raw, "samples": len(ops)}


def per_layer(traced: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced unit of work."""
    trace = traced["trace"]
    summary = trace["summary"]
    self_s, total_s, counts = summary["self_s"], summary["total_s"], summary["counts"]
    metrics: dict[str, tuple[float, str]] = {"import.repro_s": (traced["import_s"], "s")}
    for name, layer in LAYER_SELF_S.items():
        metrics[name] = (self_s.get(layer, 0.0), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    metrics["cache.hit_ratio"] = (
        counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["cache.bytes_written"] = (trace.get("cache_bytes", 0), "bytes")
    for name in SOLVER_COUNTS:
        metrics[f"fairshare.{name}"] = (summary["solver"][name], "count")
    serve = trace.get("serve", {})
    for name, unit in SERVE_LAYERS.items():
        metrics[name] = (serve.get(name, 0), unit)
    root = trace["root"]
    metrics["trace.untraced_s"] = (trace["untraced_s"], "s")
    metrics["trace.traced_s"] = (trace["traced_s"], "s")
    metrics["trace.overhead_s"] = (trace["traced_s"] - trace["untraced_s"], "s")
    metrics["trace.unattributed_s"] = (self_s.get(root, 0.0), "s")
    metrics["trace.unattributed_share"] = (
        self_s.get(root, 0.0) / total_s[root] if total_s.get(root) else 0.0,
        "ratio",
    )
    return metrics


def print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:30s} {value:>16.6g}  {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = root / ".perfbench" / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            spans_out = spans / f"{args.workload}-seed{args.seed}.jsonl"
            runs = [
                run_child(
                    "trace", args, root, work, deadline, ("--spans-out", str(spans_out))
                )
            ]
            metrics = per_layer(runs[0])
            print_table(
                f"{args.workload}: per-layer (self time of one traced unit; "
                f"spans in {spans_out.relative_to(root)})",
                metrics,
            )
        else:
            runs = [
                run_child("setup", args, root, work, deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            runs.append(run_child("measure", args, root, work, deadline))
            runs[-1]["setup_walls"] = [run["setup_wall_s"] for run in runs]
            report = end_to_end([run["setup_s"] for run in runs], runs[-1])
            metrics = report["metrics"]
            print_table(f"{args.workload}: end-to-end, at reference speed", metrics)
            print_table(
                f"{args.workload}: named figures, at reference speed "
                f"({report['samples']} operations)",
                report["named"],
            )
            print_table(
                f"{args.workload}: wall time, not scaled (calibration_ms is the "
                f"median kernel slice; reference {REFERENCE_S * 1e3:g} ms)",
                report["raw"],
            )
    except BenchmarkFailure as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for error in run["errors"]:
            print(f"failed operation: {error}")
    print(f"operations: {attempted} attempted, {failed} failed")
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
