"""CI perf-regression guard for ``BENCH_core.json``.

Usage::

    python benchmarks/perf/check_bench.py BENCH_core.json \
        [--baseline BASELINE.json]

Fails (exit 1) when a headline number regresses below its threshold:

- ``sweep_parallel_speedup`` must reach ``REPRO_MIN_PARALLEL_SPEEDUP``
  (default 1.5).  Skipped when the run had fewer than two effective
  jobs or fell back to serial execution — a single-core runner cannot
  demonstrate a parallel speedup and should not fail for it.
- ``cache_hit_speedup`` must reach ``REPRO_MIN_CACHE_SPEEDUP``
  (default 2.0; warm runs only deserialize pickles).
- ``metrics_disabled_overhead`` must stay at or below
  ``REPRO_MAX_METRICS_OVERHEAD`` (default 0.05): a *disabled* metrics
  registry may not slow the flow-churn workload by more than 5%,
  because every simulation pays the ``if metrics:`` guard.
- ``spans_disabled_overhead`` must stay at or below
  ``REPRO_MAX_SPANS_OVERHEAD`` (default 0.05): a disabled span
  recorder may not slow the same workload by more than 5% either —
  every flow pays the ``if spans:`` guard.
- ``capacity_changes_per_second`` must reach
  ``REPRO_MIN_CAPACITY_CHURN`` (default 5000): fault injection
  re-levels in-flight flows on every ``set_capacity`` call, so churn
  throughput collapsing means degraded links stall the whole sweep.
- ``epoch_events_per_second`` must reach
  ``REPRO_MIN_EPOCH_EVENTS`` (default 400000): the batched epoch
  dispatcher drains same-timestamp bursts in bulk; falling below the
  floor means the engine regressed to per-event heap churn.
- ``churn_large_flows_per_second`` must reach
  ``REPRO_MIN_CHURN_LARGE`` (default 1000): on the largest cluster in
  the sweep (128 GCDs under ``--smoke``, 512 in the full suite) the
  dirty-set re-level must hold its throughput, else the solver has
  regressed to O(system) churn.
- ``shadow_replay_windows_per_second`` must reach
  ``REPRO_MIN_SHADOW_WINDOWS`` (default 5): the digital-twin shadow
  replayer re-simulates telemetry windows through the sweep runner;
  falling below the floor means replaying a day of telemetry would
  take longer than recording it.
- ``serve_requests_per_second`` must reach ``REPRO_MIN_SERVE_RPS``
  (default 5) and ``serve_whatif_p99_ms`` must stay at or below
  ``REPRO_MAX_SERVE_P99_MS`` (default 60000): the warm wave of the
  serve load test is pure shared-store dedup, so its sustained rate
  collapsing (or its p99 blowing past a minute) means the service is
  re-simulating, serializing on a lock, or starving its job queue.

With ``--baseline`` (a previously committed report), throughput
headlines may not regress by more than ``REPRO_MAX_PERF_REGRESSION``
(default 0.05 = 5%) relative to the baseline:

- ``events_per_second``
- ``churn_flows_per_second``

The baseline comparison is skipped when ``meta.platform`` differs —
numbers from a different machine are not comparable — or when the
baseline file is missing/unreadable.

Thresholds are environment-overridable so a noisy runner can be
loosened without editing the workflow.
"""

from __future__ import annotations

import json
import os
import sys

#: Headline throughput keys compared against a baseline report.
BASELINE_KEYS = (
    "events_per_second",
    "churn_flows_per_second",
    "capacity_changes_per_second",
    "epoch_events_per_second",
    "churn_large_flows_per_second",
    "shadow_replay_windows_per_second",
)


def check(report: dict) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures: list[str] = []
    headline = report.get("headline", {})
    parallel = report.get("results", {}).get("sweep_parallel", {})

    min_parallel = float(os.environ.get("REPRO_MIN_PARALLEL_SPEEDUP", "1.5"))
    jobs = parallel.get("jobs", 1)
    fallbacks = parallel.get("parallel_fallbacks", 0)
    if not parallel:
        print("skip: sweep_parallel not in report (partial --only run)")
    elif jobs < 2 or fallbacks:
        print(
            f"skip: sweep_parallel check (jobs={jobs}, "
            f"fallbacks={fallbacks}) — no parallel run to judge"
        )
    else:
        speedup = headline.get("sweep_parallel_speedup", 0.0)
        if speedup < min_parallel:
            failures.append(
                f"sweep_parallel_speedup {speedup:.2f} < {min_parallel:.2f} "
                f"(jobs={jobs})"
            )
        else:
            print(
                f"ok: sweep_parallel_speedup {speedup:.2f} >= "
                f"{min_parallel:.2f} (jobs={jobs})"
            )

    min_cache = float(os.environ.get("REPRO_MIN_CACHE_SPEEDUP", "2.0"))
    cache_speedup = headline.get("cache_hit_speedup")
    if cache_speedup is None:
        print("skip: cache_hit_speedup not in report (partial --only run)")
    elif cache_speedup < min_cache:
        failures.append(
            f"cache_hit_speedup {cache_speedup:.2f} < {min_cache:.2f}"
        )
    else:
        print(f"ok: cache_hit_speedup {cache_speedup:.2f} >= {min_cache:.2f}")

    max_overhead = float(os.environ.get("REPRO_MAX_METRICS_OVERHEAD", "0.05"))
    overhead = headline.get("metrics_disabled_overhead")
    if overhead is None:
        print("skip: metrics_disabled_overhead not in report (old schema)")
    elif overhead > max_overhead:
        failures.append(
            f"metrics_disabled_overhead {overhead:.1%} > {max_overhead:.1%}"
        )
    else:
        print(
            f"ok: metrics_disabled_overhead {overhead:.1%} <= "
            f"{max_overhead:.1%}"
        )

    max_span_overhead = float(
        os.environ.get("REPRO_MAX_SPANS_OVERHEAD", "0.05")
    )
    span_overhead = headline.get("spans_disabled_overhead")
    if span_overhead is None:
        print("skip: spans_disabled_overhead not in report (old schema)")
    elif span_overhead > max_span_overhead:
        failures.append(
            f"spans_disabled_overhead {span_overhead:.1%} > "
            f"{max_span_overhead:.1%}"
        )
    else:
        print(
            f"ok: spans_disabled_overhead {span_overhead:.1%} <= "
            f"{max_span_overhead:.1%}"
        )

    min_churn = float(os.environ.get("REPRO_MIN_CAPACITY_CHURN", "5000"))
    churn = headline.get("capacity_changes_per_second")
    if churn is None:
        print("skip: capacity_changes_per_second not in report (old schema)")
    elif churn < min_churn:
        failures.append(
            f"capacity_changes_per_second {churn:,.0f} < {min_churn:,.0f}"
        )
    else:
        print(
            f"ok: capacity_changes_per_second {churn:,.0f} >= "
            f"{min_churn:,.0f}"
        )

    min_epoch = float(os.environ.get("REPRO_MIN_EPOCH_EVENTS", "400000"))
    epoch_rate = headline.get("epoch_events_per_second")
    if epoch_rate is None:
        print("skip: epoch_events_per_second not in report (old schema)")
    elif epoch_rate < min_epoch:
        failures.append(
            f"epoch_events_per_second {epoch_rate:,.0f} < {min_epoch:,.0f}"
        )
    else:
        print(
            f"ok: epoch_events_per_second {epoch_rate:,.0f} >= "
            f"{min_epoch:,.0f}"
        )

    min_churn_large = float(os.environ.get("REPRO_MIN_CHURN_LARGE", "1000"))
    churn_large = headline.get("churn_large_flows_per_second")
    if churn_large is None:
        print("skip: churn_large_flows_per_second not in report (old schema)")
    elif churn_large < min_churn_large:
        failures.append(
            f"churn_large_flows_per_second {churn_large:,.0f} < "
            f"{min_churn_large:,.0f}"
        )
    else:
        print(
            f"ok: churn_large_flows_per_second {churn_large:,.0f} >= "
            f"{min_churn_large:,.0f}"
        )

    min_shadow = float(os.environ.get("REPRO_MIN_SHADOW_WINDOWS", "5"))
    shadow_rate = headline.get("shadow_replay_windows_per_second")
    if shadow_rate is None:
        print(
            "skip: shadow_replay_windows_per_second not in report "
            "(old schema)"
        )
    elif shadow_rate < min_shadow:
        failures.append(
            f"shadow_replay_windows_per_second {shadow_rate:,.1f} < "
            f"{min_shadow:,.1f}"
        )
    else:
        print(
            f"ok: shadow_replay_windows_per_second {shadow_rate:,.1f} >= "
            f"{min_shadow:,.1f}"
        )

    min_serve_rps = float(os.environ.get("REPRO_MIN_SERVE_RPS", "5"))
    serve_rps = headline.get("serve_requests_per_second")
    if serve_rps is None:
        print("skip: serve_requests_per_second not in report (old schema)")
    elif serve_rps < min_serve_rps:
        failures.append(
            f"serve_requests_per_second {serve_rps:,.1f} < "
            f"{min_serve_rps:,.1f}"
        )
    else:
        print(
            f"ok: serve_requests_per_second {serve_rps:,.1f} >= "
            f"{min_serve_rps:,.1f}"
        )

    max_serve_p99 = float(os.environ.get("REPRO_MAX_SERVE_P99_MS", "60000"))
    serve_p99 = headline.get("serve_whatif_p99_ms")
    if serve_p99 is None:
        print("skip: serve_whatif_p99_ms not in report (old schema)")
    elif serve_p99 > max_serve_p99:
        failures.append(
            f"serve_whatif_p99_ms {serve_p99:,.0f} > {max_serve_p99:,.0f}"
        )
    else:
        print(
            f"ok: serve_whatif_p99_ms {serve_p99:,.0f} <= "
            f"{max_serve_p99:,.0f}"
        )

    return failures


def check_baseline(report: dict, baseline: dict) -> list[str]:
    """Compare throughput headlines against a baseline report."""
    platform_now = report.get("meta", {}).get("platform")
    platform_base = baseline.get("meta", {}).get("platform")
    if platform_now != platform_base:
        print(
            f"skip: baseline comparison (platform {platform_base!r} != "
            f"{platform_now!r}) — numbers not comparable across machines"
        )
        return []
    if report.get("smoke") != baseline.get("smoke"):
        print("skip: baseline comparison (smoke flag differs)")
        return []

    tolerance = float(os.environ.get("REPRO_MAX_PERF_REGRESSION", "0.05"))
    failures: list[str] = []
    headline = report.get("headline", {})
    base_headline = baseline.get("headline", {})
    for key in BASELINE_KEYS:
        now = headline.get(key)
        base = base_headline.get(key)
        if now is None or not base:
            print(f"skip: baseline {key} (missing from report or baseline)")
            continue
        floor = base * (1.0 - tolerance)
        if now < floor:
            failures.append(
                f"{key} {now:,.0f} < {floor:,.0f} "
                f"(baseline {base:,.0f} - {tolerance:.0%})"
            )
        else:
            print(
                f"ok: {key} {now:,.0f} >= {floor:,.0f} "
                f"(baseline {base:,.0f} - {tolerance:.0%})"
            )
    return failures


def _load(path: str) -> dict | None:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: cannot read {path}: {exc}", file=sys.stderr)
        return None


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    baseline_path: str | None = None
    if "--baseline" in args:
        at = args.index("--baseline")
        try:
            baseline_path = args[at + 1]
        except IndexError:
            print("error: --baseline needs a path", file=sys.stderr)
            return 2
        del args[at : at + 2]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    report = _load(args[0])
    if report is None:
        return 2
    schema = report.get("schema", "")
    if not schema.startswith("repro-bench-core/"):
        print(f"error: unrecognized report schema {schema!r}", file=sys.stderr)
        return 2
    failures = check(report)
    if baseline_path is not None:
        baseline = _load(baseline_path)
        if baseline is None:
            print("skip: baseline comparison (baseline unreadable)")
        else:
            failures.extend(check_baseline(report, baseline))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
