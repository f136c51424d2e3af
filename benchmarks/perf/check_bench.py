"""CI perf-regression guard for ``BENCH_core.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_bench.py BENCH_core.json \
        [--baseline BASELINE.json]

Fails (exit 1) when a headline breaks its floor.  The floors live in
one table, ``repro.perf.core.HEADLINE_SPEC``, next to the sections that
produce the headlines:

- ``sweep_parallel_speedup >= 1.5``, skipped when the run had fewer
  than two effective jobs or fell back to serial execution — a
  single-core runner cannot demonstrate a parallel speedup;
- ``cache_hit_speedup >= 2`` (warm runs only deserialize pickles);
- ``metrics_disabled_overhead <= 5%`` and
  ``spans_disabled_overhead <= 5%``: every simulation pays the
  ``if metrics:`` / ``if spans:`` guards on the flow-churn workload;
- ``capacity_changes_per_second >= 5,000``: fault injection re-levels
  in-flight flows on every ``set_capacity`` call;
- ``epoch_events_per_second >= 400,000``: the epoch dispatcher drains
  same-timestamp bursts in bulk;
- ``churn_large_flows_per_second >= 1,000`` on the largest cluster in
  the sweep (128 GCDs under ``--smoke``, 512 in the full suite), else
  the solver has regressed to O(system) churn;
- ``shadow_replay_windows_per_second >= 5``: replaying telemetry must
  stay faster than recording it;
- ``serve_requests_per_second >= 5`` and ``serve_whatif_p99_ms <=
  60,000`` on the warm serve wave, which is pure shared-store dedup.

A headline missing from a section that ran fails.  Sections left out
by ``repro perf --only`` are skipped.  Only ``repro-bench-core/9``
reports are accepted (exit 2 otherwise).

With ``--baseline`` (a previously committed report), the table's
baseline throughputs may not regress by more than 5% against it.  The
comparison is skipped when ``meta.platform`` or the smoke flag
differs — such numbers are not comparable — or when the baseline file
is unreadable.
"""

from __future__ import annotations

import json
import operator
import sys

from repro.perf.core import HEADLINE_SPEC, SCHEMA

#: Largest allowed drop of a baseline throughput (5%).
BASELINE_TOLERANCE = 0.05

#: Comparator → (test, the comparator a failing value breaks it with).
_COMPARATORS = {">=": (operator.ge, "<"), "<=": (operator.le, ">")}


def _fmt(key: str, number: float, bound: float) -> str:
    """Overheads as percents, speedups to 0.01, small rates to 0.1."""
    if key.endswith("_overhead"):
        return f"{number:.1%}"
    if key.endswith("_speedup"):
        return f"{number:.2f}"
    return f"{number:,.1f}" if bound < 10 else f"{number:,.0f}"


def check(report: dict) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures: list[str] = []
    headline = report["headline"]
    for key, section, _field, floor, _baseline in HEADLINE_SPEC:
        if floor is None:
            continue
        if "only" in report and section not in report["results"]:
            print(f"skip: {key} ({section} left out by --only)")
            continue
        note = ""
        if section == "sweep_parallel" and section in report["results"]:
            parallel = report["results"][section]
            jobs = parallel.get("jobs", 1)
            fallbacks = parallel.get("parallel_fallbacks", 0)
            if jobs < 2 or fallbacks:
                print(
                    f"skip: sweep_parallel check (jobs={jobs}, "
                    f"fallbacks={fallbacks}) — no parallel run to judge"
                )
                continue
            note = f" (jobs={jobs})"
        value = headline.get(key)
        if value is None:
            failures.append(f"{key} missing from the report")
            continue
        comparator, bound = floor
        holds, broken = _COMPARATORS[comparator]
        shown = f"{key} {_fmt(key, value, bound)}"
        if holds(value, bound):
            print(f"ok: {shown} {comparator} {_fmt(key, bound, bound)}{note}")
        else:
            failures.append(f"{shown} {broken} {_fmt(key, bound, bound)}{note}")
    return failures


def check_baseline(report: dict, baseline: dict) -> list[str]:
    """Compare the baseline throughputs against an earlier report."""
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

    failures: list[str] = []
    headline = report.get("headline", {})
    base_headline = baseline.get("headline", {})
    for key, _section, _field, _floor, compared in HEADLINE_SPEC:
        if not compared:
            continue
        now = headline.get(key)
        base = base_headline.get(key)
        if now is None or not base:
            print(f"skip: baseline {key} (missing from report or baseline)")
            continue
        floor = base * (1.0 - BASELINE_TOLERANCE)
        line = (
            f"{key} {now:,.0f} {'<' if now < floor else '>='} {floor:,.0f} "
            f"(baseline {base:,.0f} - {BASELINE_TOLERANCE:.0%})"
        )
        if now < floor:
            failures.append(line)
        else:
            print(f"ok: {line}")
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
    if schema != SCHEMA:
        print(
            f"error: report schema {schema!r} is not {SCHEMA!r}",
            file=sys.stderr,
        )
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
