"""CI perf-regression guard for ``BENCH_core.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_bench.py BENCH_core.json

Fails (exit 1) when a headline breaks its floor.  The floors live in
one table, ``repro.perf.core.HEADLINE_SPEC``, next to the sections that
produce the headlines.  Each floor sits at about a third of the
committed ``BENCH_core.json`` value or below (the p99 ceiling at five
times it) and below the slowest of thirteen fresh reports on one
2-vCPU guest, so run-to-run drift passes while, on the committed
guest, a 3x slowdown of ``set_capacity`` fails:

- ``epoch_events_per_second >= 500,000``: the epoch dispatcher drains
  same-timestamp bursts in bulk;
- ``capacity_changes_per_second >= 25,000``: fault injection re-levels
  in-flight flows on every ``set_capacity`` call;
- ``churn_large_flows_per_second >= 1,200`` on the 512-GCD cluster,
  else the solver has regressed to O(system) churn;
- ``cache_hit_speedup >= 12`` (warm runs only deserialize pickles);
- ``serve_requests_per_second >= 100`` and ``serve_whatif_p99_ms <=
  2,000`` on the warm serve wave, which is pure shared-store dedup.

A headline missing from a section that ran fails.  Sections left out
by ``repro perf --only`` are skipped.  Only ``repro-bench-core/10``
reports are accepted (exit 2 otherwise).
"""

from __future__ import annotations

import json
import operator
import sys

from repro.perf.core import HEADLINE_SPEC, SCHEMA

#: Comparator → (test, the comparator a failing value breaks it with).
_COMPARATORS = {">=": (operator.ge, "<"), "<=": (operator.le, ">")}


def _fmt(key: str, number: float, bound: float) -> str:
    """Speedups to 0.01, small rates to 0.1, the rest to integers."""
    if key.endswith("_speedup"):
        return f"{number:.2f}"
    return f"{number:,.1f}" if bound < 10 else f"{number:,.0f}"


def check(report: dict) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures: list[str] = []
    headline = report["headline"]
    for key, section, _field, floor in HEADLINE_SPEC:
        if floor is None:
            continue
        if "only" in report and section not in report["results"]:
            print(f"skip: {key} ({section} left out by --only)")
            continue
        value = headline.get(key)
        if value is None:
            failures.append(f"{key} missing from the report")
            continue
        comparator, bound = floor
        holds, broken = _COMPARATORS[comparator]
        shown = f"{key} {_fmt(key, value, bound)}"
        if holds(value, bound):
            print(f"ok: {shown} {comparator} {_fmt(key, bound, bound)}")
        else:
            failures.append(f"{shown} {broken} {_fmt(key, bound, bound)}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {argv[1]}: {exc}", file=sys.stderr)
        return 2
    schema = report.get("schema", "")
    if schema != SCHEMA:
        print(
            f"error: report schema {schema!r} is not {SCHEMA!r}",
            file=sys.stderr,
        )
        return 2
    failures = check(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
