"""Smoke harness for the simulation-core perf suite.

Runs the scaled-down suite and checks the report shape plus basic
sanity (positive throughputs, near-free disabled observability), and
pins ``check_bench.py`` against the floor table.  Full-scale numbers
are produced by ``make bench`` / ``repro perf --json BENCH_core.json``.
"""

from __future__ import annotations

import json
import math

import pytest

import check_bench
from repro.perf.core import (
    HEADLINE_SPEC,
    SCHEMA,
    format_report,
    run_suite,
    write_report,
)


def test_smoke_suite_shape_and_sanity(tmp_path):
    report = run_suite(smoke=True)

    assert report["schema"] == "repro-bench-core/9"
    assert report["smoke"] is True
    results = report["results"]
    assert results["engine_events"]["events_per_second"] > 0
    assert results["timer_cancel"]["timers_per_second"] > 0

    epochs = results["engine_epochs"]
    assert epochs["epoch_events_per_second"] > 0
    assert 0 < epochs["distinct_timestamps"] < epochs["events"]
    assert (
        report["headline"]["epoch_events_per_second"]
        == epochs["epoch_events_per_second"]
    )

    churn = results["flow_churn"]
    assert churn["total_flows"] == churn["pairs"] * churn["flows_per_pair"]
    assert churn["flows_per_second"] > 0
    assert report["headline"]["churn_flows_per_second"] == churn["flows_per_second"]

    large = results["flow_churn_large"]
    assert large["gcds"] == 128
    assert large["flows_per_second"] > 0
    assert (
        report["headline"]["churn_large_flows_per_second"]
        == large["flows_per_second"]
    )

    overhead = results["metrics_overhead"]
    assert overhead["baseline_wall_seconds"] > 0
    # Enabled metrics cost something; disabled must be near-free.  The
    # smoke bound is loose (tiny workloads are noisy); the committed
    # full report is held to 5% by check_bench.py.
    assert overhead["disabled_overhead"] < 0.5
    assert (
        report["headline"]["metrics_disabled_overhead"]
        == overhead["disabled_overhead"]
    )

    spans = results["span_overhead"]
    assert spans["baseline_wall_seconds"] > 0
    assert (
        report["headline"]["spans_disabled_overhead"]
        == spans["disabled_overhead"]
    )

    assert results["figure_sweep"]["measurements"] > 0

    shadow = results["shadow_replay"]
    assert shadow["records"] > 0
    assert shadow["windows"] > 1
    assert shadow["shadow_replay_windows_per_second"] > 0
    assert (
        report["headline"]["shadow_replay_windows_per_second"]
        == shadow["shadow_replay_windows_per_second"]
    )

    serve = results["serve"]
    assert serve["warm_cache_misses"] == 0
    assert serve["warm_identical"] is True
    assert serve["burst"]["rejected"] > 0
    assert serve["burst"]["retry_after_seen"] is True
    assert report["headline"]["serve_requests_per_second"] == serve["serve_requests_per_second"]
    assert report["headline"]["serve_whatif_p99_ms"] == serve["serve_whatif_p99_ms"]

    capacity = results["set_capacity"]
    assert capacity["changes"] > 0
    assert capacity["capacity_changes_per_second"] > 0
    assert (
        report["headline"]["capacity_changes_per_second"]
        == capacity["capacity_changes_per_second"]
    )

    path = tmp_path / "BENCH_core.json"
    write_report(str(path), report)
    assert json.loads(path.read_text())["schema"] == "repro-bench-core/9"

    text = format_report(report)
    assert "flow churn" in text and "events/s" in text
    assert "sweep parallel" in text and "cache hit" in text
    assert "span overhead" in text
    assert "capacity churn" in text
    assert "epoch dispatch" in text
    assert "cluster churn" in text
    assert "shadow replay" in text
    assert "serve (warm)" in text


def test_smoke_suite_sweep_benchmarks():
    report = run_suite(smoke=True)
    results = report["results"]

    parallel = results["sweep_parallel"]
    assert parallel["points"] > 1
    assert parallel["jobs"] >= 1
    assert parallel["identical_outputs"] is True
    if parallel["jobs"] < 2 or parallel["parallel_fallbacks"]:
        # A serial run claims no speedup.
        assert parallel["speedup"] is None
        assert "sweep_parallel_speedup" not in report["headline"]
    else:
        assert parallel["speedup"] > 0
        assert report["headline"]["sweep_parallel_speedup"] == parallel["speedup"]

    cache = results["cache_hit"]
    assert cache["warm_hits"] == cache["points"]
    assert cache["identical_outputs"] is True
    # A warm run only deserializes pickles; it must beat the cold run.
    assert cache["speedup"] > 1.0
    assert report["headline"]["cache_hit_speedup"] == cache["speedup"]


def test_report_is_reproducible_and_diffable():
    report = run_suite(smoke=True)

    # Provenance travels with the numbers.
    assert report["version"]
    assert report["git_sha"]
    # The only run-specific values live under meta, outside the
    # comparison path.
    assert "created_unix" in report["meta"]
    assert "created_unix" not in report["headline"]
    assert "created_unix" not in report["results"]

    def floats(value):
        if isinstance(value, float):
            yield value
        elif isinstance(value, dict):
            for child in value.values():
                yield from floats(child)
        elif isinstance(value, list):
            for child in value:
                yield from floats(child)

    for number in floats(report["results"]):
        assert number == round(number, 6)
    for number in floats(report["headline"]):
        assert number == round(number, 6)


def test_cli_perf_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    assert main(["perf", "--smoke", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["schema"] == SCHEMA
    assert "simulation-core performance" in capsys.readouterr().out


def _guard_report(platform="test-box", **headline):
    """A full ``/9`` report whose every floor passes with room to spare.

    Each headline sits at twice a ``>=`` bound or half a ``<=`` bound
    (1.0 where there is no floor); keyword arguments override values.
    """
    values = {}
    for key, _section, _field, floor, _baseline in HEADLINE_SPEC:
        if floor is None:
            values[key] = 1.0
        else:
            comparator, bound = floor
            values[key] = bound * 2 if comparator == ">=" else bound / 2
    values.update(events_per_second=100_000.0, churn_flows_per_second=20_000.0)
    values.update(headline)
    results = {}
    for key, section, field, _floor, _baseline in HEADLINE_SPEC:
        results.setdefault(section, {})[field] = values[key]
    results["sweep_parallel"].update(jobs=2, parallel_fallbacks=0)
    return {
        "schema": SCHEMA,
        "smoke": False,
        "results": results,
        "headline": values,
        "meta": {"platform": platform},
    }


_FLOORS = [
    (key, floor) for key, _s, _f, floor, _b in HEADLINE_SPEC if floor is not None
]


def test_every_headline_with_a_floor_is_checked():
    assert len(_FLOORS) == 10
    assert check_bench.check(_guard_report()) == []


@pytest.mark.parametrize("key, floor", _FLOORS, ids=[key for key, _ in _FLOORS])
def test_floor_from_the_table(key, floor):
    comparator, bound = floor
    assert check_bench.check(_guard_report(**{key: bound})) == []

    past = math.nextafter(bound, -math.inf if comparator == ">=" else math.inf)
    failures = check_bench.check(_guard_report(**{key: past}))
    assert len(failures) == 1 and failures[0].startswith(f"{key} ")

    report = _guard_report()
    del report["headline"][key]
    assert check_bench.check(report) == [f"{key} missing from the report"]


def test_only_report_skips_sections_left_out(capsys):
    report = _guard_report()
    report["results"] = {"engine_events": report["results"]["engine_events"]}
    report["headline"] = {"events_per_second": 100_000.0}
    report["only"] = ["engine_events"]
    assert check_bench.check(report) == []
    skipped = capsys.readouterr().out.count("left out by --only")
    assert skipped == len(_FLOORS)


def test_serial_sweep_parallel_is_skipped(capsys):
    report = _guard_report()
    report["results"]["sweep_parallel"].update(jobs=1, speedup=None)
    del report["headline"]["sweep_parallel_speedup"]
    assert check_bench.check(report) == []
    assert "skip: sweep_parallel check (jobs=1" in capsys.readouterr().out


@pytest.mark.parametrize("schema", ["repro-bench-core/8", "repro-bench-core/10", ""])
def test_other_schemas_exit_2(schema, tmp_path):
    path = tmp_path / "report.json"
    report = _guard_report()
    report["schema"] = schema
    path.write_text(json.dumps(report))
    assert check_bench.main(["check_bench.py", str(path)]) == 2


class TestCheckBenchBaseline:
    def _check(self, report, baseline):
        return check_bench.check_baseline(report, baseline)

    def test_within_tolerance_passes(self):
        report = _guard_report(events_per_second=96_000.0)  # 4% below
        assert self._check(report, _guard_report()) == []

    def test_regression_beyond_tolerance_fails(self):
        report = _guard_report(events_per_second=90_000.0)  # 10% below
        failures = self._check(report, _guard_report())
        assert len(failures) == 1
        assert "events_per_second" in failures[0]

    def test_platform_mismatch_skips(self):
        report = _guard_report(platform="other-box", events_per_second=1.0)
        assert self._check(report, _guard_report()) == []
