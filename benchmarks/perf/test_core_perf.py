"""Smoke harness for the simulation-core perf suite.

Runs the scaled-down suite and checks the report shape plus basic
sanity (positive throughputs, near-free disabled observability).  Full-scale numbers are produced by ``make bench`` /
``repro perf -o BENCH_core.json``.
"""

from __future__ import annotations

import json

from repro.perf.core import format_report, run_suite, write_report


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
    assert main(["perf", "--smoke", "-o", str(out)]) == 0
    assert out.exists()
    assert "simulation-core performance" in capsys.readouterr().out


def _guard_report(events=100_000.0, churn=20_000.0, platform="test-box"):
    return {
        "schema": "repro-bench-core/3",
        "smoke": False,
        "results": {"sweep_parallel": {"jobs": 1, "parallel_fallbacks": 0}},
        "headline": {
            "events_per_second": events,
            "churn_flows_per_second": churn,
            "cache_hit_speedup": 10.0,
            "metrics_disabled_overhead": 0.01,
        },
        "meta": {"platform": platform},
    }


class TestCheckBenchBaseline:
    def _check(self, report, baseline):
        import check_bench

        return check_bench.check_baseline(report, baseline)

    def test_within_tolerance_passes(self):
        report = _guard_report(events=96_000.0)  # 4% below baseline
        assert self._check(report, _guard_report()) == []

    def test_regression_beyond_tolerance_fails(self):
        report = _guard_report(events=90_000.0)  # 10% below baseline
        failures = self._check(report, _guard_report())
        assert len(failures) == 1
        assert "events_per_second" in failures[0]

    def test_platform_mismatch_skips(self):
        report = _guard_report(events=1.0, platform="other-box")
        assert self._check(report, _guard_report()) == []

    def test_overhead_guard_in_main_check(self):
        import check_bench

        report = _guard_report()
        report["headline"]["metrics_disabled_overhead"] = 0.2
        failures = check_bench.check(report)
        assert any("metrics_disabled_overhead" in f for f in failures)

    def test_span_overhead_guard_in_main_check(self):
        import check_bench

        report = _guard_report()
        report["headline"]["spans_disabled_overhead"] = 0.2
        failures = check_bench.check(report)
        assert any("spans_disabled_overhead" in f for f in failures)

    def test_epoch_floor_guard_in_main_check(self):
        import check_bench

        report = _guard_report()
        report["headline"]["epoch_events_per_second"] = 1000.0
        failures = check_bench.check(report)
        assert any("epoch_events_per_second" in f for f in failures)

    def test_serve_floor_guards_in_main_check(self):
        import check_bench

        report = _guard_report()
        report["headline"]["serve_requests_per_second"] = 0.5
        report["headline"]["serve_whatif_p99_ms"] = 10_000_000.0
        failures = check_bench.check(report)
        assert any("serve_requests_per_second" in f for f in failures)
        assert any("serve_whatif_p99_ms" in f for f in failures)
