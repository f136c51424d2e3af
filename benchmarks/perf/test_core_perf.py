"""Tests for the simulation-core perf suite and its floor guard.

Runs the full suite once per module and checks the report shape plus
basic sanity (positive throughputs, every section tied to a perfbench
layer), and pins ``check_bench.py`` against the floor table.  The
committed numbers are produced by ``make bench`` /
``repro perf --json BENCH_core.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import check_bench
from repro.perf.core import (
    HEADLINE_SPEC,
    SCHEMA,
    SECTIONS,
    format_report,
    run_suite,
    write_report,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def report():
    """One full-size suite run shared by the report-shape tests."""
    return run_suite()


def test_suite_shape_and_sanity(report, tmp_path):
    assert report["schema"] == "repro-bench-core/10"
    results = report["results"]
    assert set(results) == {*SECTIONS, "flow_churn_large"}

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
    assert churn["metrics_wall_seconds"] > 0 and churn["spans_wall_seconds"] > 0
    assert report["headline"]["churn_flows_per_second"] == churn["flows_per_second"]
    assert (
        report["headline"]["metrics_enabled_overhead"]
        == churn["metrics_enabled_overhead"]
    )
    assert (
        report["headline"]["spans_enabled_overhead"]
        == churn["spans_enabled_overhead"]
    )

    large = results["flow_churn_large"]
    assert large["gcds"] == 512
    assert large["flows_per_second"] > 0
    assert (
        report["headline"]["churn_large_flows_per_second"]
        == large["flows_per_second"]
    )

    capacity = results["set_capacity"]
    assert capacity["changes"] > 0
    assert capacity["capacity_changes_per_second"] > 0
    assert (
        report["headline"]["capacity_changes_per_second"]
        == capacity["capacity_changes_per_second"]
    )

    cache = results["cache_hit"]
    assert cache["warm_hits"] == cache["points"]
    assert cache["identical_outputs"] is True
    # A warm run only deserializes pickles; it must beat the cold run.
    assert cache["speedup"] > 1.0
    assert report["headline"]["cache_hit_speedup"] == cache["speedup"]

    serve = results["serve"]
    assert serve["clients"] == 200
    assert serve["warm_cache_misses"] == 0
    assert serve["warm_identical"] is True
    assert serve["burst"]["rejected"] > 0
    assert serve["burst"]["retry_after_seen"] is True
    assert report["headline"]["serve_requests_per_second"] == serve["serve_requests_per_second"]
    assert report["headline"]["serve_whatif_p99_ms"] == serve["serve_whatif_p99_ms"]

    path = tmp_path / "BENCH_core.json"
    write_report(str(path), report)
    assert json.loads(path.read_text())["schema"] == "repro-bench-core/10"

    text = format_report(report)
    for line in (
        "epoch dispatch",
        "flow churn",
        "capacity churn",
        "cluster churn",
        "cache hit",
        "serve (warm)",
    ):
        assert line in text


def test_every_section_explains_a_perfbench_layer(report):
    layers = {
        metric["name"]
        for metric in json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    }
    # flow_churn_large is solver_scaling's largest row, not a section.
    ran = set(report["results"]) - {"flow_churn_large"}
    assert ran == set(SECTIONS)
    for name in ran:
        layer, _bench = SECTIONS[name]
        assert layer in layers, f"{name} explains no perfbench layer ({layer})"


def test_report_is_reproducible_and_diffable(report):
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
    assert main(["perf", "--only", "engine_epochs", "--json", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["schema"] == SCHEMA
    assert written["only"] == ["engine_epochs"]
    assert "simulation-core performance" in capsys.readouterr().out


def _guard_report(**headline):
    """A full ``/10`` report whose every floor passes with room to spare.

    Each headline sits at twice a ``>=`` bound or half a ``<=`` bound
    (1.0 where there is no floor); keyword arguments override values.
    """
    values = {}
    for key, _section, _field, floor in HEADLINE_SPEC:
        if floor is None:
            values[key] = 1.0
        else:
            comparator, bound = floor
            values[key] = bound * 2 if comparator == ">=" else bound / 2
    values.update(headline)
    results = {}
    for key, section, field, _floor in HEADLINE_SPEC:
        results.setdefault(section, {})[field] = values[key]
    return {"schema": SCHEMA, "results": results, "headline": values}


_FLOORS = [(key, floor) for key, _s, _f, floor in HEADLINE_SPEC if floor is not None]


def test_every_headline_with_a_floor_is_checked():
    assert len(_FLOORS) == 6
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
    report["results"] = {"flow_churn": report["results"]["flow_churn"]}
    report["headline"] = {"churn_flows_per_second": 20_000.0}
    report["only"] = ["flow_churn"]
    assert check_bench.check(report) == []
    skipped = capsys.readouterr().out.count("left out by --only")
    assert skipped == len(_FLOORS)


@pytest.mark.parametrize("schema", ["repro-bench-core/9", "repro-bench-core/11", ""])
def test_other_schemas_exit_2(schema, tmp_path):
    path = tmp_path / "report.json"
    report = _guard_report()
    report["schema"] = schema
    path.write_text(json.dumps(report))
    assert check_bench.main(["check_bench.py", str(path)]) == 2
