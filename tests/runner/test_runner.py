"""SweepRunner mechanics: job resolution, caching, fallback, ordering."""

import multiprocessing
import os

import pytest

from repro.runner import ResultCache, SimPoint, SweepRunner, resolve_jobs
from repro.runner.runner import available_cpus
from repro.units import MiB


def _grid(sizes=(1 * MiB, 2 * MiB, 4 * MiB)):
    return [
        SimPoint.make(
            "fig03",
            f"h2d/pinned/{size}",
            "repro.bench_suites.comm_scope:measure_h2d",
            interface="pinned_memcpy",
            size=size,
        )
        for size in sizes
    ]


class TestResolveJobs:
    def test_defaults_and_auto(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs("2") == 2
        cores = available_cpus()
        assert resolve_jobs(0) == cores
        assert resolve_jobs("auto") == cores

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_auto_respects_affinity_mask(self, monkeypatch):
        """Regression: ``auto`` used ``os.cpu_count()``, which reports
        the machine, not the cgroup/affinity mask — a container pinned
        to 2 of 64 cores got 64 workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert available_cpus() == 2
        assert resolve_jobs("auto") == 2
        assert resolve_jobs(0) == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cpus() == (os.cpu_count() or 1)

    def test_empty_affinity_mask_falls_back(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
        assert available_cpus() == (os.cpu_count() or 1)


class TestRunPoints:
    def test_outputs_in_point_order(self):
        points = _grid()
        runner = SweepRunner(use_cache=False)
        assert runner.run_points(points) == [p.execute() for p in points]
        assert runner.stats.points == 3
        assert runner.stats.executed == 3
        assert runner.stats.cache_hits == 0

    def test_second_run_is_all_hits(self, tmp_path):
        points = _grid()
        runner = SweepRunner(cache=ResultCache(tmp_path, version="1"))
        cold = runner.run_points(points)
        warm = runner.run_points(points)
        assert warm == cold
        assert runner.stats.executed == 3
        assert runner.stats.cache_hits == 3
        assert "3 hit(s)" in runner.stats.describe()

    def test_no_cache_runner_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner(use_cache=False)
        runner.run_points(_grid())
        assert runner.cache is None
        assert list(tmp_path.iterdir()) == []

    def test_parallel_matches_serial(self, tmp_path):
        points = _grid()
        serial = SweepRunner(1, use_cache=False).run_points(points)
        parallel = SweepRunner(4, use_cache=False).run_points(points)
        assert parallel == serial

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        runner = SweepRunner(4, use_cache=False)
        monkeypatch.setattr(
            SweepRunner,
            "_execute_parallel",
            lambda self, points, trampoline: (_ for _ in ()).throw(
                OSError("no pool")
            ),
        )
        points = _grid()
        assert runner.run_points(points) == [p.execute() for p in points]
        assert runner.stats.parallel_fallbacks == 1


def _die_in_worker(point):
    """Trampoline that kills pool workers but works in the parent.

    ``os._exit`` from inside a worker is what an OOM kill or a native
    segfault looks like to the executor: the pool turns into a
    ``BrokenProcessPool``.  Run serially (in the parent) it behaves.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return point.execute()


def _die_everywhere(point):
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    raise RuntimeError("serial retry is broken too")


class TestPoolCrashFallback:
    def test_worker_crash_finishes_serially(self):
        """Regression: a worker dying mid-sweep surfaced a raw
        ``BrokenProcessPool`` to the caller even though the remaining
        points were perfectly runnable."""
        runner = SweepRunner(2, use_cache=False)
        points = _grid()
        results = runner._execute_parallel(points, _die_in_worker)
        assert results == [p.execute() for p in points]
        assert runner.stats.pool_crashes == 1

    def test_serial_failure_after_crash_propagates(self):
        runner = SweepRunner(2, use_cache=False)
        with pytest.raises(RuntimeError, match="serial retry"):
            runner._execute_parallel(_grid(), _die_everywhere)
        assert runner.stats.pool_crashes == 1

    def test_healthy_pool_counts_no_crashes(self, tmp_path):
        runner = SweepRunner(2, use_cache=False)
        points = _grid()
        assert runner.run_points(points) == [p.execute() for p in points]
        assert runner.stats.pool_crashes == 0


class TestPerRunCacheStats:
    def test_fresh_runner_on_shared_cache_reports_own_hits(self, tmp_path):
        """Regression: RunnerStats copied the cache's *lifetime* totals,
        so a second runner sharing a warmed cache reported the first
        runner's misses as its own."""
        cache = ResultCache(tmp_path, version="1")
        points = _grid()
        SweepRunner(cache=cache).run_points(points)  # warm it up
        warm = SweepRunner(cache=cache)
        warm.run_points(points)
        assert warm.stats.cache_hits == 3
        assert warm.stats.cache_misses == 0  # not the warming run's 3
        assert "3 hit(s) / 0 miss(es)" in warm.stats.describe()

    def test_repeated_runs_accumulate_deltas(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path, version="1"))
        points = _grid()
        runner.run_points(points)
        runner.run_points(points)
        assert runner.stats.cache_misses == 3
        assert runner.stats.cache_hits == 3
        assert runner.stats.points == 6


class TestCaptureMetrics:
    def test_runner_merges_per_point_snapshots(self):
        runner = SweepRunner(use_cache=False, capture_metrics=True)
        outputs = runner.run_points(_grid())
        plain = SweepRunner(use_cache=False).run_points(_grid())
        assert outputs == plain  # observation never changes results
        metrics = runner.stats.metrics
        assert metrics is not None
        assert metrics["counters"]["network/flows_started"] >= 3
        assert any(
            usage["bytes"] > 0 for usage in metrics["channels"].values()
        )

    def test_disabled_by_default(self):
        runner = SweepRunner(use_cache=False)
        runner.run_points(_grid())
        assert runner.stats.metrics is None
        assert "metrics" not in runner.stats.as_dict()


class TestExperimentAPI:
    def test_run_experiment_matches_legacy(self):
        from repro import figures

        legacy = figures.run("fig04")
        runner = SweepRunner(use_cache=False)
        assert runner.run_experiment("fig04").canonical() == legacy.canonical()

    def test_run_many_dedups_and_preserves_order(self):
        runner = SweepRunner(use_cache=False)
        results = runner.run_many(["fig04", "fig02", "fig04"])
        assert list(results) == ["fig04", "fig02"]
        from repro import figures

        for eid, result in results.items():
            assert result.canonical() == figures.run(eid).canonical()
            assert result.wall_seconds > 0


@pytest.fixture(scope="module")
def fig11_fig12_alone():
    """fig11 and fig12 points and their per-artifact outputs."""
    from repro import figures

    alone = {}
    for eid in ("fig11", "fig12"):
        points = figures.sweep_points(eid)
        alone[eid] = (points, SweepRunner(use_cache=False).run_points(points))
    return alone


class TestInGridDuplicates:
    """Points that share a key run once per grid (fig11 and fig12
    share 35 collective points)."""

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"use_cache": False}, {"jobs": 2, "use_cache": False}],
        ids=["cache", "no-cache", "jobs2"],
    )
    def test_run_many_executes_shared_points_once(
        self, tmp_path, monkeypatch, fig11_fig12_alone, kwargs
    ):
        executed = []
        execute = SweepRunner._execute

        def spy(runner, points, context):
            executed.extend(points)
            return execute(runner, points, context)

        monkeypatch.setattr(SweepRunner, "_execute", spy)
        runner = SweepRunner(cache_dir=str(tmp_path), **kwargs)
        flat = [p for eid in ("fig11", "fig12") for p in fig11_fig12_alone[eid][0]]
        outputs = runner.run_points(flat)
        assert len(executed) == len(flat) - 35
        assert runner.stats.executed == len(flat) - 35
        assert runner.stats.cache_hits == 35
        assert outputs == [
            value for eid in ("fig11", "fig12") for value in fig11_fig12_alone[eid][1]
        ]

        executed.clear()
        results = SweepRunner(cache_dir=str(tmp_path / "many"), **kwargs).run_many(
            ["fig11", "fig12"]
        )
        assert len(executed) == len(flat) - 35
        from repro import figures

        for eid, (points, alone) in fig11_fig12_alone.items():
            expected = figures.merge_outputs(eid, points, alone)
            assert results[eid].canonical() == expected.canonical()

    def test_duplicates_without_a_cache_run_once(self):
        points = _grid((1 * MiB, 1 * MiB))
        runner = SweepRunner(use_cache=False)
        first, second = runner.run_points(points)
        assert first == second == points[0].execute()
        assert runner.stats.executed == 1 and runner.stats.cache_hits == 1

    def test_cold_grid_counts_add_up(self, tmp_path):
        points = _grid((1 * MiB, 2 * MiB, 1 * MiB))
        runner = SweepRunner(cache=ResultCache(tmp_path, version="1"))
        runner.run_points(points)
        stats = runner.stats
        assert (stats.executed, stats.cache_hits, stats.cache_misses) == (2, 1, 2)
        assert stats.cache_hits + stats.cache_misses + stats.uncacheable == 3
        assert runner.cache.stats.stores == 2
