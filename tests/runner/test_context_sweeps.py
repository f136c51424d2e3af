"""A context installed *around* a SweepRunner behaves like its keywords.

Regressions for two ways the caller's ambient context used to go
missing:

- it was not folded into the cache keys, so on a warm cache a faulted
  (or ``tree``) run returned the healthy (or ring) results;
- pool workers started with ``spawn``/``forkserver`` did not inherit
  it, so ``jobs=2`` silently ran the default configuration.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro import figures
from repro.faults import FaultScenario, install
from repro.rccl import install_algorithm
from repro.runner import ResultCache, SweepRunner

REPO = Path(__file__).resolve().parents[2]
DEGRADE_XGMI = FaultScenario.load(
    REPO / "benchmarks" / "scenarios" / "degrade_xgmi.json"
)


def _allreduce_points(count=3):
    points = [
        point
        for point in figures.sweep_points("fig11")
        if point.label.startswith("rccl/allreduce/")
    ]
    return points[:count]


class TestInstalledContextIsKeyed:
    def test_installed_faults_miss_a_warm_healthy_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        healthy = SweepRunner(cache=cache).run_experiment("fig06")
        with install(DEGRADE_XGMI):
            runner = SweepRunner(cache=cache)
            ambient = runner.run_experiment("fig06")
        assert runner.stats.cache_hits == 0
        assert runner.stats.executed == runner.stats.points == 112
        explicit = SweepRunner(cache=cache, faults=DEGRADE_XGMI)
        assert (
            explicit.run_experiment("fig06").canonical() == ambient.canonical()
        )
        # Same context, same keys: the keyword run is served from cache.
        assert explicit.stats.cache_hits == 112
        assert ambient.canonical() != healthy.canonical()

    def test_installed_algorithm_misses_a_warm_ring_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = _allreduce_points()
        ring = SweepRunner(cache=cache).run_points(points)
        with install_algorithm("tree"):
            runner = SweepRunner(cache=cache)
            ambient = runner.run_points(points)
        assert runner.stats.cache_hits == 0
        assert runner.stats.executed == len(points)
        explicit = SweepRunner(use_cache=False, algorithm="tree")
        assert explicit.run_points(points) == ambient
        assert ambient != ring

    def test_keyword_overrides_the_installed_field(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = _allreduce_points(1)[0]
        with install_algorithm("tree"):
            overridden = SweepRunner(cache=cache, algorithm="ring")
            key = cache.key_for(overridden._keyed_point(point))
        assert key == cache.key_for(
            SweepRunner(cache=cache, algorithm="ring")._keyed_point(point)
        )


SPAWN_SWEEP = textwrap.dedent(
    """
    import json
    import multiprocessing

    from repro import figures
    from repro.rccl import install_algorithm
    from repro.runner import SweepRunner

    multiprocessing.set_start_method("spawn")
    points = [
        p for p in figures.sweep_points("fig11")
        if p.label.startswith("rccl/allreduce/")
    ][:3]
    ring = SweepRunner(1, use_cache=False).run_points(points)
    with install_algorithm("tree"):
        serial = SweepRunner(1, use_cache=False).run_points(points)
        runner = SweepRunner(2, use_cache=False)
        parallel = runner.run_points(points)
    print(json.dumps({
        "ring": ring,
        "serial": serial,
        "parallel": parallel,
        "fallbacks": runner.stats.parallel_fallbacks,
        "crashes": runner.stats.pool_crashes,
    }))
    """
)


class TestSpawnedWorkersKeepTheContext:
    def test_spawn_pool_matches_serial_under_installed_algorithm(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", SPAWN_SWEEP],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["fallbacks"] == 0 and report["crashes"] == 0
        assert report["parallel"] == report["serial"]
        assert report["serial"] != report["ring"]
