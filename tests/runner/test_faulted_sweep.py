"""Fault-sensitivity sweeps: cache keying, determinism, and the
BaseException discipline of the result cache."""

import pickle

import pytest

from repro.faults import FaultScenario, LinkDegrade
from repro.runner import ResultCache, SimPoint, SweepRunner
from repro.units import MiB

DEGRADE = FaultScenario(
    events=(LinkDegrade(link="gcd1-gcd3:single", factor=0.5, at=0.0),),
    name="degrade",
)


def _points(sizes=(16 * MiB, 32 * MiB)):
    return [
        SimPoint.make(
            "fig06",
            f"bw/1->3/{size}",
            "repro.bench_suites.p2p_matrix:measure_pair_bandwidth",
            src_gcd=1,
            dst_gcd=3,
            size=size,
        )
        for size in sizes
    ]


class TestFaultedExecution:
    def test_scenario_reaches_internally_built_sessions(self, topology):
        """measure_pair_bandwidth builds its own Session; the runner's
        ambient scenario must still reach it.  With the 1-3 link halved
        the link itself becomes the binding constraint, so measured
        bandwidth drops to (just under) the degraded capacity."""
        points = _points()
        healthy = SweepRunner(use_cache=False).run_points(points)
        faulted = SweepRunner(use_cache=False, faults=DEGRADE).run_points(
            points
        )
        from repro.faults.injector import resolve_link

        degraded_capacity = (
            0.5 * resolve_link(topology, "gcd1-gcd3:single").capacity_per_direction
        )
        for before, after in zip(healthy, faulted):
            assert after < 0.75 * before
            assert after <= degraded_capacity * (1 + 1e-6)
            assert after > 0.9 * degraded_capacity

    def test_faulted_parallel_matches_serial(self):
        points = _points()
        serial = SweepRunner(1, use_cache=False, faults=DEGRADE).run_points(
            points
        )
        parallel = SweepRunner(4, use_cache=False, faults=DEGRADE).run_points(
            points
        )
        assert parallel == serial

    def test_runner_leaves_no_ambient_scenario_behind(self):
        from repro.context import active

        SweepRunner(use_cache=False, faults=DEGRADE).run_points(_points())
        assert active().faults is None


class TestFaultedCacheKeys:
    def _key(self, runner, cache, point):
        return cache.key_for(runner._keyed_point(point))

    def test_faulted_and_healthy_runs_never_collide(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        point = _points()[0]
        healthy = SweepRunner(cache=cache)
        faulted = SweepRunner(cache=cache, faults=DEGRADE)
        assert self._key(healthy, cache, point) != self._key(
            faulted, cache, point
        )

    def test_scenario_name_does_not_affect_the_key(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        point = _points()[0]
        renamed = FaultScenario(events=DEGRADE.events, name="other-name")
        a = SweepRunner(cache=cache, faults=DEGRADE)
        b = SweepRunner(cache=cache, faults=renamed)
        assert self._key(a, cache, point) == self._key(b, cache, point)

    def test_empty_scenario_is_equivalent_to_healthy(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        point = _points()[0]
        healthy = SweepRunner(cache=cache)
        empty = SweepRunner(cache=cache, faults=FaultScenario())
        assert empty.faults is None
        assert self._key(healthy, cache, point) == self._key(
            empty, cache, point
        )

    def test_warm_faulted_run_hits_its_own_entries(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        points = _points()
        cold = SweepRunner(cache=cache, faults=DEGRADE)
        first = cold.run_points(points)
        warm = SweepRunner(cache=cache, faults=DEGRADE)
        assert warm.run_points(points) == first
        assert warm.stats.cache_hits == len(points)
        # A healthy runner on the same cache must not see those entries.
        healthy = SweepRunner(cache=cache)
        healthy.run_points(points)
        assert healthy.stats.cache_hits == 0


class TestCacheExceptionDiscipline:
    def test_corrupt_entry_recomputes_instead_of_raising(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        cache.store("ab" * 32, 42)
        path = cache._path("ab" * 32)
        path.write_bytes(b"not a pickle")
        hit, value = cache.load("ab" * 32)
        assert (hit, value) == (False, None)
        assert cache.stats.errors == 1
        assert not path.exists()  # corrupt entry dropped

    def test_keyboard_interrupt_propagates(self, tmp_path, monkeypatch):
        """Regression: a bare ``except Exception`` here used to swallow
        Ctrl-C mid-load and miscount it as cache corruption."""
        cache = ResultCache(tmp_path, version="1")
        cache.store("cd" * 32, 42)

        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "load", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.load("cd" * 32)
        assert cache.stats.errors == 0

    def test_system_exit_propagates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, version="1")
        cache.store("ef" * 32, 42)

        def exiting(*_args, **_kwargs):
            raise SystemExit(1)

        monkeypatch.setattr(pickle, "load", exiting)
        with pytest.raises(SystemExit):
            cache.load("ef" * 32)
