"""``repro perf``: report semantics that do not depend on timing."""

from repro.perf.core import bench_sweep_parallel, run_suite


class TestSweepParallel:
    def test_serial_run_reports_no_speedup(self):
        result = bench_sweep_parallel(jobs=1)
        assert result["jobs"] == 1
        assert result["identical_outputs"] is True
        assert result["speedup"] is None

    def test_single_cpu_default_omits_headline(self, monkeypatch):
        # jobs defaults from the CPUs this process may run on, not the
        # machine's core count; one CPU means a serial "parallel" run.
        monkeypatch.setattr("repro.runner.runner.available_cpus", lambda: 1)
        report = run_suite(smoke=True, only=["sweep_parallel"])
        parallel = report["results"]["sweep_parallel"]
        assert parallel["jobs"] == 1
        assert parallel["cores"] == 1
        assert parallel["speedup"] is None
        assert "sweep_parallel_speedup" not in report["headline"]
