"""CLI surface of the runner: --jobs/--no-cache/--cache-stats, repro cache."""

import pytest

from repro.cli import main


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    return directory


class TestRunCommand:
    def test_unknown_artifact_exits_2_with_id_listing(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact(s): fig99" in err
        assert "valid ids:" in err
        assert "fig03" in err and "'all'" in err

    def test_run_writes_reports_and_cache_stats(self, cache_dir, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            ["run", "fig04", "-o", str(out_dir), "--cache-stats"]
        )
        assert code == 0
        assert (out_dir / "fig04.txt").is_file()
        assert "sweep-runner:" in capsys.readouterr().out
        assert (cache_dir / "results-v2.sqlite").is_file()

    def test_warm_run_hits_cache(self, cache_dir, capsys):
        assert main(["run", "fig04", "--cache-stats"]) == 0
        cold = capsys.readouterr().out
        assert main(["run", "fig04", "--jobs", "2", "--cache-stats"]) == 0
        warm = capsys.readouterr().out
        assert "0 executed" in warm.splitlines()[-1]
        # Reports themselves are identical cold vs warm.
        assert warm.splitlines()[:-1][:5] == cold.splitlines()[:5]

    def test_no_cache_flag_disables_caching(self, cache_dir, capsys):
        assert main(["run", "fig04", "--no-cache", "--cache-stats"]) == 0
        assert "0 hit(s)" in capsys.readouterr().out
        assert not cache_dir.exists()



@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fig01"],
        ["validate"],
        ["perf", "--smoke", "--only", "engine_events"],
    ],
    ids=["run", "validate", "perf"],
)
def test_json_into_missing_directory_exits_2_before_running(
    argv, tmp_path, capsys, monkeypatch
):
    def no_run(args):
        raise AssertionError("the command ran before the --json check")

    monkeypatch.setattr("repro.cli._dispatch", no_run)
    target = tmp_path / "nodir" / "out.json"
    assert main([*argv, "--json", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --json ")
    assert "nodir" in err and "does not exist" in err
    assert not target.parent.exists()

class TestCacheCommand:
    def test_show_then_clear(self, cache_dir, capsys):
        assert main(["run", "fig04"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        shown = capsys.readouterr().out
        assert "entries: 3" in shown
        assert str(cache_dir) in shown
        assert main(["cache", "clear"]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert main(["cache", "show"]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestValidateAndMethodology:
    def test_validate_accepts_runner_flags(self, cache_dir, capsys):
        assert main(["validate", "--jobs", "2", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "sweep-runner:" in out

    def test_validate_json_to_stdout(self, cache_dir, capsys):
        import json

        assert main(["validate", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["passed"] is True
        assert document["failed"] == 0
        assert document["total"] == len(document["checks"])
        check = document["checks"][0]
        assert set(check) == {
            "check_id",
            "passed",
            "observed",
            "expected",
            "unit",
            "detail",
        }

    def test_validate_json_to_file(self, cache_dir, tmp_path, capsys):
        import json

        out_path = tmp_path / "validation.json"
        assert main(["validate", "--json", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["passed"] is True
        assert "scenario" in document

    def test_validate_json_exit_nonzero_on_fail(self, cache_dir, capsys, monkeypatch):
        # Force a failing battery: every tolerance check reports out
        # of bounds, so the CLI must exit non-zero and say so in JSON.
        import json

        from repro.core import validation

        monkeypatch.setattr(
            validation, "_within", lambda *args, **kwargs: False
        )
        code = main(["validate", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["passed"] is False
        assert document["failed"] == document["total"]


class TestReportCommand:
    def test_unknown_artifact_exits_2(self, capsys):
        assert main(["report", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact" in err
        assert "valid ids:" in err

    def test_writes_html_and_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "report",
                "fig05",
                "-o",
                "out.html",
                "--json",
                "out.json",
                "--no-validate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote out.html" in out
        assert "wrote out.json" in out
        assert "critical path" in out
        html_doc = (tmp_path / "out.html").read_text()
        assert html_doc.startswith("<!DOCTYPE html>")
        import json

        document = json.loads((tmp_path / "out.json").read_text())
        assert document["artifact"] == "fig05"
        assert document["validation"] is None

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "fig05", "--no-validate"]) == 0
        assert "wrote report_fig05.html" in capsys.readouterr().out
        assert (tmp_path / "report_fig05.html").is_file()


class TestExplainCommand:
    def test_unknown_artifact_exits_2(self, capsys):
        assert main(["explain", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_explains_critical_path(self, capsys):
        assert main(["explain", "fig05", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fig05:")
        assert "critical path" in out

    def test_accepts_module_alias(self, capsys):
        assert main(["explain", "fig05_scaling"]) == 0
        assert capsys.readouterr().out.startswith("fig05:")

    def test_unknown_span_id_exits_2(self, capsys):
        assert main(["explain", "fig05", "--span", "999999"]) == 2
        assert "no span with id" in capsys.readouterr().err


class TestMetricsFlag:
    def test_run_metrics_prints_channel_table(self, cache_dir, capsys):
        assert main(["run", "fig04", "--no-cache", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "channels by bytes moved" in out
        assert "network/flows_started" in out

    def test_all_cached_run_explains_empty_metrics(self, cache_dir, capsys):
        assert main(["run", "fig04"]) == 0
        capsys.readouterr()
        assert main(["run", "fig04", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "no metrics captured" in out
        assert "--no-cache" in out


class TestTraceCommand:
    def test_exports_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        assert main(["trace", "fig04", "--out", str(out_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "slice(s)" in out and "schema check passed" in out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["experiment"] == "fig04"

    def test_unknown_artifact_exits_2(self, tmp_path, capsys):
        code = main(["trace", "fig99", "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "unknown artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("capacity", ["0", "-1", "2.5", "many"])
    def test_bad_trace_capacity_exits_2(self, tmp_path, capsys, capacity):
        out_path = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fig04", "--out", str(out_path), "--trace-capacity", capacity])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--trace-capacity: must be a positive integer" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_trace_capacity_bounds_retention(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(
            [
                "trace",
                "fig04",
                "--out",
                str(out_path),
                "--trace-capacity",
                "2",
            ]
        ) == 0
        import json

        payload = json.loads(out_path.read_text())
        point_slices = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "point"
        ]
        assert point_slices
        # Each point keeps at most ``capacity`` real records...
        real = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e.get("cat") != "point"
        ]
        assert len(real) <= 2 * len(point_slices)
        # ...and at least one busy point reports evictions.
        assert any(
            slice_["args"]["trace_dropped"] > 0 for slice_ in point_slices
        )


@pytest.fixture
def fig09_telemetry(tmp_path):
    from repro.twin import synthesize_telemetry

    path = tmp_path / "fig09.jsonl"
    synthesize_telemetry("fig09").dump(path)
    return path


@pytest.fixture
def drifted_telemetry(tmp_path):
    from repro.twin import synthesize_telemetry

    path = tmp_path / "fig09_drifted.jsonl"
    synthesize_telemetry(
        "fig09", perturb={"kernel_xgmi_bidir_efficiency": 0.85}
    ).dump(path)
    return path


class TestShadowCommand:
    def test_zero_drift_replay_exits_0(self, fig09_telemetry, capsys):
        assert main(["shadow", "--telemetry", str(fig09_telemetry)]) == 0
        out = capsys.readouterr().out
        assert "Shadow replay" in out
        assert "no drift above" in out

    def test_alerts_exit_1(self, drifted_telemetry, capsys):
        assert main(["shadow", "--telemetry", str(drifted_telemetry)]) == 1
        assert "alert(s) above" in capsys.readouterr().out

    def test_json_payload(self, fig09_telemetry, tmp_path, capsys):
        import json

        out = tmp_path / "shadow.json"
        code = main(
            [
                "shadow",
                "--telemetry",
                str(fig09_telemetry),
                "--window",
                "0.1",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-shadow/1"
        assert payload["overall"]["max_abs_drift"] == 0.0

    def test_requires_telemetry(self, capsys):
        assert main(["shadow"]) == 2
        assert "requires --telemetry" in capsys.readouterr().err

    def test_rejects_bad_telemetry_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "repro-telemetry/9"}\n')
        assert main(["shadow", "--telemetry", str(bad)]) == 2
        assert "cannot load telemetry" in capsys.readouterr().err

    def test_alert_threshold_flag(self, drifted_telemetry, capsys):
        code = main(
            [
                "shadow",
                "--telemetry",
                str(drifted_telemetry),
                "--alert-threshold",
                "0.9",
            ]
        )
        assert code == 0


class TestCalibrateCommand:
    def test_fit_writes_profile_with_provenance(
        self, drifted_telemetry, tmp_path, capsys
    ):
        from repro.core.calibration import DEFAULT_CALIBRATION, load_profile

        out = tmp_path / "profile.json"
        code = main(
            [
                "calibrate",
                "--telemetry",
                str(drifted_telemetry),
                "--fields",
                "kernel_xgmi_bidir_efficiency",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "residual RMS" in capsys.readouterr().out
        profile, provenance = load_profile(out)
        truth = DEFAULT_CALIBRATION.kernel_xgmi_bidir_efficiency * 0.85
        assert abs(profile.kernel_xgmi_bidir_efficiency - truth) / truth < 0.01
        assert provenance["source"] == "fitted-from-telemetry"

    def test_fitted_profile_feeds_shadow(
        self, drifted_telemetry, tmp_path, capsys
    ):
        out = tmp_path / "profile.json"
        assert (
            main(
                [
                    "calibrate",
                    "--telemetry",
                    str(drifted_telemetry),
                    "--fields",
                    "kernel_xgmi_bidir_efficiency",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "shadow",
                "--telemetry",
                str(drifted_telemetry),
                "--calibration",
                str(out),
            ]
        )
        assert code == 0
        assert "no drift above" in capsys.readouterr().out

    def test_requires_telemetry(self, capsys):
        assert main(["calibrate"]) == 2
        assert "requires --telemetry" in capsys.readouterr().err

    def test_rejects_unknown_field(self, fig09_telemetry, capsys):
        code = main(
            [
                "calibrate",
                "--telemetry",
                str(fig09_telemetry),
                "--fields",
                "warp_speed",
            ]
        )
        assert code == 2
        assert "not fittable" in capsys.readouterr().err


class TestSigpipeHandling:
    """``repro ... | head`` must not die with a BrokenPipeError traceback."""

    class _ClosedPipe:
        """A stdout whose reader has gone away: every write EPIPEs."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def test_broken_pipe_exits_141(self, monkeypatch):
        import sys as _sys

        from repro.cli import SIGPIPE_EXIT

        monkeypatch.setattr(_sys, "stdout", self._ClosedPipe())
        assert main(["list"]) == SIGPIPE_EXIT == 141

    def test_broken_pipe_on_json_emit_exits_141(self, cache_dir, monkeypatch):
        import sys as _sys

        from repro.cli import SIGPIPE_EXIT

        monkeypatch.setattr(_sys, "stdout", self._ClosedPipe())
        assert main(["run", "fig04", "--json", "-"]) == SIGPIPE_EXIT

    def test_real_pipe_closed_reader(self, tmp_path):
        """End-to-end: reader closes first, CLI exits 141 quietly."""
        import os as _os
        import subprocess
        import sys as _sys

        env = {**_os.environ, "PYTHONPATH": "src", "REPRO_CACHE_DIR": str(tmp_path)}
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "run", "fig01", "--json", "-"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # reader hangs up before the CLI writes
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141, err.decode()
        assert b"Traceback" not in err
        assert b"BrokenPipeError" not in err
