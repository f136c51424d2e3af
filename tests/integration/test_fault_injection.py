"""Fault injection end to end: blame attribution and the inject CLI.

The acceptance scenario for the fault subsystem: degrading the 1-3
Infinity Fabric hop must visibly shift ``repro explain`` blame onto a
``fault:`` bucket for fig11 (the collectives figure whose ring crosses
that hop), and ``repro inject`` must drive the whole pipeline from a
scenario JSON file.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.faults import FaultScenario, LinkDegrade

DEGRADE = FaultScenario(
    events=(LinkDegrade(link="gcd1-gcd3:single", factor=0.3, at=0.0),),
    name="degrade-1-3",
)


def _blame_fractions(report):
    total = report["critical_path"]["length"]
    return {
        entry["key"]: entry["seconds"] / total for entry in report["blame"]
    }


class TestBlameShift:
    def test_degraded_link_dominates_fig11_blame(self):
        healthy = obs.collect_report("fig11", jobs=1)
        faulted = obs.collect_report("fig11", jobs=1, faults=DEGRADE)

        healthy_blame = _blame_fractions(healthy)
        faulted_blame = _blame_fractions(faulted)
        # Healthy runs never produce fault buckets.
        assert not any(key.startswith("fault:") for key in healthy_blame)
        # The degraded hop becomes the single largest blame bucket.
        fault_key = "fault:link-degrade:1->3"
        assert fault_key in faulted_blame
        assert faulted_blame[fault_key] == max(faulted_blame.values())

    def test_faulted_report_carries_scenario_metadata(self):
        report = obs.collect_report("fig11", jobs=1, faults=DEGRADE)
        assert report["faults"]["name"] == "degrade-1-3"
        assert report["faults"]["fingerprint"] == DEGRADE.fingerprint()
        assert len(report["faults"]["events"].splitlines()) == 2

    def test_healthy_report_has_no_faults_entry(self):
        report = obs.collect_report("fig11", jobs=1)
        assert report["faults"] is None


class TestInjectCli:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "degrade.json"
        DEGRADE.dump(path)
        return path

    def test_inject_runs_artifact_under_scenario(
        self, scenario_file, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(
            ["inject", "fig04", "--scenario", str(scenario_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injecting scenario 'degrade-1-3'" in out
        assert DEGRADE.fingerprint()[:12] in out
        assert "link_degrade" in out

    def test_no_cache_bypasses_the_cache(
        self, scenario_file, capsys, monkeypatch, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        code = main(
            [
                "inject",
                "fig04",
                "--scenario",
                str(scenario_file),
                "--no-cache",
            ]
        )
        assert code == 0
        assert not cache_dir.exists()

    def test_lethal_scenario_reports_cleanly_and_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        """A link_fail that kills an unretried transfer must surface as
        a one-line error plus hint, not a LinkDownError traceback."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        lethal = tmp_path / "outage.json"
        lethal.write_text(
            json.dumps(
                {
                    "events": [
                        {
                            "kind": "link_fail",
                            "link": "gcd0-numa0:cpu",
                            "at": 0.0001,
                        }
                    ]
                }
            )
        )
        code = main(["inject", "fig04", "--scenario", str(lethal), "--no-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert "killed the run" in err
        assert "link failed" in err
        assert "RetryPolicy" in err

    def test_unknown_artifact_exits_2(self, scenario_file, capsys):
        assert (
            main(["inject", "fig99", "--scenario", str(scenario_file)]) == 2
        )
        assert "unknown artifact" in capsys.readouterr().err

    def test_unreadable_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["inject", "fig04", "--scenario", str(bad)]) == 2
        assert "cannot load scenario" in capsys.readouterr().err

    def test_invalid_scenario_event_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad_event.json"
        bad.write_text(
            json.dumps(
                {"events": [{"kind": "link_fail", "link": "1-3", "at": -1}]}
            )
        )
        assert main(["inject", "fig04", "--scenario", str(bad)]) == 2
        assert "cannot load scenario" in capsys.readouterr().err
