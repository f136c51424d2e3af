"""Tests for the what-if scenarios and the CLI."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.whatif import SCENARIOS, get_scenario
from repro.errors import BenchmarkError


class TestScenarios:
    def test_all_scenarios_construct(self):
        for name in SCENARIOS:
            scenario = get_scenario(name)
            assert scenario.name == name
            assert scenario.topology.num_gcds >= 2
            assert scenario.description

    def test_unknown_scenario(self):
        with pytest.raises(BenchmarkError):
            get_scenario("quantum-fabric")

    def test_baseline_is_default_profile(self):
        from repro.core.calibration import DEFAULT_CALIBRATION

        scenario = get_scenario("baseline")
        assert scenario.calibration is DEFAULT_CALIBRATION
        assert scenario.topology.name == "frontier-mi250x"

    def test_unconstrained_sdma_only_changes_engine(self):
        scenario = get_scenario("unconstrained-sdma")
        assert scenario.calibration.sdma_engine_throughput == 200e9
        assert (
            scenario.calibration.kernel_xgmi_uni_efficiency
            == get_scenario("baseline").calibration.kernel_xgmi_uni_efficiency
        )

    def test_scenarios_do_not_mutate_default(self):
        from repro.core.calibration import DEFAULT_CALIBRATION

        get_scenario("fast-fault-handling")
        assert DEFAULT_CALIBRATION.xnack_fault_service == pytest.approx(
            1.32e-6
        )


class TestSharedScenarios:
    def test_each_scenario_is_built_once(self):
        for name in SCENARIOS:
            assert get_scenario(name) is get_scenario(name)

    def test_faulted_session_leaves_the_shared_dense_fabric_healthy(self):
        from repro import Session
        from repro.core.validation import validate_node
        from repro.faults import FaultScenario
        from repro.units import MiB

        scenario = get_scenario("dense-fabric")
        before = validate_node(scenario.topology, scenario.calibration)
        faults = FaultScenario.load(
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "scenarios" / "degrade_xgmi.json"
        )

        def peer_copy_time(session):
            hip = session.hip

            def run():
                src = hip.malloc(64 * MiB, device=1)
                dst = hip.malloc(64 * MiB, device=3)
                started = hip.now
                yield from hip.memcpy_peer(dst, 3, src, 1)
                return hip.now - started

            return session.run(run())

        with Session(topology=scenario.topology) as healthy:
            healthy_time = peer_copy_time(healthy)
        with Session(topology=scenario.topology, faults=faults) as faulted:
            assert faulted.topology is get_scenario("dense-fabric").topology
            assert peer_copy_time(faulted) > healthy_time
        after = validate_node(scenario.topology, scenario.calibration)
        assert after.as_dict() == before.as_dict()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "tab01" in out

    def test_run_single_artifact(self, capsys):
        assert main(["run", "fig09"]) == 0
        out = capsys.readouterr().out
        assert "43.5%" in out

    def test_run_unknown_artifact(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_topology(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "frontier-mi250x" in out and "0-6: dual" in out

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        assert "SDMA" in capsys.readouterr().out

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        assert "unconstrained-sdma" in capsys.readouterr().out

    def test_methodology_single_step(self, capsys):
        assert main(["methodology", "collectives"]) == 0
        out = capsys.readouterr().out
        assert "STEP collectives" in out and "RCCL" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
