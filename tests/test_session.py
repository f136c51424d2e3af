"""The ``repro.Session`` facade: wiring, presets, removed spellings."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.config import SimEnvironment
from repro.errors import ConfigurationError
from repro.topology.presets import frontier_node, single_gpu_node


class TestConstruction:
    def test_default_is_the_paper_node(self):
        session = repro.Session()
        assert session.num_gcds == 8
        assert session.topology.name == frontier_node().name
        assert session.hip.node is session.node
        assert session.network is session.node.network

    def test_preset_names(self):
        assert repro.Session(topology="mi250x").num_gcds == 8
        assert repro.Session(topology="single").num_gcds == 2
        assert repro.Session(topology="dense-hive").num_gcds == 8

    def test_preset_names_are_case_insensitive(self):
        assert repro.Session(topology="  MI250X ").num_gcds == 8

    def test_explicit_topology_object(self):
        session = repro.Session(topology=single_gpu_node())
        assert session.num_gcds == 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology preset"):
            repro.Session(topology="epyc")

    def test_resolve_topology_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            repro.resolve_topology(42)

    def test_env_flags_build_environment(self):
        session = repro.Session(xnack_enabled=True, sdma_enabled=False)
        assert session.env.xnack_enabled is True
        assert session.env.sdma_enabled is False

    def test_env_object_passthrough(self):
        env = SimEnvironment(xnack_enabled=True)
        assert repro.Session(env=env).env is env

    def test_env_and_flags_conflict(self):
        with pytest.raises(ConfigurationError, match="not both"):
            repro.Session(env=SimEnvironment(), xnack_enabled=True)

    def test_unknown_env_flag_rejected(self):
        # The flat observation kwargs are plain unknown flags: obs=ObsConfig
        # is their only spelling.
        for flag in (
            "frobnicate",
            "trace",
            "metrics",
            "spans",
            "trace_capacity",
            "metrics_capacity",
        ):
            with pytest.raises(
                ConfigurationError,
                match=rf"unknown environment flag\(s\) \['{flag}'\]",
            ):
                repro.Session(**{flag: True})

    def test_no_deprecation_warnings_emitted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = repro.Session(obs=repro.ObsConfig(trace=True))
            session.mpi_world([0, 1])
            session.rccl_communicator([0, 1])


class TestContextManager:
    def test_enter_returns_session_and_close_drains(self):
        with repro.Session() as session:
            done = session.engine.event()
            session.engine.call_after(5e-6, done.succeed, None)
        assert session.now == 5e-6  # close() drained the queue

    def test_close_is_idempotent(self):
        session = repro.Session()
        session.close()
        session.close()

    def test_run_drives_a_process(self):
        with repro.Session() as session:

            def program():
                yield session.engine.timeout(1e-6)
                return session.now

            assert session.run(program()) == 1e-6


class TestWorkloads:
    def test_memcpy_peer_roundtrip(self):
        with repro.Session(topology="mi250x") as session:
            hip = session.hip

            def program():
                src = hip.malloc(1 << 20, device=0)
                dst = hip.malloc(1 << 20, device=4)
                t0 = session.now
                yield from hip.memcpy_peer(dst, 4, src, 0)
                return session.now - t0

            elapsed = session.run(program())
        assert elapsed > 0

    def test_mpi_world_shares_the_node(self):
        session = repro.Session()
        world = session.mpi_world([0, 1])
        assert world.node is session.node
        assert world.env is session.env

    def test_rccl_communicator_shares_the_node(self):
        session = repro.Session()
        comm = session.rccl_communicator([0, 1, 2])
        assert comm.node is session.node
        assert comm.gcds == (0, 1, 2)

    def test_stats_expose_engine_and_solver_counters(self):
        with repro.Session() as session:
            hip = session.hip

            def program():
                src = hip.malloc(1 << 20, device=0)
                dst = hip.malloc(1 << 20, device=2)
                yield from hip.memcpy_peer(dst, 2, src, 0)

            session.run(program())
            stats = session.stats()
        assert stats["flows_added"] > 0
        assert stats["events_delivered"] > 0
        assert stats["sim_time"] == session.now
        assert stats["trace_records"] == 0

    def test_describe_mentions_topology(self):
        assert "GCD" in repro.Session().describe()


class TestBlessedSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_solve_is_max_min_fair_rates(self):
        assert repro.solve is repro.max_min_fair_rates

    def test_topology_presets_registry(self):
        assert set(repro.TOPOLOGY_PRESETS) >= {"mi250x", "single", "dense-hive"}


class TestDeprecatedPaths:
    """The removed pre-Session spellings fail instead of warning."""

    def test_hip_runtime_requires_a_node(self):
        from repro.hip.runtime import HipRuntime

        with pytest.raises(TypeError, match="node"):
            HipRuntime()

    def test_mpi_world_requires_a_node(self):
        from repro.mpi.comm import MpiWorld

        with pytest.raises(TypeError, match="node"):
            MpiWorld(rank_gcds=[0, 1])

    def test_rccl_communicator_requires_a_node(self):
        from repro.rccl.communicator import RcclCommunicator

        with pytest.raises(TypeError, match="node"):
            RcclCommunicator(gcds=[0, 1])

    def test_frontier_hardware_is_gone(self):
        import repro.hardware.node

        assert not hasattr(repro.hardware.node, "frontier_hardware")
        assert not hasattr(repro, "frontier_hardware")

    def test_explicit_node_does_not_warn(self):
        from repro.hip.runtime import HipRuntime

        session = repro.Session()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            HipRuntime(session.node, session.env)
