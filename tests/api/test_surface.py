"""The ``repro.api`` v1 surface and the pre-v1 compatibility shims."""

import warnings

import pytest

import repro
import repro.api as api
from repro.configs import ObsConfig, RunnerConfig
from repro.errors import ConfigurationError
from repro.hardware.node import HardwareNode
from repro.obs import capture


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_api_version_is_one(self):
        assert api.API_VERSION == 1

    def test_front_door_names_are_the_package_names(self):
        # api re-exports, it does not wrap: identity, not equality.
        assert api.Session is repro.Session
        assert api.ObsConfig is repro.ObsConfig
        assert api.RunnerConfig is repro.RunnerConfig
        assert api.SweepRunner is repro.SweepRunner
        assert api.FaultScenario is repro.FaultScenario

    def test_quickstart_from_docstring_runs(self):
        with api.Session("mi250x", obs=api.ObsConfig(trace=True)) as s:
            src = s.hip.malloc(1 << 20, device=0)
            dst = s.hip.malloc(1 << 20, device=4)
            s.run(s.hip.memcpy_peer(dst, 4, src, 0))
            assert s.now > 0
            assert len(s.tracer) > 0


class TestObsConfig:
    def test_grouped_style_enables_tracer_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with api.Session(obs=ObsConfig(trace=True)) as s:
                assert s.tracer.enabled
                assert s.obs.trace is True

    def test_default_observes_nothing(self):
        with api.Session() as s:
            assert not s.obs.enabled
            assert not s.tracer.enabled

    def test_flat_kwargs_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown environment flag"):
            api.Session(trace=True)

    def test_mixing_styles_is_an_error(self):
        with pytest.raises(ConfigurationError, match="unknown environment flag"):
            api.Session(trace=True, obs=ObsConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace_capacity": 0},
            {"trace_capacity": -3},
            {"trace_capacity": 2.5},
            {"trace_capacity": True},
            {"trace_capacity": "4"},
            {"metrics_capacity": -1},
            {"metrics_capacity": 2.5},
            {"metrics_capacity": False},
        ],
    )
    def test_bad_capacities_are_rejected_at_construction(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=f"ObsConfig.{field}"):
            ObsConfig(trace=True, metrics=True, **kwargs)
        # The same bounds reach the simulator through an ambient
        # capture and through a hand-built node; both refuse them up
        # front instead of failing mid-run (metrics ring maxlen) or
        # with a bare ValueError (tracer capacity).
        with pytest.raises(ConfigurationError, match=f"capture.{field}"):
            with capture(**kwargs):
                pass
        with pytest.raises(ConfigurationError, match=f"HardwareNode.{field}"):
            HardwareNode(trace=True, metrics=True, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace_capacity": 1},
            {"trace_capacity": None},
            {"metrics_capacity": 0},
            {"metrics_capacity": 64},
        ],
    )
    def test_valid_capacities_are_accepted(self, kwargs):
        with api.Session(obs=ObsConfig(trace=True, metrics=True, **kwargs)) as s:
            s.run(s.hip.memcpy_peer(*_peer_pair(s)))
            assert len(s.tracer) >= 1


def _peer_pair(session):
    src = session.hip.malloc(1 << 20, device=0)
    dst = session.hip.malloc(1 << 20, device=1)
    return dst, 1, src, 0


class TestRunnerConfig:
    def test_session_runner_inherits_config(self, tmp_path):
        config = RunnerConfig(jobs=2, cache=True, cache_dir=str(tmp_path))
        with api.Session(runner=config) as s:
            runner = s.runner()
            assert runner.jobs == 2
            assert runner.cache is not None

    def test_cache_false_disables_cache(self):
        with api.Session(runner=RunnerConfig(cache=False)) as s:
            assert s.runner().cache is None

    def test_from_config_maps_every_field(self, tmp_path):
        config = RunnerConfig(
            jobs=3,
            cache=True,
            cache_dir=str(tmp_path),
            capture_metrics=True,
            capture_spans=True,
        )
        runner = api.SweepRunner.from_config(config)
        assert runner.jobs == 3
        assert runner.cache is not None
        assert runner.capture_metrics
        assert runner.capture_spans
