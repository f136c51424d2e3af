"""End-to-end observability: sessions, ambient capture, fig04 contention."""

import pytest

import repro
from repro import figures
from repro.obs import capture, trace_experiment, validate_chrome_trace
from repro.units import MiB


def _peer_copy_session():
    session = repro.Session(
        topology="mi250x", obs=repro.ObsConfig(metrics=True, trace=True)
    )
    hip = session.hip

    def program():
        src = hip.malloc(4 * MiB, device=0)
        dst = hip.malloc(4 * MiB, device=1)
        yield from hip.memcpy_peer(dst, 1, src, 0)

    session.run(program())
    return session


class TestSessionMetrics:
    def test_peer_copy_populates_layers(self):
        session = _peer_copy_session()
        snapshot = session.metrics()
        counters = snapshot["counters"]
        assert counters["hip/memcpy/peer"] == 1
        assert counters["hip/memcpy/peer/bytes"] == 4 * MiB
        assert counters["engine/events_delivered"] > 0
        assert counters["network/flows_started"] >= 1
        # Solver stats are published as absolute values.
        assert counters["solver/component_solves"] >= 1

    def test_sdma_engine_saturates_its_channel(self):
        session = _peer_copy_session()
        channels = session.node.metrics.channels()
        sdma = [u for n, u in channels.items() if n.startswith("sdma/")]
        assert sdma, f"no sdma channels in {sorted(channels)}"
        assert max(u.utilization for u in sdma) == pytest.approx(1.0, rel=1e-3)
        # A single peer copy uses one lane of the quad link: 25% of peak.
        quad = [u for n, u in channels.items() if ":quad" in n]
        assert quad
        assert max(u.utilization for u in quad) == pytest.approx(0.25, rel=1e-3)

    def test_metrics_call_is_idempotent(self):
        session = _peer_copy_session()
        first = session.metrics()
        second = session.metrics()
        assert second["counters"] == first["counters"]

    def test_export_trace_validates_and_writes(self, tmp_path):
        session = _peer_copy_session()
        payload = session.export_trace(tmp_path / "trace.json")
        assert validate_chrome_trace(payload) == []
        assert (tmp_path / "trace.json").is_file()
        other = payload["otherData"]
        assert "calibration_fingerprint" in other
        assert other["metrics"]["counters"]["hip/memcpy/peer"] == 1

    def test_default_session_pays_no_metric_storage(self):
        with repro.Session() as session:
            assert not session.node.metrics
            assert session.node.metrics.counters() == {}


class TestAmbientCapture:
    def test_nodes_adopt_the_active_context(self):
        with capture() as ctx:
            first = repro.Session()
            second = repro.Session()
        assert ctx.adoptions >= 2
        assert first.node.metrics is ctx.metrics
        assert second.node.metrics is ctx.metrics
        assert first.node.tracer is ctx.tracer

    def test_tracer_follows_the_span_recorder(self):
        from repro.obs import NULL_SPANS

        with capture() as ctx:
            # The recorder is adopted, so its tracer comes with it —
            # also for a node that brought its own registry.
            own_metrics = repro.Session(obs=repro.ObsConfig(metrics=True))
        assert ctx.spans.enabled and ctx.spans.tracer is ctx.tracer
        assert own_metrics.node.spans is ctx.spans
        assert own_metrics.node.tracer is ctx.tracer
        with capture(trace=False, spans=True) as quiet:
            traced = repro.Session(obs=repro.ObsConfig(trace=True))
        # Asking for a trace under a capture that does not trace gives
        # the node a recorder and tracer of its own.
        assert traced.node.spans is not quiet.spans
        assert traced.node.tracer.enabled
        assert traced.node.spans.tracer is traced.node.tracer
        assert quiet.spans.tracer is quiet.tracer and not quiet.tracer
        assert NULL_SPANS.tracer is None

    def test_explicit_arguments_beat_the_context(self):
        with capture() as ctx:
            own = repro.Session(obs=repro.ObsConfig(metrics=True))
        assert own.node.metrics is not ctx.metrics
        assert own.node.metrics.enabled

    def test_context_restored_after_exit(self):
        from repro.context import active

        assert active().obs is None
        with capture():
            assert active().obs is not None
        assert active().obs is None

    def test_nested_captures_stack_innermost_wins(self):
        from repro.context import active

        with capture() as outer:
            assert active().obs is outer
            with capture() as inner:
                assert active().obs is inner
                assert inner is not outer
            assert active().obs is outer
        assert active().obs is None

    def test_context_restored_when_body_raises(self):
        from repro.context import active

        with pytest.raises(RuntimeError, match="boom"):
            with capture():
                raise RuntimeError("boom")
        assert active().obs is None

    def test_outer_context_restored_when_inner_body_raises(self):
        from repro.context import active

        with capture() as outer:
            with pytest.raises(ValueError):
                with capture():
                    raise ValueError("inner")
            assert active().obs is outer
        assert active().obs is None

    def test_pool_worker_trampolines_leak_no_registry(self):
        # execute_point_observed / execute_point_spanned run inside
        # pool workers; each must install and fully tear down its own
        # ambient context so the next point starts clean.
        from repro.context import active
        from repro.runner import SimPoint
        from repro.runner.points import (
            execute_point_observed,
            execute_point_spanned,
        )
        from repro.units import MiB

        point = SimPoint.make(
            "fig03",
            "h2d/pinned/1MiB",
            "repro.bench_suites.comm_scope:measure_h2d",
            interface="pinned_memcpy",
            size=1 * MiB,
        )
        assert active().obs is None
        value, snapshot = execute_point_observed(point)
        assert active().obs is None
        value2, snapshot2, spans = execute_point_spanned(point)
        assert active().obs is None
        assert value == value2
        assert snapshot["channels"]
        # Two consecutive points must not share a registry: byte
        # totals per channel are identical, not cumulative.
        for name, usage in snapshot["channels"].items():
            assert snapshot2["channels"][name]["bytes"] == usage["bytes"]


class TestFig04Contention:
    def test_shared_numaport_link_reaches_capacity(self):
        """The dual-GCD contention case must saturate the shared link.

        During the timed STREAM phase both GCDs pull through the same
        NUMA port, so the summed allocated rate of the shared channel
        must equal its capacity — within 1%, the paper-facing
        acceptance bound.  (The whole-run average is lower because the
        untimed init phase runs below the port limit.)
        """
        with capture(trace=False) as ctx:
            figures.run("fig04")
        ports = {
            name: usage
            for name, usage in ctx.metrics.channels().items()
            if name.startswith("numaport/")
        }
        assert ports, f"no numaport channels in {sorted(ctx.metrics.channels())}"
        peak = max(
            rate
            for usage in ports.values()
            for _, rate in usage.samples
        )
        capacity = max(usage.capacity for usage in ports.values())
        assert peak == pytest.approx(capacity, rel=0.01)
        shared = max(ports.values(), key=lambda u: u.max_concurrent_flows)
        assert shared.max_concurrent_flows >= 2  # both GCDs aboard at once


class TestTraceExperiment:
    def test_payload_is_valid_and_annotated(self):
        payload = trace_experiment("fig04")
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        point_slices = [
            e for e in events if e["ph"] == "X" and e.get("cat") == "point"
        ]
        assert len(point_slices) == len(figures.sweep_points("fig04"))
        assert payload["otherData"]["experiment"] == "fig04"
