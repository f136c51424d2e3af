"""Tracing must be near-free when disabled, bounded when ringed.

The regression of record: no runtime-layer call site records on its
own — finished spans feed the tracer attached to their recorder — so
an untraced session performs **no per-record allocation at all**,
enforced here by making record construction explode and running the
runtime code paths.
"""

from __future__ import annotations

import pytest

import repro
from repro.sim import trace as trace_module
from repro.sim.trace import TraceRecord, Tracer


class _ExplodingRecord:
    def __init__(self, *args, **kwargs):
        raise AssertionError("TraceRecord built while tracing is disabled")


@pytest.fixture
def no_record_construction(monkeypatch):
    monkeypatch.setattr(trace_module, "TraceRecord", _ExplodingRecord)


def _exercise_runtime(session: repro.Session) -> None:
    hip = session.hip

    def program():
        src = hip.host_malloc(1 << 20)
        dst = hip.malloc(1 << 20, device=0)
        peer = hip.malloc(1 << 20, device=1)
        yield from hip.memcpy(dst, src)
        yield from hip.memcpy_peer(peer, 1, dst, 0)
        yield hip.launch_stream_copy(peer, peer, device=1)
        managed = hip.malloc_managed(1 << 16)
        yield from hip.mem_prefetch(managed, device=0)

    session.run(program())


class TestDisabledTracerAllocatesNothing:
    def test_runtime_paths_build_no_records(self, no_record_construction):
        session = repro.Session()  # trace defaults to off
        _exercise_runtime(session)
        assert len(session.tracer) == 0

    def test_rccl_path_builds_no_records(self, no_record_construction):
        session = repro.Session()
        comm = session.rccl_communicator([0, 1])
        session.run(comm.allreduce(1 << 20))
        assert len(session.tracer) == 0

    def test_record_method_itself_is_not_called(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            Tracer,
            "record",
            lambda self, *a, **k: calls.append(a),
        )
        session = repro.Session()
        _exercise_runtime(session)
        assert calls == []

    def test_disabled_tracer_is_falsy(self):
        assert not Tracer(enabled=False)
        assert Tracer(enabled=True)


class TestEnabledTracerStillRecords:
    def test_same_workload_produces_records(self):
        session = repro.Session(obs=repro.ObsConfig(trace=True))
        _exercise_runtime(session)
        assert len(session.tracer) > 0
        categories = {r.category for r in session.tracer.records()}
        assert "memcpy" in categories


class TestRingBuffer:
    def test_capacity_keeps_newest(self):
        tracer = Tracer(enabled=True, capacity=3)
        for i in range(10):
            tracer.record(float(i), float(i) + 0.5, "k", f"r{i}")
        assert len(tracer) == 3
        labels = [record.label for record in tracer.records()]
        assert labels == ["r7", "r8", "r9"]
        assert tracer.dropped == 7

    def test_clear_resets_dropped(self):
        tracer = Tracer(enabled=True, capacity=1)
        tracer.record(0.0, 1.0, "k", "a")
        tracer.record(1.0, 2.0, "k", "b")
        assert tracer.dropped == 1
        tracer.clear()
        assert tracer.dropped == 0
        assert len(tracer) == 0

    def test_session_trace_capacity_flows_through(self):
        session = repro.Session(
            obs=repro.ObsConfig(trace=True, trace_capacity=2)
        )
        _exercise_runtime(session)
        assert len(session.tracer) == 2
        assert session.tracer.dropped > 0
