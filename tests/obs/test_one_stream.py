"""One observation stream: every operation is recorded once, as a span.

Finished spans are the timeline tracer's only producer, and the
Perfetto export draws each span as exactly one slice.  The workload
covers every runtime layer that records: HIP copies (host, peer,
async), a kernel, an XNACK page migration, and ring, tree and
hierarchical allreduces (hierarchical needs a multi-node cluster).
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.units import MiB

#: Perfetto process row that timeline records (not spans) land on.
RECORD_PID = 1


def _run(obs: repro.ObsConfig) -> repro.Session:
    session = repro.Session("mi250x-cluster", obs=obs, xnack_enabled=True)
    hip = session.hip

    def program():
        host = hip.host_malloc(2 * MiB)
        a = hip.malloc(2 * MiB, device=0)
        b = hip.malloc(2 * MiB, device=1)
        yield from hip.memcpy(a, host)
        yield from hip.memcpy_peer(b, 1, a, 0)
        yield hip.launch_stream_copy(b, b, device=1)
        managed = hip.malloc_managed(1 * MiB)
        yield hip.launch_stream_copy(managed, managed, device=0)

    session.run(program())
    for algorithm, gcds in (
        ("ring", [0, 1, 2, 3]),
        ("tree", [0, 1, 2, 3]),
        ("hierarchical_ring", [0, 1, 8, 9]),
    ):
        comm = session.rccl_communicator(gcds, algorithm=algorithm)
        session.run(comm.allreduce(4 * MiB))
    session.close()
    return session


def _key(start, end, category, name, meta):
    return (start, end, category, name, tuple(sorted(meta.items())))


@pytest.fixture(scope="module")
def traced():
    return _run(repro.ObsConfig(trace=True, spans=True))


class TestOneStream:
    def test_workload_covers_every_recording_layer(self, traced):
        names = {span.name for span in traced.node.spans.spans()}
        assert {"memcpy", "kernel", "fault", "rccl", "rccl-step"} <= {
            span.category for span in traced.node.spans.spans()
        }
        assert {
            "rccl:allreduce",
            "rccl:tree_allreduce",
            "rccl:hierarchical_allreduce",
            "migrate-fluid",
        } <= names

    def test_every_finished_span_is_recorded_exactly_once(self, traced):
        finished = [s for s in traced.node.spans.spans() if s.end is not None]
        assert finished
        spans = Counter(
            _key(s.start, s.end, s.category, s.name, s.meta) for s in finished
        )
        records = Counter(
            _key(r.start, r.end, r.category, r.label, r.detail)
            for r in traced.tracer.records()
        )
        assert records == spans
        assert traced.tracer is traced.node.spans.tracer

    def test_export_draws_one_slice_per_span(self, traced):
        payload = traced.export_trace()
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        spans = traced.spans()
        assert len(slices) == len(spans)
        assert sorted(e["args"]["span_id"] for e in slices) == [
            s["id"] for s in spans
        ]
        assert not [e for e in slices if e["pid"] == RECORD_PID]

    def test_trace_alone_yields_the_same_timeline(self, traced):
        alone = _run(repro.ObsConfig(trace=True))
        assert alone.node.spans.enabled
        assert [
            _key(r.start, r.end, r.category, r.label, r.detail)
            for r in alone.tracer.records()
        ] == [
            _key(r.start, r.end, r.category, r.label, r.detail)
            for r in traced.tracer.records()
        ]

    def test_tracing_does_not_move_the_clock(self, traced):
        untraced = _run(repro.ObsConfig())
        assert not untraced.node.spans
        assert len(untraced.tracer) == 0
        assert traced.now == untraced.now
