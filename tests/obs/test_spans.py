"""Span recorder unit tests: lifecycle, blame accounting, merging."""

import pytest

from repro.errors import SimulationError
from repro.obs.spans import (
    DEFAULT_INTERVAL_CAPACITY,
    NULL_SPANS,
    Span,
    SpanRecorder,
    merge_point_spans,
    resolve_spans,
    span_dicts,
)
from repro.sim.trace import Tracer


class TestSpanRecorder:
    def test_begin_finish_lifecycle(self):
        recorder = SpanRecorder()
        root = recorder.begin("mpi", "send", start=0.0)
        child = recorder.begin("flow", "copy", start=0.1, parent=root)
        recorder.finish(child, 0.4)
        recorder.finish(root, 0.5)
        assert root.span_id == 0
        assert child.parent_id == 0
        assert child.duration == pytest.approx(0.3)
        assert len(recorder) == 2
        assert [s.span_id for s in recorder.spans()] == [0, 1]

    def test_disabled_recorder_is_falsy_and_inert(self):
        recorder = SpanRecorder(enabled=False)
        assert not recorder
        assert recorder.begin("flow", "x", start=0.0) is None
        recorder.finish(None, 1.0)  # must not raise
        assert len(recorder) == 0
        assert not NULL_SPANS

    def test_enabled_recorder_is_truthy(self):
        assert SpanRecorder()

    def test_meta_kwargs_are_kept(self):
        recorder = SpanRecorder()
        span = recorder.begin("rccl", "all_reduce", start=0.0, bytes=4096)
        assert span.meta == {"bytes": 4096}

    def test_finish_before_start_is_a_backwards_clock(self):
        recorder = SpanRecorder()
        span = recorder.begin("memcpy", "copy", start=1.0)
        with pytest.raises(SimulationError, match="before its start"):
            recorder.finish(span, 0.5)
        assert span.end is None
        recorder.finish(span, 1.0)  # a zero-length span is fine
        assert span.duration == 0.0

    def test_finish_publishes_one_record_to_the_attached_tracer(self):
        recorder = SpanRecorder()
        recorder.tracer = Tracer(enabled=True, capacity=2)
        for i in range(3):
            span = recorder.begin("kernel", f"k{i}", start=float(i), device=i)
            recorder.finish(span, i + 0.5)
        records = recorder.tracer.records()
        assert [(r.start, r.end, r.category, r.label) for r in records] == [
            (1.0, 1.5, "kernel", "k1"),
            (2.0, 2.5, "kernel", "k2"),
        ]
        assert records[-1].detail == {"device": 2}
        assert recorder.tracer.dropped == 1

    def test_disabled_tracer_gets_nothing(self):
        recorder = SpanRecorder()
        recorder.tracer = Tracer(enabled=False)
        recorder.finish(recorder.begin("kernel", "k", start=0.0), 1.0)
        assert len(recorder.tracer) == 0
        assert NULL_SPANS.tracer is None

    def test_resolve_spans(self):
        assert resolve_spans(None) is NULL_SPANS
        assert resolve_spans(False) is NULL_SPANS
        fresh = resolve_spans(True)
        assert isinstance(fresh, SpanRecorder) and fresh.enabled
        existing = SpanRecorder()
        assert resolve_spans(existing) is existing


class TestSpanAccounting:
    def test_account_accumulates_blame(self):
        span = Span(0, "flow", "copy", 0.0)
        span.account(0.0, 0.2, 1e9, "link/a:fwd")
        span.account(0.2, 0.3, 5e8, "link/a:fwd")
        span.account(0.5, 0.1, 2e9, "cap:dma")
        assert span.blame["link/a:fwd"] == pytest.approx(0.5)
        assert span.blame["cap:dma"] == pytest.approx(0.1)
        assert len(span.intervals) == 3
        assert span.dropped == 0

    def test_interval_ring_bounds_and_counts_drops(self):
        span = Span(0, "flow", "copy", 0.0, interval_capacity=2)
        for i in range(5):
            span.account(i * 0.1, 0.1, 1e9, "c")
        assert len(span.intervals) == 2
        assert span.dropped == 3
        # Blame totals stay exact regardless of the sample bound.
        assert span.blame["c"] == pytest.approx(0.5)

    def test_default_interval_capacity(self):
        span = Span(0, "flow", "copy", 0.0)
        assert span._interval_capacity == DEFAULT_INTERVAL_CAPACITY

    def test_unfinished_span_duration_is_zero(self):
        span = Span(0, "flow", "copy", 3.0)
        assert span.duration == 0.0


class TestSpanSerialization:
    def test_as_dict_from_dict_round_trip(self):
        recorder = SpanRecorder()
        root = recorder.begin("mpi", "send", start=0.0, rank=2)
        child = recorder.begin("flow", "copy", start=0.1, parent=root)
        child.account(0.1, 0.2, 1e9, "link/a:fwd")
        recorder.finish(child, 0.3)
        recorder.finish(root, 0.4)

        for original in recorder.spans():
            data = original.as_dict()
            rebuilt = Span.from_dict(data)
            assert rebuilt.as_dict() == data

    def test_unfinished_end_survives_round_trip(self):
        span = Span(7, "flow", "copy", 1.0, parent_id=3)
        rebuilt = Span.from_dict(span.as_dict())
        assert rebuilt.end is None
        assert rebuilt.parent_id == 3

    def test_span_dicts_normalizes_all_carriers(self):
        recorder = SpanRecorder()
        span = recorder.begin("flow", "x", start=0.0)
        recorder.finish(span, 1.0)
        from_recorder = span_dicts(recorder)
        from_spans = span_dicts([span])
        from_dicts = span_dicts(from_recorder)
        assert from_recorder == from_spans == from_dicts


class TestMergePointSpans:
    def _point(self, n, start=0.0):
        recorder = SpanRecorder()
        spans = []
        for i in range(n):
            span = recorder.begin("flow", f"op{i}", start=start + i * 0.1)
            recorder.finish(span, start + i * 0.1 + 0.05)
            spans.append(span)
        return recorder.as_dicts()

    def test_ids_are_remapped_uniquely(self):
        merged = merge_point_spans(
            [("p0", self._point(2)), ("p1", self._point(3))]
        )
        ids = [span["id"] for span in merged]
        assert ids == sorted(ids) == list(range(len(merged)))

    def test_synthetic_point_roots(self):
        merged = merge_point_spans([("alpha", self._point(2))])
        root = merged[0]
        assert root["cat"] == "point"
        assert root["name"] == "alpha"
        assert root["parent"] is None
        for span in merged[1:]:
            assert span["parent"] == root["id"]

    def test_points_are_separated_by_gap(self):
        merged = merge_point_spans(
            [("p0", self._point(1)), ("p1", self._point(1))], gap=0.5
        )
        roots = [s for s in merged if s["cat"] == "point"]
        assert roots[1]["start"] == pytest.approx(roots[0]["end"] + 0.5)

    def test_merge_is_deterministic_in_input_order(self):
        points = [("p0", self._point(2)), ("p1", self._point(3, start=5.0))]
        assert merge_point_spans(points) == merge_point_spans(points)

    def test_windows_widen_each_point_slot(self):
        points = [("p0", self._point(1, start=0.2)), ("p1", self._point(1))]
        merged = merge_point_spans(points, gap=0.5, windows=[(0.0, 1.0), (0.0, 0.0)])
        roots = [s for s in merged if s["cat"] == "point"]
        assert (roots[0]["start"], roots[0]["end"]) == (0.0, 1.0)
        # The span keeps its offset inside the widened slot.
        assert merged[1]["start"] == pytest.approx(0.2)
        assert roots[1]["start"] == pytest.approx(1.5)

    def test_empty_point_still_gets_root(self):
        merged = merge_point_spans([("empty", [])])
        assert len(merged) == 1
        assert merged[0]["cat"] == "point"
        assert merged[0]["start"] == merged[0]["end"]

    def test_parent_edges_survive_remap(self):
        recorder = SpanRecorder()
        root = recorder.begin("mpi", "send", start=0.0)
        child = recorder.begin("flow", "copy", start=0.1, parent=root)
        recorder.finish(child, 0.2)
        recorder.finish(root, 0.3)
        merged = merge_point_spans([("p", recorder.as_dicts())])
        by_name = {span["name"]: span for span in merged}
        assert by_name["copy"]["parent"] == by_name["send"]["id"]
        assert by_name["send"]["parent"] == by_name["p"]["id"]
