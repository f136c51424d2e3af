"""Chrome-trace export: schema round-trip and validator rejections."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    build_chrome_trace,
    build_provenance,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.trace import Tracer


def _tracer():
    tracer = Tracer(enabled=True)
    tracer.record(0.0, 1e-3, "memcpy", "h2d:pinned", bytes=1024)
    tracer.record(1e-3, 2e-3, "kernel", "copy", device=0)
    tracer.record(2e-3, 3e-3, "kernel", "copy", device=1)
    return tracer


def _metrics():
    registry = MetricsRegistry()
    usage = registry.channel(("link", "gcd0-gcd1:quad", "fwd"), 200e9)
    usage.account(0.0, 1e-3, 50e9, 1)
    usage.account(1e-3, 1e-3, 100e9, 2)
    registry.timeseries("engine/heap_depth").observe(0.0, 3.0)
    return registry


class TestBuildChromeTrace:
    def test_slices_land_on_per_device_tracks(self):
        payload = build_chrome_trace(_tracer().records())
        events = payload["traceEvents"]
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"memcpy/h2d", "gcd0/kernel", "gcd1/kernel"} <= thread_names
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 3
        # Simulated seconds scale to microseconds.
        assert slices[0]["ts"] == pytest.approx(0.0)
        assert slices[0]["dur"] == pytest.approx(1e3)

    def test_metrics_become_counter_tracks(self):
        payload = build_chrome_trace(_tracer().records(), metrics=_metrics())
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "link/gcd0-gcd1:quad/fwd GB/s" in names
        assert "engine/heap_depth" in names
        rates = [
            e["args"]["rate"]
            for e in counters
            if e["name"].endswith("GB/s")
        ]
        assert rates == [50.0, 100.0]
        assert payload["otherData"]["metrics"]["channels"]

    def test_provenance_lands_in_other_data(self):
        provenance = build_provenance(extra={"experiment": "fig06"})
        payload = build_chrome_trace([], provenance=provenance)
        other = payload["otherData"]
        assert other["generator"] == "repro.obs.perfetto"
        assert other["experiment"] == "fig06"
        assert "version" in other and "git_sha" in other


class TestValidateAndWrite:
    def test_round_trip_through_disk(self, tmp_path):
        payload = build_chrome_trace(
            _tracer().records(),
            metrics=_metrics(),
            provenance=build_provenance(),
        )
        path = write_chrome_trace(tmp_path / "trace.json", payload)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded == json.loads(json.dumps(payload))

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) == ["top level is not an object"]
        assert validate_chrome_trace({}) == [
            "traceEvents is missing or not an array"
        ]
        bad_phase = {"traceEvents": [{"ph": "B", "name": "x", "pid": 1}]}
        assert any("phase" in p for p in validate_chrome_trace(bad_phase))
        bad_slice = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "ts": -1.0, "dur": 1.0}
            ]
        }
        problems = validate_chrome_trace(bad_slice)
        assert any("ts" in p for p in problems)
        assert any("tid" in p for p in problems)
        bad_counter = {
            "traceEvents": [
                {"ph": "C", "name": "c", "pid": 2, "ts": 0.0, "args": {"v": "hi"}}
            ]
        }
        assert any(
            "non-numeric" in p for p in validate_chrome_trace(bad_counter)
        )

    def test_validator_rejects_negative_duration_slice(self):
        payload = {
            "traceEvents": [
                {
                    "ph": "X",
                    "name": "x",
                    "pid": 1,
                    "tid": 1,
                    "ts": 0.0,
                    "dur": -2.5,
                }
            ]
        }
        problems = validate_chrome_trace(payload)
        assert any("dur" in p for p in problems)

    def test_validator_rejects_backwards_counter_timestamps(self):
        def counter(ts):
            return {
                "ph": "C",
                "name": "rate",
                "pid": 2,
                "ts": ts,
                "args": {"v": 1.0},
            }

        payload = {"traceEvents": [counter(0.0), counter(5.0), counter(3.0)]}
        problems = validate_chrome_trace(payload)
        assert len(problems) == 1
        assert "goes backwards" in problems[0]

    def test_counter_series_are_independent_per_pid_and_name(self):
        # Interleaved series may each restart the clock; only a
        # regression *within* one (pid, name) series is an error.
        payload = {
            "traceEvents": [
                {"ph": "C", "name": "a", "pid": 1, "ts": 5.0, "args": {"v": 1}},
                {"ph": "C", "name": "b", "pid": 1, "ts": 0.0, "args": {"v": 1}},
                {"ph": "C", "name": "a", "pid": 2, "ts": 0.0, "args": {"v": 1}},
                {"ph": "C", "name": "a", "pid": 1, "ts": 6.0, "args": {"v": 1}},
            ]
        }
        assert validate_chrome_trace(payload) == []

    def test_validator_accepts_flow_event_pair(self):
        payload = {
            "traceEvents": [
                {
                    "ph": "s",
                    "name": "causal",
                    "cat": "flow",
                    "id": 7,
                    "pid": 3,
                    "tid": 0,
                    "ts": 1.0,
                },
                {
                    "ph": "f",
                    "name": "causal",
                    "cat": "flow",
                    "id": 7,
                    "pid": 3,
                    "tid": 1,
                    "ts": 1.0,
                    "bp": "e",
                },
            ]
        }
        assert validate_chrome_trace(payload) == []

    def test_validator_rejects_flow_event_without_id_or_tid(self):
        payload = {
            "traceEvents": [
                {"ph": "s", "name": "causal", "pid": 3, "ts": 1.0}
            ]
        }
        problems = validate_chrome_trace(payload)
        assert any("tid" in p for p in problems)
        assert any("without id" in p for p in problems)

    def test_write_refuses_invalid_payload(self, tmp_path):
        with pytest.raises(ValueError, match="invalid trace"):
            write_chrome_trace(tmp_path / "bad.json", {"traceEvents": None})
        assert not (tmp_path / "bad.json").exists()


class TestSpanExport:
    def _spans(self):
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()
        root = recorder.begin("mpi", "send", start=0.0)
        child = recorder.begin("flow", "copy", start=1e-4, parent=root)
        child.account(1e-4, 2e-4, 1e9, "link/a:fwd")
        recorder.finish(child, 4e-4)
        recorder.finish(root, 5e-4)
        return recorder.as_dicts()

    def test_spans_become_slices_and_flow_arrows(self):
        payload = build_chrome_trace([], spans=self._spans())
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"send", "copy"}
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["bp"] == "e"

    def test_span_slices_carry_blame_args(self):
        payload = build_chrome_trace([], spans=self._spans())
        copy = next(
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "copy"
        )
        assert copy["args"]["blame_us"]["link/a:fwd"] == pytest.approx(200.0)

    def test_span_tracks_grouped_by_category(self):
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()
        kernel = recorder.begin("kernel", "copy", start=0.0, device=3)
        recorder.finish(kernel, 1e-4)
        spans = self._spans() + [
            {**span, "id": 10 + span["id"]} for span in recorder.as_dicts()
        ]
        payload = build_chrome_trace([], spans=spans)
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # The record track rule: a GCD track when the meta names one.
        assert names == {"mpi", "flow", "gcd3/kernel"}
