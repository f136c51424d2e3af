"""Pooled timers, lazy cancellation and engine counters."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import SimEngine, TimerHandle, _TIMER_POOL_LIMIT


@pytest.fixture
def engine():
    return SimEngine()


class TestCallAfter:
    def test_fires_in_order_with_args(self, engine):
        order = []
        engine.call_after(2e-6, order.append, "late")
        engine.call_after(1e-6, order.append, "early")
        engine.run()
        assert order == ["early", "late"]
        assert engine.now == 2e-6

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SchedulingError):
            engine.call_after(-1.0, lambda: None)

    def test_records_are_recycled(self, engine):
        for _ in range(10):
            engine.call_after(1e-6, lambda: None)
        engine.run()
        assert len(engine._timer_pool) == 10
        engine.call_after(1e-6, lambda: None)
        assert len(engine._timer_pool) == 9  # popped from the free-list

    def test_pool_is_bounded(self, engine):
        for _ in range(_TIMER_POOL_LIMIT + 50):
            engine.call_after(1e-6, lambda: None)
        engine.run()
        assert len(engine._timer_pool) == _TIMER_POOL_LIMIT


class TestSchedule:
    def test_cancel_prevents_firing(self, engine):
        fired = []
        handle = engine.schedule(1e-6, fired.append, 1)
        engine.schedule(2e-6, fired.append, 2)
        handle.cancel()
        engine.run()
        assert fired == [2]
        assert engine.timers_cancelled == 1
        assert engine.timers_fired == 1

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1e-6, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()
        assert engine.timers_cancelled == 1

    def test_cancelled_handles_are_not_pooled(self, engine):
        handle = engine.schedule(1e-6, lambda: None)
        handle.cancel()
        engine.run()
        assert handle not in engine._timer_pool

    def test_cancel_releases_callback_references(self, engine):
        payload = object()
        handle = engine.schedule(1e-6, lambda p: None, payload)
        handle.cancel()
        assert handle.callback is None
        assert handle.args == ()

    def test_handle_is_slotted(self):
        handle = TimerHandle(lambda: None, (), pooled=False)
        with pytest.raises(AttributeError):
            handle.arbitrary_attribute = 1


class TestCounters:
    def test_stats_shape(self, engine):
        engine.call_after(1e-6, lambda: None)
        stale = engine.schedule(2e-6, lambda: None)
        stale.cancel()
        done = engine.event()
        engine.call_after(3e-6, done.succeed, None)
        engine.run()
        stats = engine.stats()
        assert stats["timers_fired"] == 2
        assert stats["timers_cancelled"] == 1
        assert stats["events_delivered"] == 1
        assert stats["heap_size"] == 0

    def test_determinism_with_mixed_timers(self):
        def trace():
            engine = SimEngine()
            order = []
            for i in range(50):
                if i % 3 == 0:
                    handle = engine.schedule((i % 7) * 1e-6, order.append, i)
                    if i % 6 == 0:
                        handle.cancel()
                else:
                    engine.call_after((i % 5) * 1e-6, order.append, i)
            engine.run()
            return order

        assert trace() == trace()


class TestNaNDelaysRejected:
    """``delay < 0`` is False for NaN: every entry point must say no."""

    NAN = float("nan")

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda engine, delay: engine.timeout(delay),
            lambda engine, delay: engine.call_after(delay, lambda: None),
            lambda engine, delay: engine.schedule(delay, lambda: None),
            lambda engine, delay: engine._schedule_delivery(
                engine.event(), delay=delay
            ),
        ],
        ids=["timeout", "call_after", "schedule", "schedule_delivery"],
    )
    def test_nan_delay_raises_and_queues_nothing(self, engine, schedule):
        with pytest.raises(SchedulingError, match="non-negative"):
            schedule(engine, self.NAN)
        assert engine.run() == 0.0

    def test_nan_timeout_never_wakes_its_process(self, engine):
        woke = []

        def sleeper():
            yield engine.timeout(self.NAN)
            woke.append(engine.now)

        engine.process(sleeper())
        with pytest.raises(SchedulingError):
            engine.run()
        assert woke == []
