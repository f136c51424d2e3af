"""Tests for the DES kernel (repro.sim.engine)."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimEngine


@pytest.fixture
def engine():
    return SimEngine()


class TestEvents:
    def test_succeed_delivers_value(self, engine):
        seen = []
        event = engine.event()
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(42)
        engine.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, engine):
        event = engine.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_late_callback_fires_immediately(self, engine):
        event = engine.event()
        event.succeed("x")
        engine.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeouts:
    def test_clock_advances(self, engine):
        engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SchedulingError):
            engine.timeout(-1.0)

    def test_fifo_tie_break(self, engine):
        order = []
        engine.timeout(1.0).add_callback(lambda e: order.append("a"))
        engine.timeout(1.0).add_callback(lambda e: order.append("b"))
        engine.run()
        assert order == ["a", "b"]

    def test_run_until(self, engine):
        engine.timeout(10.0)
        engine.run(until=3.0)
        assert engine.now == 3.0

    @pytest.mark.parametrize("metrics", [False, True])
    def test_run_until_never_moves_clock_back(self, metrics):
        engine = SimEngine(metrics=MetricsRegistry(enabled=metrics))
        fired = []
        engine.call_after(2.0, fired.append, "late")
        for now, bad_until in ((0.0, -1.0), (1.0, 0.5), (1.0, float("nan"))):
            if now:
                assert engine.run(until=now) == now
            with pytest.raises(SchedulingError, match="clock back"):
                engine.run(until=bad_until)
            assert engine.now == now
        assert fired == []
        assert engine.run(until=1.0) == 1.0  # until == now is a no-op
        assert engine.run() == 2.0
        assert fired == ["late"]


class TestProcesses:
    def test_return_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return "done"

        assert engine.run_process(proc()) == "done"
        assert engine.now == 1.0

    def test_sequential_waits_accumulate(self, engine):
        def proc():
            yield engine.timeout(1.0)
            yield engine.timeout(2.0)
            return engine.now

        assert engine.run_process(proc()) == 3.0

    def test_wait_on_custom_event(self, engine):
        def proc():
            done = engine.event()
            engine.call_after(2.5, done.succeed, "payload")
            value = yield done
            return value

        assert engine.run_process(proc()) == "payload"

    def test_yielding_non_event_raises(self, engine):
        def proc():
            yield 42  # type: ignore[misc]

        process = engine.process(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_exception_propagates(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            engine.run_process(proc())

    def test_failed_event_raises_inside_process(self, engine):
        def proc():
            event = engine.event()
            engine.call_after(1.0, event.fail, RuntimeError("bad"))
            try:
                yield event
            except RuntimeError:
                return "caught"
            return "missed"

        assert engine.run_process(proc()) == "caught"

    def test_deadlock_detection(self, engine):
        def proc():
            yield engine.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_process(proc())

    def test_interrupt(self, engine):
        from repro.sim.engine import Interrupt

        def sleeper():
            try:
                yield engine.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, engine.now)
            return "finished"

        proc = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(1.0)
            proc.interrupt("stop")

        engine.process(interrupter())
        engine.run()
        assert proc.value == ("interrupted", "stop", 1.0)


class TestCombinators:
    def test_all_of_values_in_order(self, engine):
        def proc():
            t1 = engine.timeout(2.0, "slow")
            t2 = engine.timeout(1.0, "fast")
            values = yield engine.all_of([t1, t2])
            return (values, engine.now)

        values, now = engine.run_process(proc())
        assert values == ["slow", "fast"]
        assert now == 2.0

    def test_all_of_empty(self, engine):
        def proc():
            values = yield engine.all_of([])
            return values

        assert engine.run_process(proc()) == []

    def test_any_of_first_wins(self, engine):
        def proc():
            t1 = engine.timeout(2.0, "slow")
            t2 = engine.timeout(1.0, "fast")
            index, value = yield engine.any_of([t1, t2])
            return (index, value, engine.now)

        assert engine.run_process(proc()) == (1, "fast", 1.0)

    def test_any_of_empty_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.any_of([])


class TestDeterminism:
    def test_identical_runs(self):
        def scenario():
            engine = SimEngine()
            trace = []

            def worker(name, delay):
                yield engine.timeout(delay)
                trace.append((name, engine.now))

            for i in range(10):
                engine.process(worker(f"w{i}", (i * 7) % 5 + 0.5))
            engine.run()
            return trace

        assert scenario() == scenario()
