"""Batched epoch dispatch: same-timestamp semantics of the event core.

The engine drains every schedulable sharing a timestamp as one *epoch*
(a single bucket pop instead of one heap pop per item).  These tests
pin down the observable contract of that batching: FIFO order inside
an epoch, cancelled timers skimmed without moving the clock, and the
fast path that lets a callback append work to the epoch it is running
in.  A hypothesis oracle checks the whole ordering story against the
naive ``sorted(by=(time, seq))`` model, also when the drain is cut into
``run(until=...)`` slices or observed by a metrics registry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimEngine

US = 1e-6


@pytest.fixture
def engine():
    return SimEngine()


class TestSameTimestampFifo:
    def test_timers_fire_in_scheduling_order(self, engine):
        order = []
        for i in range(8):
            engine.call_after(1 * US, order.append, i)
        engine.run()
        assert order == list(range(8))

    def test_mixed_timers_and_events_keep_seq_order(self, engine):
        order = []
        done = engine.event()
        engine.call_after(1 * US, order.append, "timer-a")
        engine.call_after(1 * US, lambda: done.succeed(None))
        done.add_callback(lambda _: order.append("event"))
        engine.call_after(1 * US, order.append, "timer-b")
        engine.run()
        # succeed() runs at 1us and enqueues the delivery *behind*
        # timer-b's already-queued entry — strict sequence order.
        assert order == ["timer-a", "timer-b", "event"]

    def test_epochs_drain_in_time_order(self, engine):
        order = []
        for delay in (3, 1, 2, 1, 3, 2):
            engine.call_after(delay * US, order.append, delay)
        engine.run()
        assert order == [1, 1, 2, 2, 3, 3]
        assert engine.now == 3 * US


class TestCancelledSkim:
    def test_mid_epoch_cancellation_is_skimmed(self, engine):
        order = []
        engine.call_after(1 * US, order.append, "a")
        doomed = engine.schedule(1 * US, order.append, "never")
        engine.call_after(1 * US, order.append, "b")
        doomed.cancel()
        engine.run()
        assert order == ["a", "b"]
        assert engine.timers_cancelled == 1

    def test_trailing_cancelled_epoch_does_not_advance_clock(self, engine):
        engine.call_after(1 * US, lambda: None)
        late = engine.schedule(5 * US, lambda: None)
        late.cancel()
        engine.run()
        # An all-cancelled bucket is pure garbage collection: time stays
        # at the last *live* dispatch, exactly as the per-event loop
        # behaved before batching.
        assert engine.now == 1 * US

    def test_all_cancelled_run_leaves_clock_at_zero(self, engine):
        for delay in (1, 2, 3):
            engine.schedule(delay * US, lambda: None).cancel()
        engine.run()
        assert engine.now == 0.0
        assert engine.timers_fired == 0

    def test_callback_cancelling_later_entry_in_same_epoch(self, engine):
        order = []
        handles = {}

        def killer():
            order.append("killer")
            handles["victim"].cancel()

        engine.call_after(1 * US, killer)
        handles["victim"] = engine.schedule(1 * US, order.append, "victim")
        engine.call_after(1 * US, order.append, "survivor")
        engine.run()
        assert order == ["killer", "survivor"]


class TestEpochAppend:
    def test_zero_delay_from_callback_joins_current_epoch(self, engine):
        order = []

        def first():
            order.append("first")
            engine.call_after(0.0, order.append, "appended")

        engine.call_after(1 * US, first)
        engine.call_after(1 * US, order.append, "second")
        engine.run()
        # The appended timer lands at the epoch's own timestamp, so it
        # runs inside the same epoch — after everything already queued.
        assert order == ["first", "second", "appended"]
        assert engine.now == 1 * US

    def test_immediate_succeed_chain_drains_in_one_epoch(self):
        registry = MetricsRegistry()
        engine = SimEngine(metrics=registry)
        hops = []

        def hop(n):
            hops.append(n)
            if n < 5:
                engine.call_after(0.0, hop, n + 1)

        engine.call_after(1 * US, hop, 0)
        engine.run()
        assert hops == [0, 1, 2, 3, 4, 5]
        assert engine.now == 1 * US
        # Each hop is its epoch's last item, yet its child joins the
        # epoch: one popped bucket, one depth sample.
        assert list(registry.timeseries("engine/heap_depth").samples) == [
            (1 * US, 1)
        ]

    def test_queue_depth_counts_epoch_remainder(self, engine):
        depths = []
        for i in range(4):
            engine.call_after(1 * US, lambda: depths.append(
                engine.stats()["heap_size"]
            ))
        engine.call_after(2 * US, lambda: None)
        engine.run()
        # Each callback sees the not-yet-dispatched tail of its own
        # epoch plus the untouched 2us bucket.
        assert depths == [4, 3, 2, 1]
        assert engine.stats()["heap_size"] == 0


class TestOrderingOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        delays=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                        max_size=60),
        cancel_every=st.integers(min_value=2, max_value=7),
        cuts=st.lists(st.integers(min_value=0, max_value=6), max_size=4).map(
            sorted
        ),
        metrics=st.booleans(),
    )
    def test_dispatch_order_matches_time_seq_sort(
        self, delays, cancel_every, cuts, metrics
    ):
        def drive(cuts, metrics):
            engine = SimEngine(metrics=MetricsRegistry(enabled=metrics))
            order = []
            live = []
            for seq, delay in enumerate(delays):
                if seq % cancel_every == 0:
                    engine.schedule(delay * US, order.append, seq).cancel()
                    continue
                live.append((delay, seq))
                if seq % 2:
                    engine.timeout(delay * US).add_callback(
                        lambda _event, seq=seq: order.append(seq)
                    )
                else:
                    engine.schedule(delay * US, order.append, seq)
            parked = 0.0
            for cut in cuts:
                engine.run(until=cut * US)
                # Work beyond the cut (cancelled records included) stays
                # queued, and the clock parks exactly at the cut.
                later = sum(delay > cut for delay in delays)
                if later:
                    assert engine.now == cut * US
                    parked = cut * US
                assert engine.stats()["heap_size"] == later
            engine.run()
            return engine, order, live, parked

        reference, expected, live, _ = drive([], False)
        assert expected == [seq for _, seq in sorted(live)]
        engine, order, _, parked = drive(cuts, metrics)
        assert order == expected
        # A parked clock never moves back, even if only cancelled
        # records lay beyond the cut.
        assert engine.now == max(reference.now, parked)
        for key in ("events_delivered", "timers_fired", "timers_cancelled"):
            assert engine.stats()[key] == reference.stats()[key]


class TestHeapDepthMetrics:
    def test_depth_sampled_once_per_popped_epoch(self):
        registry = MetricsRegistry()
        engine = SimEngine(metrics=registry)
        for delay in (1, 1, 2, 3, 3, 3):
            engine.call_after(delay * US, lambda: None)
        engine.timeout(2 * US)
        engine.schedule(4 * US, lambda: None).cancel()
        # A zero-delay append joins the live epoch, even from the
        # epoch's last item: no extra epoch, no extra sample.
        engine.call_after(1 * US, engine.call_after, 0.0, lambda: None)

        for until in (2 * US, float("inf")):
            engine.run(until=until)
            # Each run adds its own stats() deltas, so the registry's
            # running totals track the engine's counters run by run.
            stats = engine.stats()
            for name in ("events_delivered", "timers_fired", "timers_cancelled"):
                assert registry.counter(f"engine/{name}").value == stats[name]

        # One sample per epoch (1, 2, 3, 4 us), each the queue depth as
        # the epoch is popped — its own items included.
        series = registry.timeseries("engine/heap_depth")
        assert list(series.samples) == [
            (1 * US, 9), (2 * US, 6), (3 * US, 4), (4 * US, 1)
        ]
        gauge = registry.gauge("engine/heap_depth")
        assert (gauge.value, gauge.max_value) == (1, 9)
        assert registry.counter("engine/runs").value == 2
        assert engine.stats() == {
            "events_delivered": 1,
            "timers_fired": 8,
            "timers_cancelled": 1,
            "heap_size": 0,
        }

    def test_two_engines_feeding_one_series_keep_mean_within_max(self):
        # Every engine of a capture shares the registry, and each one's
        # clock starts again at 0: the series must integrate each
        # engine's own intervals, not span first-to-last time.
        registry = MetricsRegistry()
        for depth in (8, 2):
            engine = SimEngine(metrics=registry)
            for _ in range(depth):
                engine.call_after(1 * US, lambda: None)
            engine.call_after(100 * US, lambda: None)
            engine.run()
        series = registry.timeseries("engine/heap_depth")
        assert series.max_value == 9
        # Depth 9 held for 99 us, then depth 3 held for 99 us.
        assert series.elapsed == pytest.approx(198 * US)
        assert series.mean() == pytest.approx(6.0)
        assert series.mean() <= series.max_value
