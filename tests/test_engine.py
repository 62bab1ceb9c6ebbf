"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_schedule_returns_event_with_fire_time(self):
        engine = Engine()
        event = engine.schedule(3.5, lambda: None, name="x")
        assert event.time == 3.5
        assert event.name == "x"

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run(until=5.0)
        with pytest.raises(SchedulingError):
            engine.schedule_at(4.0, lambda: None)

    def test_schedule_at_current_time_allowed(self):
        engine = Engine()
        fired = []
        engine.schedule_at(0.0, lambda: fired.append(1))
        engine.run(until=0.0)
        assert fired == [1]


class TestExecution:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run(until=10.0)
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = Engine()
        order = []
        for label in ("first", "second", "third"):
            engine.schedule(1.0, lambda l=label: order.append(l))
        engine.run(until=1.0)
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(4.25, lambda: seen.append(engine.now))
        engine.run(until=10.0)
        assert seen == [4.25]

    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0  # clock advanced to the horizon

    def test_event_at_horizon_fires(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: fired.append(1))
        engine.run(until=2.0)
        assert fired == [1]

    def test_run_requires_bound(self):
        with pytest.raises(SimulationError):
            Engine().run()

    def test_max_events_bound(self):
        engine = Engine()
        fired = []

        def reschedule():
            fired.append(engine.now)
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        count = engine.run(max_events=5)
        assert count == 5
        assert len(fired) == 5

    def test_events_scheduled_during_run_fire(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(0.0, lambda: order.append("inner"))

        engine.schedule(1.0, outer)
        engine.run(until=1.0)
        assert order == ["outer", "inner"]

    def test_step_returns_fired_event(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None, name="only")
        event = engine.step()
        assert event is not None and event.name == "only"
        assert engine.step() is None

    def test_reentrant_run_rejected(self):
        engine = Engine()

        def nested():
            engine.run(until=10.0)

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            engine.run(until=5.0)


class TestUntilMaxEventsInterplay:
    """Regression: run(until=..., max_events=...) must not fast-forward
    the clock past events still in the heap (the clock would then move
    backwards on the next step/run and schedule_at would reject valid
    times)."""

    def _engine_with_ladder(self):
        engine = Engine()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        return engine, fired

    def test_early_stop_leaves_clock_at_last_fired_event(self):
        engine, fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0  # not 10.0

    def test_now_never_ahead_of_pending_event(self):
        engine, _fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        assert engine.peek_time() is not None
        assert engine.now <= engine.peek_time()

    def test_resumed_run_fires_remaining_events_in_order(self):
        engine, fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        engine.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert engine.now == 10.0  # heap drained: clock reaches the horizon

    def test_step_after_early_stop_does_not_move_clock_backwards(self):
        engine, _fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        event = engine.step()
        assert event is not None and event.time == 3.0
        assert engine.now == 3.0

    def test_schedule_at_valid_time_after_early_stop(self):
        engine, fired = self._engine_with_ladder()
        engine.run(until=10.0, max_events=2)
        # 2.5 is after the clock (2.0) but before the undrained events;
        # before the fix the clock sat at 10.0 and this raised.
        engine.schedule_at(2.5, lambda: fired.append(2.5))
        engine.run(until=10.0)
        assert fired == [1.0, 2.0, 2.5, 3.0, 4.0, 5.0]

    def test_clock_advances_when_remaining_events_are_past_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1.0))
        engine.schedule(20.0, lambda: fired.append(20.0))
        engine.run(until=10.0, max_events=5)
        assert fired == [1.0]
        assert engine.now == 10.0  # nothing pending at or before until

    def test_clock_advances_when_only_cancelled_events_remain(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None).cancel()
        engine.run(until=10.0, max_events=1)
        assert engine.now == 10.0  # the cancelled event does not hold it back


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run(until=5.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_cancelled_events_not_counted_as_fired(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        engine.run(until=5.0)
        assert engine.events_fired == 1

    def test_peek_time_skips_cancelled(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        assert engine.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Engine().peek_time() is None

    def test_peek_time_accounts_discarded_cancelled_events(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None).cancel()
        engine.schedule(3.0, lambda: None)
        assert engine.events_pending == 3
        assert engine.peek_time() == 3.0
        assert engine.cancelled_skipped == 2
        assert engine.events_pending == 1  # cancelled heads were popped

    def test_run_accounts_cancelled_skips(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        engine.run(until=5.0)
        assert engine.cancelled_skipped == 1
        assert engine.events_fired == 1


class TestPropertyBased:
    @given(
        delays=st.lists(
            st.one_of(
                # A small set forces equal fire times, so the seq
                # tie-break is exercised, not just the time order.
                st.sampled_from([0.0, 0.25, 1.0, 3.0, 1000.0]),
                st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_firing_times_are_sorted(self, delays):
        engine = Engine()
        fired = []
        for index, delay in enumerate(delays):
            engine.schedule(delay, lambda i=index: fired.append((engine.now, i)))
        engine.run(until=1001.0)
        # The full (time, scheduling-index) order: ties fire in the
        # order they were scheduled.
        assert fired == sorted((delay, index) for index, delay in enumerate(delays))

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=30,
        ),
        cancel_index=st.integers(min_value=0, max_value=29),
    )
    def test_cancelling_one_leaves_others(self, delays, cancel_index):
        engine = Engine()
        fired = []
        events = [
            engine.schedule(delay, lambda i=i: fired.append(i))
            for i, delay in enumerate(delays)
        ]
        victim = events[cancel_index % len(events)]
        victim.cancel()
        engine.run(until=101.0)
        assert len(fired) == len(delays) - 1
        assert (cancel_index % len(delays)) not in fired


class TestCancellationPurgeCost:
    """Cancellation stays O(N log M) — asserted on counters, not clocks.

    ``purge_ops`` counts every discard of a cancelled entry (pop-time
    skips plus compaction sweeps).  Each cancellation must be paid for
    exactly once, regardless of how many live events surround it — a
    scheduler that rescanned or rebuilt per cancel would discard (or
    re-touch) entries in proportion to the population and break the
    exact equality.
    """

    def _run_with_cancels(self, population: int, cancels: int) -> Engine:
        engine = Engine()
        events = [
            engine.schedule(1.0 + (i % 977) * 0.01, lambda: None)
            for i in range(population)
        ]
        for event in events[:cancels]:
            event.cancel()
        engine.run(until=1_000.0)
        return engine

    def test_purge_work_is_population_independent(self):
        small = self._run_with_cancels(1_000, 400)
        large = self._run_with_cancels(16_000, 400)
        assert small.purge_ops == 400
        assert large.purge_ops == 400  # same N, 16x the M: same cost
        assert small.events_fired == 1_000 - 400
        assert large.events_fired == 16_000 - 400
        assert small.cancelled_skipped == large.cancelled_skipped == 400

    def test_mass_cancellation_compacts_amortized(self):
        """Cancelling most of the heap compacts, at the purge floor's rate."""
        engine = self._run_with_cancels(1_000, 900)
        assert engine.purge_ops == 900  # each cancel discarded exactly once
        # Compaction needs >= _PURGE_FLOOR (64) pending cancels per
        # sweep, so sweeps are bounded by N / 64 (+1 slack), never O(N).
        assert 1 <= engine.compactions <= 900 // 64 + 1

    def test_cancel_after_cancel_costs_nothing_extra(self):
        engine = Engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events[:30]:
            event.cancel()
            event.cancel()  # idempotent: must not double-count purge work
        engine.run(until=200.0)
        assert engine.purge_ops == 30
        assert engine.events_fired == 70
