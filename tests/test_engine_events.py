"""Tests for the scheduled-event core (repro.engine)."""

from __future__ import annotations

import pytest

from repro.edb.records import Record
from repro.engine import Engine, EventScheduler


def rec(t, table="T"):
    return Record(values={"v": t}, arrival_time=t, table=table)


class TestEventScheduler:
    def test_orders_by_time_then_priority_then_insertion(self):
        scheduler = EventScheduler()
        scheduler.schedule(5, (1, 0), "late-periodic")
        scheduler.schedule(5, (0, 1), "stream-b")
        scheduler.schedule(3, (1, 0), "early-periodic")
        scheduler.schedule(5, (0, 0), "stream-a")
        scheduler.schedule(5, (0, 0), "stream-a-again")
        popped = [scheduler.pop()[-1] for _ in range(len(scheduler))]
        assert popped == [
            "early-periodic",
            "stream-a",
            "stream-a-again",
            "stream-b",
            "late-periodic",
        ]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1, (0, 0), None)

    def test_counters_and_peek(self):
        scheduler = EventScheduler()
        assert scheduler.peek_time() is None
        scheduler.schedule(7, (0, 0), None)
        assert scheduler.peek_time() == 7
        scheduler.pop()
        assert scheduler.events_scheduled == 1
        assert scheduler.events_processed == 1


class TestEngine:
    def test_arrivals_are_delivered_with_their_records(self):
        engine = Engine(horizon=10)
        seen = []
        engine.add_stream(
            "T", lambda t, u: seen.append((t, u["v"] if u else None)),
            arrivals=[(2, rec(2)), (7, rec(7))],
        )
        engine.run()
        assert seen == [(2, 2), (7, 7)]

    def test_self_events_wake_stream_without_arrival(self):
        engine = Engine(horizon=9)
        seen = []
        engine.add_stream(
            "T", lambda t, u: seen.append((t, u)),
            next_self_event=lambda now: now + 3,
        )
        engine.run()
        assert seen == [(3, None), (6, None), (9, None)]

    def test_coinciding_self_event_and_arrival_tick_once(self):
        engine = Engine(horizon=6)
        seen = []
        engine.add_stream(
            "T", lambda t, u: seen.append((t, u is not None)),
            arrivals=[(3, rec(3))],
            next_self_event=lambda now: now + 3,
        )
        stats = engine.run()
        # One delivery at t=3 (carrying the record) and one at t=6.
        assert seen == [(3, True), (6, False)]
        assert stats.stale_skipped >= 1

    def test_streams_fire_before_periodics_within_a_tick(self):
        engine = Engine(horizon=4)
        order = []
        engine.add_stream(
            "A", lambda t, u: order.append(("A", t)), arrivals=[(2, rec(2, "A"))]
        )
        engine.add_stream(
            "B", lambda t, u: order.append(("B", t)), arrivals=[(2, rec(2, "B"))]
        )
        engine.add_periodic(2, lambda t: order.append(("Q", t)))
        engine.run()
        assert order == [("A", 2), ("B", 2), ("Q", 2), ("Q", 4)]

    def test_arrivals_beyond_horizon_are_dropped(self):
        engine = Engine(horizon=5)
        seen = []
        engine.add_stream(
            "T", lambda t, u: seen.append(t), arrivals=[(4, rec(4)), (6, rec(6))]
        )
        engine.run()
        assert seen == [4]

    def test_non_increasing_arrival_times_rejected(self):
        engine = Engine(horizon=10)
        engine.add_stream(
            "T", lambda t, u: None, arrivals=[(4, rec(4)), (4, rec(4))]
        )
        with pytest.raises(ValueError):
            engine.run()

    def test_next_event_in_the_past_rejected(self):
        engine = Engine(horizon=10)
        engine.add_stream("T", lambda t, u: None, next_self_event=lambda now: now)
        with pytest.raises(ValueError):
            engine.run()

    def test_runs_stop_at_periodic_times(self):
        """A run is offered up to the next periodic time, never past it."""
        engine = Engine(horizon=10)
        offered = []

        def absorb(limit, times, records):
            offered.append((limit, [t for t in times if t <= limit]))
            return limit

        engine.add_stream(
            "T", lambda t, u: None, arrivals=[(2, rec(2)), (7, rec(7))], absorb=absorb
        )
        engine.add_periodic(4, lambda t: None)
        stats = engine.run()
        assert offered == [(4, [2]), (8, [7])]
        assert stats.arrivals_delivered == 2
        assert stats.ticks_delivered == 2

    def test_run_past_its_limit_rejected(self):
        engine = Engine(horizon=10)
        engine.add_stream(
            "T", lambda t, u: None, arrivals=[(2, rec(2))],
            absorb=lambda limit, times, records: limit + 1,
        )
        with pytest.raises(ValueError):
            engine.run()

    @pytest.mark.parametrize("absorbs", [False, True])
    def test_look_ahead_stays_bounded_without_periodics(self, absorbs):
        """With no periodic a run may reach the horizon, yet the engine holds
        at most one pulled chunk of a long, dense stream at any time."""
        horizon = 5_000
        pulled = [0]

        def arrivals():
            for t in range(1, horizon + 1):
                pulled[0] = t
                yield t, rec(t)

        delivered = []

        def deliver(t, u):
            assert pulled[0] - t <= 64
            delivered.append(t)

        def absorb(limit, times, records):
            assert len(times) <= 64
            assert pulled[0] - limit <= 64
            return limit if absorbs else -1

        engine = Engine(horizon=horizon)
        engine.add_stream("T", deliver, arrivals=arrivals(), absorb=absorb)
        stats = engine.run()
        assert stats.arrivals_delivered == horizon
        if absorbs:
            assert delivered == []
            assert stats.ticks_delivered == 1
        else:
            assert delivered == list(range(1, horizon + 1))

    def test_run_only_once_and_no_late_registration(self):
        engine = Engine(horizon=1)
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()
        with pytest.raises(RuntimeError):
            engine.add_stream("T", lambda t, u: None)
        with pytest.raises(RuntimeError):
            engine.add_periodic(1, lambda t: None)

    def test_periodic_interval_validation(self):
        engine = Engine(horizon=5)
        with pytest.raises(ValueError):
            engine.add_periodic(0, lambda t: None)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            Engine(horizon=-1)

    def test_skips_quiet_stretches(self):
        """A sparse stream over a huge horizon processes O(events), not O(horizon)."""
        engine = Engine(horizon=1_000_000)
        engine.add_stream("T", lambda t, u: None, arrivals=[(999_999, rec(999_999))])
        stats = engine.run()
        assert stats.ticks_delivered == 1
        assert stats.events_processed <= 3

    def test_arrivals_delivered_counts_only_arrival_wakeups(self):
        """Self-scheduled wake-ups do not count as arrivals."""
        engine = Engine(horizon=10)
        engine.add_stream(
            "T",
            lambda t, u: None,
            arrivals=[(2, rec(2)), (5, rec(5))],
            next_self_event=lambda now: now + 3,
        )
        stats = engine.run()
        assert stats.arrivals_delivered == 2
        assert stats.ticks_delivered > stats.arrivals_delivered
