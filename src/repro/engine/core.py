"""The event-driven engine.

:class:`Engine` advances simulated time by popping scheduled events instead
of iterating every time unit.  Two kinds of participants register on it:

* **streams** -- one per (owner, workload) pair.  A stream is woken at its
  next logical arrival and at every self-scheduled time its strategy reports
  through ``next_self_event`` (the
  :meth:`~repro.core.strategies.base.SyncStrategy.next_event` hint).  A wake
  hands the stream's quiet stretch to ``absorb(limit, times, records)`` as
  one *run* (in the simulator
  :meth:`repro.fleet.Deployment.receive_run`), then delivers the tick the
  strategy can decide through ``deliver(time, update)``
  (:meth:`repro.fleet.Deployment.receive`), then offers the next run.
* **periodic callbacks** -- e.g. the analyst's query schedule.  They fire at
  every multiple of their interval, *after* all stream activity of that time
  unit (streams carry a lower priority class).

Within one time unit, streams fire in registration order, then periodics in
registration order -- exactly the iteration order of the legacy per-tick
loop.  A run never reaches past the next periodic time or the horizon, so
every periodic observes each stream exactly as the per-tick loop would;
inside a run the strategy only caches (and, for DP-ANT, compares), so
absorbing it before other streams' ticks of the same stretch changes no
transcript.  A stream whose ``absorb`` takes nothing (SUR, SET) is woken per
arrival or self-event, with an empty run.  Runs are offered one pulled chunk
of arrivals at a time, so the look-ahead a stream holds stays bounded however
far away its next periodic time is.

Stale wake-ups (a self-event and an arrival landing on the same tick, or a
wake-up inside an absorbed run) are skipped by tracking each stream's last
delivered time; a stream is never delivered the same time unit twice and
never travels backwards.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.edb.records import Record
from repro.engine.events import EventScheduler

__all__ = ["Engine", "EngineStats"]

#: Priority classes: all stream wake-ups of a tick precede all periodics.
_STREAM_CLASS = 0
_PERIODIC_CLASS = 1

#: Arrivals pulled from a stream's source at a time (a stream's look-ahead).
_PULL_CHUNK = 64


def _absorb_nothing(limit: int, times: Sequence[int], records: Sequence[Record]) -> int:
    """The default run delivery: every tick is left to ``deliver``."""
    return -1


@dataclass
class EngineStats:
    """Work counters of one engine run (exposed for tests and benchmarks)."""

    events_scheduled: int = 0
    events_processed: int = 0
    #: Stream wake-ups that delivered something: a tick, a run, or both.
    ticks_delivered: int = 0
    stale_skipped: int = 0
    periodic_fired: int = 0
    #: Arrival records delivered, in a tick or inside a run.  Together with
    #: ``ticks_delivered`` this separates real ingestion work from wake-ups.
    arrivals_delivered: int = 0


@dataclass
class _Stream:
    name: str
    deliver: Callable[[int, Record | None], object]
    absorb: Callable[[int, Sequence[int], Sequence[Record]], int]
    source: Iterator[tuple[int, Record]]
    next_self_event: Callable[[int], int | None] | None
    priority: tuple[int, int]
    last_tick: int = 0
    #: Pulled, undelivered arrivals in time order (at most one chunk).
    times: list[int] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    last_pulled: int | None = None
    exhausted: bool = False
    #: Times of the newest pending heap entries (arrival / self-event), so
    #: re-offering the same wake-up pushes nothing.
    arrival_due: int | None = None
    self_due: int | None = None
    #: The last run stopped right before a tick the strategy decides, so the
    #: next wake-up delivers that tick without offering a run first.
    blocked: bool = False


@dataclass
class _Periodic:
    callback: Callable[[int], object]
    interval: int
    priority: tuple[int, int]


class Engine:
    """Scheduled-event simulation core bounded by ``horizon`` time units."""

    def __init__(self, horizon: int, start_time: int = 0) -> None:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not 0 <= start_time <= horizon:
            raise ValueError(
                f"start_time must be in [0, {horizon}], got {start_time}"
            )
        self._horizon = horizon
        self._start_time = start_time
        self._scheduler = EventScheduler()
        self._streams: list[_Stream] = []
        self._periodics: list[_Periodic] = []
        self._stats = EngineStats()
        self._ran = False

    @property
    def horizon(self) -> int:
        """Last time unit (inclusive) the engine will process."""
        return self._horizon

    @property
    def stats(self) -> EngineStats:
        """Work counters (populated by :meth:`run`)."""
        return self._stats

    # -- registration -----------------------------------------------------------

    def add_stream(
        self,
        name: str,
        deliver: Callable[[int, Record | None], object],
        arrivals: Iterable[tuple[int, Record]] = (),
        next_self_event: Callable[[int], int | None] | None = None,
        resume_at: int = 0,
        absorb: Callable[[int, Sequence[int], Sequence[Record]], int] = _absorb_nothing,
    ) -> None:
        """Register a stream.

        Parameters
        ----------
        name:
            Label used in error messages.
        deliver:
            Called as ``deliver(time, update)`` for every tick the stream's
            strategy may decide; ``update`` is the arrival record when the
            tick carries one, else ``None``.
        arrivals:
            Iterable of ``(time, record)`` pairs with strictly increasing
            times (e.g. :meth:`GrowingDatabase.arrivals`); consumed lazily,
            at most one chunk ahead.
        next_self_event:
            Optional hint called after every wake-up (and once with
            ``resume_at`` before the run) returning the next time the stream
            must be woken even without an arrival, or ``None``.
        resume_at:
            Last time unit already delivered to the stream in a previous
            (persisted) run.  Arrivals at or before this time are consumed
            without delivery and the first self-event hint is taken at this
            time rather than 0.
        absorb:
            Run delivery, called as ``absorb(limit, times, records)``:
            ``times``/``records`` list the stream's undelivered arrivals in
            time order -- every one up to ``limit``, possibly some beyond,
            which are not part of the run -- and are valid only during the
            call.  It absorbs the leading quiet ticks up to ``limit`` and
            returns the last one absorbed; returning a tick at or before the
            stream's last delivered time absorbs nothing, which the default
            always does.  ``limit`` is the next periodic time or the horizon,
            or the last buffered arrival when the run continues past the
            buffer -- the engine then pulls the next chunk and offers the
            rest of the run in a further call.
        """
        if self._ran:
            raise RuntimeError("streams must be registered before run()")
        if resume_at < 0:
            raise ValueError("resume_at must be non-negative")
        self._streams.append(
            _Stream(
                name=name,
                deliver=deliver,
                absorb=absorb,
                source=iter(arrivals),
                next_self_event=next_self_event,
                priority=(_STREAM_CLASS, len(self._streams)),
                last_tick=resume_at,
            )
        )

    def add_periodic(self, interval: int, callback: Callable[[int], object]) -> None:
        """Register ``callback(time)`` to fire at every multiple of ``interval``."""
        if self._ran:
            raise RuntimeError("periodic callbacks must be registered before run()")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._periodics.append(
            _Periodic(
                callback=callback,
                interval=interval,
                priority=(_PERIODIC_CLASS, len(self._periodics)),
            )
        )

    # -- execution ----------------------------------------------------------------

    def run(self) -> EngineStats:
        """Process every scheduled event up to the horizon (once per engine)."""
        if self._ran:
            raise RuntimeError("an Engine instance may only run once")
        self._ran = True
        for stream in self._streams:
            # Resumed stream: arrivals up to ``last_tick`` were delivered
            # before the snapshot; consume them, keeping validation anchored.
            while (head := self._head_time(stream)) is not None and (
                head <= stream.last_tick
            ):
                del stream.times[0]
                del stream.records[0]
            self._schedule_next(stream)
        for periodic in self._periodics:
            first = ((self._start_time // periodic.interval) + 1) * periodic.interval
            if first <= self._horizon:
                self._scheduler.schedule(first, periodic.priority, periodic)
        scheduler = self._scheduler
        while scheduler:
            time, klass, _, _, payload = scheduler.pop()
            if klass == _STREAM_CLASS:
                self._wake_stream(payload, time)
            else:
                self._fire_periodic(payload, time)
        self._stats.events_scheduled = scheduler.events_scheduled
        self._stats.events_processed = scheduler.events_processed
        return self._stats

    # -- internals ------------------------------------------------------------------

    def _pull(self, stream: _Stream) -> bool:
        """Append the stream's next chunk of in-horizon arrivals to its buffer."""
        if stream.exhausted:
            return False
        chunk = list(itertools.islice(stream.source, _PULL_CHUNK))
        if len(chunk) < _PULL_CHUNK:
            stream.exhausted = True
        previous = stream.last_pulled
        for time, _ in chunk:
            if previous is not None and time <= previous:
                raise ValueError(
                    f"stream {stream.name!r}: arrival times must be strictly "
                    f"increasing (got {time} after {previous})"
                )
            previous = time
        if not chunk:
            return False
        stream.last_pulled = previous
        if previous > self._horizon:
            # Times are increasing, so everything further is out of range too.
            stream.exhausted = True
            chunk = [entry for entry in chunk if entry[0] <= self._horizon]
        stream.times.extend(time for time, _ in chunk)
        stream.records.extend(record for _, record in chunk)
        return bool(chunk)

    def _head_time(self, stream: _Stream) -> int | None:
        """Time of the stream's next undelivered arrival, or ``None``."""
        if not stream.times and not self._pull(stream):
            return None
        return stream.times[0]

    def _limit(self, time: int) -> int:
        """The first periodic time at or after ``time``, capped at the horizon."""
        limit = self._horizon
        for periodic in self._periodics:
            due = -(-time // periodic.interval) * periodic.interval
            if due < limit:
                limit = due
        return limit

    def _run(self, stream: _Stream, limit: int) -> None:
        """Offer the stream the run ``(last_tick, limit]`` of quiet ticks."""
        times, records = stream.times, stream.records
        now = stream.last_tick
        while now < limit:
            if not times:
                self._pull(stream)
            # Past the last buffered arrival the stream is unknown until the
            # next chunk is pulled, so the run is offered up to there first.
            if times and not stream.exhausted and times[-1] < limit:
                cap = times[-1]
            else:
                cap = limit
            end = stream.absorb(cap, times, records)
            if end > cap:
                raise ValueError(
                    f"stream {stream.name!r}: a run must end by tick {cap} "
                    f"(got {end})"
                )
            if end <= now:
                break
            absorbed = bisect_right(times, end)
            self._stats.arrivals_delivered += absorbed
            del times[:absorbed]
            del records[:absorbed]
            stream.last_tick = now = end
            if end < cap:
                break
        stream.blocked = now < limit

    def _wake_stream(self, stream: _Stream, time: int) -> None:
        if time <= stream.last_tick:
            # A self-event and an arrival landed on the same tick, or a run
            # already absorbed this one.
            self._stats.stale_skipped += 1
            return
        limit = self._limit(time)
        if not stream.blocked:
            self._run(stream, limit)
        if stream.last_tick < time:
            update: Record | None = None
            if self._head_time(stream) == time:
                del stream.times[0]
                update = stream.records.pop(0)
                self._stats.arrivals_delivered += 1
            stream.deliver(time, update)
            stream.last_tick = time
            self._run(stream, limit)
        self._stats.ticks_delivered += 1
        self._schedule_next(stream)

    def _schedule_next(self, stream: _Stream) -> None:
        """Push the stream's next arrival and self-event wake-ups."""
        now = stream.last_tick
        arrival = self._head_time(stream)
        if arrival is not None and arrival != stream.arrival_due:
            stream.arrival_due = arrival
            self._scheduler.schedule(arrival, stream.priority, stream)
        if stream.next_self_event is None:
            return
        when = stream.next_self_event(now)
        if when is None:
            return
        if when <= now:
            raise ValueError(
                f"stream {stream.name!r}: next_event must be in the future "
                f"(got {when} at time {now})"
            )
        if when <= self._horizon and when != stream.self_due:
            stream.self_due = when
            self._scheduler.schedule(when, stream.priority, stream)

    def _fire_periodic(self, periodic: _Periodic, time: int) -> None:
        periodic.callback(time)
        self._stats.periodic_fired += 1
        following = time + periodic.interval
        if following <= self._horizon:
            self._scheduler.schedule(following, periodic.priority, periodic)
