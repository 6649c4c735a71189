"""Scheduled-event primitives.

The scheduler is a plain binary heap of ``(time, class, index, sequence,
payload)`` tuples.  ``(class, index)`` is the event's priority within a time
unit (the engine gives every owner wake-up class 0 and the query schedule
class 1, so all owner activity of a tick precedes it); ``sequence`` is a
monotonically increasing tiebreaker that keeps same-key events in insertion
order and ensures payloads are never compared.  Plain tuples compare in C,
so a push or pop costs no Python-level ``__lt__`` calls.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

__all__ = ["ScheduledEvent", "EventScheduler"]

#: One heap entry: ``(time, class, index, sequence, payload)``.
ScheduledEvent = tuple[int, int, int, int, Any]


class EventScheduler:
    """A min-heap of :data:`ScheduledEvent` tuples, popped in time/priority order."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._pushed = 0
        self._popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(
        self, time: int, priority: tuple[int, int], payload: Any
    ) -> ScheduledEvent:
        """Push an event with priority ``(class, index)``; same-key events
        pop in insertion order."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = (time, priority[0], priority[1], next(self._sequence), payload)
        heapq.heappush(self._heap, event)
        self._pushed += 1
        return event

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty scheduler")
        self._popped += 1
        return heapq.heappop(self._heap)

    def peek_time(self) -> int | None:
        """Time of the earliest event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def events_scheduled(self) -> int:
        """Total events ever pushed."""
        return self._pushed

    @property
    def events_processed(self) -> int:
        """Total events ever popped."""
        return self._popped
