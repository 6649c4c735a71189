"""Event-driven simulation core.

The engine replaces the per-tick simulator loop: instead of touching every
owner at every time unit, work is scheduled on a priority heap of
``(time, priority, sequence)`` events.  Owners are woken only at logical
arrivals (fed by :meth:`repro.workload.stream.GrowingDatabase.arrivals`) and
at the self-scheduled times their strategies report via
:meth:`repro.core.strategies.base.SyncStrategy.next_event`; the query
schedule runs as a periodic event after all owner activity of a tick.

Quiet stretches are skipped in ``O(log n)`` heap operations instead of
``O(horizon)`` dead Python iterations, and the arrivals inside them reach the
owner as one run rather than one wake-up each, while the event ordering
reproduces the per-tick loop's behaviour exactly (see
``tests/test_engine_equivalence`` and ``tests/test_run_delivery``).
"""

from repro.engine.core import Engine, EngineStats
from repro.engine.events import EventScheduler, ScheduledEvent

__all__ = ["Engine", "EngineStats", "EventScheduler", "ScheduledEvent"]
