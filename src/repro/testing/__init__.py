"""Test-harness infrastructure that ships with the library.

:mod:`repro.testing.chaos` is the deterministic fault-injection layer the
shard supervisor (:mod:`repro.fleet.supervisor`) consumes: seeded, replayable
fault schedules that turn every crash-recovery path into a differential test
case instead of an anecdote.  :mod:`repro.testing.legacy` holds the per-tick
simulation loop, the oracle the event-driven engine is pinned to (import it
from there; it is not re-exported here, to keep this package free of the
simulator import).
"""

from repro.testing.chaos import (
    FAULT_KINDS,
    PROCESS_ONLY_KINDS,
    ChaosWorkerFault,
    Fault,
    FaultSchedule,
    parse_fault_schedule,
    random_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "PROCESS_ONLY_KINDS",
    "ChaosWorkerFault",
    "Fault",
    "FaultSchedule",
    "parse_fault_schedule",
    "random_fault_schedule",
]
