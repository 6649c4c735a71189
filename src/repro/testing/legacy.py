"""The per-tick reference loop: the oracle :meth:`Simulation.run` is pinned to.

:func:`run_legacy` visits every owner at every time unit through
:meth:`~repro.core.owner.Owner.tick` and recomputes ground truth by
rescanning the logical tables -- no event heap, no runs, no maintained
aggregates.  The engine path must reproduce its :class:`RunResult` bit for
bit (``tests/test_engine_equivalence.py``, ``tests/test_run_delivery.py``).
"""

from __future__ import annotations

from repro.simulation.clock import SimulationClock
from repro.simulation.results import RunResult
from repro.simulation.simulator import Simulation

__all__ = ["run_legacy"]


def run_legacy(simulation: Simulation) -> RunResult:
    """Execute ``simulation`` with the original per-tick loop."""
    ctx = simulation._build(incremental_truth=False)
    try:
        clock = SimulationClock(
            horizon=ctx.horizon, query_interval=simulation._config.query_interval
        )
        workloads = simulation._workloads
        for time in clock.iter_ticks():
            for stream, owner in ctx.owners.items():
                owner.tick(time, workloads[stream].update_at(time))
            if clock.is_query_time():
                simulation._observe(time, ctx)
        return simulation._finalize(ctx)
    finally:
        simulation._close_edb(ctx)
