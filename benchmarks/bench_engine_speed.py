"""Engine wall-clock benchmarks: event scheduling and the EDB fast path.

Two comparisons are recorded into ``BENCH_engine.json`` at the repo root:

1. **engine vs legacy loop** -- a sparse 50,000-tick, 3-table DP-Timer
   workload replayed through the original per-tick loop
   (:func:`repro.testing.legacy.run_legacy`) and the scheduled-event engine
   (:meth:`Simulation.run`).  On a sparse stream the legacy loop spends
   almost all of its time on dead iterations, which the engine skips.
2. **EDB fast path vs reference** -- a Figure-2-scale dp-timer run (full
   June taxi workload, paper query schedule) on the engine, once with the
   ``reference`` EDB mode (the PR-1 engine baseline: row-at-a-time
   operators) and once with the vectorized ``fast`` mode.  Results are
   asserted bit-identical; the acceptance floor is a 5x speedup.

3. **run-length delivery** -- the five Figure 2 strategies on ``taxi-june``
   (ObliDB): per-strategy engine seconds and owner wake-ups per arrival
   (``ticks_delivered / arrivals_delivered``), next to the same numbers for
   the per-arrival engine the runs replaced (:data:`PER_ARRIVAL_BASELINE`).
   The pooled wake ratio is deterministic and must stay at or below 0.8.

Shared CI runners set lower smoke floors via the ``REPRO_BENCH_MIN_SPEEDUP``
/ ``REPRO_BENCH_MIN_EDB_SPEEDUP`` knobs because wall-clock ratios are noisy
there.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit_report, merge_bench_json
from repro.core.strategies.flush import FlushPolicy
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.engine import Engine
from repro.query.ast import CountQuery
from repro.query.predicates import RangePredicate
from repro.simulation.runner import CellSpec, run_cell
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.testing.legacy import run_legacy
from repro.workload.stream import GrowingDatabase

HORIZON = 50_000
TABLES = 3
RECORDS_PER_TABLE = 500  # occupancy 1%: the stream is quiet 99% of the time
TIMER_PERIOD = 120  # sparse sync schedule to match the sparse stream
# The acceptance floor is 3x (local margin ~4.6x); shared CI runners set a
# lower smoke floor because wall-clock ratios are noisy there.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
#: Acceptance floor for the figure-2-scale EDB fast path (local margin ~7x).
MIN_EDB_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_EDB_SPEEDUP", "5.0"))
#: Workload scale of the fast-path comparison (1.0 = the paper's Figure 2).
FIG2_SCALE = float(os.environ.get("REPRO_BENCH_FIG2_SCALE", "1.0"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: Engine runs per strategy in the run-length delivery case (median kept).
DELIVERY_REPEATS = 3
#: Pooled owner wake-ups per delivered arrival the run-length engine must
#: stay under on the Figure 2 grid (the per-arrival engine made 1.48).
MAX_WAKES_PER_ARRIVAL = 0.8
#: The per-arrival engine (every arrival a wake-up, DP-ANT woken every tick;
#: commit c0893b3) on the same cells at scale 1.0, measured with this
#: benchmark's method on a 2-vCPU Intel Xeon host, Python 3.11, NumPy 2.4.
PER_ARRIVAL_BASELINE = {
    "sur": {"engine_seconds": 1.544, "ticks_delivered": 39729, "arrivals_delivered": 39729},
    "oto": {"engine_seconds": 0.5557, "ticks_delivered": 39729, "arrivals_delivered": 39729},
    "set": {"engine_seconds": 3.4621, "ticks_delivered": 86400, "arrivals_delivered": 39729},
    "dp-timer": {"engine_seconds": 1.4537, "ticks_delivered": 41354, "arrivals_delivered": 39729},
    "dp-ant": {"engine_seconds": 2.3333, "ticks_delivered": 86400, "arrivals_delivered": 39729},
}


def sparse_workloads(seed: int = 0) -> dict[str, GrowingDatabase]:
    """Three sparse streams with a fixed arrival layout per seed."""
    rng = np.random.default_rng(seed)
    workloads: dict[str, GrowingDatabase] = {}
    for index in range(TABLES):
        table = f"Sensor{index}"
        times = np.sort(
            rng.choice(np.arange(1, HORIZON + 1), size=RECORDS_PER_TABLE, replace=False)
        )
        updates: list[Record | None] = [None] * HORIZON
        for t in times:
            t = int(t)
            updates[t - 1] = Record(
                values={"sensor_id": index, "value": t % 97},
                arrival_time=t,
                table=table,
            )
        workloads[table] = GrowingDatabase(table=table, updates=updates)
    return workloads


def build_simulation(workloads) -> Simulation:
    config = SimulationConfig(
        strategy="dp-timer",
        epsilon=0.5,
        timer_period=TIMER_PERIOD,
        flush=FlushPolicy(interval=2000, size=15),
        query_interval=5000,
        seed=7,
    )
    queries = [
        CountQuery(
            table="Sensor0",
            predicate=RangePredicate("value", 10, 60),
            label="Q1",
        )
    ]
    return Simulation(
        edb_factory=lambda: ObliDB(rng=np.random.default_rng(1)),
        workloads=workloads,
        queries=queries,
        config=config,
    )


def test_engine_speedup_over_legacy_loop(bench_settings):
    workloads = sparse_workloads()

    start = time.perf_counter()
    legacy_result = run_legacy(build_simulation(workloads))
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    engine_result = build_simulation(workloads).run()
    engine_seconds = time.perf_counter() - start

    assert engine_result == legacy_result, "engine run diverged from legacy loop"
    speedup = legacy_seconds / max(engine_seconds, 1e-9)

    payload = {
        "benchmark": "engine_speed",
        "horizon": HORIZON,
        "tables": TABLES,
        "records_per_table": RECORDS_PER_TABLE,
        "strategy": "dp-timer",
        "timer_period": TIMER_PERIOD,
        "edb_mode": "fast",
        "legacy_seconds": round(legacy_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "speedup": round(speedup, 2),
        "sync_count": legacy_result.sync_count,
        "total_update_volume": legacy_result.total_update_volume,
    }
    merge_bench_json(OUTPUT_PATH, "engine_speed", payload)

    emit_report(
        "engine_speed",
        "Event-driven engine vs. legacy per-tick loop "
        f"({TABLES} tables x {HORIZON} ticks, {RECORDS_PER_TABLE} records/table)\n\n"
        f"legacy loop : {legacy_seconds:8.3f} s\n"
        f"engine      : {engine_seconds:8.3f} s\n"
        f"speedup     : {speedup:8.2f} x\n"
        f"(results identical: sync_count={legacy_result.sync_count}, "
        f"volume={legacy_result.total_update_volume})",
    )

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup, measured {speedup:.2f}x"
    )


def test_edb_fast_path_speedup_figure2(bench_settings):
    """Figure-2-scale dp-timer: vectorized EDB vs the PR-1 engine baseline.

    Both runs use the event-driven engine; only the EDB implementation mode
    differs, so the measured ratio isolates the storage/query-layer rewrite.
    """
    spec = CellSpec(
        strategy="dp-timer",
        backend="oblidb",
        scenario="taxi-june",
        scale=FIG2_SCALE,
        query_interval=360,
        sim_seed=1,
        backend_seed=2,
        workload_seed=2020,
    )
    # Warm the per-process scenario cache so neither timing pays the build.
    run_cell(dataclasses.replace(spec, horizon=10))

    start = time.perf_counter()
    reference_result = run_cell(dataclasses.replace(spec, edb_mode="reference"))
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast_result = run_cell(dataclasses.replace(spec, edb_mode="fast"))
    fast_seconds = time.perf_counter() - start

    assert fast_result.to_dict() == reference_result.to_dict(), (
        "fast EDB mode diverged from the reference mode"
    )
    speedup = reference_seconds / max(fast_seconds, 1e-9)

    payload = {
        "benchmark": "edb_fast_path_figure2",
        "strategy": "dp-timer",
        "backend": "oblidb",
        "scenario": "taxi-june",
        "scale": FIG2_SCALE,
        "query_interval": 360,
        "modes_compared": ["reference", "fast"],
        "reference_seconds": round(reference_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 2),
        "sync_count": fast_result.sync_count,
        "total_update_volume": fast_result.total_update_volume,
    }
    merge_bench_json(OUTPUT_PATH, "edb_fast_path_figure2", payload)

    emit_report(
        "edb_fast_path_figure2",
        "Vectorized EDB fast path vs reference mode "
        f"(figure-2-scale dp-timer, scale={FIG2_SCALE})\n\n"
        f"reference mode : {reference_seconds:8.3f} s\n"
        f"fast mode      : {fast_seconds:8.3f} s\n"
        f"speedup        : {speedup:8.2f} x\n"
        f"(results identical: sync_count={fast_result.sync_count}, "
        f"volume={fast_result.total_update_volume})",
    )

    assert speedup >= MIN_EDB_SPEEDUP, (
        f"expected >= {MIN_EDB_SPEEDUP}x EDB speedup, measured {speedup:.2f}x"
    )


def test_run_length_delivery_figure2(bench_settings):
    """Figure 2 grid on the engine: seconds and wake-ups per arrival per strategy.

    OTO absorbs whole query intervals, DP-Timer whole timer windows and DP-ANT
    every tick up to its next sparse-vector crossing, so their wake-ups fall
    far below one per arrival; SUR and SET decide at every arrival / tick and
    keep theirs.
    """
    captured = {}
    engine_run = Engine.run

    def timed_run(engine):
        started = time.perf_counter()
        stats = engine_run(engine)
        captured["seconds"] = time.perf_counter() - started
        captured["stats"] = stats
        return stats

    measured = {}
    Engine.run = timed_run
    try:
        for strategy in PER_ARRIVAL_BASELINE:
            spec = CellSpec(
                strategy=strategy,
                backend="oblidb",
                scenario="taxi-june",
                scale=FIG2_SCALE,
                query_interval=360,
                sim_seed=1,
                backend_seed=2,
                workload_seed=2020,
            )
            run_cell(dataclasses.replace(spec, horizon=10))
            seconds = []
            for _ in range(DELIVERY_REPEATS):
                run_cell(spec)
                seconds.append(captured["seconds"])
            stats = captured["stats"]
            measured[strategy] = {
                "engine_seconds": round(statistics.median(seconds), 4),
                "ticks_delivered": stats.ticks_delivered,
                "arrivals_delivered": stats.arrivals_delivered,
                "wakes_per_arrival": round(
                    stats.ticks_delivered / max(stats.arrivals_delivered, 1), 4
                ),
            }
    finally:
        Engine.run = engine_run

    ticks = sum(m["ticks_delivered"] for m in measured.values())
    arrivals = sum(m["arrivals_delivered"] for m in measured.values())
    pooled = ticks / max(arrivals, 1)
    payload = {
        "benchmark": "run_length_delivery_figure2",
        "backend": "oblidb",
        "scenario": "taxi-june",
        "scale": FIG2_SCALE,
        "query_interval": 360,
        "repeats": DELIVERY_REPEATS,
        "run_length": measured,
        "wakes_per_arrival": round(pooled, 4),
    }
    if FIG2_SCALE == 1.0:
        payload["per_arrival_baseline"] = PER_ARRIVAL_BASELINE
    merge_bench_json(OUTPUT_PATH, "run_length_delivery_figure2", payload)

    lines = [f"{'strategy':<10}{'engine s':>10}{'wakes/arrival':>15}"]
    for strategy, m in measured.items():
        lines.append(
            f"{strategy:<10}{m['engine_seconds']:>10.3f}{m['wakes_per_arrival']:>15.3f}"
        )
    lines.append(f"pooled wakes per arrival: {pooled:.3f}")
    emit_report(
        "run_length_delivery_figure2",
        f"Run-length delivery, Figure 2 grid (taxi-june, scale={FIG2_SCALE})\n\n"
        + "\n".join(lines),
    )

    assert pooled <= MAX_WAKES_PER_ARRIVAL, (
        f"expected <= {MAX_WAKES_PER_ARRIVAL} wake-ups per arrival, measured {pooled:.3f}"
    )
