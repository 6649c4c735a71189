"""The benchmark's runs and metrics; ``run.py`` is the command-line entry.

Imported by ``run.py`` once the repository's ``src`` is on the path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy

from checks import cell_digest, invariant_failures, leaked_shm
from probes import LAYERS, CellRecord, Patches, Probe, SetupOnly, Tracer, steal_seconds
from repro.simulation.runner import _cached_workloads, run_cell
from workloads import build_workload, warmup_cell

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Set-ups measured per cell; ``setup_s`` sums the per-cell medians.  A cell
#: gets at least ``SETUP_SAMPLES`` of them and more, up to ``SETUP_SAMPLES_MAX``,
#: while their sum is under ``SETUP_BUDGET_S`` (sub-millisecond set-ups need
#: many samples for a steady median).
SETUP_SAMPLES = 5
SETUP_SAMPLES_MAX = 31
SETUP_BUDGET_S = 1.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (a value that was measured); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment() -> dict:
    """Where the numbers came from; the line count is information, not a metric.

    Outside a git checkout the commit is unknown, so a digest of the ``src``
    tree identifies the code measured.
    """
    src_lines = 0
    src_digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_bytes()
        src_lines += len(text.splitlines())
        src_digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + text)
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": src_digest.hexdigest()[:16],
        "src_lines": src_lines,
    }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


class Bench:
    """Runs one workload's passes and keeps what they measured."""

    def __init__(self, args, quiesce) -> None:
        #: Called after a cell with worker processes, until they have all ended.
        self.quiesce = quiesce
        self.cells = build_workload(args.workload, args.seed, smoke=args.smoke)
        self.digest_key = args.workload + (":smoke" if args.smoke else "")
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.expected = recorded.get(self.digest_key, {}).get(str(args.seed), {})
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_pass_rss_kb = 0
        self.probe = Probe()

    def generate_inputs(self) -> float:
        """Build the shared input into the runner's cache; returns seconds."""
        cell = self.cells[0]
        started = time.perf_counter()
        _cached_workloads(cell.scenario, cell.workload_seed, cell.scale, cell.scenario_kwargs)
        return time.perf_counter() - started

    def warm_up(self, cell) -> None:
        """One untimed short cell, so timed cells find imports and caches warm."""
        try:
            run_cell(cell)
        except Exception:
            self._fail(CellRecord(cell.cell_id), [f"raised:\n{traceback.format_exc()}"])
        self._settle(cell)

    def run_cell(self, cell, tracer=None):
        record = CellRecord(cell.cell_id)
        self.probe.cell = record
        record.started = time.perf_counter()
        try:
            if tracer is None:
                result = run_cell(cell)
            else:
                result = tracer.root(run_cell, cell)
        except Exception:
            record.wall_s = time.perf_counter() - record.started
            self._fail(record, [f"raised:\n{traceback.format_exc()}"])
            return record
        record.wall_s = time.perf_counter() - record.started
        self._settle(cell)
        problems = invariant_failures(cell, result, record)
        digest = cell_digest(result, record)
        expected = self.expected.get(cell.cell_id)
        if expected is not None and digest != expected:
            problems.append(f"digest {digest} != recorded {expected}")
        earlier = self.digests.setdefault(cell.cell_id, digest)
        if earlier != digest:
            problems.append(f"digest {digest} != earlier pass {earlier}")
        if problems:
            self._fail(record, problems)
        else:
            self.attempted += record.operations
        record.answers = []
        return record

    def _settle(self, cell) -> None:
        if cell.shard_executor == "processes" and cell.n_shards > 1:
            self.quiesce()

    def _fail(self, record, problems) -> None:
        operations = max(1, record.operations)
        self.attempted += operations
        self.failed += operations
        self.problems.extend(f"{record.cell_id}: {problem}" for problem in problems)

    def passes(self, seconds: float, tracer=None, at_most: int | None = None):
        """Whole passes over the cells until ``seconds`` of cell wall time.

        A further pass starts only if, at the last pass's pace, it would end
        within 1.5 x ``seconds``, so a slow host cannot stretch a run much.
        """
        records = []
        elapsed = 0.0
        count = 0
        while count == 0 or (
            elapsed < seconds
            and elapsed * (count + 1) / count <= 1.5 * seconds
            and (at_most is None or count < at_most)
        ):
            for cell in self.cells:
                record = self.run_cell(cell, tracer)
                elapsed += record.wall_s
                records.append(record)
            count += 1
            if count == 1:
                self.first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return records, count

    def setup_samples(self) -> dict[str, list[float]]:
        """Per-cell set-up times from set-up-only runs of each cell.

        They run right after the warm-up, before any pass, and each starts
        from a collected heap, so they see the same process state in every run.
        """
        by_cell = {cell.cell_id: [] for cell in self.cells}
        self.probe.setup_only = True
        try:
            for cell in self.cells:
                samples = by_cell[cell.cell_id]
                while len(samples) < SETUP_SAMPLES or (
                    len(samples) < SETUP_SAMPLES_MAX and sum(samples) < SETUP_BUDGET_S
                ):
                    record = CellRecord(cell.cell_id)
                    self.probe.cell = record
                    gc.collect()
                    record.started = time.perf_counter()
                    try:
                        run_cell(cell)
                    except SetupOnly:
                        pass
                    except Exception:
                        self._fail(record, [f"set-up raised:\n{traceback.format_exc()}"])
                        break
                    finally:
                        self._settle(cell)
                    samples.append(record.setup_s)
        finally:
            self.probe.setup_only = False
        return by_cell


def unstolen_share(record) -> float:
    """The share of a cell's engine wall the host did not steal (>= 0.5)."""
    if record.engine_s <= 0:
        return 1.0
    return max(1.0 - record.engine_steal_s / record.engine_s, 0.5)


def end_to_end_metrics(records, setups, first_pass_rss_kb: int) -> tuple[dict, dict]:
    """The headline metrics, in unstolen time.

    A busy neighbour on the host should not read as a regression.  Each
    cell's engine run is scaled by its unstolen share: the engine wall minus
    the CPU time the host stole from this virtual machine meanwhile, over the
    wall (never below one half).  ``arrivals_per_s`` divides by the scaled
    walls, and every latency is scaled by its cell's share, which assumes the
    steal spread evenly over the run.  Peak RSS covers input generation, the
    warm-up and the first pass, so it does not depend on how many passes fit
    in the run.
    """
    arrivals = sum(r.arrivals for r in records)
    engine_s = sum(r.engine_s for r in records)
    steal_s = sum(r.engine_steal_s for r in records)
    shares = [unstolen_share(r) for r in records]
    unstolen_s = sum(share * r.engine_s for share, r in zip(shares, records))
    syncs = [share * s for share, r in zip(shares, records) for s in r.sync_s]
    queries = [share * q for share, r in zip(shares, records) for q in r.query_s]
    first_pass = records[: len(setups)]
    coordinator_kb = first_pass_rss_kb
    workers_kb = max((r.worker_peak_kb for r in first_pass), default=0)
    values = {
        "arrivals_per_s": ratio(arrivals, unstolen_s),
        "sync_p50_ms": 1e3 * percentile(syncs, 50),
        "sync_p99_ms": 1e3 * percentile(syncs, 99),
        "query_p50_ms": 1e3 * percentile(queries, 50),
        "query_p99_ms": 1e3 * percentile(queries, 99),
        "setup_s": sum(statistics.median(samples) for samples in setups.values() if samples),
        "peak_rss_mb": (coordinator_kb + workers_kb) / 1024.0,
    }

    def counted(values):
        return {"n": len(values), "beyond_p99": len(values) - math.ceil(0.99 * len(values))}

    samples = {
        "arrivals": arrivals,
        "engine_s": engine_s,
        "engine_steal_s": steal_s,
        "sync": counted(syncs),
        "query": counted(queries),
        "setup": {"cells": len(setups), "per_cell": min(len(s) for s in setups.values())},
        "peak_rss_kb": {"coordinator": coordinator_kb, "workers": workers_kb},
        "with_steal": {
            "arrivals_per_s": ratio(arrivals, engine_s),
            "sync_p50_ms": 1e3 * percentile([s for r in records for s in r.sync_s], 50),
            "query_p50_ms": 1e3 * percentile([q for r in records for q in r.query_s], 50),
        },
    }
    return values, samples


def per_layer_metrics(tracer, traced, passes, reference, gen_s) -> tuple[dict, dict]:
    # The root spans' total, so the layer self times add up to it exactly.
    wall = tracer.total_s["simulation"]
    reference_wall = sum(r.wall_s for r in reference)
    self_s = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    total = tracer.total_s
    counts = tracer.counts
    busy: dict[int, float] = {}
    for record in traced:
        for shard, seconds in record.worker_busy.items():
            busy[shard] = busy.get(shard, 0.0) + seconds
    health = {"retries": 0, "recoveries": 0}
    for record in traced:
        for key in health:
            health[key] += (record.health or {}).get(key, 0)
    real = sum(r.real_added for r in traced)
    added = sum(r.total_added for r in traced)
    arrivals = sum(r.arrivals for r in traced)
    router_calls = sum(r.router_calls for r in traced)

    values = {
        "engine.self_s": self_s["engine"] / passes,
        "engine.wakes_per_arrival": ratio(sum(r.ticks for r in traced), arrivals),
        "core.owner_self_s": self_s["core.owner"] / passes,
        "core.strategy_step_s": self_s["core.strategy"] / passes,
        "core.syncs": counts["core.syncs"] / passes,
        "core.real_frac": ratio(real, added),
        "dp.draws": tracer.draws / passes,
        "query.truth_ingest_s": total["truth.ingest"] / passes,
        "query.exec_s": total["query.exec"] / passes,
        "query.rows_per_query": ratio(counts["query.rows"], counts["query.calls"]),
        "query.analyst_self_s": self_s["query.analyst"] / passes,
        "edb.ingest_s": total["edb.ingest"] / passes,
        "edb.records_per_ingest": ratio(
            sum(v for r in traced for _, v in r.transcript),
            sum(len(r.transcript) for r in traced),
        ),
        "edb.crypto.encrypt_s": total["crypto.encrypt"] / passes,
        "edb.crypto.bytes": counts["edb.crypto.bytes"] / passes,
        "edb.crypto.arena_grows": counts["edb.crypto.arena_grows"] / passes,
        "edb.router.ingest_s": total["router.ingest"] / passes,
        "edb.router.query_s": total["router.query"] / passes,
        "edb.shard_worker.busy_s": sum(busy.values()) / passes,
        "edb.shard_worker.skew": ratio(max(busy.values(), default=0.0), statistics.fmean(busy.values()) if busy else 0.0),
        "edb.shard_worker.pipe_s": sum(r.pipe_s for r in traced) / passes,
        "edb.shard_worker.commands_per_call": ratio(sum(r.worker_commands for r in traced), router_calls),
        "edb.store.saves": counts["store.save.calls"] / passes,
        "edb.store.save_s": counts["store.save.s"] / passes,
        "edb.store.bytes": counts["store.save.bytes"] / passes,
        "edb.store.journal_flush_s": counts["store.flush.s"] / passes,
        "fleet.supervisor.checkpoint_call_s": counts["fleet.checkpoint_call_s"] / passes,
        "fleet.supervisor.retries": health["retries"] / passes,
        "fleet.supervisor.recoveries": health["recoveries"] / passes,
        "workload.gen_s": gen_s,
        "simulation.residual_frac": ratio(self_s["simulation"], wall),
        "trace.overhead_frac": ratio(wall / passes, reference_wall) - 1.0 if reference_wall else 0.0,
    }
    table = {
        "wall_s": wall / passes,
        "reference_wall_s": reference_wall,
        "self_s": {layer: seconds / passes for layer, seconds in self_s.items()},
        "shares": {
            "checkpoint_call": ratio(counts["fleet.checkpoint_call_s"], wall),
            "pipe": ratio(sum(r.pipe_s for r in traced), wall),
        },
    }
    return values, table


def measure(args, quiesce) -> dict:
    """Run the workload as ``args`` asks; the metrics and what the run saw."""
    bench = Bench(args, quiesce)
    steal_before = steal_seconds()
    gen_s = bench.generate_inputs()
    patches = Patches()
    bench.probe.install(patches)
    try:
        bench.warm_up(warmup_cell(bench.cells[0], smoke=args.smoke))
        if args.record_digests:
            bench.passes(0.0, at_most=1)
            return {"bench": bench, "record": True}
        if args.trace:
            reference, _ = bench.passes(0.0, at_most=1)
            # The tracer goes underneath the probe, so the probe's own work
            # stays out of the layer spans.
            patches.restore()
            tracer = Tracer()
            tracer.install(patches)
            bench.probe.install(patches)
            tracer.active = True
            traced, passes = bench.passes(args.seconds, tracer=tracer)
            tracer.active = False
            values, table = per_layer_metrics(tracer, traced, passes, reference, gen_s)
            detail = {"passes": passes, "layers": table}
        else:
            setups = bench.setup_samples()
            records, passes = bench.passes(args.seconds)
            values, counts = end_to_end_metrics(records, setups, bench.first_pass_rss_kb)
            detail = {"passes": passes, "samples": counts}
    finally:
        patches.restore()
    leaked = leaked_shm(bench.probe.worker_pids, bench.probe.scratch_dirs)
    if leaked:
        bench.problems.append(f"/dev/shm entries left behind: {leaked}")
    detail["steal_s"] = steal_seconds() - steal_before
    return {"bench": bench, "values": values, "detail": detail}
