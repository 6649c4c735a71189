"""Timers the benchmark installs around the program's public functions.

Nothing here changes the program: every probe replaces a class attribute
with a wrapper that calls the original, and :class:`Patches` puts the
originals back.  Two kinds of probe exist:

* :class:`Probe` -- always installed.  It times only what a user waits on
  (an owner tick that outsourced a batch, an analyst query), the engine run
  and the set-up before it, and keeps what the output checks need (query
  answers, transcripts, fleet health).
* :class:`Tracer` -- installed only for the traced pass.  It records a span
  at each layer boundary on the coordinator's main thread and derives each
  layer's self time (its span minus the spans it caused), plus the layer
  counters.  Work in shard worker processes is never traced here: fork
  would hand the wrappers to the workers, so they switch themselves off in a
  forked child, and worker-side numbers come from the router's
  ``WallClockStats`` ledger instead.
"""

from __future__ import annotations

import os
import threading
from array import array
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.analyst import Analyst
from repro.core.owner import Owner
from repro.core.strategies.base import SyncStrategy
from repro.dp.mechanisms import LaplaceBlockStream
from repro.edb.base import EncryptedDatabase
from repro.edb.crypto import CIPHERTEXT_SIZE, CiphertextArena, RecordCipher
from repro.edb.leakage import update_pattern_observables
from repro.edb.router import ShardRouter
from repro.edb.store import ReplayLog, SnapshotStore
from repro.engine.core import Engine
from repro.fleet.deployment import Deployment
from repro.query.executor import PlaintextExecutor
from repro.query.incremental import IncrementalTruth
from repro.simulation import runner

perf = time.perf_counter


class Patches:
    """Replace class attributes with wrappers; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` (a class or module attribute) by ``make(it)``."""
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class SetupOnly(Exception):
    """Raised at ``Engine.run`` entry to stop a set-up-only repetition."""


@dataclass
class CellRecord:
    """What one execution of one cell measured and observed."""

    cell_id: str
    started: float = 0.0
    wall_s: float = 0.0
    setup_s: float | None = None
    engine_s: float = 0.0
    arrivals: int = 0
    ticks: int = 0
    #: Latencies, kept compact so the benchmark's own memory stays out of
    #: the program's peak RSS.
    sync_s: array = field(default_factory=lambda: array("d"))
    query_s: array = field(default_factory=lambda: array("d"))
    #: CPU time the host stole from this machine while the engine ran.
    engine_steal_s: float = 0.0
    answers: list = field(default_factory=list)
    deployment: Deployment | None = None
    #: Filled at the end of ``Engine.run`` from the deployment.
    transcript: tuple = ()
    owner_transcripts: dict = field(default_factory=dict)
    per_shard: tuple | None = None
    health: dict | None = None
    real_added: int = 0
    total_added: int = 0
    outsourced: int = 0
    worker_busy: dict = field(default_factory=dict)
    pipe_s: float = 0.0
    worker_commands: int = 0
    router_calls: int = 0
    #: Sum of the worker processes' peak RSS, read just before they shut down.
    worker_peak_kb: int = 0

    @property
    def operations(self) -> int:
        return len(self.sync_s) + len(self.query_s)


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def steal_seconds() -> float:
    """CPU time the hypervisor has given to other guests, summed over CPUs.

    Steal is time a virtual CPU wanted to run but the host ran another guest;
    it inflates wall time without the program doing anything.  Read from
    ``/proc/stat``; 0 where that is missing.
    """
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Probe:
    """The untraced timers plus the capture the output checks need.

    Each engine run also records the host steal over it, which
    ``arrivals_per_s`` takes out of the wall (see ``perfbench/README.md``).
    """

    def __init__(self) -> None:
        self.cell = CellRecord("none")
        self.setup_only = False
        #: Worker pids and supervisor scratch directories of every router
        #: closed so far: what the ``/dev/shm`` leak check looks for.
        self.worker_pids: set[int] = set()
        self.scratch_dirs: set[str] = set()

    def install(self, patches: Patches) -> None:
        probe = self

        def engine_run(original):
            def run(engine):
                cell = probe.cell
                entered = perf()
                cell.setup_s = entered - cell.started
                if probe.setup_only:
                    raise SetupOnly
                steal = steal_seconds()
                stats = original(engine)
                cell.engine_s = perf() - entered
                cell.engine_steal_s = steal_seconds() - steal
                cell.arrivals = stats.arrivals_delivered
                cell.ticks = stats.ticks_delivered
                probe._capture_end(cell)
                return stats

            return run

        def owner_tick(original):
            def tick(owner, time, update):
                started = perf()
                decision = original(owner, time, update)
                elapsed = perf() - started
                if decision.should_sync and decision.records:
                    probe.cell.sync_s.append(elapsed)
                return decision

            return tick

        def analyst_query(original):
            def query(analyst, query, logical_tables=None, time=0):
                started = perf()
                observation = original(analyst, query, logical_tables, time)
                cell = probe.cell
                cell.query_s.append(perf() - started)
                cell.answers.append(observation.answer)
                return observation

            return query

        def deployment_start(original):
            def start(deployment, initial=None):
                probe.cell.deployment = deployment
                return original(deployment, initial)

            return start

        def router_close(original):
            def close(router):
                processes = [
                    shard.process
                    for shard in router.shards
                    if getattr(shard, "process", None) is not None
                ]
                probe.worker_pids.update(process.pid for process in processes)
                if router.supervisor is not None:
                    probe.scratch_dirs.add(router.supervisor.directory.name)
                peak = sum(
                    _peak_rss_kb(process.pid)
                    for process in processes
                    if process.is_alive()
                )
                cell = probe.cell
                cell.worker_peak_kb = max(cell.worker_peak_kb, peak)
                return original(router)

            return close

        patches.wrap(Engine, "run", engine_run)
        patches.wrap(Owner, "tick", owner_tick)
        patches.wrap(Analyst, "query", analyst_query)
        patches.wrap(Deployment, "start", deployment_start)
        patches.wrap(ShardRouter, "close", router_close)

    @staticmethod
    def _capture_end(cell: CellRecord) -> None:
        """Read the run's transcripts and ledgers before the EDB closes."""
        deployment = cell.deployment
        if deployment is None:
            return
        edb = deployment.edb
        history = edb.update_history
        cell.transcript = update_pattern_observables(history)
        cell.owner_transcripts = {
            name: pattern.as_tuples()
            for name, pattern in deployment.update_patterns().items()
        }
        cell.real_added = sum(entry.records_added for entry in history)
        cell.total_added = sum(entry.total_added for entry in history)
        cell.outsourced = edb.outsourced_count
        if isinstance(edb, ShardRouter):
            cell.per_shard = edb.per_shard_observables()
            measured = edb.measured
            cell.health = measured.health()
            cell.worker_busy = dict(measured.per_shard_busy_seconds)
            cell.pipe_s = measured.serialization_seconds
            cell.worker_commands = measured.worker_commands
            cell.router_calls = (
                measured.setup_calls + measured.update_calls + measured.query_calls
            )
        cell.deployment = None


#: Layers of the self-time table, in call order.  ``simulation`` is the root
#: span around ``run_cell``; its self time is the part of the wall no named
#: layer claims (the residual).
LAYERS = (
    "simulation",
    "engine",
    "core.owner",
    "core.strategy",
    "query.truth",
    "query.analyst",
    "query.exec",
    "workload",
    "edb",
    "edb.crypto",
    "edb.router",
)


class Tracer:
    """Per-layer spans on the coordinator's main thread, plus counters."""

    def __init__(self) -> None:
        self.active = False
        self._main = threading.get_ident()
        self._stack: list[list] = []
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.draws = 0
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self.active = False

    def span(self, layer: str, label: str | None = None, on_exit=None):
        """Wrapper factory: time calls as a span of ``layer``.

        ``label`` also accumulates the inclusive time under its own key;
        ``on_exit(args, result, elapsed, parent_layer, saves_at_entry)`` reads
        counters off a successful call.
        """
        tracer = self
        stack = self._stack
        key = label or layer

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.active or threading.get_ident() != tracer._main:
                    return original(*args, **kwargs)
                frame = [0.0, tracer.counts["store.save.calls"], layer]
                stack.append(frame)
                started = perf()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf() - started
                    stack.pop()
                    tracer.self_s[layer] += elapsed - frame[0]
                    tracer.total_s[key] += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                if on_exit is not None:
                    parent = stack[-1][2] if stack else None
                    on_exit(args, result, elapsed, parent, frame[1])
                return result

            return wrapper

        return make

    def root(self, function, *args):
        """Run ``function(*args)`` as the ``simulation`` root span."""
        return self.span("simulation")(function)(*args)

    def _count_only(self, key: str, amount):
        """Wrapper factory for calls on any thread: count and time, no span."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                started = perf()
                result = original(*args, **kwargs)
                elapsed = perf() - started
                with tracer._lock:
                    tracer.counts[f"{key}.calls"] += 1
                    tracer.counts[f"{key}.s"] += elapsed
                    tracer.counts[f"{key}.bytes"] += amount(args)
                return result

            return wrapper

        return make

    def install(self, patches: Patches) -> None:
        tracer = self
        counts = self.counts

        def tick_done(args, decision, elapsed, parent, saves):
            if decision.should_sync and decision.records:
                counts["core.syncs"] += 1

        def query_done(args, result, elapsed, parent, saves):
            if parent == "query.analyst":
                counts["query.rows"] += result.records_scanned
                counts["query.calls"] += 1

        def encrypt_done(args, handles, elapsed, parent, saves):
            counts["edb.crypto.bytes"] += len(handles) * CIPHERTEXT_SIZE

        def router_done(args, result, elapsed, parent, saves):
            if counts["store.save.calls"] > saves:
                counts["fleet.checkpoint_call_s"] += elapsed

        span = self.span
        patches.wrap(Engine, "run", span("engine"))
        patches.wrap(Owner, "tick", span("core.owner", on_exit=tick_done))
        patches.wrap(Owner, "initialize", span("core.owner"))
        patches.wrap(SyncStrategy, "step", span("core.strategy"))
        patches.wrap(SyncStrategy, "setup", span("core.strategy"))
        for name in ("ingest", "ingest_one"):
            patches.wrap(IncrementalTruth, name, span("query.truth", "truth.ingest"))
        for name in ("answer", "register"):
            patches.wrap(IncrementalTruth, name, span("query.truth", "truth.answer"))
        patches.wrap(Analyst, "query", span("query.analyst"))
        for name in ("execute_with_stats", "execute_rows_with_stats"):
            patches.wrap(PlaintextExecutor, name, span("query.exec"))
        for name in ("setup", "update", "insert_many"):
            patches.wrap(EncryptedDatabase, name, span("edb", "edb.ingest"))
            patches.wrap(
                ShardRouter,
                name,
                span("edb.router", "router.ingest", on_exit=router_done),
            )
        patches.wrap(EncryptedDatabase, "query", span("edb", "edb.query", on_exit=query_done))
        patches.wrap(
            ShardRouter,
            "query",
            span("edb.router", "router.query", on_exit=_both(query_done, router_done)),
        )
        patches.wrap(ShardRouter, "__init__", span("edb.router", "router.init"))
        patches.wrap(runner, "partition_fleet", span("workload"))
        patches.wrap(
            RecordCipher,
            "encrypt_many_into",
            span("edb.crypto", "crypto.encrypt", on_exit=encrypt_done),
        )

        def reserve(original):
            def wrapper(arena, count):
                grows = arena.grow_count
                rows = original(arena, count)
                if tracer.active:
                    counts["edb.crypto.arena_grows"] += arena.grow_count - grows
                return rows

            return wrapper

        def standard(original):
            def wrapper(stream):
                if tracer.active:
                    tracer.draws += 1
                return original(stream)

            return wrapper

        patches.wrap(CiphertextArena, "reserve", reserve)
        patches.wrap(LaplaceBlockStream, "standard", standard)
        patches.wrap(
            SnapshotStore,
            "save",
            self._count_only("store.save", lambda args: sum(len(b) for b in args[1].values())),
        )
        patches.wrap(ReplayLog, "flush", self._count_only("store.flush", lambda args: 0))


def _both(first, second):
    def call(*args):
        first(*args)
        second(*args)

    return call
