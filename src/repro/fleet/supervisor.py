"""Self-healing shard supervision: deadlines, retry, snapshot + replay rebuild.

The fleet's availability story.  A :class:`SupervisedShard` wraps one shard
(an in-process :class:`~repro.edb.base.EncryptedDatabase` or a
:class:`~repro.edb.shard_worker.ShardWorkerClient` proxy) and funnels every
router call through one choke point that

* enforces the per-command pipe deadline the client layer provides
  (:class:`~repro.edb.shard_worker.ShardWorkerTimeout` instead of a hang);
* retries :class:`~repro.edb.shard_worker.TransientShardError` failures with
  bounded, *deterministic* exponential backoff -- the jitter stream is
  ``SeedSequence([seed, shard_index])``-derived, so a chaos run's timing
  decisions replay from the seed alone;
* rebuilds a dead shard from its newest durable
  :class:`~repro.edb.store.SnapshotStore` checkpoint chain (a full
  generation plus the deltas written on it) plus the coordinator's
  :class:`~repro.edb.store.ReplayLog` of every mutating command journaled
  since -- queries included, because an L-DP back-end draws noise per query,
  and the rebuilt RNG stream must resume exactly where the dead worker's
  was.  Under the process executor the replayed shard is handed to a fresh
  worker (fork inheritance), which re-shares its ciphertext arenas into new
  shared-memory segments and re-registers its views through the restore
  path;
* applies the configured degradation policy when retries are exhausted:
  ``"recover"`` (default) re-raises after ``max_retries`` rebuilds,
  ``"raise"`` fails fast on the first transient error, ``"degrade"`` takes
  the shard out of rotation and answers neutrally (zero-volume ingests,
  zero-count queries) while the rest of the fleet keeps serving.

The recovery invariant -- pinned by ``tests/test_chaos_recovery.py`` -- is
that a recovered run is *byte-identical* to a fault-free run in every
paper-level observable: answers, QET, noise flags, and the aggregate and
per-shard ``(t, |γ|)`` update-pattern transcripts.  Three design choices
carry it:

1. commands are journaled only *after* they succeed, and a rebuilt shard is
   restored from snapshot + journal, so a command that half-applied before
   a crash is never double-executed -- the retry runs against a shard that
   provably never saw it;
2. the router's staged-ordinal routing commits only after a scatter
   succeeds, so the retried batch partitions exactly like a run that never
   failed;
3. retry/backoff/rebuild cost lands only in the *measured* wall-clock
   ledger (:class:`~repro.edb.router.WallClockStats` health counters) --
   simulated QET and every protocol result stay model-derived.

Health state (recoveries, retries, replayed batches, recovery seconds,
degraded shards, dropped batches) is folded into the router's ``measured``
ledger under a supervisor-level lock, and surfaced through
``Deployment.health``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time as _time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.edb.shard_worker import (
    ShardWorkerClient,
    TransientShardError,
    default_shard_timeout,
)
from repro.edb.store import (
    ReplayLog,
    SnapshotStore,
    checkpoint_backend,
    restore_chain,
    snapshot_backend,
)
from repro.query.ast import GroupByCountQuery
from repro.testing.chaos import (
    PROCESS_ONLY_KINDS,
    ChaosWorkerFault,
    Fault,
    FaultSchedule,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edb.base import EncryptedDatabase, QueryResult, UpdateResult
    from repro.edb.router import WallClockStats
    from repro.query.ast import Query

__all__ = [
    "SupervisorConfig",
    "SupervisedShard",
    "ShardSupervisor",
    "resolve_supervisor_mode",
    "ON_SHARD_FAILURE_POLICIES",
]

#: Degradation policies: ``recover`` retries + rebuilds then re-raises,
#: ``raise`` fails fast on the first transient error, ``degrade`` takes the
#: shard out of rotation and answers neutrally once retries are exhausted.
ON_SHARD_FAILURE_POLICIES = ("recover", "raise", "degrade")

#: Commands that mutate shard state (or its RNG stream) and therefore must
#: be journaled for replay.  ``query`` belongs here because L-DP back-ends
#: consume a noise draw per query -- replay must advance the rebuilt RNG
#: exactly as far as the dead shard's had advanced.
_MUTATING_COMMANDS = frozenset(
    {
        "setup",
        "update",
        "insert_many",
        "query",
        "register_view",
        "set_view_answering",
        "rotate_key",
    }
)

#: Commands that rewrite append-only shard state in place (``rotate_key``
#: re-encrypts every stored ciphertext), so the next checkpoint cannot be
#: a delta over the old bytes and must be full.
_REWRITING_COMMANDS = frozenset({"rotate_key"})

_SHARD_BLOB = "shard.pkl"


def resolve_supervisor_mode(mode: str) -> str:
    """Validate (and normalize) a supervisor grid flag (``"off"``/``"on"``)."""
    normalized = str(mode).lower()
    if normalized not in ("off", "on"):
        raise ValueError(f"supervisor must be 'off' or 'on', got {mode!r}")
    return normalized


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for the self-healing shard fleet.

    ``timeout_s=None`` defers to the process-wide deadline
    (``REPRO_SHARD_TIMEOUT_S``, default 60s).  ``seed`` feeds the
    deterministic backoff jitter.  ``directory=None`` puts the per-shard
    snapshot/journal scratch in a fresh temp directory removed on close;
    pass a path to keep recovery state somewhere durable.
    """

    timeout_s: float | None = None
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0
    on_shard_failure: str = "recover"
    snapshot_every: int = 32
    directory: "str | None" = None
    keep: int = 2

    def __post_init__(self) -> None:
        if self.on_shard_failure not in ON_SHARD_FAILURE_POLICIES:
            raise ValueError(
                f"on_shard_failure must be one of {ON_SHARD_FAILURE_POLICIES}, "
                f"got {self.on_shard_failure!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None for default)")

    def resolved_timeout(self) -> float:
        """The effective per-command deadline in seconds."""
        return default_shard_timeout() if self.timeout_s is None else self.timeout_s

    def to_meta(self) -> dict:
        """Persistable policy (scratch directory excluded: restore gets a
        fresh one -- recovery scratch is machine-local, not deployment
        state)."""
        meta = asdict(self)
        meta.pop("directory")
        return meta

    @classmethod
    def from_meta(cls, meta: Mapping) -> "SupervisorConfig":
        """Rebuild a config from :meth:`to_meta` output."""
        fields = {k: v for k, v in dict(meta).items() if k != "directory"}
        return cls(**fields)


class SupervisedShard:
    """One shard behind the supervisor's retry / rebuild / degrade loop.

    Exposes the same surface as the object it wraps (protocol methods,
    observable properties, zero-copy helpers, worker stats), so the router's
    scatter-gather code runs unchanged over supervised shards of any
    executor.
    """

    def __init__(
        self,
        live,
        index: int,
        config: SupervisorConfig,
        schedule: FaultSchedule | None,
        executor: str,
        health: "WallClockStats",
        health_lock,
        directory: str | Path,
        context=None,
        cleanup_base: bool = False,
    ) -> None:
        self.shard_index = index
        self._live = live
        self._config = config
        self._schedule = schedule
        self._executor = executor
        self._health = health
        self._health_lock = health_lock
        self._context = context
        self._base_dir = Path(directory)
        self._cleanup_base = cleanup_base
        self._dir = self._base_dir / f"shard-{index:03d}"
        self._store = SnapshotStore(self._dir / "snapshots", keep=config.keep)
        self._journal = ReplayLog(self._dir / "journal")
        self._rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), int(index)])
        )
        self._mutation_count = 0
        self._since_snapshot = 0
        self._degraded = False
        self._closed = False
        # Dead proxies' final counters fold in here so stats() stays
        # monotonic across rebuilds (the router absorbs deltas against it).
        self._stats_base = (0.0, 0.0, 0)
        # Static facts cached once: the degrade path answers from them, and
        # they are invariant across rebuilds (same scheme, same cost model).
        self._scheme_name = live.scheme_name
        self._edb_mode = live.edb_mode
        self._ciphertext_store = getattr(live, "ciphertext_store", None)
        self._cost_model = live.cost_model
        self._leakage_profile = live.leakage_profile
        self._query_executors = tuple(getattr(live, "query_executors", ("rows",)))
        # Checkpoint chain state: the newest generation, the cursor its
        # successor delta starts from (``None`` = next one is full), the
        # chain's full-generation size and the bytes of deltas written on it.
        self._snapshot_seq: int | None = None
        self._cursor: dict | None = None
        self._full_bytes = 0
        self._chain_bytes = 0
        # Generation 0 baseline: every shard is recoverable from the instant
        # it is supervised, even before its first cadence snapshot.
        self._snapshot_now()

    # -- the choke point ------------------------------------------------------

    def _invoke(self, command: str, *args):
        if self._degraded:
            return self._neutral(command, args)
        fault: Fault | None = None
        if command in _MUTATING_COMMANDS:
            self._mutation_count += 1
            if self._schedule is not None:
                fault = self._schedule.pop(self.shard_index, self._mutation_count)
        attempt = 0
        while True:
            try:
                if fault is not None:
                    pending, fault = fault, None
                    self._fire_fault(pending, command, args)
                result = self._apply(command, args)
                break
            except TransientShardError as exc:
                if self._config.on_shard_failure == "raise":
                    raise
                if attempt >= self._config.max_retries:
                    if self._config.on_shard_failure == "degrade":
                        self._mark_degraded()
                        return self._neutral(command, args)
                    raise
                attempt += 1
                self._backoff(attempt)
                self._recover(exc)
        if command in _MUTATING_COMMANDS:
            # Staged, not fsync'd: recovery replays from the in-memory
            # journal (the coordinator outlives its workers), and the next
            # snapshot boundary flushes the backlog durably in one batch --
            # keeping the fault-free hot path at dictionary-insert cost.
            self._journal.stage(
                {"tag": self._snapshot_seq, "command": command, "args": args}
            )
            if command in _REWRITING_COMMANDS:
                self._cursor = None
            self._since_snapshot += 1
            if self._since_snapshot >= self._config.snapshot_every:
                self._snapshot_now()
        return result

    def _apply(self, command: str, args: tuple):
        if command == "attr":
            (name,) = args
            return getattr(self._live, name)
        if command == "snapshot":
            return self._live_checkpoint(None)[0]
        return getattr(self._live, command)(*args)

    def _live_checkpoint(self, cursor: dict | None) -> tuple[bytes, dict]:
        if hasattr(self._live, "checkpoint"):
            return self._live.checkpoint(cursor)
        return checkpoint_backend(self._live, cursor)

    # -- retry / backoff / rebuild --------------------------------------------

    def _backoff(self, attempt: int) -> None:
        base = self._config.backoff_base_s * (2.0 ** (attempt - 1))
        delay = min(self._config.backoff_cap_s, base)
        # Deterministic jitter in [0.5, 1.0) x delay: decorrelates shards
        # that failed together without sacrificing replayability.
        _time.sleep(delay * (0.5 + 0.5 * float(self._rng.random())))

    def _recover(self, cause: TransientShardError) -> None:
        """Discard the (possibly half-mutated) live shard and rebuild it
        from the newest durable checkpoint chain plus the replay journal."""
        started = _time.perf_counter()
        with self._health_lock:
            self._health.retries += 1
        self._teardown_live(kill=True)
        seq = self._store.latest_sequence()
        if seq is None:  # pragma: no cover - generation 0 is written eagerly
            raise RuntimeError(
                f"shard {self.shard_index} has no valid snapshot to recover "
                f"from (after {cause})"
            )
        blobs, cursor = self._read_chain(seq)
        edb = restore_chain(blobs)
        # Replay everything journaled at or after the restored generation,
        # coordinator-side, against the restored EDB -- faults and journaling
        # are *not* re-entered here, so replay never recurses or re-fires.
        entries = self._journal.entries(min_tag=seq)
        for entry in entries:
            getattr(edb, entry["command"])(*entry["args"])
        # The chain continues from the restored generation -- a torn newer
        # one is never a parent -- unless the replay rewrote state in place.
        self._snapshot_seq = seq
        self._cursor = cursor
        if any(entry["command"] in _REWRITING_COMMANDS for entry in entries):
            self._cursor = None
        self._full_bytes = len(blobs[0])
        self._chain_bytes = sum(len(blob) for blob in blobs[1:])
        if self._executor == "processes":
            # Fork inheritance carries the replayed state into a fresh
            # worker, which re-shares its arenas into new shm segments and
            # re-registers views via the restore path it just ran.
            self._live = ShardWorkerClient(
                edb,
                self.shard_index,
                self._context,
                timeout_s=self._config.resolved_timeout(),
            )
        else:
            self._live = edb
        with self._health_lock:
            self._health.recoveries += 1
            self._health.replayed_batches += len(entries)
            self._health.recovery_seconds += _time.perf_counter() - started

    def _teardown_live(self, kill: bool) -> None:
        """Drop the live shard: killed when its state is being discarded
        (recovery, degrade), shut down gracefully on close."""
        live, self._live = self._live, None
        if live is None:
            return
        try:
            process = getattr(live, "process", None)
            if kill and process is not None and process.is_alive():
                process.kill()
                process.join(timeout=self._config.resolved_timeout())
            if hasattr(live, "stats"):
                busy, overhead, commands = live.stats()
                base_busy, base_overhead, base_commands = self._stats_base
                self._stats_base = (
                    base_busy + busy,
                    base_overhead + overhead,
                    base_commands + commands,
                )
            live.close()
        except Exception:  # noqa: BLE001 - teardown is best-effort by design
            pass

    def _mark_degraded(self) -> None:
        self._degraded = True
        self._teardown_live(kill=True)
        with self._health_lock:
            self._health.degraded_shards += 1

    # -- snapshots -------------------------------------------------------------

    def _read_chain(self, seq: int) -> tuple[list[bytes], dict]:
        """Generation ``seq``'s chain blobs (full first) and its cursor."""
        chain = self._store.chain(seq)
        blobs = [link.read_blob(_SHARD_BLOB) for link in chain]
        return blobs, chain[-1].manifest()["meta"]["cursor"]

    def _snapshot_now(self) -> None:
        """Write one durable generation of the live shard; prunes the journal
        prefix no valid fallback generation can need any more.

        The generation is a delta -- what the shard appended since the
        previous generation, which it names as its parent -- unless the
        chain has no cursor or its deltas already add up to its full
        generation's size: then it is full, which bounds both the bytes
        written and a recovery's restore cost at about twice one full
        snapshot.
        """
        full = self._cursor is None or self._chain_bytes >= self._full_bytes
        blob, cursor = self._live_checkpoint(None if full else self._cursor)
        meta = {"cursor": cursor}
        if not full:
            meta["parent"] = self._snapshot_seq
        seq = self._store.save({_SHARD_BLOB: blob}, meta)
        # The manifest is durable: only now does the chain advance.
        fallback, self._snapshot_seq, self._cursor = self._snapshot_seq, seq, cursor
        if full:
            self._full_bytes, self._chain_bytes = len(blob), 0
        else:
            self._chain_bytes += len(blob)
        self._since_snapshot = 0
        self._journal.flush()
        if fallback is not None:
            # A torn newest generation falls back to the previous one, whose
            # replay needs entries tagged >= its sequence; older ones go.
            self._journal.prune(min_tag=fallback)

    # -- fault injection -------------------------------------------------------

    def _fire_fault(self, fault: Fault, command: str, args: tuple) -> None:
        if fault.kind in PROCESS_ONLY_KINDS and self._executor != "processes":
            return
        if fault.kind == "kill":
            process = self._live.process
            process.kill()
            process.join(timeout=self._config.resolved_timeout())
            return  # the command itself now raises ShardWorkerDied
        if fault.kind == "delay":
            # Worker oversleeps its next reply by 3x the deadline, so the
            # coordinator's poll() reliably times out first.
            self._live.chaos_delay(self._config.resolved_timeout() * 3.0)
            return
        if fault.kind == "drop":
            self._live.chaos_drop()
            return  # the swallowed command never gets a reply -> timeout
        if fault.kind == "lostshm":
            self._vanish_arena_segments()
            process = self._live.process
            process.kill()
            process.join(timeout=self._config.resolved_timeout())
            return
        if fault.kind == "tornsnap":
            self._snapshot_now()
            # Tear the fresh generation: without its manifest it is an
            # aborted write by construction, so recovery must fall back to
            # the previous generation and a longer replay.
            newest = self._store._snapshot_dir(self._snapshot_seq)
            manifest = newest / "MANIFEST.json"
            manifest.unlink(missing_ok=True)
            self._crash_live(command)
            return
        if fault.kind == "raise":
            self._half_apply(command, args)
            raise ChaosWorkerFault(self.shard_index, command)
        raise AssertionError(f"unhandled fault kind {fault.kind!r}")

    def _crash_live(self, command: str) -> None:
        """Make the live shard fail: kill its worker, or (in-process) raise."""
        process = getattr(self._live, "process", None)
        if process is not None:
            process.kill()
            process.join(timeout=self._config.resolved_timeout())
            return
        raise ChaosWorkerFault(self.shard_index, command)

    def _vanish_arena_segments(self) -> None:
        """Unlink the worker's published shm segments out from under it."""
        from multiprocessing import shared_memory

        try:
            states = self._live._call("arena_states")
        except TransientShardError:
            return
        for state in states.values():
            try:
                segment = shared_memory.SharedMemory(name=state["segment_name"])
                segment.close()
                segment.unlink()
            except Exception:  # noqa: BLE001 - already gone is the goal
                pass

    def _half_apply(self, command: str, args: tuple) -> None:
        """Tear the live shard's in-memory state mid-batch on purpose.

        Applies roughly half of an ingest (torn tables, torn history) or an
        extra discarded query (torn RNG stream / work counters) before the
        injected raise, so recovery provably cannot get away with resuming
        the live object -- only a snapshot+replay rebuild survives the
        differential.
        """
        try:
            if command in ("setup", "update"):
                records, time = args
                getattr(self._live, command)(records[: len(records) // 2], time)
            elif command == "insert_many":
                batches, time = args
                torn = {t: rows[: max(1, len(rows) // 2)] for t, rows in batches.items()}
                self._live.insert_many(torn, time)
            elif command == "query":
                self._live.query(args[0], args[1], args[2])
        except Exception:  # noqa: BLE001 - a torn apply may legally fail too
            pass

    # -- degrade-mode neutrals -------------------------------------------------

    def _neutral(self, command: str, args: tuple):
        from repro.edb.base import QueryResult, UpdateResult

        if command in ("setup", "update", "insert_many"):
            with self._health_lock:
                self._health.dropped_batches += 1
            return UpdateResult(
                time=args[-1],
                records_added=0,
                dummies_added=0,
                bytes_added=0.0,
                duration_seconds=0.0,
            )
        if command == "query":
            query = args[0]
            with self._health_lock:
                self._health.dropped_batches += 1
            answer = {} if isinstance(query, GroupByCountQuery) else 0
            return QueryResult(
                query_name=query.name,
                answer=answer,
                qet_seconds=0.0,
                records_scanned=0,
                noise_injected=False,
            )
        if command == "supports":
            # Fidelity trade-off, documented: a degraded shard still reports
            # scheme capability (from the cached cost model) so the fleet's
            # supported-query surface does not flap with shard health.
            return self._cost_model.supports(args[0])
        if command in ("table_size", "table_dummy_count"):
            return 0
        if command == "register_view":
            return True
        if command in ("set_view_answering", "rotate_key"):
            return None
        if command == "snapshot":
            # Last durable state; restore of a degraded fleet resumes from it.
            blobs, _ = self._read_chain(self._store.latest_sequence())
            return snapshot_backend(restore_chain(blobs))
        if command == "attr":
            (name,) = args
            defaults = {
                "is_setup": True,
                "update_history": (),
                "outsourced_count": 0,
                "dummy_count": 0,
                "real_count": 0,
                "storage_bytes": 0.0,
                "registered_views": (),
                "view_answering": True,
                "query_work_seconds": 0.0,
                "view_maintenance_seconds": 0.0,
                "simulated_work_seconds": 0.0,
                "maintained_query_count": 0,
            }
            if name in defaults:
                return defaults[name]
        raise RuntimeError(
            f"shard {self.shard_index} is degraded and has no neutral answer "
            f"for {command!r}"
        )

    # -- protocol surface (what the router scatters) ---------------------------

    def setup(self, records: Iterable, time: int = 0) -> "UpdateResult":
        return self._invoke("setup", list(records), time)

    def update(self, records: Iterable, time: int) -> "UpdateResult":
        return self._invoke("update", list(records), time)

    def insert_many(self, batches: Mapping, time: int) -> "UpdateResult":
        return self._invoke("insert_many", dict(batches), time)

    def query(
        self, query: "Query", time: int = 0, executor: "str | None" = None
    ) -> "QueryResult":
        return self._invoke("query", query, time, executor)

    def supports(self, query: "Query") -> bool:
        return self._invoke("supports", query)

    def register_view(self, query: "Query") -> bool:
        return self._invoke("register_view", query)

    def set_view_answering(self, enabled: bool) -> None:
        return self._invoke("set_view_answering", bool(enabled))

    def rotate_key(self, new_key: "bytes | None" = None) -> None:
        self._invoke("rotate_key", new_key)

    def table_size(self, table: str) -> int:
        return self._invoke("table_size", table)

    def table_dummy_count(self, table: str) -> int:
        return self._invoke("table_dummy_count", table)

    def snapshot(self) -> bytes:
        """Authoritative serialized state of the live shard."""
        return self._invoke("snapshot")

    # -- cached static facts ---------------------------------------------------

    @property
    def scheme_name(self) -> str:
        return self._scheme_name

    @property
    def edb_mode(self) -> str:
        return self._edb_mode

    @property
    def ciphertext_store(self) -> "str | None":
        return self._ciphertext_store

    @property
    def cost_model(self):
        return self._cost_model

    @property
    def leakage_profile(self):
        return self._leakage_profile

    @property
    def query_executors(self) -> tuple[str, ...]:
        return self._query_executors

    # -- supervised dynamic reads ----------------------------------------------

    @property
    def is_setup(self) -> bool:
        return self._invoke("attr", "is_setup")

    @property
    def update_history(self) -> tuple:
        return self._invoke("attr", "update_history")

    @property
    def outsourced_count(self) -> int:
        return self._invoke("attr", "outsourced_count")

    @property
    def dummy_count(self) -> int:
        return self._invoke("attr", "dummy_count")

    @property
    def real_count(self) -> int:
        return self._invoke("attr", "real_count")

    @property
    def storage_bytes(self) -> float:
        return self._invoke("attr", "storage_bytes")

    @property
    def registered_views(self) -> tuple:
        return self._invoke("attr", "registered_views")

    @property
    def view_answering(self) -> bool:
        return self._invoke("attr", "view_answering")

    @property
    def query_work_seconds(self) -> float:
        return self._invoke("attr", "query_work_seconds")

    @property
    def view_maintenance_seconds(self) -> float:
        return self._invoke("attr", "view_maintenance_seconds")

    @property
    def simulated_work_seconds(self) -> float:
        return self._invoke("attr", "simulated_work_seconds")

    @property
    def maintained_query_count(self) -> int:
        return self._invoke("attr", "maintained_query_count")

    # -- worker plumbing passthrough -------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether this shard has been taken out of rotation."""
        return self._degraded

    @property
    def live(self):
        """The currently wrapped shard (proxy or EDB; ``None`` after close)."""
        return self._live

    @property
    def process(self):
        """The live worker process handle (``None`` for in-process shards)."""
        return getattr(self._live, "process", None)

    @property
    def cipher(self):
        return getattr(self._live, "cipher", None)

    def arena_cache(self):
        return self._live.arena_cache()

    def ciphertexts(self, table: str) -> tuple:
        return self._live.ciphertexts(table)

    def stats(self) -> tuple[float, float, int]:
        """Monotonic (busy, overhead, commands) across worker generations."""
        base_busy, base_overhead, base_commands = self._stats_base
        if self._live is not None and hasattr(self._live, "stats"):
            busy, overhead, commands = self._live.stats()
            return (
                base_busy + busy,
                base_overhead + overhead,
                base_commands + commands,
            )
        return self._stats_base

    def close(self) -> None:
        """Tear down the live shard and remove the recovery scratch."""
        if self._closed:
            return
        self._closed = True
        self._teardown_live(kill=False)
        shutil.rmtree(self._dir, ignore_errors=True)
        if self._cleanup_base:
            try:
                self._base_dir.rmdir()
            except OSError:
                pass


class ShardSupervisor:
    """Builds and owns the fleet's :class:`SupervisedShard` wrappers.

    One supervisor per router: it resolves the scratch directory, shares the
    health sink (the router's measured ledger) and its lock across shards,
    and hands each wrapper its slice of the fault schedule.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        schedule: FaultSchedule | None,
        executor: str,
        health: "WallClockStats",
        context=None,
    ) -> None:
        import threading

        self.config = config
        self.schedule = schedule
        self._executor = executor
        self._health = health
        self._health_lock = threading.Lock()
        self._context = context
        if config.directory is not None:
            self._directory = Path(config.directory)
            self._directory.mkdir(parents=True, exist_ok=True)
            self._cleanup_base = False
        else:
            # Recovery scratch is machine-local and process-lifetime: it only
            # has to survive *worker* deaths, never a host reboot, so a tmpfs
            # (when the platform has one) takes the fsync of every journal
            # append out of the ingest path -- the difference between a ~free
            # supervision layer and a measurable one.
            scratch_root = "/dev/shm" if os.path.isdir("/dev/shm") else None
            self._directory = Path(
                tempfile.mkdtemp(prefix="repro-supervisor-", dir=scratch_root)
            )
            self._cleanup_base = True
        self.shards: list[SupervisedShard] = []

    @property
    def directory(self) -> Path:
        """The supervisor's recovery scratch root."""
        return self._directory

    def wrap(self, shards: Sequence) -> list[SupervisedShard]:
        """Wrap already-built shards (proxies or EDBs) for supervision."""
        self.shards = [
            SupervisedShard(
                live,
                index,
                self.config,
                self.schedule,
                self._executor,
                self._health,
                self._health_lock,
                self._directory,
                context=self._context,
                cleanup_base=self._cleanup_base,
            )
            for index, live in enumerate(shards)
        ]
        return self.shards

    def close(self) -> None:
        """Close every wrapper (idempotent; wrappers remove their scratch)."""
        for shard in self.shards:
            shard.close()
