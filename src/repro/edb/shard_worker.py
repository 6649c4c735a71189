"""Persistent per-shard worker processes for the process shard executor.

``ShardRouter(executor="processes")`` moves every shard's state -- EDB,
ORAM, ciphertext arenas and RNG stream -- into its own long-lived worker
process.  The division of labour:

* :func:`shard_worker_main` is the worker loop: it owns the shard's
  :class:`~repro.edb.base.EncryptedDatabase` and serves protocol commands
  (Setup / Update / insert_many / query), state reads (transcripts, sizes)
  and arena publications over one duplex pipe, one command at a time.  The
  shard object crosses the process boundary exactly once, at startup (by
  fork inheritance on POSIX, one pickle on spawn platforms); afterwards only
  commands, answers and :class:`UpdateResult`/:class:`QueryResult` payloads
  travel the pipe -- shard state never pickles again.
* :class:`ShardWorkerClient` is the coordinator-side proxy.  It exposes the
  same surface as an in-process :class:`~repro.edb.base.EncryptedDatabase`
  (protocol methods, observable properties, ``supports``), so the router's
  scatter-gather code runs unchanged over process-backed shards; static
  facts (scheme name, cost model, leakage profile) are fetched once at
  startup, everything else is one synchronous round-trip per access.

Ciphertexts written by a worker (``simulate_encryption=True``) land in
:class:`~repro.edb.crypto.SharedCiphertextArena` segments, so the
coordinator reads them zero-copy through an
:class:`~repro.edb.crypto.ArenaSegmentCache` -- the worker publishes
``(segment_name, size)`` swaps; bytes never travel the pipe.

Determinism: the worker executes commands strictly in arrival order against
the very shard object (including its RNG stream state) the in-process
executors would have used, so answers, transcripts, leakage and
``QueryResult`` payloads are byte-identical to ``serial``/``threads`` --
``tests/test_scatter_concurrency.py`` pins this for every checkpoint.

Failure model: a worker that dies (crash, OOM kill) closes its pipe, so the
blocked coordinator call raises :class:`ShardWorkerDied` naming the shard
and the in-flight command -- scatter-gather never hangs on a dead pipe and
never silently merges partial answers.
"""

from __future__ import annotations

import os
import threading
import time as _time
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.edb.crypto import (
    ArenaSegmentCache,
    RecordCipher,
    SharedCiphertextArena,
)
from repro.edb.records import Record
from repro.util.mp import reap_process_segments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edb.base import EncryptedDatabase, QueryResult, UpdateResult
    from repro.edb.cost_model import CostModel
    from repro.edb.leakage import LeakageProfile
    from repro.query.ast import Query

__all__ = [
    "TransientShardError",
    "ShardWorkerDied",
    "ShardWorkerTimeout",
    "ShardWorkerClient",
    "shard_worker_main",
    "default_shard_timeout",
]

#: Default per-command pipe deadline when ``REPRO_SHARD_TIMEOUT_S`` is unset.
#: Generous -- a healthy worker answers in milliseconds; the deadline exists
#: so a wedged or dead worker turns into a typed error instead of a hang.
DEFAULT_SHARD_TIMEOUT_S: float = 60.0


def default_shard_timeout() -> float:
    """The configured per-command pipe deadline, in seconds.

    Reads ``REPRO_SHARD_TIMEOUT_S`` (the single knob unifying *every* pipe
    wait: command round-trips, shutdown handshakes, process joins); falls
    back to :data:`DEFAULT_SHARD_TIMEOUT_S`.  A non-positive or malformed
    value is a configuration error and raises immediately.
    """
    raw = os.environ.get("REPRO_SHARD_TIMEOUT_S")
    if raw is None or not raw.strip():
        return DEFAULT_SHARD_TIMEOUT_S
    timeout = float(raw)
    if timeout <= 0:
        raise ValueError(f"REPRO_SHARD_TIMEOUT_S must be positive, got {raw!r}")
    return timeout


class TransientShardError(RuntimeError):
    """A shard failure that is, in principle, recoverable by a supervisor.

    The common base of :class:`ShardWorkerDied`, :class:`ShardWorkerTimeout`
    and the chaos layer's injected faults: the shard's in-memory state must
    be treated as lost, but a fresh shard rebuilt from the latest durable
    snapshot plus the coordinator's replay journal can take its place
    (:mod:`repro.fleet.supervisor`).  Anything *not* derived from this class
    (protocol misuse, unsupported queries, integrity errors) propagates
    through the supervisor untouched.
    """

    def __init__(self, shard_index: int, command: str, message: str) -> None:
        self.shard_index = shard_index
        self.command = command
        super().__init__(message)


class ShardWorkerDied(TransientShardError):
    """A shard worker process died while (or before) serving a command.

    Raised by the coordinator-side proxy instead of hanging on the closed
    pipe; carries the shard index, the command that was in flight and the
    worker's exit code (``-signal`` for a kill, ``None`` when the process
    had not yet been reaped) so a failed scatter names its culprit.
    """

    def __init__(
        self, shard_index: int, command: str, exit_code: int | None = None
    ) -> None:
        self.exit_code = exit_code
        exit_note = "" if exit_code is None else f" (exit code {exit_code})"
        super().__init__(
            shard_index,
            command,
            f"shard {shard_index} worker died during {command!r}{exit_note}; "
            "its partial state is lost and the gathered result was discarded",
        )


class ShardWorkerTimeout(TransientShardError):
    """A shard worker missed its per-command reply deadline.

    The worker may be wedged, mid-crash, or a chaos fault swallowed/delayed
    the pipe message; either way its state is unknown, so the coordinator
    treats it exactly like a death: the in-flight call fails loudly and a
    supervisor (if any) discards the worker and rebuilds the shard.
    """

    def __init__(self, shard_index: int, command: str, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        super().__init__(
            shard_index,
            command,
            f"shard {shard_index} worker did not answer {command!r} within "
            f"{timeout_s:g}s; its state is unknown and the call was abandoned",
        )


#: Worker-side attribute/method allowlist for the generic state-read
#: commands.  Everything here is an observable the router (or a test)
#: legitimately reads; keeping it explicit documents the remote surface.
_READABLE_ATTRS = frozenset(
    {
        "scheme_name",
        "edb_mode",
        "ciphertext_store",
        "is_setup",
        "update_history",
        "outsourced_count",
        "dummy_count",
        "real_count",
        "storage_bytes",
        "registered_views",
        "view_answering",
        "query_work_seconds",
        "view_maintenance_seconds",
        "simulated_work_seconds",
        "maintained_query_count",
    }
)
_CALLABLE_METHODS = frozenset(
    {"table_size", "table_dummy_count", "supports", "setup", "update",
     "insert_many", "query", "register_view", "set_view_answering"}
)


def _shared_arena_factory() -> SharedCiphertextArena:
    return SharedCiphertextArena()


def _arena_states(shard: "EncryptedDatabase") -> dict[str, dict]:
    """Published ``export_state`` of every shared arena the shard holds."""
    states: dict[str, dict] = {}
    for table, arena in getattr(shard, "_arenas", {}).items():
        if isinstance(arena, SharedCiphertextArena):
            states[table] = arena.export_state()
    return states


def shard_worker_main(conn: Connection, shard: "EncryptedDatabase", index: int) -> None:
    """Worker process entry point: serve shard commands until shutdown.

    The loop is strictly sequential -- one command, one reply -- so command
    order on the pipe *is* execution order on the shard, which is what makes
    process fan-out observably identical to the serial loop.  Every reply
    carries the worker-side execution seconds so the coordinator can split
    its measured wall clock into shard compute vs boundary overhead.
    """
    if getattr(shard, "set_arena_factory", None) is not None:
        # Ciphertext arenas created from now on live in named shared memory
        # so the coordinator can read rows zero-copy.  Fresh shards arrive
        # empty; a shard restored from a durable snapshot arrives with
        # process-local arenas, which are converted here (rows, handles and
        # indices verbatim) so published handles resolve again.
        shard.set_arena_factory(_shared_arena_factory)
        if getattr(shard, "_arenas", None):
            shard.rebuild_arenas()
    # Chaos arming state (repro.testing.chaos): a "chaos_delay" command makes
    # the worker sleep before serving the *next* real command (so the
    # coordinator's reply deadline fires); a "chaos_drop" makes it swallow the
    # next real command entirely -- received, never dispatched, never answered.
    # Both leave the worker desynchronized on purpose: a supervisor treats the
    # resulting timeout like a death and rebuilds the shard from its snapshot.
    pending_delay_s = 0.0
    drop_next_command = False
    try:
        while True:
            try:
                command, args = conn.recv()
            except (EOFError, OSError):
                break
            if command == "chaos_delay":
                (pending_delay_s,) = args
                conn.send(("ok", None, 0.0))
                continue
            if command == "chaos_drop":
                drop_next_command = True
                conn.send(("ok", None, 0.0))
                continue
            if drop_next_command:
                drop_next_command = False
                continue
            if pending_delay_s:
                _time.sleep(pending_delay_s)
                pending_delay_s = 0.0
            if command == "shutdown":
                _release_arenas(shard)
                conn.send(("ok", None, 0.0))
                break
            started = _time.perf_counter()
            try:
                payload = _dispatch(shard, command, args)
                conn.send(("ok", payload, _time.perf_counter() - started))
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                busy = _time.perf_counter() - started
                try:
                    conn.send(("error", exc, busy))
                except Exception:
                    # Unpicklable exception: forward a faithful description.
                    conn.send(
                        ("error", RuntimeError(f"{type(exc).__name__}: {exc}"), busy)
                    )
    finally:
        # Also reached when the coordinator vanished (EOF or a broken pipe):
        # the worker owns its untracked arena segments, so it removes them
        # on every exit short of being killed.
        _release_arenas(shard)
        conn.close()


def _release_arenas(shard: "EncryptedDatabase") -> None:
    for table_arena in getattr(shard, "_arenas", {}).values():
        table_arena.release()


def _dispatch(shard: "EncryptedDatabase", command: str, args: tuple):
    if command == "hello":
        return {
            "scheme_name": shard.scheme_name,
            "edb_mode": shard.edb_mode,
            "ciphertext_store": getattr(shard, "ciphertext_store", None),
            "cost_model": shard.cost_model,
            "leakage_profile": shard.leakage_profile,
            "query_executors": getattr(shard, "query_executors", ("rows",)),
        }
    if command == "attr":
        (name,) = args
        if name not in _READABLE_ATTRS:
            raise AttributeError(f"attribute {name!r} is not remotely readable")
        return getattr(shard, name)
    if command == "cipher_key":
        cipher = getattr(shard, "cipher", None)
        return None if cipher is None else cipher.key
    if command == "arena_states":
        return _arena_states(shard)
    if command == "snapshot":
        # Serialized worker-side so the bytes carry the authoritative shard
        # state (RNG stream, ORAM maps, arenas) -- only the blob crosses
        # the pipe: a full snapshot, or with a cursor just what the shard
        # appended past it.  Imported lazily: the worker loop must not pay
        # for the store module unless durability is in use.
        from repro.edb.store import checkpoint_backend

        return checkpoint_backend(shard, *args)
    if command == "rotate_key":
        (new_key,) = args
        shard.rotate_key(new_key)
        return None
    if command in _CALLABLE_METHODS:
        return getattr(shard, command)(*args)
    raise ValueError(f"unknown shard-worker command {command!r}")


class ShardWorkerClient:
    """Coordinator-side proxy for one shard living in a worker process.

    Mirrors the :class:`~repro.edb.base.EncryptedDatabase` surface the
    router and the test suite touch, one synchronous pipe round-trip per
    call.  The proxy is thread-compatible with the router's fan-out pool (a
    lock serializes pipe use; concurrent calls target *different* shards,
    so the lock is never contended on the scatter path).

    Measured-wall-clock bookkeeping: ``busy_seconds`` accumulates the
    worker-reported execution time (true shard compute), and
    ``overhead_seconds`` the remainder of each round trip (pickling,
    transport, scheduling) -- the serialization-overhead counter
    :class:`~repro.edb.router.WallClockStats` surfaces per shard.
    """

    def __init__(
        self,
        shard: "EncryptedDatabase",
        index: int,
        context,
        start: bool = True,
        timeout_s: float | None = None,
    ) -> None:
        self.shard_index = index
        self.busy_seconds = 0.0
        self.overhead_seconds = 0.0
        self.commands = 0
        # One deadline governs every pipe wait on this client: command
        # round-trips, the shutdown handshake and process joins.
        self._timeout_s = default_shard_timeout() if timeout_s is None else timeout_s
        self._lock = threading.Lock()
        self._arena_cache: ArenaSegmentCache | None = None
        self._cipher: RecordCipher | None = None
        parent_conn, child_conn = context.Pipe()
        self._conn = parent_conn
        self._process = context.Process(
            target=shard_worker_main,
            args=(child_conn, shard, index),
            name=f"shard-worker-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._info = self._call("hello")

    # -- pipe plumbing --------------------------------------------------------

    def _call(self, command: str, *args):
        with self._lock:
            started = _time.perf_counter()
            try:
                self._conn.send((command, args))
                if not self._conn.poll(self._timeout_s):
                    # The worker is wedged (or a chaos fault ate the message).
                    # Its state is unknown; a late reply would desynchronize
                    # the pipe, so the proxy is poisoned until closed/replaced.
                    raise ShardWorkerTimeout(
                        self.shard_index, command, self._timeout_s
                    )
                status, payload, busy = self._conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                raise ShardWorkerDied(
                    self.shard_index, command, exit_code=self._process.exitcode
                ) from None
            wall = _time.perf_counter() - started
            self.busy_seconds += busy
            self.overhead_seconds += max(0.0, wall - busy)
            self.commands += 1
        if status == "error":
            raise payload
        return payload

    @property
    def process(self):
        """The worker process handle (crash tests kill it through this)."""
        return self._process

    def close(self) -> None:
        """Shut the worker down (idempotent; never hangs on a dead worker)."""
        if self._arena_cache is not None:
            self._arena_cache.close()
            self._arena_cache = None
        if self._process.is_alive():
            try:
                with self._lock:
                    self._conn.send(("shutdown", ()))
                    if self._conn.poll(self._timeout_s):
                        self._conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._process.join(timeout=self._timeout_s)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=self._timeout_s)
        if self._process.exitcode not in (0, None):
            # The worker died (or was killed) before its shutdown handshake
            # released its arenas; sweep the named segments it left behind.
            reap_process_segments(self._process.pid)

    # -- protocol surface (what the router scatters) --------------------------

    def setup(self, records: Iterable[Record], time: int = 0) -> "UpdateResult":
        return self._call("setup", list(records), time)

    def update(self, records: Iterable[Record], time: int) -> "UpdateResult":
        return self._call("update", list(records), time)

    def insert_many(
        self, batches: Mapping[str, Sequence[Record]], time: int
    ) -> "UpdateResult":
        return self._call("insert_many", dict(batches), time)

    def query(
        self, query: "Query", time: int = 0, executor: "str | None" = None
    ) -> "QueryResult":
        if executor is None:
            return self._call("query", query, time)
        return self._call("query", query, time, executor)

    @property
    def query_executors(self) -> tuple[str, ...]:
        return tuple(self._info.get("query_executors", ("rows",)))

    def supports(self, query: "Query") -> bool:
        return self._call("supports", query)

    # -- delta-maintained views ------------------------------------------------

    def register_view(self, query: "Query") -> bool:
        return self._call("register_view", query)

    def set_view_answering(self, enabled: bool) -> None:
        self._call("set_view_answering", enabled)

    @property
    def registered_views(self) -> tuple:
        return self._call("attr", "registered_views")

    @property
    def view_answering(self) -> bool:
        return self._call("attr", "view_answering")

    @property
    def query_work_seconds(self) -> float:
        return self._call("attr", "query_work_seconds")

    @property
    def view_maintenance_seconds(self) -> float:
        return self._call("attr", "view_maintenance_seconds")

    @property
    def simulated_work_seconds(self) -> float:
        return self._call("attr", "simulated_work_seconds")

    @property
    def maintained_query_count(self) -> int:
        return self._call("attr", "maintained_query_count")

    # -- observable state ------------------------------------------------------

    @property
    def scheme_name(self) -> str:
        return self._info["scheme_name"]

    @property
    def edb_mode(self) -> str:
        return self._info["edb_mode"]

    @property
    def ciphertext_store(self) -> str | None:
        return self._info["ciphertext_store"]

    @property
    def cost_model(self) -> "CostModel":
        return self._info["cost_model"]

    @property
    def leakage_profile(self) -> "LeakageProfile":
        return self._info["leakage_profile"]

    @property
    def is_setup(self) -> bool:
        return self._call("attr", "is_setup")

    @property
    def update_history(self) -> tuple:
        return self._call("attr", "update_history")

    @property
    def outsourced_count(self) -> int:
        return self._call("attr", "outsourced_count")

    @property
    def dummy_count(self) -> int:
        return self._call("attr", "dummy_count")

    @property
    def real_count(self) -> int:
        return self._call("attr", "real_count")

    @property
    def storage_bytes(self) -> float:
        return self._call("attr", "storage_bytes")

    def table_size(self, table: str) -> int:
        return self._call("table_size", table)

    def table_dummy_count(self, table: str) -> int:
        return self._call("table_dummy_count", table)

    # -- durability & key lifecycle -------------------------------------------

    def snapshot(self) -> bytes:
        """Worker-side :func:`repro.edb.store.snapshot_backend` bytes."""
        return self.checkpoint()[0]

    def checkpoint(self, cursor: Mapping | None = None) -> tuple[bytes, dict]:
        """Worker-side :func:`repro.edb.store.checkpoint_backend`: a full
        snapshot, or the delta past ``cursor``, and the next cursor."""
        return self._call("snapshot", cursor)

    # -- chaos hooks (deterministic fault injection) ---------------------------

    def chaos_delay(self, seconds: float) -> None:
        """Arm the worker to sleep ``seconds`` before its next real command."""
        self._call("chaos_delay", seconds)

    def chaos_drop(self) -> None:
        """Arm the worker to swallow its next real command without replying."""
        self._call("chaos_drop")

    def rotate_key(self, new_key: bytes | None = None) -> None:
        """Re-key the worker's shard in place (arena rows stay addressable).

        The coordinator-side cipher cache is dropped first, so the next
        :attr:`cipher` access fetches the post-rotation key.
        """
        self._cipher = None
        self._call("rotate_key", new_key)

    # -- zero-copy ciphertext access ------------------------------------------

    @property
    def cipher(self) -> RecordCipher | None:
        """A coordinator-side cipher sharing the worker shard's key.

        ``None`` when the shard does not simulate encryption.  Decrypting a
        zero-copy arena row with it proves the bytes in the shared segment
        are the worker's real ciphertexts.
        """
        if self._cipher is None:
            key = self._call("cipher_key")
            if key is None:
                return None
            self._cipher = RecordCipher(key=key)
        return self._cipher

    def arena_cache(self) -> ArenaSegmentCache:
        """The attachment cache resolving this shard's published arenas."""
        if self._arena_cache is None:
            self._arena_cache = ArenaSegmentCache()
        return self._arena_cache

    def ciphertexts(self, table: str) -> tuple:
        """Zero-copy views of the worker's stored ciphertexts for ``table``.

        Fetches the arena's published ``(segment_name, size)`` state (a tiny
        control message), attaches the named segment and returns
        :class:`~repro.edb.crypto.ArenaRecord` views over it -- ciphertext
        bytes themselves never travel the pipe.  Returns ``()`` when the
        shard holds no (shared) arena for the table.
        """
        states = self._call("arena_states")
        state = states.get(table)
        if state is None:
            return ()
        view = self.arena_cache().publish(state)
        return view.records()

    def stats(self) -> tuple[float, float, int]:
        """Cumulative (busy_seconds, overhead_seconds, commands) counters."""
        return self.busy_seconds, self.overhead_seconds, self.commands
