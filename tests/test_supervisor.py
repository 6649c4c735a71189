"""Unit tests for the self-healing shard supervisor and its plumbing.

The byte-identity of supervised recovery against fault-free twins lives in
``tests/test_chaos_recovery.py``; this suite pins the building blocks:

* the unified per-command pipe deadline (``REPRO_SHARD_TIMEOUT_S`` /
  constructor arg) and the typed timeout it produces;
* deterministic backoff jitter (same seed => same sleep schedule);
* the crash-safe :class:`~repro.edb.store.ReplayLog` write protocol
  (orphan records past HEAD are invisible; torn tmp files never resolve);
* the degradation policies (``recover`` / ``raise`` / ``degrade``) and the
  health counters they move;
* monotonic worker stats across rebuild generations;
* incremental checkpoint chains: a shard rebuilt from the chain plus the
  journal after any checkpoint (newest generation intact or torn) answers
  every later command exactly like an uninterrupted twin;
* graceful worker shutdown on close, and no resource-tracker warnings after
  a kill -> heal -> close cycle.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.edb.crypte import CryptEpsilon
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema
from repro.edb.router import ShardRouter, WallClockStats
from repro.edb.shard_worker import (
    DEFAULT_SHARD_TIMEOUT_S,
    ShardWorkerClient,
    ShardWorkerTimeout,
    TransientShardError,
    default_shard_timeout,
)
from repro.edb.store import ReplayLog
from repro.fleet.supervisor import (
    ShardSupervisor,
    SupervisedShard,
    SupervisorConfig,
    resolve_supervisor_mode,
)
from repro.query.ast import CountQuery, GroupByCountQuery
from repro.query.predicates import RangePredicate
from repro.testing.chaos import ChaosWorkerFault, FaultSchedule, parse_fault_schedule

SCHEMA = Schema(name="events", attributes=("key", "value"))
QUERY = CountQuery(table="events", label="Q1")


def _records(n: int, start: int = 0, time: int = 1) -> list[Record]:
    return [
        Record(
            values={"key": (start + i) % 7, "value": start + i},
            arrival_time=time,
            table="events",
        )
        for i in range(n)
    ]


def _edb(seed: int = 7) -> ObliDB:
    return ObliDB(rng=np.random.default_rng(seed))


def _supervised(
    tmp_path,
    config: SupervisorConfig | None = None,
    schedule: FaultSchedule | None = None,
    executor: str = "serial",
    health: WallClockStats | None = None,
    seed: int = 7,
) -> SupervisedShard:
    return SupervisedShard(
        _edb(seed),
        0,
        config or SupervisorConfig(),
        schedule,
        executor,
        health if health is not None else WallClockStats(),
        threading.Lock(),
        tmp_path,
    )


# -- the unified pipe deadline -------------------------------------------------


def test_default_shard_timeout_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_TIMEOUT_S", raising=False)
    assert default_shard_timeout() == DEFAULT_SHARD_TIMEOUT_S
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "12.5")
    assert default_shard_timeout() == 12.5
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "0")
    with pytest.raises(ValueError):
        default_shard_timeout()
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "-3")
    with pytest.raises(ValueError):
        default_shard_timeout()


def test_wedged_worker_times_out_with_typed_error():
    """A worker that oversleeps its reply turns into ShardWorkerTimeout
    naming the shard, the command and the deadline -- never a hang."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    client = ShardWorkerClient(_edb(), 0, context, timeout_s=0.3)
    try:
        client.setup(_records(5))
        client.chaos_delay(5.0)  # arm: oversleep the next real command
        with pytest.raises(ShardWorkerTimeout) as excinfo:
            client.query(QUERY, time=1)
        assert excinfo.value.shard_index == 0
        assert excinfo.value.command == "query"
        assert excinfo.value.timeout_s == 0.3
        assert "0.3s" in str(excinfo.value)
    finally:
        # The worker is desynchronized on purpose; a supervisor would kill
        # and rebuild it, which is what close() degenerates to here.
        client.process.kill()
        client.process.join(timeout=5.0)
        client.close()


def test_supervisor_config_validation_and_meta_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        SupervisorConfig(on_shard_failure="panic")
    with pytest.raises(ValueError):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorConfig(timeout_s=0.0)
    with pytest.raises(ValueError):
        resolve_supervisor_mode("maybe")
    assert resolve_supervisor_mode("ON") == "on"
    config = SupervisorConfig(
        timeout_s=1.5, max_retries=5, seed=3, directory=str(tmp_path)
    )
    rebuilt = SupervisorConfig.from_meta(config.to_meta())
    # The scratch directory is machine-local and never round-trips.
    assert rebuilt == SupervisorConfig(timeout_s=1.5, max_retries=5, seed=3)


# -- deterministic backoff -----------------------------------------------------


def test_backoff_schedule_is_deterministic_per_seed_and_shard():
    """The jitter stream is SeedSequence([seed, shard])-derived: the same
    coordinates replay the same sleep schedule; different shards diverge."""
    config = SupervisorConfig(seed=11, backoff_base_s=0.05, backoff_cap_s=2.0)

    def schedule(shard_index: int) -> list[float]:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), int(shard_index)])
        )
        sleeps = []
        for attempt in (1, 2, 3, 4, 5, 6, 7):
            base = config.backoff_base_s * (2.0 ** (attempt - 1))
            delay = min(config.backoff_cap_s, base)
            sleeps.append(delay * (0.5 + 0.5 * float(rng.random())))
        return sleeps

    assert schedule(0) == schedule(0)
    assert schedule(0) != schedule(1)
    # Exponential growth capped at backoff_cap_s, jitter within [0.5, 1.0).
    sleeps = schedule(0)
    for attempt, sleep in enumerate(sleeps, start=1):
        delay = min(config.backoff_cap_s, config.backoff_base_s * 2 ** (attempt - 1))
        assert 0.5 * delay <= sleep < delay


def test_wrapper_backoff_draws_from_the_seeded_stream(tmp_path, monkeypatch):
    config = SupervisorConfig(seed=11, backoff_base_s=0.05, backoff_cap_s=2.0)
    slept: list[float] = []
    monkeypatch.setattr(
        "repro.fleet.supervisor._time.sleep", lambda s: slept.append(s)
    )
    schedule = parse_fault_schedule("raise@1,raise@2,raise@3")
    shard = _supervised(tmp_path, config=config, schedule=schedule)
    try:
        shard.setup(_records(6))  # fault 1 -> one backoff + recovery
        shard.update(_records(3, start=6), 1)  # fault 2
        shard.update(_records(3, start=9), 2)  # fault 3
    finally:
        shard.close()
    rng = np.random.default_rng(np.random.SeedSequence([11, 0]))
    expected = [0.05 * (0.5 + 0.5 * float(rng.random())) for _ in range(3)]
    assert slept == expected


# -- ReplayLog crash safety ----------------------------------------------------


def test_replay_log_append_entries_prune(tmp_path):
    log = ReplayLog(tmp_path / "journal")
    for tag, command in [(0, "setup"), (0, "update"), (1, "update"), (2, "query")]:
        log.append({"tag": tag, "command": command, "args": ()})
    assert len(log) == 4
    assert [e["command"] for e in log.entries()] == [
        "setup", "update", "update", "query",
    ]
    assert [e["command"] for e in log.entries(min_tag=1)] == ["update", "query"]
    assert log.prune(min_tag=1) == 2
    assert len(log) == 2
    # A fresh reader sees exactly the live range.
    reread = ReplayLog(tmp_path / "journal")
    assert [e["tag"] for e in reread.entries()] == [1, 2]


def test_replay_log_orphan_record_past_head_is_invisible(tmp_path):
    """A crash after the record write but before the HEAD update leaves an
    orphan file the live range never covers; the next append atomically
    overwrites it."""
    log = ReplayLog(tmp_path / "journal")
    log.append({"tag": 0, "command": "setup", "args": ()})
    # Simulate the torn second append: record durable, HEAD never updated.
    import pickle

    orphan = log._record_path(1)
    orphan.write_bytes(pickle.dumps({"tag": 9, "command": "garbage", "args": ()}))

    reread = ReplayLog(tmp_path / "journal")
    assert len(reread) == 1
    assert [e["command"] for e in reread.entries()] == ["setup"]
    serial = reread.append({"tag": 1, "command": "update", "args": ()})
    assert serial == 1  # the orphan's slot, overwritten atomically
    assert [e["command"] for e in reread.entries()] == ["setup", "update"]


def test_replay_log_tmp_files_never_resolve(tmp_path):
    log = ReplayLog(tmp_path / "journal")
    log.append({"tag": 0, "command": "setup", "args": ()})
    (tmp_path / "journal" / "records" / "0000000007.pkl.tmp").write_bytes(b"torn")
    reread = ReplayLog(tmp_path / "journal")
    assert [e["command"] for e in reread.entries()] == ["setup"]


def test_replay_log_staged_entries_are_visible_but_not_durable(tmp_path):
    """stage() feeds the live coordinator's replay immediately; only
    flush() makes entries survive a process restart -- records first,
    HEAD manifest last."""
    log = ReplayLog(tmp_path / "journal")
    log.append({"tag": 0, "command": "setup", "args": ()})
    for command in ("update", "query"):
        log.stage({"tag": 0, "command": command, "args": ()})
    # Staged entries replay from memory...
    assert [e["command"] for e in log.entries()] == ["setup", "update", "query"]
    # ...but a fresh reader (coordinator restart) only sees the durable prefix.
    assert [e["command"] for e in ReplayLog(tmp_path / "journal").entries()] == [
        "setup"
    ]
    assert log.flush() == 2
    assert log.flush() == 0  # idempotent once drained
    assert [e["command"] for e in ReplayLog(tmp_path / "journal").entries()] == [
        "setup", "update", "query",
    ]


def test_replay_log_prune_of_staged_entries_keeps_head_well_formed(tmp_path):
    log = ReplayLog(tmp_path / "journal")
    log.stage({"tag": 0, "command": "setup", "args": ()})
    log.stage({"tag": 1, "command": "update", "args": ()})
    assert log.prune(min_tag=1) == 1  # drops a never-flushed entry
    assert [e["tag"] for e in log.entries()] == [1]
    log.flush()
    reread = ReplayLog(tmp_path / "journal")
    assert [e["tag"] for e in reread.entries()] == [1]


def test_replay_log_sealed_at_rest(tmp_path):
    log = ReplayLog(tmp_path / "journal", passphrase="pw")
    log.append({"tag": 0, "command": "setup", "args": ("secret",)})
    raw = log._record_path(0).read_bytes()
    assert b"secret" not in raw
    reread = ReplayLog(tmp_path / "journal", passphrase="pw")
    assert reread.entries()[0]["args"] == ("secret",)


# -- degradation policies ------------------------------------------------------


def test_raise_policy_fails_fast(tmp_path):
    schedule = parse_fault_schedule("raise@2")
    shard = _supervised(
        tmp_path,
        config=SupervisorConfig(on_shard_failure="raise"),
        schedule=schedule,
    )
    try:
        shard.setup(_records(6))
        with pytest.raises(ChaosWorkerFault):
            shard.update(_records(3, start=6), 1)
    finally:
        shard.close()


def test_degrade_policy_takes_shard_out_of_rotation(tmp_path, monkeypatch):
    """Once retries are exhausted under on_shard_failure='degrade', the
    shard answers neutrally (zero-volume ingests, zero-count queries) and
    the health ledger says so."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    health = WallClockStats()

    # A *persistent* failure (unlike a consume-once chaos fault): updates at
    # t=1 keep failing even on the freshly rebuilt shard, so the retry
    # budget genuinely exhausts.
    original_update = ObliDB.update

    def poisoned(self, records, time):
        if time == 1:
            raise TransientShardError(0, "update", "persistently poisoned")
        return original_update(self, records, time)

    monkeypatch.setattr(ObliDB, "update", poisoned)

    shard = _supervised(
        tmp_path,
        config=SupervisorConfig(on_shard_failure="degrade", max_retries=1),
        health=health,
    )
    try:
        setup_result = shard.setup(_records(6))
        assert setup_result.records_added > 0
        degraded_result = shard.update(_records(3, start=6), 1)
        assert shard.degraded
        assert degraded_result.records_added == 0
        assert degraded_result.time == 1

        answer = shard.query(QUERY, time=2)
        assert answer.answer == 0
        assert answer.qet_seconds == 0.0
        assert not answer.noise_injected
        # Neutral state reads keep the router's sweeps running.
        assert shard.is_setup
        assert shard.update_history == ()
        assert shard.outsourced_count == 0
        assert shard.table_size("events") == 0
        assert shard.supports(QUERY)

        assert health.degraded_shards == 1
        assert health.dropped_batches == 2  # the torn update + the query
        assert health.retries >= 1
    finally:
        shard.close()


def test_recover_policy_reraises_after_retry_budget(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)

    def poisoned(self, records, time=0):
        raise TransientShardError(0, "setup", "persistently poisoned")

    monkeypatch.setattr(ObliDB, "setup", poisoned)
    health = WallClockStats()
    shard = _supervised(
        tmp_path,
        config=SupervisorConfig(on_shard_failure="recover", max_retries=2),
        health=health,
    )
    try:
        with pytest.raises(TransientShardError):
            shard.setup(_records(6))
        assert health.retries == 2
        assert health.recoveries == 2
        assert not shard.degraded
    finally:
        shard.close()


# -- recovery bookkeeping ------------------------------------------------------


def test_recovery_replays_journal_and_counts_health(tmp_path, monkeypatch):
    """An injected mid-batch fault rebuilds the shard from snapshot+journal;
    the observables match an unfaulted twin and the health ledger records
    exactly one recovery with the replayed batch count."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    health = WallClockStats()
    shard = _supervised(
        tmp_path, schedule=parse_fault_schedule("raise@4"), health=health
    )
    twin = _edb(seed=7)
    try:
        for target in (shard, twin):
            target.setup(_records(10))
            target.update(_records(3, start=10), 1)
            target.update(_records(3, start=13), 2)
            target.update(_records(3, start=16), 3)  # shard: faulted + healed
        assert shard.update_history == tuple(twin.update_history)
        assert shard.outsourced_count == twin.outsourced_count
        assert shard.query(QUERY, time=4).answer == twin.query(QUERY, time=4).answer
        assert health.recoveries == 1
        assert health.retries == 1
        # Generation 0 is pre-setup, so the replay covers every mutating
        # command journaled before the fault: setup + two updates.
        assert health.replayed_batches == 3
        assert health.recovery_seconds > 0.0
    finally:
        shard.close()


def test_snapshot_cadence_bounds_replay(tmp_path, monkeypatch):
    """With snapshot_every=2 the rebuild replays at most ~2 batches, not the
    whole history."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    health = WallClockStats()
    shard = _supervised(
        tmp_path,
        config=SupervisorConfig(snapshot_every=2),
        schedule=parse_fault_schedule("raise@6"),
        health=health,
    )
    twin = _edb(seed=7)
    try:
        for target in (shard, twin):
            target.setup(_records(10))
            for t in range(1, 6):
                target.update(_records(2, start=10 + 2 * t), t)
        assert shard.update_history == tuple(twin.update_history)
        assert health.recoveries == 1
        assert health.replayed_batches <= 2
    finally:
        shard.close()


def test_supervised_stats_stay_monotonic_across_rebuilds(monkeypatch):
    """Killing and healing a process-executor shard must not reset its
    (busy, overhead, commands) counters -- the router's delta absorption
    depends on monotonicity."""
    monkeypatch.setattr("repro.fleet.supervisor._time.sleep", lambda s: None)
    router = ShardRouter(
        [ObliDB(rng=np.random.default_rng(40 + i)) for i in range(2)],
        route_seed=3,
        executor="processes",
        supervisor=SupervisorConfig(timeout_s=10.0),
    )
    try:
        router.setup(_records(20))
        before = router.shards[0].stats()
        router.shards[0].process.kill()
        router.shards[0].process.join(timeout=5.0)
        router.query(QUERY, time=1)  # heals shard 0 mid-sweep
        after = router.shards[0].stats()
        assert router.measured.recoveries == 1
        assert after[2] > before[2]  # command count kept growing
        assert after[0] >= before[0] and after[1] >= before[1]
    finally:
        router.close()


def test_supervisor_scratch_directory_lifecycle(tmp_path):
    config = SupervisorConfig(directory=str(tmp_path / "scratch"))
    supervisor = ShardSupervisor(
        config, None, "serial", WallClockStats(), context=None
    )
    wrapped = supervisor.wrap([_edb(seed=1), _edb(seed=2)])
    assert (tmp_path / "scratch" / "shard-000" / "snapshots").is_dir()
    assert (tmp_path / "scratch" / "shard-001" / "journal").is_dir()
    supervisor.close()
    # Per-shard scratch is removed; a user-supplied base directory is kept.
    assert not (tmp_path / "scratch" / "shard-000").exists()
    assert (tmp_path / "scratch").exists()
    assert all(s.live is None for s in wrapped)


# -- graceful close and resource-tracker hygiene -------------------------------


def test_supervised_close_shuts_healthy_workers_down_gracefully():
    """Close must not SIGKILL healthy workers: they exit 0 and release their
    own arena segments, exactly as an unsupervised fleet's do."""
    router = ShardRouter(
        [
            ObliDB(rng=np.random.default_rng(50 + i), simulate_encryption=True)
            for i in range(2)
        ],
        route_seed=3,
        executor="processes",
        supervisor="on",
    )
    router.setup(_records(40))
    router.update(_records(20, start=40), 1)
    processes = [shard.process for shard in router.shards]
    router.close()
    assert [process.exitcode for process in processes] == [0, 0]


_KILL_HEAL_CLOSE = """
import numpy as np
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record
from repro.edb.router import ShardRouter
from repro.query.ast import CountQuery

def records(n, start, time):
    return [Record(values={"key": (start + i) % 7, "value": start + i},
                   arrival_time=time, table="events") for i in range(n)]

router = ShardRouter(
    [ObliDB(rng=np.random.default_rng(i), simulate_encryption=True)
     for i in range(2)],
    route_seed=1, executor="processes", supervisor="on")
router.setup(records(60, 0, 0))
for t in range(1, 4):
    router.update(records(50, 60 * t, t), t)
router.shards[0].process.kill()
router.shards[0].process.join()
router.query(CountQuery(table="events", label="Q1"), time=5)  # heals shard 0
assert router.measured.recoveries == 1
router.close()
"""


def test_kill_heal_close_leaves_no_resource_tracker_warnings():
    """A SIGKILLed worker's segments are swept by the coordinator without
    any resource tracker later reporting them as leaked (run in a fresh
    interpreter: trackers report at process exit)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_KILL_HEAL_CLOSE)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr


# -- incremental checkpoint chains ---------------------------------------------

_QUERIES = (
    CountQuery(table="events", label="Q1"),
    CountQuery(
        table="events", predicate=RangePredicate("value", 5, 60), label="Q1r"
    ),
    GroupByCountQuery(table="events", group_attribute="key", label="Q2"),
    CountQuery(table="other", label="Q1o"),
)

_COMMAND = st.one_of(
    st.tuples(st.just("update"), st.integers(1, 6)),
    st.tuples(st.just("insert_many"), st.integers(0, 4), st.integers(1, 4)),
    st.tuples(st.just("query"), st.integers(0, len(_QUERIES) - 1)),
    st.tuples(st.just("register_view"), st.integers(0, len(_QUERIES) - 1)),
    st.tuples(st.just("set_view_answering"), st.booleans()),
    st.tuples(st.just("rotate_key"), st.integers(0, 255)),
)

_BACKENDS = {
    # Object-store ciphertexts on ObliDB, arena rows on Crypt-eps (whose
    # L-DP query noise makes the RNG stream part of every answer).
    "oblidb": lambda seed: ObliDB(
        rng=np.random.default_rng(seed),
        simulate_encryption=True,
        ciphertext_store="objects",
    ),
    "crypte": lambda seed: CryptEpsilon(
        rng=np.random.default_rng(seed), simulate_encryption=True
    ),
}


def _step(target, command: tuple, time: int, serial: int):
    kind = command[0]
    if kind == "update":
        return target.update(_records(command[1], start=serial, time=time), time)
    if kind == "insert_many":
        events, other = command[1], command[2]
        batches = {
            "events": _records(events, start=serial, time=time),
            "other": [
                Record(values={"key": i, "value": i}, arrival_time=time, table="other")
                for i in range(other)
            ],
        }
        return target.insert_many(batches, time)
    if kind == "query":
        return target.query(_QUERIES[command[1]], time)
    if kind == "register_view":
        return target.register_view(_QUERIES[command[1]])
    if kind == "set_view_answering":
        return target.set_view_answering(command[1])
    target.rotate_key(bytes([command[1]]) * 32)
    return None


def _payloads(edb) -> dict:
    return {
        table: [
            (r.values, r.arrival_time, r.is_dummy, r.table)
            for r in edb.cipher.decrypt_many(edb.ciphertexts(table))
        ]
        for table in ("events", "other")
    }


def _check_chain_rebuilds(
    backend: str, setup: int, commands, tears=(False,)
) -> tuple[int, int]:
    """Drive a supervised shard and an unsupervised twin through the same
    commands; after every checkpoint, rebuild the shard from its chain plus
    the journal.  Checkpoint ``k`` has its newest generation torn first
    when ``tears[k % len(tears)]``, so later rebuilds also restore chains
    written after a torn-generation fallback.  Returns how many full and
    delta generations the run wrote."""
    make = _BACKENDS[backend]
    with tempfile.TemporaryDirectory() as scratch:
        shard = SupervisedShard(
            make(11),
            0,
            SupervisorConfig(snapshot_every=2),
            None,
            "serial",
            WallClockStats(),
            threading.Lock(),
            scratch,
        )
        twin = make(11)
        try:
            initial = _records(setup, time=0)
            assert shard.setup(initial, 0) == twin.setup(initial, 0)
            fulls = deltas = 0
            for index, command in enumerate(commands):
                time, serial = index + 1, 1000 * (index + 1)
                seq = shard._snapshot_seq
                assert _step(shard, command, time, serial) == _step(
                    twin, command, time, serial
                )
                if shard._snapshot_seq == seq:
                    continue
                meta = shard._store.chain(shard._snapshot_seq)[-1].manifest()["meta"]
                if tears[(fulls + deltas) % len(tears)]:
                    newest = shard._store._snapshot_dir(shard._snapshot_seq)
                    (newest / "MANIFEST.json").unlink()
                deltas += "parent" in meta
                fulls += "parent" not in meta
                shard._recover(ChaosWorkerFault(0, command[0]))
            live = shard.live
            assert live.update_history == twin.update_history
            assert (
                live._rng.bit_generator.state == twin._rng.bit_generator.state
            )
            assert live.registered_views == twin.registered_views
            assert _payloads(live) == _payloads(twin)
        finally:
            shard.close()
    return fulls, deltas


_SETUP = st.integers(5, 40)
_COMMANDS = st.lists(_COMMAND, min_size=1, max_size=14)


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@settings(max_examples=25, deadline=None)
@given(setup=_SETUP, commands=_COMMANDS)
def test_checkpoint_chain_plus_journal_rebuilds_the_shard(backend, setup, commands):
    _check_chain_rebuilds(backend, setup, commands)


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@settings(max_examples=25, deadline=None)
@given(
    setup=_SETUP,
    commands=_COMMANDS,
    tears=st.lists(st.booleans(), min_size=1, max_size=4).filter(any),
)
# A key rotation lands in the torn generation: the rebuild replays it, so
# the next generation must be full, not a delta over pre-rotation bytes.
@example(
    setup=30,
    commands=[("update", 2)] * 6 + [("rotate_key", 9)] + [("update", 2)] * 2,
    tears=[False, False, False, True, False],
)
def test_checkpoint_chain_with_torn_newest_generation_rebuilds_the_shard(
    backend, setup, commands, tears
):
    _check_chain_rebuilds(backend, setup, commands, tears)


def test_checkpoint_chains_mix_full_and_delta_generations():
    """A long append-only run writes deltas, and a full generation again
    once the deltas outgrow the chain's full one."""
    commands = [("update", 3)] * 40 + [("rotate_key", 7)] + [("update", 3)] * 6
    fulls, deltas = _check_chain_rebuilds("oblidb", 200, commands)
    assert deltas > fulls > 1
