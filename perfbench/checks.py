"""Output checks: per-cell result digests, seed-independent invariants, and
the process-level leak checks (shared memory, resource-tracker warnings)."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

SHM_ROOT = "/dev/shm"

#: Exact back-end strategies whose answers must equal ground truth.
_EXACT_STRATEGIES = ("sur", "set")


def _plain(value):
    """JSON-ready copy of an answer (numpy scalars and dict keys made plain)."""
    if isinstance(value, dict):
        items = [[_plain(k), _plain(v)] for k, v in value.items()]
        return sorted(items, key=repr)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def cell_digest(result, record) -> str:
    """Digest of everything a cell's output contract pins.

    Covers the run result (L1 errors, simulated QET, timeline, sync totals),
    every query answer in order, the aggregate and per-owner ``(t, |γ|)``
    transcripts and, for a sharded EDB, the per-shard transcripts.
    """
    payload = {
        "result": result.to_dict(),
        "answers": _plain(record.answers),
        "transcript": record.transcript,
        "owners": record.owner_transcripts,
        "per_shard": record.per_shard,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def invariant_failures(cell, result, record) -> list[str]:
    """Checks that hold for every seed, so unrecorded seeds are checked too."""
    problems = []
    if not record.transcript:
        problems.append("no transcript captured")
    server_volume = sum(volume for _, volume in record.transcript)
    owner_volume = sum(
        volume for pattern in record.owner_transcripts.values() for _, volume in pattern
    )
    if server_volume != owner_volume:
        problems.append(
            f"server saw {server_volume} records, owners sent {owner_volume}"
        )
    if record.total_added != record.outsourced:
        problems.append(
            f"{record.total_added} records added but {record.outsourced} stored"
        )
    if record.per_shard is not None:
        shard_volume = sum(v for shard in record.per_shard for _, v in shard)
        if shard_volume != server_volume:
            problems.append(
                f"shards hold {shard_volume} records, aggregate says {server_volume}"
            )
    if record.health is not None and any(record.health.values()):
        problems.append(f"fleet health not clean: {record.health}")
    if cell.backend == "oblidb" and cell.strategy in _EXACT_STRATEGIES:
        errors = [trace.l1_error for trace in result.query_traces]
        if any(errors):
            problems.append(f"{cell.strategy} on ObliDB answered inexactly")
    if cell.strategy == "oto" and any(t for t, _ in record.transcript):
        problems.append("OTO synced after Setup")
    if not record.query_s:
        problems.append("no query answered")
    return problems


def leaked_shm(pids: set[int], scratch_dirs: set[str]) -> list[str]:
    """``/dev/shm`` entries this run's processes left behind.

    Arena segments are named ``repro-arena-<creator pid>-...``, so a segment
    counts when its creator was this process or one of its workers; the
    supervisors' scratch directories are known by name.  Entries of other
    processes on the machine are not this run's to judge.
    """
    try:
        names = os.listdir(SHM_ROOT)
    except OSError:
        return []
    creators = {f"repro-arena-{pid}-" for pid in pids | {os.getpid()}}
    return sorted(
        name
        for name in names
        if name in scratch_dirs or any(name.startswith(c) for c in creators)
    )


class StderrCapture:
    """Send file descriptor 2 to a file for the duration of the run.

    Worker processes and their resource trackers inherit descriptor 2, so this
    catches what they print too.  On exit the text is replayed to the real
    stderr and the resource-tracker warnings are counted.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._saved: int | None = None
        self.text = ""

    def __enter__(self) -> "StderrCapture":
        sys.stderr.flush()
        self._saved = os.dup(2)
        fd = os.open(self._path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 2)
        os.close(fd)
        return self

    def __exit__(self, *exc) -> None:
        sys.stderr.flush()
        self.wait_for_other_writers()
        os.dup2(self._saved, 2)
        os.close(self._saved)
        self.text = self._path.read_text(errors="replace")
        self._path.unlink()
        sys.stderr.write(self.text)
        sys.stderr.flush()

    def wait_for_other_writers(self, timeout_s: float = 10.0) -> None:
        """Wait until no other process holds the capture file open.

        Each worker process starts its own resource tracker, which outlives
        the worker briefly and inherits descriptor 2.  Waiting for them means
        a cell's teardown never overlaps the next cell's timing, and the run
        ends only after every process it caused has ended, with their last
        words in the capture.
        """
        target = str(self._path)
        me = str(os.getpid())
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            holders = []
            for pid in filter(str.isdigit, os.listdir("/proc")):
                if pid == me:
                    continue
                try:
                    fds = os.listdir(f"/proc/{pid}/fd")
                    if any(os.readlink(f"/proc/{pid}/fd/{fd}") == target for fd in fds):
                        holders.append(pid)
                except OSError:
                    continue
            if not holders:
                return
            time.sleep(0.05)

    @property
    def tracker_warnings(self) -> int:
        """Resource-tracker "leaked shared_memory" warnings printed.

        Encrypted process fleets print these after the supervisor has already
        removed the segment (the tracker then fails with ENOENT), so they are
        recorded, not counted as leaks; the ``/dev/shm`` scan is the leak check.
        """
        return self.text.count("leaked shared_memory")
