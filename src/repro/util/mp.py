"""Multiprocessing plumbing shared by the grid runner and the shard fleet.

Two pieces of process infrastructure were about to exist twice -- context
selection (the grid runner's pool and the shard-worker processes both want
fork on POSIX with a spawn fallback elsewhere) and affinity-aware CPU
counting (every wall-clock speedup floor gates on it).  This module is the
single copy.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory

__all__ = [
    "preferred_mp_context",
    "usable_cpus",
    "create_shared_memory",
    "attach_shared_memory",
    "unlink_shared_memory",
    "reap_process_segments",
]


def preferred_mp_context(
    prefer: str = "fork",
) -> multiprocessing.context.BaseContext:
    """The multiprocessing context to use: ``prefer`` when available.

    Fork is preferred on POSIX because it transfers already-constructed
    worker state (shard EDBs, RNG streams) by memory inheritance instead of
    pickling; platforms without fork (Windows, some macOS configurations)
    fall back to the platform default (spawn), where the same state is
    pickled exactly once at worker startup.
    """
    try:
        return multiprocessing.get_context(prefer)
    except ValueError:
        return multiprocessing.get_context()


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    The single source of the CPU-detection rule: wall-clock speedup floors
    (process pools, shard fan-out) and the executor footgun warning all gate
    on this, so a future refinement (e.g. cgroup quota awareness) lands in
    one place.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _untracked(
    name: str, create: bool, size: int = 0
) -> shared_memory.SharedMemory:
    try:
        return shared_memory.SharedMemory(
            name=name, create=create, size=size, track=False
        )
    except TypeError:  # Python < 3.13: no track parameter
        segment = shared_memory.SharedMemory(name=name, create=create, size=size)
        try:  # pragma: no cover - registry internals differ across versions
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        return segment


def create_shared_memory(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a named shared-memory segment the caller alone owns.

    The resource tracker never keeps the name: the owner unlinks it
    (:func:`unlink_shared_memory`) and a coordinator sweeps a killed
    worker's segments (:func:`reap_process_segments`).  A registration
    would only race those paths -- a dead worker's tracker, or one shared
    with the coordinator, would later warn about names already removed.
    """
    return _untracked(name, create=True, size=size)


def unlink_shared_memory(segment: shared_memory.SharedMemory) -> None:
    """Remove a :func:`create_shared_memory` segment's name.

    Raises ``FileNotFoundError`` when it is already gone.  On Python < 3.13
    ``SharedMemory.unlink`` would also unregister the name, which the
    tracker reports as an error for a name it does not hold.
    """
    if hasattr(segment, "_track"):  # pragma: no cover - Python >= 3.13
        segment.unlink()  # honours track=False
        return
    try:
        import _posixshmem
    except ImportError:  # pragma: no cover - Windows: no names to remove
        return
    _posixshmem.shm_unlink(segment._name)


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing named shared-memory segment without owning it.

    Untracked like :func:`create_shared_memory`: a tracker registration
    would unlink the segment when *this* process exits even though its
    creator still owns it.  The caller must :meth:`close` (never
    ``unlink``) the returned handle; unlinking is the creator's job.
    """
    return _untracked(name, create=False)


def reap_process_segments(pid: int) -> int:
    """Unlink every arena segment a (dead) worker process left behind.

    Arena segment names embed the creating pid
    (``repro-arena-<pid>-...``), so a coordinator can sweep a SIGKILLed
    worker's segments by name.  The killed worker never ran its release
    path, and its segments were created untracked
    (:func:`create_shared_memory`), so this sweep is what removes them --
    at once, not at coordinator exit -- and no resource tracker is left
    holding a registration to warn about later.  Any coordinator-side
    attachment still holding a mapping stays readable until it is closed
    (POSIX shm semantics).

    Returns the number of segments unlinked.  Callers must only pass the
    pid of a process known to be dead.  No-op on platforms without a
    ``/dev/shm`` filesystem.
    """
    shm_root = "/dev/shm"
    prefix = f"repro-arena-{int(pid)}-"
    try:
        names = os.listdir(shm_root)
    except OSError:  # pragma: no cover - non-Linux
        return 0
    reaped = 0
    for entry in names:
        if entry.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_root, entry))
                reaped += 1
            except OSError:  # pragma: no cover - already removed
                pass
    return reaped
