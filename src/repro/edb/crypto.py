"""Simulated record-level encryption with an arena-backed bulk fast path.

The paper assumes an *atomic* encrypted database: every record (real or dummy)
is encrypted independently into a fixed-size ciphertext under a semantically
secure scheme, so the server cannot tell real records from dummies.  This
module simulates exactly that contract:

* :class:`RecordCipher` derives a per-record keystream from a secret key and a
  random 128-bit nonce (a keyed BLAKE2b PRF in counter mode) and XORs it over
  a canonical, padded serialization of the record.
* Every ciphertext has the same length regardless of the plaintext content or
  the ``is_dummy`` flag, which is what makes the update volume ``|γ_t|`` the
  *only* information the server learns from an update.

Two interchangeable server-side storage layouts are provided:

* **object-backed** (the reference): one immutable :class:`EncryptedRecord`
  per record, each owning its own ``bytes`` ciphertext.  This is the original
  per-record path: one keystream derivation, one 300+-byte allocation and one
  ``__post_init__`` length validation per record.
* **arena-backed** (the fast path): all ciphertexts of a table live in one
  contiguous capacity-doubling ``(n, CIPHERTEXT_SIZE)`` ``uint8`` ndarray
  (:class:`CiphertextArena`).  :meth:`RecordCipher.encrypt_many_into` writes
  nonce, body and tag straight into reserved arena rows -- batched nonce
  generation, a single 2-D vectorized keystream XOR, no intermediate ``bytes``
  objects -- and per-record validation is hoisted out of the loop entirely
  (the arena's row shape *is* the validation).  :class:`ArenaRecord` is a
  zero-copy view (handle -> arena row) exposing the same surface as
  :class:`EncryptedRecord`, so the Query/decrypt protocol cannot tell the
  layouts apart.  Both layouts produce ciphertexts decryptable by the same
  :meth:`RecordCipher.decrypt`, which the differential tests exploit.

This is a simulation of AES-CTR-style encryption for a reproduction study: it
provides the indistinguishability property the analysis needs (and tests
check), but it has not been audited for production cryptographic use.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import json
import math
import os
import uuid
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.edb.records import Record
from repro.util.mp import (
    attach_shared_memory,
    create_shared_memory,
    unlink_shared_memory,
)

__all__ = [
    "EncryptedRecord",
    "ArenaRecord",
    "ArenaSegmentHandle",
    "AttachedArenaView",
    "ArenaSegmentCache",
    "CiphertextArena",
    "SharedCiphertextArena",
    "RecordCipher",
    "CIPHERTEXT_SIZE",
]

#: Fixed plaintext-block size (bytes) every record is padded to before
#: encryption.  Large enough for the paper's taxi schema with slack; the
#: cipher raises if a record does not fit rather than silently leaking length.
PLAINTEXT_BLOCK_SIZE: int = 256

#: Nonce length in bytes prepended to every ciphertext.
NONCE_SIZE: int = 16

#: Total ciphertext size: nonce + padded body + authentication tag.
CIPHERTEXT_SIZE: int = NONCE_SIZE + PLAINTEXT_BLOCK_SIZE + 32

#: End of the authenticated region (nonce + body) within a ciphertext row.
_BODY_END: int = NONCE_SIZE + PLAINTEXT_BLOCK_SIZE

#: Keystream block counters, precomputed: the 256-byte body consumes exactly
#: ``PLAINTEXT_BLOCK_SIZE / 64`` BLAKE2b blocks per record.
_KEYSTREAM_COUNTERS: tuple[bytes, ...] = tuple(
    counter.to_bytes(8, "big") for counter in range(PLAINTEXT_BLOCK_SIZE // 64)
)

#: CPython's C-accelerated JSON string escaper (the exact function
#: ``json.dumps`` uses with the default ``ensure_ascii=True``).
_escape_json_string = json.encoder.encode_basestring_ascii


def _xor(data: bytes, keystream: bytes, out: np.ndarray | None = None):
    """Byte-wise XOR: one NumPy op instead of a Python byte loop.

    Without ``out`` this keeps the original single-record contract (takes and
    returns ``bytes``).  Batched callers pass a preallocated ``out`` row --
    typically an arena slot -- and get the XOR written in place with *no*
    intermediate ``bytes`` round trip (``tobytes()`` was one allocation per
    record on the old hot path).
    """
    a = np.frombuffer(data, dtype=np.uint8)
    b = np.frombuffer(keystream, dtype=np.uint8)
    if out is not None:
        np.bitwise_xor(a, b, out=out)
        return out
    return (a ^ b).tobytes()


@dataclass(frozen=True)
class EncryptedRecord:
    """An encrypted record as stored by the server (object-backed layout).

    The server-visible surface is only ``ciphertext`` (fixed size) and the
    opaque ``handle`` used to address the record inside the outsourced
    structure.  Nothing about the plaintext, including whether it is a dummy,
    is derivable from these fields without the key.
    """

    ciphertext: bytes
    handle: int

    def __post_init__(self) -> None:
        if len(self.ciphertext) != CIPHERTEXT_SIZE:
            raise ValueError(
                f"ciphertext must be exactly {CIPHERTEXT_SIZE} bytes, "
                f"got {len(self.ciphertext)}"
            )

    @property
    def size_bytes(self) -> int:
        """Server-side storage footprint of this record."""
        return len(self.ciphertext)


class ArenaRecord:
    """Zero-copy view of one ciphertext stored in a :class:`CiphertextArena`.

    Exposes the same surface as :class:`EncryptedRecord` (``ciphertext``,
    ``handle``, ``size_bytes``) but owns no bytes: ``ciphertext`` is a
    read-only memoryview into the arena row looked up *at access time*, so a
    view stays valid -- and reflects the same immutable contents -- across
    arena growth and compaction (which reallocate the backing array).
    """

    __slots__ = ("_arena", "_index")

    def __init__(self, arena: "CiphertextArena", index: int) -> None:
        self._arena = arena
        self._index = index

    @property
    def handle(self) -> int:
        """The cipher-assigned handle of this record."""
        return self._arena.handle_at(self._index)

    @property
    def ciphertext(self) -> memoryview:
        """Read-only zero-copy view of the fixed-size ciphertext row."""
        return self._arena.row(self._index)

    @property
    def size_bytes(self) -> int:
        """Server-side storage footprint of this record."""
        return CIPHERTEXT_SIZE

    def to_encrypted_record(self) -> EncryptedRecord:
        """Materialize an owning :class:`EncryptedRecord` copy (tests only)."""
        return EncryptedRecord(ciphertext=bytes(self.ciphertext), handle=self.handle)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ArenaRecord, EncryptedRecord)):
            return self.handle == other.handle and bytes(self.ciphertext) == bytes(
                other.ciphertext
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Same (ciphertext, handle) tuple a frozen EncryptedRecord hashes, so
        # equal records hash equal across the two layouts.
        return hash((bytes(self.ciphertext), self.handle))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaRecord(handle={self.handle}, index={self._index})"


class CiphertextArena:
    """All ciphertexts of one table in a single contiguous ``uint8`` ndarray.

    Rows are appended through :meth:`reserve` (amortized O(1): capacity
    doubles when exhausted) and never mutated afterwards; handles are recorded
    in a parallel ``int64`` array.  Growth and :meth:`compact` reallocate the
    backing buffers but copy contents verbatim, so handles and decrypted
    records are invariant under both -- a property the Hypothesis suite pins.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        data, handles = self._allocate(initial_capacity)
        self._adopt(data, handles)
        self._size = 0
        self._grow_count = 0

    # -- storage backend (overridden by the shared-memory arena) --------------

    def _allocate(self, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        """Allocate backing buffers for ``capacity`` rows (plus handles)."""
        return (
            np.empty((capacity, CIPHERTEXT_SIZE), dtype=np.uint8),
            np.empty(capacity, dtype=np.int64),
        )

    def _adopt(self, data: np.ndarray, handles: np.ndarray) -> None:
        """Swap in freshly allocated (and already filled) backing buffers."""
        self._data = data
        self._handles = handles

    def release(self) -> None:
        """Release any owned backing resources (no-op for process-local heap
        arenas; the shared-memory arena unlinks its segment here)."""

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Row capacity of the current backing buffer."""
        return int(self._data.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the ciphertext buffer (capacity, not just size)."""
        return int(self._data.nbytes)

    @property
    def grow_count(self) -> int:
        """How many times the backing buffer was reallocated by growth."""
        return self._grow_count

    def reserve(self, count: int) -> np.ndarray:
        """Append ``count`` uninitialized rows; return them as a 2-D view.

        The caller must fill the rows (and their handles via
        :meth:`set_handles`) before anything reads them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        needed = self._size + count
        if needed > self.capacity:
            new_capacity = self.capacity
            while new_capacity < needed:
                new_capacity *= 2
            data, handles = self._allocate(new_capacity)
            data[: self._size] = self._data[: self._size]
            handles[: self._size] = self._handles[: self._size]
            self._adopt(data, handles)
            self._grow_count += 1
        start = self._size
        self._size = needed
        return self._data[start:needed]

    def set_handles(self, start: int, handles: Sequence[int]) -> None:
        """Record the cipher handles for rows ``start .. start+len(handles)``."""
        self._handles[start : start + len(handles)] = handles

    def compact(self) -> None:
        """Shrink the backing buffers to exactly the used size.

        Contents, row order and handles are preserved verbatim; only the
        over-allocated growth headroom is released.
        """
        if self._size == self.capacity:
            return
        size = max(self._size, 1)
        # A fresh allocation (not a view) so the old full-capacity buffer
        # really is released once nothing else references it.
        data, handles = self._allocate(size)
        data[:] = self._data[:size]
        handles[:] = self._handles[:size]
        self._adopt(data, handles)

    def row(self, index: int) -> memoryview:
        """Read-only zero-copy view of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return self._data[index].data.toreadonly()

    def handle_at(self, index: int) -> int:
        """Cipher handle of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return int(self._handles[index])

    def record(self, index: int) -> ArenaRecord:
        """The zero-copy :class:`ArenaRecord` view of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return ArenaRecord(self, index)

    def records(self) -> tuple[ArenaRecord, ...]:
        """Views of every stored ciphertext, in insertion order."""
        return tuple(ArenaRecord(self, index) for index in range(self._size))

    def as_array(self) -> np.ndarray:
        """The used portion of the ciphertext buffer (a read-only view)."""
        view = self._data[: self._size]
        view.flags.writeable = False
        return view


#: Per-row byte stride of a shared arena segment: one fixed-size ciphertext
#: plus its ``int64`` handle (handles live in the same segment, after the
#: ciphertext block, so one attach resolves both).
_SEGMENT_ROW_STRIDE: int = CIPHERTEXT_SIZE + 8

_arena_sequence = itertools.count()


def _new_arena_id() -> str:
    """A process-unique shared-arena id (also the /dev/shm name prefix)."""
    return f"repro-arena-{os.getpid()}-{next(_arena_sequence)}-{uuid.uuid4().hex[:8]}"


def _segment_views(
    buffer: memoryview, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, handles) ndarray views over one segment buffer."""
    data = np.ndarray(
        (capacity, CIPHERTEXT_SIZE), dtype=np.uint8, buffer=buffer
    )
    handles = np.ndarray(
        capacity,
        dtype=np.int64,
        buffer=buffer,
        offset=capacity * CIPHERTEXT_SIZE,
    )
    return data, handles


def _plain_arena_from_rows(
    row_bytes: bytes, handle_bytes: bytes, size: int
) -> "CiphertextArena":
    """Rebuild a process-local arena from serialized rows (pickle support)."""
    arena = CiphertextArena(initial_capacity=max(size, 1))
    if size:
        rows = arena.reserve(size)
        rows[:] = np.frombuffer(row_bytes, dtype=np.uint8).reshape(
            size, CIPHERTEXT_SIZE
        )
        arena._handles[:size] = np.frombuffer(handle_bytes, dtype=np.int64)
    return arena


def _reap_shared_segments(segments: dict) -> None:
    """Unlink/close every segment a shared arena still owns.

    Module-level (no reference back to the arena) so it can serve as a
    ``weakref.finalize`` callback: it runs deterministically when the arena
    is garbage collected *or* at interpreter exit -- whichever comes first --
    instead of depending on ``__del__`` timing.  Unlinking is the part that
    prevents ``/dev/shm`` leaks; a mapping pinned by a live numpy view is
    released with the process.
    """
    for slot in ("current", "pending"):
        segment = segments.get(slot)
        if segment is None:
            continue
        segments[slot] = None
        try:
            unlink_shared_memory(segment)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view still pins the map
            pass
    for segment in segments.get("retired", ()):
        try:
            segment.close()
        except BufferError:  # pragma: no cover - still pinned
            pass
    segments["retired"] = []


def _close_attached_segment(segment: shared_memory.SharedMemory) -> None:
    """Detach one attached segment (``weakref.finalize`` callback)."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a row view is still alive
        pass


@dataclass(frozen=True)
class ArenaSegmentHandle:
    """Cross-process address of one ciphertext row: ``(segment_name, row)``.

    Handles are minted by a :class:`SharedCiphertextArena` (typically inside
    a shard worker process) and resolved by an :class:`ArenaSegmentCache` in
    another process.  ``segment_name`` is the arena's segment at mint time;
    growth and compaction copy rows verbatim at unchanged indices into a
    fresh segment, so a stale handle still resolves correctly against the
    arena's *current* segment once the swap has been published.
    """

    segment_name: str
    row: int

    @property
    def arena_id(self) -> str:
        """The owning arena's stable id (segment names are ``id.g<n>``)."""
        return self.segment_name.rsplit(".g", 1)[0]


class SharedCiphertextArena(CiphertextArena):
    """A :class:`CiphertextArena` whose rows live in named shared memory.

    Same contract and row layout as the in-process arena (the Hypothesis
    suite pins byte-identity), but the backing buffer is a
    ``multiprocessing.shared_memory`` segment named ``<arena_id>.g<n>``, so
    another process can attach it by name and read ciphertext rows (and
    their handles) zero-copy.  Growth doubles into a *fresh* named segment
    (generation ``n+1``), copies rows verbatim and unlinks the old segment;
    readers learn of the swap through :meth:`export_state` -- and because
    rows are immutable once written, a reader still holding the old mapping
    sees correct bytes for every row that existed before the swap.

    The creating process owns the segment: call :meth:`release` to unlink it
    when the arena is dropped (shard workers do this on shutdown).  As a
    backstop, a ``weakref.finalize`` reaper unlinks the segments when the
    arena is garbage collected or the interpreter exits -- unlike ``__del__``
    this is deterministic at shutdown, so an unclosed arena can no longer
    leak ``/dev/shm`` segments past process exit.  Segments are created
    untracked (:func:`~repro.util.mp.create_shared_memory`): those paths,
    plus a coordinator's sweep of a killed worker's segments
    (:func:`~repro.util.mp.reap_process_segments`), are their only owners.

    Pickling serializes the *contents* and reconstructs a process-local
    :class:`CiphertextArena` (rows, handles and indices preserved verbatim):
    a shared-memory mapping is only meaningful inside its creating host, so
    snapshots and cross-process payloads always carry plain arenas.
    """

    def __init__(self, initial_capacity: int = 64, name: str | None = None) -> None:
        self._arena_id = name if name is not None else _new_arena_id()
        self._generation = 0
        #: Mutable box owning the shm segments; shared with the finalizer so
        #: the reaper never needs a reference back to ``self``.
        self._segments: dict = {"current": None, "pending": None, "retired": []}
        self._finalizer = weakref.finalize(
            self, _reap_shared_segments, self._segments
        )
        super().__init__(initial_capacity)

    # -- storage backend ------------------------------------------------------

    def _allocate(self, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        segment = create_shared_memory(
            f"{self._arena_id}.g{self._generation + 1}",
            capacity * _SEGMENT_ROW_STRIDE,
        )
        self._generation += 1
        self._segments["pending"] = segment
        return _segment_views(segment.buf, capacity)

    def _adopt(self, data: np.ndarray, handles: np.ndarray) -> None:
        old = self._segments["current"]
        self._segments["current"] = self._segments["pending"]
        self._segments["pending"] = None
        super()._adopt(data, handles)
        if old is not None:
            self._retire(old)

    def _retire(self, segment: shared_memory.SharedMemory) -> None:
        """Unlink a superseded segment; close it when no views pin it."""
        try:
            unlink_shared_memory(segment)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            segment.close()
        except BufferError:
            # A numpy view over the old buffer is still alive somewhere;
            # the mapping is released with the process (the name is gone
            # already, so nothing leaks past process exit).
            self._segments["retired"].append(segment)

    def release(self) -> None:
        """Unlink the current segment (idempotent; creator-side cleanup)."""
        self._data = np.empty((0, CIPHERTEXT_SIZE), dtype=np.uint8)
        self._handles = np.empty(0, dtype=np.int64)
        # The finalizer doubles as the release implementation: it is
        # idempotent (finalize callbacks run at most once) and detaching it
        # here means a released arena costs nothing at GC/exit time.
        self._finalizer()

    def __reduce__(self):
        return (
            _plain_arena_from_rows,
            (
                self._data[: self._size].tobytes(),
                self._handles[: self._size].tobytes(),
                self._size,
            ),
        )

    # -- publication ----------------------------------------------------------

    @property
    def arena_id(self) -> str:
        """Stable id of this arena across growth/compaction swaps."""
        return self._arena_id

    @property
    def generation(self) -> int:
        """How many segments this arena has allocated so far."""
        return self._generation

    @property
    def segment_name(self) -> str:
        """Name of the current backing segment (``<arena_id>.g<n>``)."""
        segment = self._segments["current"]
        if segment is None:
            raise RuntimeError("arena released")
        return segment.name

    def handle_for(self, index: int) -> ArenaSegmentHandle:
        """The cross-process handle of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return ArenaSegmentHandle(segment_name=self.segment_name, row=index)

    def export_state(self) -> dict:
        """The published view of this arena: current segment name and size.

        This is the "swap publication" message workers send the coordinator
        after every ingest: feeding it to
        :meth:`ArenaSegmentCache.publish` lets stale handles resolve against
        the current segment.
        """
        return {
            "arena_id": self._arena_id,
            "segment_name": self.segment_name,
            "size": self._size,
            "generation": self._generation,
        }


class AttachedArenaView:
    """Read-only attachment to one published shared-arena segment.

    Exposes the same ``row``/``handle_at``/``record`` surface as the arena
    itself, so :class:`ArenaRecord` views work identically whether they are
    backed by the local arena or by an attachment in another process --
    nothing downstream of the attach can tell the difference (and no bytes
    are copied either way).
    """

    def __init__(self, segment_name: str, size: int) -> None:
        self._segment = attach_shared_memory(segment_name)
        self._name = segment_name
        self._finalizer = weakref.finalize(
            self, _close_attached_segment, self._segment
        )
        capacity = len(self._segment.buf) // _SEGMENT_ROW_STRIDE
        if size > capacity:
            self._finalizer()
            raise ValueError(
                f"published size {size} exceeds segment capacity {capacity}"
            )
        self._data, self._handles = _segment_views(self._segment.buf, capacity)
        self._size = size

    def __len__(self) -> int:
        return self._size

    @property
    def segment_name(self) -> str:
        """Name of the attached segment."""
        return self._name

    def row(self, index: int) -> memoryview:
        """Read-only zero-copy view of row ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return self._data[index].data.toreadonly()

    def handle_at(self, index: int) -> int:
        """Cipher handle of row ``index`` (read from the shared segment)."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return int(self._handles[index])

    def record(self, index: int) -> ArenaRecord:
        """Zero-copy :class:`ArenaRecord` over the attached row."""
        if not 0 <= index < self._size:
            raise IndexError(f"arena row {index} out of range (size {self._size})")
        return ArenaRecord(self, index)

    def records(self) -> tuple[ArenaRecord, ...]:
        """Views of every published ciphertext, in insertion order."""
        return tuple(ArenaRecord(self, index) for index in range(self._size))

    def close(self) -> None:
        """Detach from the segment (never unlinks -- the creator owns it)."""
        self._data = np.empty((0, CIPHERTEXT_SIZE), dtype=np.uint8)
        self._handles = np.empty(0, dtype=np.int64)
        self._size = 0
        self._finalizer()


class ArenaSegmentCache:
    """Coordinator-side resolver for :class:`ArenaSegmentHandle`\\ s.

    Tracks, per arena id, the arena's *current* published segment (fed by
    :meth:`publish` from worker ``export_state`` messages) and keeps one
    attachment per segment.  Handles minted before a growth swap resolve
    against the current segment -- row indices are invariant under growth
    and compaction, which the shared-arena Hypothesis suite pins.
    """

    def __init__(self) -> None:
        self._views: dict[str, AttachedArenaView] = {}
        self._current: dict[str, dict] = {}

    def publish(self, state: Mapping) -> AttachedArenaView:
        """Record an arena's published state; return the current attachment.

        Publishes are generation-ordered: a state older than the one already
        known for the arena (a delayed/re-delivered message from before a
        growth swap) is ignored rather than re-attached -- its segment name
        is already unlinked, and rolling ``_current`` back would strand every
        handle minted since the swap.
        """
        arena_id = state["arena_id"]
        segment_name = state["segment_name"]
        known = self._current.get(arena_id)
        if known is not None:
            if state["generation"] < known["generation"]:
                return self.publish(known)
            if known["segment_name"] != segment_name:
                # The arena grew or compacted into a fresh segment: drop the
                # superseded attachment (its name may already be unlinked).
                stale = self._views.pop(known["segment_name"], None)
                if stale is not None:
                    stale.close()
        self._current[arena_id] = dict(state)
        view = self._views.get(segment_name)
        if view is None or len(view) < state["size"]:
            if view is not None:
                view.close()
            view = AttachedArenaView(segment_name, state["size"])
            self._views[segment_name] = view
        return view

    def resolve(self, handle: ArenaSegmentHandle) -> ArenaRecord:
        """Resolve a handle to a zero-copy record view.

        The handle's own segment name is only a hint: resolution goes
        through the arena's current published segment, so handles minted
        before a growth/compaction swap stay valid.
        """
        state = self._current.get(handle.arena_id)
        if state is None:
            raise KeyError(
                f"no published state for arena {handle.arena_id!r}; "
                "feed export_state() to publish() first"
            )
        view = self.publish(state)
        return view.record(handle.row)

    def close(self) -> None:
        """Detach every cached attachment (idempotent)."""
        for view in self._views.values():
            view.close()
        self._views = {}
        self._current = {}


@dataclass
class RecordCipher:
    """Keyed cipher that encrypts records into fixed-size ciphertexts.

    Parameters
    ----------
    key:
        32-byte secret key.  Generated randomly when omitted.
    """

    key: bytes = field(default_factory=lambda: os.urandom(32))
    _next_handle: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.key) < 16:
            raise ValueError("key must be at least 16 bytes")
        # Precomputed hash prototypes for the bulk paths: copying a keyed
        # state skips the key schedule on every call while producing digests
        # identical to ``blake2b(data, key=...)`` / ``hmac.new(key, data,
        # sha256)``.  The HMAC is kept as its definition -- inner/outer
        # SHA-256 states over the ipad/opad-masked key -- because the
        # ``hmac`` module's pure-Python wrappers cost more than the hashing
        # itself at ciphertext-record sizes.
        self._blake_proto = hashlib.blake2b(key=self.key, digest_size=64)
        hmac_key = (
            hashlib.sha256(self.key).digest() if len(self.key) > 64 else self.key
        )
        padded = hmac_key.ljust(64, b"\x00")
        self._hmac_inner = hashlib.sha256(bytes(b ^ 0x36 for b in padded))
        self._hmac_outer = hashlib.sha256(bytes(b ^ 0x5C for b in padded))

    def __getstate__(self) -> dict:
        # The hash prototypes are C hashlib objects and cannot be pickled;
        # they are pure functions of the key, so drop them here and rebuild
        # them on restore.
        return {"key": self.key, "_next_handle": self._next_handle}

    def __setstate__(self, state: dict) -> None:
        self.key = state["key"]
        self._next_handle = state["_next_handle"]
        self.__post_init__()

    def rotated(self, new_key: bytes | None = None) -> "RecordCipher":
        """A cipher under a fresh key that continues this handle sequence.

        Handles are opaque server-side identifiers, not key material: a
        rotation must keep minting from where the old cipher stopped so
        existing :class:`ArenaRecord` handles stay unique alongside
        post-rotation ones.
        """
        cipher = RecordCipher(
            key=new_key if new_key is not None else os.urandom(32)
        )
        cipher._next_handle = self._next_handle
        return cipher

    def encrypt(self, record: Record) -> EncryptedRecord:
        """Encrypt ``record`` into a fixed-size :class:`EncryptedRecord`.

        This is the per-record reference path, kept with its original
        fresh-keyed hash construction (one keystream derivation, one HMAC key
        schedule and one owning ``bytes`` ciphertext per record) -- it is
        what the arena bulk path is benchmarked against.  Outputs are
        byte-identical to the bulk path for equal nonces.
        """
        plaintext = self._serialize(record)
        nonce = os.urandom(NONCE_SIZE)
        keystream = self._keystream(nonce, len(plaintext))
        body = _xor(plaintext, keystream)
        tag = hmac.new(self.key, nonce + body, hashlib.sha256).digest()
        handle = self._next_handle
        self._next_handle += 1
        return EncryptedRecord(ciphertext=nonce + body + tag, handle=handle)

    def encrypt_many(self, records: Iterable[Record]) -> list[EncryptedRecord]:
        """Encrypt a batch of records into owning :class:`EncryptedRecord`\\ s.

        One call per flush instead of one per record; every record still gets
        its own fresh nonce and fixed-size ciphertext, so a batch leaks
        exactly what the same records leaked when encrypted one at a time:
        the count.  This is the object-backed reference path; the arena fast
        path is :meth:`encrypt_many_into`.
        """
        return [self.encrypt(record) for record in records]

    def encrypt_many_into(
        self, records: Sequence[Record], arena: CiphertextArena
    ) -> list[int]:
        """Encrypt a batch straight into reserved arena rows; return handles.

        The bulk path the ingest hot loop runs: one ``os.urandom`` call for
        the whole batch's nonces, every keystream digest joined into a single
        2-D ``uint8`` matrix, one vectorized XOR writing bodies directly into
        the arena slots, and tags appended with prototype-copied HMAC states.
        No intermediate ``bytes`` ciphertexts and no per-record
        ``EncryptedRecord`` construction or length validation -- the arena row
        shape enforces the fixed ciphertext size for the whole batch at once.
        Ciphertexts are byte-for-byte what :meth:`encrypt` would have produced
        for the same nonces, so :meth:`decrypt` handles both layouts.
        """
        n = len(records)
        if n == 0:
            return []
        plaintext = b"".join(self._serialize(record) for record in records)
        nonces = os.urandom(NONCE_SIZE * n)

        rows = arena.reserve(n)
        rows[:, :NONCE_SIZE] = np.frombuffer(nonces, dtype=np.uint8).reshape(
            n, NONCE_SIZE
        )

        blake_proto = self._blake_proto
        digests: list[bytes] = []
        for index in range(n):
            nonce = nonces[index * NONCE_SIZE : (index + 1) * NONCE_SIZE]
            for counter in _KEYSTREAM_COUNTERS:
                h = blake_proto.copy()
                h.update(nonce)
                h.update(counter)
                digests.append(h.digest())
        keystream = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(
            n, PLAINTEXT_BLOCK_SIZE
        )
        bodies = np.frombuffer(plaintext, dtype=np.uint8).reshape(
            n, PLAINTEXT_BLOCK_SIZE
        )
        np.bitwise_xor(bodies, keystream, out=rows[:, NONCE_SIZE:_BODY_END])

        hmac_inner, hmac_outer = self._hmac_inner, self._hmac_outer
        row_view = memoryview(rows).cast("B")
        tags: list[bytes] = []
        for index in range(n):
            inner = hmac_inner.copy()
            inner.update(row_view[index * CIPHERTEXT_SIZE : index * CIPHERTEXT_SIZE + _BODY_END])
            outer = hmac_outer.copy()
            outer.update(inner.digest())
            tags.append(outer.digest())
        rows[:, _BODY_END:] = np.frombuffer(b"".join(tags), dtype=np.uint8).reshape(
            n, 32
        )

        start_handle = self._next_handle
        self._next_handle += n
        handles = list(range(start_handle, start_handle + n))
        arena.set_handles(len(arena) - n, handles)
        return handles

    def decrypt(self, encrypted: "EncryptedRecord | ArenaRecord") -> Record:
        """Decrypt an encrypted record (either storage layout) back to a
        :class:`Record`.

        Raises ``ValueError`` if the authentication tag does not verify.
        """
        ciphertext = encrypted.ciphertext
        if not isinstance(ciphertext, bytes):
            ciphertext = bytes(ciphertext)
        nonce = ciphertext[:NONCE_SIZE]
        body = ciphertext[NONCE_SIZE:-32]
        tag = ciphertext[-32:]
        expected = hmac.new(self.key, nonce + body, hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected):
            raise ValueError("ciphertext failed authentication")
        keystream = self._keystream(nonce, len(body))
        plaintext = _xor(body, keystream)
        return self._deserialize(plaintext)

    def decrypt_many(
        self, encrypted: Iterable["EncryptedRecord | ArenaRecord"]
    ) -> list[Record]:
        """Decrypt a batch with one vectorized keystream XOR.

        Tags are verified per record (a single bad row must fail loudly, not
        poison the batch silently); keystream derivation and the XOR over the
        whole batch run on 2-D arrays like the encrypt bulk path.
        """
        batch = list(encrypted)
        n = len(batch)
        if n == 0:
            return []
        rows = np.empty((n, CIPHERTEXT_SIZE), dtype=np.uint8)
        for index, record in enumerate(batch):
            ciphertext = record.ciphertext
            if len(ciphertext) != CIPHERTEXT_SIZE:
                raise ValueError(
                    f"ciphertext must be exactly {CIPHERTEXT_SIZE} bytes, "
                    f"got {len(ciphertext)}"
                )
            rows[index] = np.frombuffer(ciphertext, dtype=np.uint8)

        hmac_inner, hmac_outer = self._hmac_inner, self._hmac_outer
        blake_proto = self._blake_proto
        digests: list[bytes] = []
        row_view = memoryview(rows).cast("B")
        for index in range(n):
            offset = index * CIPHERTEXT_SIZE
            authenticated = row_view[offset : offset + _BODY_END]
            inner = hmac_inner.copy()
            inner.update(authenticated)
            outer = hmac_outer.copy()
            outer.update(inner.digest())
            expected = outer.digest()
            if not hmac.compare_digest(
                row_view[offset + _BODY_END : offset + CIPHERTEXT_SIZE], expected
            ):
                raise ValueError("ciphertext failed authentication")
            nonce = authenticated[:NONCE_SIZE]
            for counter in _KEYSTREAM_COUNTERS:
                b = blake_proto.copy()
                b.update(nonce)
                b.update(counter)
                digests.append(b.digest())
        keystream = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(
            n, PLAINTEXT_BLOCK_SIZE
        )
        plaintexts = (rows[:, NONCE_SIZE:_BODY_END] ^ keystream).tobytes()
        return [
            self._deserialize(
                plaintexts[
                    index * PLAINTEXT_BLOCK_SIZE : (index + 1) * PLAINTEXT_BLOCK_SIZE
                ]
            )
            for index in range(n)
        ]

    def reencrypt_arena(
        self, arena: "CiphertextArena", new_cipher: "RecordCipher"
    ) -> int:
        """Re-encrypt every arena row *in place* under ``new_cipher``'s key.

        Rotation works at the padded-plaintext-block level: each row's tag is
        verified under this (old) key, the 256-byte padded block is recovered
        by XORing off the old keystream, and that exact block is re-encrypted
        under ``new_cipher`` with a fresh nonce -- no serialize round trip,
        so decrypted payloads are byte-identical before and after.  Rows,
        handles and row indices are untouched, which keeps every outstanding
        :class:`ArenaRecord` / :class:`ArenaSegmentHandle` valid.  Returns
        the number of rows re-encrypted.
        """
        n = len(arena)
        if n == 0:
            return 0
        rows = arena._data[:n]
        row_view = memoryview(rows).cast("B")

        # Verify + strip the old keystream (batched like decrypt_many).
        hmac_inner, hmac_outer = self._hmac_inner, self._hmac_outer
        blake_proto = self._blake_proto
        digests: list[bytes] = []
        for index in range(n):
            offset = index * CIPHERTEXT_SIZE
            authenticated = row_view[offset : offset + _BODY_END]
            inner = hmac_inner.copy()
            inner.update(authenticated)
            outer = hmac_outer.copy()
            outer.update(inner.digest())
            if not hmac.compare_digest(
                row_view[offset + _BODY_END : offset + CIPHERTEXT_SIZE],
                outer.digest(),
            ):
                raise ValueError(
                    "ciphertext failed authentication during re-keying"
                )
            nonce = authenticated[:NONCE_SIZE]
            for counter in _KEYSTREAM_COUNTERS:
                h = blake_proto.copy()
                h.update(nonce)
                h.update(counter)
                digests.append(h.digest())
        old_keystream = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(
            n, PLAINTEXT_BLOCK_SIZE
        )
        plaintext_blocks = rows[:, NONCE_SIZE:_BODY_END] ^ old_keystream

        # Fresh nonces + new keystream + new tags (batched like
        # encrypt_many_into), written straight back into the same rows.
        nonces = os.urandom(NONCE_SIZE * n)
        rows[:, :NONCE_SIZE] = np.frombuffer(nonces, dtype=np.uint8).reshape(
            n, NONCE_SIZE
        )
        new_proto = new_cipher._blake_proto
        digests = []
        for index in range(n):
            nonce = nonces[index * NONCE_SIZE : (index + 1) * NONCE_SIZE]
            for counter in _KEYSTREAM_COUNTERS:
                h = new_proto.copy()
                h.update(nonce)
                h.update(counter)
                digests.append(h.digest())
        new_keystream = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(
            n, PLAINTEXT_BLOCK_SIZE
        )
        np.bitwise_xor(
            plaintext_blocks, new_keystream, out=rows[:, NONCE_SIZE:_BODY_END]
        )

        new_inner, new_outer = new_cipher._hmac_inner, new_cipher._hmac_outer
        tags: list[bytes] = []
        for index in range(n):
            offset = index * CIPHERTEXT_SIZE
            inner = new_inner.copy()
            inner.update(row_view[offset : offset + _BODY_END])
            outer = new_outer.copy()
            outer.update(inner.digest())
            tags.append(outer.digest())
        rows[:, _BODY_END:] = np.frombuffer(b"".join(tags), dtype=np.uint8).reshape(
            n, 32
        )
        return n

    def reencrypt_record(
        self, ciphertext: bytes, new_cipher: "RecordCipher"
    ) -> bytes:
        """Re-encrypt one object-backed ciphertext under ``new_cipher``'s key.

        Same block-level contract as :meth:`reencrypt_arena`: the padded
        plaintext block is carried over verbatim, so the record decrypts
        byte-identically under the new key.
        """
        nonce = ciphertext[:NONCE_SIZE]
        body = ciphertext[NONCE_SIZE:-32]
        tag = ciphertext[-32:]
        expected = hmac.new(self.key, nonce + body, hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected):
            raise ValueError("ciphertext failed authentication during re-keying")
        plaintext = _xor(body, self._keystream(nonce, len(body)))
        new_nonce = os.urandom(NONCE_SIZE)
        new_body = _xor(plaintext, new_cipher._keystream(new_nonce, len(plaintext)))
        new_tag = hmac.new(
            new_cipher.key, new_nonce + new_body, hashlib.sha256
        ).digest()
        return new_nonce + new_body + new_tag

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        blocks = []
        counter = 0
        while sum(len(b) for b in blocks) < length:
            block = hashlib.blake2b(
                nonce + counter.to_bytes(8, "big"), key=self.key, digest_size=64
            ).digest()
            blocks.append(block)
            counter += 1
        return b"".join(blocks)[:length]

    @staticmethod
    def _record_json(record: Record) -> str | None:
        """Hand-rolled canonical JSON for the common scalar-valued record.

        Byte-for-byte equal to ``json.dumps(payload, sort_keys=True,
        separators=(",", ":"))`` for records whose field values are plain
        ``str`` / exact ``int`` / finite exact ``float`` / ``bool`` / ``None``
        (every workload in the repository) -- the property test in
        ``tests/test_edb_crypto.py`` pins the equality.  Returns ``None`` for
        anything else (numpy scalars, containers, non-string keys, NaN/inf),
        sending the record down the stock ``json.dumps`` path.  Serialization
        was the single largest per-record cost left on the encrypted ingest
        hot loop once hashing was batched.
        """
        if type(record.arrival_time) is not int or type(record.table) is not str:
            return None
        parts = []
        for key in sorted(record.values):
            if type(key) is not str:
                return None
            value = record.values[key]
            if value is True:
                scalar = "true"
            elif value is False:
                scalar = "false"
            elif type(value) is int:
                scalar = repr(value)
            elif type(value) is float:
                # json.dumps renders finite floats with float.__repr__ and
                # non-finite ones as NaN/Infinity; only the former is common.
                if value != value or math.isinf(value):
                    return None
                scalar = repr(value)
            elif type(value) is str:
                scalar = _escape_json_string(value)
            elif value is None:
                scalar = "null"
            else:
                return None
            parts.append(f"{_escape_json_string(key)}:{scalar}")
        return (
            f'{{"arrival_time":{record.arrival_time!r},'
            f'"is_dummy":{"true" if record.is_dummy else "false"},'
            f'"table":{_escape_json_string(record.table)},'
            f'"values":{{{",".join(parts)}}}}}'
        )

    @staticmethod
    def _serialize(record: Record) -> bytes:
        encoded = RecordCipher._record_json(record)
        if encoded is None:
            payload: dict[str, Any] = {
                "values": dict(record.values),
                "arrival_time": record.arrival_time,
                "is_dummy": record.is_dummy,
                "table": record.table,
            }
            encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        raw = encoded.encode()
        if len(raw) > PLAINTEXT_BLOCK_SIZE - 4:
            raise ValueError(
                f"record serialization of {len(raw)} bytes exceeds the "
                f"{PLAINTEXT_BLOCK_SIZE - 4}-byte plaintext block"
            )
        length_prefix = len(raw).to_bytes(4, "big")
        padding = b"\x00" * (PLAINTEXT_BLOCK_SIZE - 4 - len(raw))
        return length_prefix + raw + padding

    @staticmethod
    def _deserialize(plaintext: bytes) -> Record:
        length = int.from_bytes(plaintext[:4], "big")
        payload = json.loads(plaintext[4 : 4 + length].decode())
        return Record(
            values=payload["values"],
            arrival_time=payload["arrival_time"],
            is_dummy=payload["is_dummy"],
            table=payload["table"],
        )
