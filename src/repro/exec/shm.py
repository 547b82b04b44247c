"""Bidirectional shared-memory transport for persistent workers.

The persistent executor's steady-state traffic has two directions:

* **reply** (worker → coordinator): the arrays a worker sends back from
  each ``step`` command — the stacked outputs and the shard-normalized
  weights — plus migrant rows at the resample barrier and checkpoint
  ``pull`` payloads.
* **cmd** (coordinator → worker): per-step observation inputs, the
  migrant rows a shard imports at the resample barrier, and the
  checkpointed shard payloads replayed after a worker revival.

Pickling ships those arrays through the pipe byte by byte; this module
moves the array *payloads* through one
:class:`multiprocessing.shared_memory.SharedMemory` ring per direction
per worker instead, so the pipe carries only small descriptors — a
steady-state no-resample step moves **zero pickled payload bytes**.

Protocol fit: the coordinator keeps **at most one command in flight per
worker** and consumes every reply before the next command to that
worker is sent, so writer and reader can never race on a region. Each
ring therefore degenerates to a bump allocator that rewinds for every
message — :meth:`ShmRing.pack` starts at offset 0, lays arrays head to
tail, and anything that does not fit simply stays inline in the pickle
(the fallback path, also taken when shared memory is unavailable on the
platform or disabled with ``shm_bytes=0``). Correctness never depends
on a ring; only latency does.

On the unpack side there are two modes. ``mode="copy"`` (the default)
materializes fresh private arrays — required whenever the reference
escapes the current message window (checkpoint pulls, export packages
that enter the oplog, worker-resident command payloads). ``mode="view"``
returns **read-only NumPy views** straight into the ring — zero-copy,
used by the coordinator for per-step replies whose arrays are consumed
(concatenated or copied) within the step; :func:`materialize` is the
escape hatch that deep-copies any such view out of a pytree before a
reference outlives the message window.

Every fallback and every payload byte is accounted to the process
metrics registry (see :class:`TransportStats`): capacity
misconfiguration is visible as ``repro_shm_fallback_total`` instead of
silently degrading to pickles.

The coordinator owns each ring's lifetime: it creates one pair per
worker slot, hands the names to the worker, and unlinks them when the
worker is replaced or the executor closes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.obs.registry import count_event

try:  # pragma: no cover - exercised by absence only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "ShmRing",
    "ShmBlock",
    "ShmLeaf",
    "TransportStats",
    "register_shm_leaf",
    "shm_available",
    "materialize",
    "measure_payload",
]

#: minimum array payload worth redirecting through the ring; tiny arrays
#: cost more in descriptor + copy bookkeeping than they save.
MIN_BYTES = 128


def shm_available() -> bool:
    """True when the platform offers POSIX/Windows shared memory."""
    return _shared_memory is not None


#: opaque types the transport knows how to open up:
#: type -> (decompose(obj) -> walkable pytree, rebuild(pytree) -> obj).
#: Layers that own array-carrying payload objects (the vectorized
#: package's ChainOuts, the exec layer's Shard / ShardBarrier)
#: register here so their arrays ride the ring too; registration happens
#: at import time on both sides of the pipe, since workers import the
#: same modules to unpickle the stepper.
_LEAF_CODECS: dict = {}


def register_shm_leaf(cls: type, decompose: Any, rebuild: Any) -> None:
    """Teach the transport to park an opaque payload type's arrays."""
    _LEAF_CODECS[cls] = (decompose, rebuild)


class ShmLeaf:
    """A registered opaque object, decomposed for transport."""

    __slots__ = ("cls", "parts")

    def __init__(self, cls: type, parts: Any):
        self.cls = cls
        self.parts = parts

    def __repr__(self) -> str:
        return f"ShmLeaf({self.cls.__name__})"


class ShmBlock:
    """Descriptor of one array parked in a ring (travels in the pickle)."""

    __slots__ = ("offset", "shape", "dtype")

    def __init__(self, offset: int, shape: Tuple[int, ...], dtype: str):
        self.offset = offset
        self.shape = shape
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"ShmBlock(offset={self.offset}, shape={self.shape}, dtype={self.dtype})"


class TransportStats:
    """Parent-side byte accounting for one packed/unpacked message.

    ``pickled_bytes`` are ndarray payload bytes that crossed (or will
    cross) the pipe inside the pickle — small arrays under
    :data:`MIN_BYTES`, ring-overflow fallbacks, and everything when the
    ring is disabled. ``shm_bytes`` are bytes that rode a ring instead.
    ``fallbacks`` counts arrays that *should* have parked (big enough,
    numeric) but overflowed the ring — the signal that ``shm_bytes`` is
    undersized for the workload.
    """

    __slots__ = ("pickled_bytes", "shm_bytes", "fallbacks")

    def __init__(self):
        self.pickled_bytes = 0
        self.shm_bytes = 0
        self.fallbacks = 0

    def flush(self, direction: str) -> None:
        """Fold this message's accounting into the default registry.

        Counters: ``repro_shm_fallback_total{direction=cmd|reply}`` and
        ``repro_transport_{pickled,shm}_bytes_total{direction=...}``.
        No-op counters are skipped, so a clean zero-pickle steady-state
        step touches the registry only for its ring bytes.
        """
        if self.fallbacks:
            count_event(
                "repro_shm_fallback_total",
                {"direction": direction},
                self.fallbacks,
            )
        if self.pickled_bytes:
            count_event(
                "repro_transport_pickled_bytes_total",
                {"direction": direction},
                self.pickled_bytes,
            )
        if self.shm_bytes:
            count_event(
                "repro_transport_shm_bytes_total",
                {"direction": direction},
                self.shm_bytes,
            )

    def __repr__(self) -> str:
        return (
            f"TransportStats(pickled={self.pickled_bytes}, "
            f"shm={self.shm_bytes}, fallbacks={self.fallbacks})"
        )


def measure_payload(obj: Any, stats: TransportStats) -> None:
    """Account the ndarray payload bytes of a fully pickled message.

    Used on the pickle path (ring disabled/unavailable) so the
    before/after byte comparison in the benchmarks does not need the
    ring to exist. Registered leaf types are decomposed for the walk,
    mirroring what :meth:`ShmRing.pack` would have seen.
    """
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject:
            stats.pickled_bytes += int(obj.nbytes)
        return
    if isinstance(obj, (tuple, list)):
        for item in obj:
            measure_payload(item, stats)
        return
    if isinstance(obj, dict):
        for item in obj.values():
            measure_payload(item, stats)
        return
    codec = _LEAF_CODECS.get(type(obj))
    if codec is not None:
        measure_payload(codec[0](obj), stats)


def materialize(obj: Any) -> Any:
    """Deep-copy any ring-backed (read-only) array views in a pytree.

    The escape hatch of view-mode unpacking: a view into a ring is only
    valid until the next message to that worker overwrites the region,
    so any reference that outlives the message window must be copied
    first. Writable arrays — anything that is not a ring view — pass
    through untouched, as do non-array leaves.
    """
    if isinstance(obj, np.ndarray):
        return np.array(obj) if not obj.flags.writeable else obj
    if isinstance(obj, tuple):
        return tuple(materialize(o) for o in obj)
    if isinstance(obj, list):
        return [materialize(o) for o in obj]
    if isinstance(obj, dict):
        return {k: materialize(v) for k, v in obj.items()}
    codec = _LEAF_CODECS.get(type(obj))
    if codec is not None:
        return codec[1](materialize(codec[0](obj)))
    return obj


class ShmRing:
    """One shared-memory ring: created by the coordinator, attached by a worker.

    ``pack`` (sender side) rewrites a message, parking eligible ndarray
    leaves in the ring and replacing them with :class:`ShmBlock`
    descriptors; ``unpack`` (receiver side) materializes the descriptors
    as fresh copies (``mode="copy"``) or read-only zero-copy views
    (``mode="view"``). Both walk tuples/lists/dicts structurally,
    decompose registered leaf types, and leave every other object
    alone, so messages that contain no arrays (plain acks, scalar
    observation inputs) pass through untouched.

    The same class serves both directions: the coordinator packs into a
    worker's *command* ring and unpacks from its *reply* ring; the
    worker does the reverse.
    """

    def __init__(self, shm: Any, owner: bool):
        self._shm = shm
        self._owner = owner
        #: fault-injection hook (:mod:`repro.faults`): when set, every
        #: subsequent park falls back inline as if the ring were full —
        #: the deterministic ring-exhaustion fault. Plain attribute so
        #: the disabled cost is one load on the park path.
        self.fault_exhausted = False

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, nbytes: int) -> Optional["ShmRing"]:
        """Coordinator side: allocate a ring, or None when unavailable."""
        if _shared_memory is None or nbytes <= 0:
            return None
        try:
            shm = _shared_memory.SharedMemory(create=True, size=int(nbytes))
        except OSError:
            return None
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: Optional[str]) -> Optional["ShmRing"]:
        """Worker side: attach to the coordinator's ring by name."""
        if _shared_memory is None or name is None:
            return None
        try:
            shm = _shared_memory.SharedMemory(name=name)
        except (OSError, FileNotFoundError):
            return None
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return int(self._shm.size)

    def close(self) -> None:
        """Detach; the owner also unlinks the segment."""
        try:
            self._shm.close()
        except Exception:
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:
                pass

    # -- transport ------------------------------------------------------
    def pack(self, obj: Any, stats: Optional[TransportStats] = None) -> Any:
        """Park array leaves of a message in the ring (one message at a time).

        The cursor rewinds to 0 for every call — valid because the
        executor protocol guarantees the previous message through this
        ring has been fully consumed before this one is produced.
        Arrays that do not fit in the remaining space stay inline (and
        are accounted as fallbacks in ``stats``).
        """
        cursor = [0]
        return self._pack(obj, cursor, stats)

    def _pack(self, obj: Any, cursor: List[int], stats) -> Any:
        if isinstance(obj, np.ndarray):
            return self._park(obj, cursor, stats)
        if isinstance(obj, tuple):
            return tuple(self._pack(o, cursor, stats) for o in obj)
        if isinstance(obj, list):
            return [self._pack(o, cursor, stats) for o in obj]
        if isinstance(obj, dict):
            return {k: self._pack(v, cursor, stats) for k, v in obj.items()}
        codec = _LEAF_CODECS.get(type(obj))
        if codec is not None:
            return ShmLeaf(type(obj), self._pack(codec[0](obj), cursor, stats))
        return obj

    def _park(self, array: np.ndarray, cursor: List[int], stats) -> Any:
        if array.dtype.hasobject or array.nbytes < MIN_BYTES:
            if stats is not None and not array.dtype.hasobject:
                stats.pickled_bytes += int(array.nbytes)
            return array
        if self.fault_exhausted:
            # Injected exhaustion: behave exactly like a full ring.
            if stats is not None:
                stats.pickled_bytes += int(array.nbytes)
                stats.fallbacks += 1
            return array
        data = np.ascontiguousarray(array)
        start = cursor[0]
        # 8-byte alignment keeps frombuffer happy for every numeric dtype.
        start = (start + 7) & ~7
        end = start + data.nbytes
        if end > self.nbytes:
            # ring full: ship inline — the fallback the counters exist for
            if stats is not None:
                stats.pickled_bytes += int(array.nbytes)
                stats.fallbacks += 1
            return array
        view = np.frombuffer(
            self._shm.buf, dtype=data.dtype, count=data.size, offset=start
        )
        view[:] = data.reshape(-1)
        cursor[0] = end
        if stats is not None:
            stats.shm_bytes += int(data.nbytes)
        return ShmBlock(start, data.shape, data.dtype.str)

    def unpack(
        self,
        obj: Any,
        mode: str = "copy",
        stats: Optional[TransportStats] = None,
    ) -> Any:
        """Resolve :class:`ShmBlock` descriptors in a received message.

        ``mode="copy"`` materializes fresh private arrays; ``mode="view"``
        returns read-only views into the ring — zero-copy, valid only
        until the next message through this ring, so callers must
        :func:`materialize` anything that escapes the message window.

        Inline ndarrays big enough to have parked are counted as
        fallbacks in ``stats`` — this is how the coordinator observes
        overflow that happened on the *worker* side of a reply ring.
        """
        if isinstance(obj, ShmBlock):
            count = int(np.prod(obj.shape, dtype=np.int64)) if obj.shape else 1
            view = np.frombuffer(
                self._shm.buf, dtype=np.dtype(obj.dtype), count=count,
                offset=obj.offset,
            )
            if stats is not None:
                stats.shm_bytes += int(view.nbytes)
            if mode == "view":
                view.flags.writeable = False
                return view.reshape(obj.shape)
            return np.array(view).reshape(obj.shape)
        if isinstance(obj, np.ndarray):
            if stats is not None and not obj.dtype.hasobject:
                stats.pickled_bytes += int(obj.nbytes)
                if obj.nbytes >= MIN_BYTES:
                    stats.fallbacks += 1
            return obj
        if isinstance(obj, tuple):
            return tuple(self.unpack(o, mode, stats) for o in obj)
        if isinstance(obj, list):
            return [self.unpack(o, mode, stats) for o in obj]
        if isinstance(obj, dict):
            return {k: self.unpack(v, mode, stats) for k, v in obj.items()}
        if isinstance(obj, ShmLeaf):
            return _LEAF_CODECS[obj.cls][1](self.unpack(obj.parts, mode, stats))
        return obj

    def __repr__(self) -> str:
        role = "owner" if self._owner else "worker"
        return f"ShmRing(name={self.name!r}, nbytes={self.nbytes}, {role})"
