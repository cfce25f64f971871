"""A small thread-safe LRU used by the process-wide memo caches, and the
one sealed envelope everything this package spills is written in.

Both the planner's :class:`~repro.planner.cache.PlanCache` and the
process-wide ``ρ*`` memo of :mod:`repro.hypergraph.covers` need the same
thing: a bounded mapping with least-recently-used eviction, hit/miss
counters, and safety under the worker pools introduced by
:mod:`repro.exec` and :mod:`repro.serve` (planning and execution now run
concurrently against the shared caches).  This module is deliberately
dependency-free so that both layers can import it without cycles.

Everything persisted — the serving tier's
:class:`~repro.serve.snapshot.SnapshotStore` files and the warm planner
caches of :func:`repro.planner.cache.save_planner_caches` — is one
:func:`seal` envelope::

    bytes 0..7    magic  b"REPROSL1"  (envelope layout version)
    bytes 8..15   payload length, little-endian u64
    bytes 16..47  SHA-256 of the pickle
    bytes 48..    pickle of (kind, version, payload)

:func:`unseal` hands the payload back only when all of it checks out: the
magic pins the layout, the checksum rejects torn or bit-rotted bytes, and
the ``kind``/``version`` tags reject a foreign or stale writer — so bumping
a store's version invalidates everything it ever spilled at once.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator, List, Tuple

_MISSING = object()

_MAGIC = b"REPROSL1"
_HEADER = struct.Struct("<8sQ32s")  # magic | pickle length | SHA-256


def seal(payload: Any, *, kind: str, version: Hashable) -> bytes:
    """``payload`` in the checksummed, ``kind``/``version``-tagged envelope."""
    data = pickle.dumps((kind, version, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, len(data), hashlib.sha256(data).digest()) + data


def unseal(raw, *, kind: str, version: Hashable) -> Any:
    """The payload :func:`seal` wrapped, or ``None`` on any mismatch.

    ``raw`` is the sealed bytes or a longer buffer starting with them.
    Short, foreign, truncated, corrupt and wrong-``kind``/``version`` input
    all give ``None``; only unpickling checksum-clean bytes can raise (a payload
    class that moved between releases), which every caller treats as one
    more way of adopting nothing.
    """
    if len(raw) < _HEADER.size:
        return None
    magic, length, digest = _HEADER.unpack_from(raw)
    data = bytes(raw[_HEADER.size:_HEADER.size + length])
    if magic != _MAGIC or len(data) != length or hashlib.sha256(data).digest() != digest:
        return None
    sealed_kind, sealed_version, payload = pickle.loads(data)
    if sealed_kind != kind or sealed_version != version:
        return None
    return payload


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``.

    A crash mid-write leaves the previous file intact; a failed write
    leaves no temp file behind.
    """
    path = os.fspath(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".",
        prefix=os.path.basename(path) + ".", suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class LruCache:
    """A bounded least-recently-used mapping with hit/miss counters.

    All operations take an internal lock, so a single instance can back a
    process-wide memo that worker threads read and populate concurrently.
    Counters are exact under concurrency (they are only touched while the
    lock is held).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"LruCache needs maxsize >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value for ``key`` (counted + marked most recently used)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> List[Tuple[Hashable, Any]]:
        """Insert (or refresh) an entry; returns the evicted ``(key, value)``
        pairs so callers can account for what was dropped."""
        evicted: List[Tuple[Hashable, Any]] = []
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                evicted.append(self._entries.popitem(last=False))
        return evicted

    def pop(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            return self._entries.pop(key, default)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return iter(list(self._entries.items()))

    # ------------------------------------------------------------------ #
    # sections
    # ------------------------------------------------------------------ #
    def dump_entries(self, *, kind: str, version: int) -> dict:
        """The entries under their kind/version tags, as a plain dict.

        One section of a larger bundle (the warm planner caches, a server
        snapshot); :meth:`adopt_entries` checks the tags on the way back.
        """
        with self._lock:
            entries = list(self._entries.items())
        return {"kind": kind, "version": version, "entries": entries}

    def adopt_entries(self, payload, *, kind: str, version: int) -> int:
        """Best-effort merge of a :meth:`dump_entries` section.

        A payload of the wrong shape, kind or version adopts nothing (it
        is simply stale); returns the number of entries merged.  Existing
        entries for the same keys are refreshed.
        """
        try:
            if (
                not isinstance(payload, dict)
                or payload.get("kind") != kind
                or payload.get("version") != version
            ):
                return 0
            count = 0
            for key, value in list(payload.get("entries", [])):
                self.put(key, value)
                count += 1
            return count
        except Exception:
            return 0
