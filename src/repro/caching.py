"""A small thread-safe LRU used by the process-wide memo caches.

Both the planner's :class:`~repro.planner.cache.PlanCache` and the
process-wide ``ρ*`` memo of :mod:`repro.hypergraph.covers` need the same
thing: a bounded mapping with least-recently-used eviction, hit/miss
counters, and safety under the worker pools introduced by
:mod:`repro.exec` and :mod:`repro.serve` (planning and execution now run
concurrently against the shared caches).  This module is deliberately
dependency-free so that both layers can import it without cycles.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator, List, Tuple

_MISSING = object()


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

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

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

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """``get`` without touching LRU order or the counters."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> List[Tuple[Hashable, Any]]:
        """Insert (or refresh) an entry; returns the evicted ``(key, value)``
        pairs so callers keeping secondary indexes can clean them up."""
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
    # persistence
    # ------------------------------------------------------------------ #
    def dump_entries(self, *, kind: str, version: int) -> dict:
        """The in-memory form of :meth:`save`'s envelope.

        Used by the shared-memory cache store (:mod:`repro.exec.shm`) to
        publish a snapshot across a replica fleet without touching disk;
        the same kind/version tags gate adoption.
        """
        with self._lock:
            entries = list(self._entries.items())
        return {"kind": kind, "version": version, "entries": entries}

    def adopt_entries(self, payload, *, kind: str, version: int) -> int:
        """Best-effort merge of a :meth:`dump_entries` envelope.

        Mirrors :meth:`load`'s contract: a payload of the wrong shape,
        kind or version adopts nothing; returns the number of entries
        merged.
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

    def save(self, path, *, kind: str, version: int) -> int:
        """Pickle the entries to ``path`` tagged with a kind + format version.

        Returns the number of entries written.  The tag is checked by
        :meth:`load`, so bumping ``version`` invalidates every persisted
        file of that kind at once.  The write is **atomic** (temp file +
        ``os.replace``, so a crash mid-save leaves the previous file
        intact) and **checksummed**: the entries travel as one pickled
        blob whose SHA-256 is stored alongside, so :meth:`load` rejects a
        torn or bit-rotted file instead of adopting garbage.
        """
        with self._lock:
            entries = list(self._entries.items())
        blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "kind": kind,
            "version": version,
            "entries_blob": blob,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        path = os.fspath(path)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=os.path.basename(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return len(entries)

    def load(self, path, *, kind: str, version: int) -> int:
        """Merge entries persisted by :meth:`save` into this cache.

        Entries with a mismatched kind or format version are ignored (the
        file is simply stale); returns the number of entries merged.
        Existing entries for the same keys are refreshed.
        """
        # Best-effort by contract: a missing, truncated, corrupt or
        # stale-format file (including unpicklable entries whose classes
        # moved between releases — the version tag can only be checked
        # *after* pickle has instantiated them) must never crash the
        # loading process; it is simply ignored.
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if not isinstance(payload, dict):
                return 0
            if payload.get("kind") != kind or payload.get("version") != version:
                return 0
            blob = payload.get("entries_blob")
            # Verify the checksum before unpickling the entries; a payload
            # with no blob (or no matching digest) adopts nothing.
            if blob is None or hashlib.sha256(blob).hexdigest() != payload.get("sha256"):
                return 0
            count = 0
            for key, value in pickle.loads(blob):
                self.put(key, value)
                count += 1
            return count
        except Exception:
            return 0
