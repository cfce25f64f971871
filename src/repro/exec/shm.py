"""The shared-memory store of the serving tier's replica fleet.

:class:`SharedCacheStore` is a named, versioned, checksummed
:mod:`multiprocessing.shared_memory` segment publishing read-only cache
payloads (the process-wide ρ* LP memo and the planner's plan cache)
fleet-wide.  The serving tier's parent process publishes its warm caches;
every replica adopts them at startup instead of warming a private copy
(ROADMAP item 2's mmap-store follow-on).

The segment holds one :func:`repro.caching.seal` envelope (magic | length |
SHA-256 | pickle tagged kind + version), the same one the on-disk
persistence uses.  Invalidation is by construction: the checksum rejects
torn or foreign segments.  Adoption is *best-effort everywhere* — any
mismatch (missing segment, wrong magic, kind or version, bad checksum,
unpicklable payload) adopts nothing rather than failing the process.

``resource_tracker`` note: attaching a segment from a child process
registers it with the child's resource tracker, which would unlink it when
the child exits (bpo-39959).  The attach-side handle is therefore
unregistered immediately — the creating parent owns cleanup.
"""

from __future__ import annotations

import atexit
import multiprocessing
import sys
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Optional

from repro.caching import seal, unseal
from repro.faults import SITE_SHM_ATTACH, maybe_raise
from repro.planner.signature import sealed_version

# Envelope tag of the store.
SHARED_CACHE_KIND = "repro-shared-caches"
SHARED_CACHE_VERSION = sealed_version(1)


def _private_tracker() -> bool:
    """Whether this process's resource tracker is private to it.

    Fork children inherit the parent's tracker: registrations are
    idempotent set-adds and exactly one unregister (the creator's
    ``unlink``) must happen, so attach must *not* unregister — doing so
    makes the later unlink a double-unregister the tracker logs noisily.
    Spawn children start their own tracker, which would unlink shared
    segments when the child exits (bpo-39959) unless the attach-side
    handle is unregistered.
    """
    try:
        method = multiprocessing.get_start_method(allow_none=True)
    except Exception:  # pragma: no cover - context API drift
        return True
    if method is None:
        method = "fork" if sys.platform.startswith("linux") else "spawn"
    return method != "fork"


def ensure_tracker_running() -> None:
    """Start the resource tracker *before* forking attach-side children.

    Fork children inherit a running tracker and share it; a child that
    attaches a segment then performs an idempotent re-registration instead
    of spinning up a private tracker that would warn about "leaked"
    segments (already unlinked by the parent) when the child exits.
    """
    try:
        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker API drift
        pass


# Live segment-owning stores, reaped at interpreter exit so a caller that
# forgets close() (or dies in a test) cannot leak kernel-lifetime shared
# memory.  A WeakSet: an explicitly closed + collected store simply drops
# out; close() is idempotent so double-reaping the rest is safe.
_LIVE_STORES: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _reap_segments() -> None:
    for store in list(_LIVE_STORES):
        try:
            store.close()
        except Exception:  # pragma: no cover - interpreter is going down
            pass


def _publish(sealed: bytes) -> shared_memory.SharedMemory:
    """A new segment (owned by this process) holding one sealed envelope."""
    segment = shared_memory.SharedMemory(create=True, size=len(sealed))
    segment.buf[:len(sealed)] = sealed
    return segment


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup duty."""
    maybe_raise(SITE_SHM_ATTACH, OSError)
    segment = shared_memory.SharedMemory(name=name)
    if _private_tracker():
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
    return segment


class SharedCacheStore:
    """A published read-only cache snapshot shared across a replica fleet.

    The payload maps a section name (``"rho_star"``, ``"plans"``) to the
    ``{"kind", "version", "entries"}`` form of
    :meth:`repro.caching.LruCache.dump_entries` — adopters validate both
    layers, so a version bump on either the store or an individual cache
    invalidates cleanly.
    """

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self._name = segment.name
        _LIVE_STORES.add(self)

    @property
    def name(self) -> str:
        return self._name

    @classmethod
    def publish(cls, sections: Dict[str, Any]) -> "SharedCacheStore":
        """Create a sealed segment holding ``sections`` (parent side)."""
        return cls(_publish(
            seal(sections, kind=SHARED_CACHE_KIND, version=SHARED_CACHE_VERSION)
        ))

    @staticmethod
    def adopt(name: Optional[str]) -> Dict[str, Any]:
        """Read and validate a published store; ``{}`` on any mismatch."""
        if not name:
            return {}
        try:
            segment = _attach(name)
        except Exception:
            return {}
        try:
            sections = unseal(
                segment.buf, kind=SHARED_CACHE_KIND, version=SHARED_CACHE_VERSION
            )
            return sections if isinstance(sections, dict) else {}
        except Exception:
            return {}
        finally:
            segment.close()

    def close(self) -> None:
        """Close and unlink the segment (publisher side; idempotent)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
