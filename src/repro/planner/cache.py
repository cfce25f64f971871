"""The plan cache: repeated (or isomorphic) queries skip planning.

Plans are stored under the structural signature of
:func:`repro.planner.signature.query_signature` with the chosen ordering
translated into canonical variable indices, so a cached plan transfers to
any query with the same signature — the same query re-issued, the same
query over data that drifted within one log2 size bucket per factor, or an
isomorphic rename.  An exact signature hit certifies isomorphism, so the
transferred ordering stays in ``EVO`` without re-validation; a query whose
buckets moved has another signature and is planned afresh.  The cache is a
bounded LRU (the thread-safe :class:`repro.caching.LruCache`, shared with
the process-wide ``ρ*`` memo) keyed also by the caller's forced backend so
overridden plans do not shadow the planner's free choice.

Persistence: :meth:`PlanCache.save` / :meth:`PlanCache.load` move the
entries to/from disk (tagged with
:data:`repro.planner.signature.SIGNATURE_VERSION`, so a signature-format
change silently discards stale files), letting repeated traffic hit warm
plans across processes.  :func:`save_planner_caches` /
:func:`load_planner_caches` bundle the plan cache with the ``ρ*`` memo of
:mod:`repro.hypergraph.covers`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.caching import LruCache
from repro.planner.signature import SIGNATURE_VERSION

_PLAN_CACHE_KIND = "repro-plan-cache"
_PLAN_CACHE_FILE = "plan_cache.pkl"
_RHO_STAR_FILE = "rho_star.pkl"


@dataclass(frozen=True)
class CachedPlan:
    """The transferable part of a plan (ordering stored by canonical index)."""

    backend: str
    ordering_indices: Tuple[int, ...]
    estimated_cost: float
    faq_width: float
    # Estimated result sizes per elimination step (NaN for product steps),
    # in elimination order, optionally followed by the output-phase
    # estimate; :func:`repro.planner.cost.observed_step_errors` compares
    # them against a run's observed sizes.
    step_sizes: Tuple[float, ...] = ()


class PlanCache:
    """A bounded LRU of :class:`CachedPlan` entries keyed by query signature."""

    def __init__(self, maxsize: int = 1024) -> None:
        self._entries = LruCache(maxsize=maxsize)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    def lookup(self, key: tuple) -> Optional[CachedPlan]:
        """The cached plan for ``key``, updating LRU order and hit counters."""
        return self._entries.get(key)

    def store(self, key: tuple, plan: CachedPlan) -> None:
        """Insert (or refresh) a plan, evicting the least recently used."""
        self._entries.put(key, plan)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> int:
        """Persist the entries to ``path``; returns the number written."""
        return self._entries.save(path, kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION)

    def load(self, path) -> int:
        """Merge entries persisted by :meth:`save`; returns the number merged.

        Files written under a different :data:`SIGNATURE_VERSION` are
        ignored wholesale — persisted signatures from an older format must
        never match a new-format lookup.
        """
        return self._entries.load(path, kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION)

    def dump_section(self) -> dict:
        """Snapshot the entries as a warm-cache section.

        The serving tier's fleet parent pickles this into the arguments of
        every replica process it starts, so cold replicas start with the
        warm plan cache instead of re-planning.
        """
        return self._entries.dump_entries(
            kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION
        )

    def adopt_section(self, payload) -> int:
        """Merge a :meth:`dump_section` payload (best-effort)."""
        return self._entries.adopt_entries(
            payload, kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION
        )


DEFAULT_PLAN_CACHE = PlanCache()
"""The process-wide cache used when callers do not supply their own."""


def save_planner_caches(directory, plan_cache: Optional[PlanCache] = None) -> Dict[str, int]:
    """Persist the plan cache *and* the process-wide ``ρ*`` memo to a directory.

    Returns ``{"plans": n, "rho_star": m}`` entry counts.  Load them back
    with :func:`load_planner_caches` at process start to serve repeated
    traffic warm across processes (the ROADMAP's "plan cache persistence"
    item).
    """
    from repro.hypergraph.covers import save_rho_star_cache

    os.makedirs(directory, exist_ok=True)
    cache = plan_cache if plan_cache is not None else DEFAULT_PLAN_CACHE
    return {
        "plans": cache.save(os.path.join(directory, _PLAN_CACHE_FILE)),
        "rho_star": save_rho_star_cache(os.path.join(directory, _RHO_STAR_FILE)),
    }


def load_planner_caches(directory, plan_cache: Optional[PlanCache] = None) -> Dict[str, int]:
    """Warm the plan cache and the ``ρ*`` memo from :func:`save_planner_caches`."""
    from repro.hypergraph.covers import load_rho_star_cache

    cache = plan_cache if plan_cache is not None else DEFAULT_PLAN_CACHE
    return {
        "plans": cache.load(os.path.join(directory, _PLAN_CACHE_FILE)),
        "rho_star": load_rho_star_cache(os.path.join(directory, _RHO_STAR_FILE)),
    }
