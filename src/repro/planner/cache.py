"""The plan cache: repeated (or isomorphic) queries skip planning.

Plans are stored under the structural signature of
:func:`repro.planner.signature.query_signature` with the chosen ordering
translated into canonical variable indices, so a cached plan transfers to
any query with the same signature — the same query re-issued, the same
query over drifted data (factor sizes only enter the signature through log
buckets), or an isomorphic rename.  The cache is a bounded LRU (backed by
the thread-safe :class:`repro.caching.LruCache`, shared with the
process-wide ``ρ*`` memo) keyed also by the caller's forced backend so
overridden plans do not shadow the planner's free choice.

Every plan has one key and one :class:`PlanHealth` record.  Three
capabilities beyond the plain LRU:

* **drift-tolerant lookup** — when the exact signature misses, the cache
  consults a secondary *shape* index (the signature with the per-factor
  size buckets zeroed out).  A stored plan whose buckets differ from the
  query's by at most one step transfers (data drifted mildly, the plan is
  still good); past that tolerance nothing transfers — the ROADMAP's
  "invalidate when factor-size buckets drift more than one step" rule.
  The out-of-tolerance entry itself is left in place: it is still exactly
  keyed for its own signature (which may have live traffic — alternating
  same-shape workloads must not thrash each other out), and retires by
  ordinary LRU aging or a signature-version bump.
* **plan health** — :meth:`PlanCache.record_feedback` folds the observed
  step-size errors of each run of a cached plan into its record; a plan
  whose error passes the replan threshold is dropped, so the next lookup
  of its key misses and the planner searches again.
* **persistence** — :meth:`PlanCache.save` / :meth:`PlanCache.load` move
  the entries to/from disk (tagged with
  :data:`repro.planner.signature.SIGNATURE_VERSION`, so a signature-format
  change silently discards stale files), letting repeated traffic hit warm
  plans across processes.  :func:`save_planner_caches` /
  :func:`load_planner_caches` bundle the plan cache with the ``ρ*`` memo
  of :mod:`repro.hypergraph.covers`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.caching import LruCache
from repro.planner.signature import SIGNATURE_VERSION, bucket_drift, signature_shape

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
    buckets: Tuple[int, ...] = field(default=())
    # Estimated result sizes per elimination step (NaN for product steps),
    # in elimination order, optionally followed by the output-phase
    # estimate.  Compared against observed sizes by record_feedback.
    step_sizes: Tuple[float, ...] = field(default=())


@dataclass
class PlanHealth:
    """Accumulated observed-vs-estimated error of one cached plan."""

    ewma_error: float = 0.0   # EWMA of the max |log(observed/estimated)| per run
    observations: int = 0
    # Re-plan hysteresis.  ``tolerated`` is the error level at which this
    # key's plan was invalidated, re-searched and came back the same: no
    # search has anything better to offer at or below it, so only a larger
    # error invalidates again.  ``replanned`` is the choice of the plan an
    # invalidation dropped, held until the re-search stores its answer.
    tolerated: float = 0.0
    replanned: Optional[tuple] = None


# A cached plan is invalidated (forcing a fresh search on the next lookup)
# once the EWMA of its observed error exceeds the replan threshold — or the
# tighter drift threshold when the plan only transferred across a data
# drift in the first place (drift-transferred plans demote first).
REPLAN_ERROR_THRESHOLD = 1.5
DRIFT_REPLAN_ERROR_THRESHOLD = 0.75
_HEALTH_ALPHA = 0.5


def _choice(plan: CachedPlan) -> tuple:
    """What a re-search decides: the plan's (backend, ordering)."""
    return plan.backend, plan.ordering_indices


def _shape_key(key: tuple) -> Optional[Tuple[tuple, Tuple[int, ...]]]:
    """Split a plan-cache key into its shape key and buckets.

    Keys are ``(signature, mode, backend)``; the shape key zeroes
    the signature's size buckets and keeps the rest.  Returns ``None`` for
    keys that do not carry a signature (defensive).
    """
    signature, *rest = key
    try:
        shape, buckets = signature_shape(signature)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return None
    return (shape, *rest), buckets


class PlanCache:
    """A bounded LRU of :class:`CachedPlan` entries keyed by query signature."""

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = maxsize
        self._entries = LruCache(maxsize=maxsize)
        # shape key -> exact key of the most recently stored entry with that
        # shape.  Pointers may go stale after eviction; resolved lazily.
        self._shapes: Dict[tuple, tuple] = {}
        # plan key -> PlanHealth, written by record_feedback.  Dropped on
        # invalidation; bounded opportunistically (stale keys of evicted
        # entries age out when the map overgrows).
        self._health: Dict[tuple, PlanHealth] = {}
        self.replans = 0
        self._lock = threading.Lock()

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

    def lookup_drifted(self, key: tuple, max_drift: int = 1) -> Optional[CachedPlan]:
        """Shape-indexed fallback for an exact miss (see the module docstring).

        Does not touch the hit/miss counters — the caller already recorded
        the exact-lookup miss.  Unlike an exact signature hit, a drifted
        transfer is *not* certified by a canonical labelling (the bucket
        change can perturb colour refinement), so the caller must validate
        the transferred ordering before trusting it — and re-store the
        validated plan under the new exact key itself.
        """
        split = _shape_key(key)
        if split is None:
            return None
        shape, buckets = split
        with self._lock:
            stored_key = self._shapes.get(shape)
        if stored_key is None or stored_key == key:
            return None
        entry = self._entries.peek(stored_key)
        if entry is None:  # stale pointer (evicted entry)
            with self._lock:
                if self._shapes.get(shape) == stored_key:
                    del self._shapes[shape]
            return None
        drift = bucket_drift(entry.buckets, buckets)
        if drift is None or drift > max_drift:
            # The data drifted past the tolerance: the stored plan must not
            # transfer to this query.  The entry itself stays — it is still
            # exactly keyed for its own signature, which may have live
            # traffic of its own (alternating same-shape workloads would
            # otherwise thrash each other out of the cache); if that
            # traffic never returns, ordinary LRU aging retires it.
            return None
        return entry

    def store(self, key: tuple, plan: CachedPlan) -> None:
        """Insert (or refresh) a plan, evicting the least recently used."""
        split = _shape_key(key)
        if split is not None and not plan.buckets:
            plan = replace(plan, buckets=split[1])
        evicted = self._entries.put(key, plan)
        with self._lock:
            self._settle_replan(key, plan)
            if split is not None:
                self._shapes[split[0]] = key
            for evicted_key, _ in evicted:
                evicted_split = _shape_key(evicted_key)
                if evicted_split is not None and self._shapes.get(evicted_split[0]) == evicted_key:
                    del self._shapes[evicted_split[0]]

    # ------------------------------------------------------------------ #
    # the feedback loop — observed error accumulation and invalidation
    # ------------------------------------------------------------------ #
    def health(self, key: tuple) -> Optional[PlanHealth]:
        """The accumulated error state of the plan stored under ``key``."""
        with self._lock:
            return self._health.get(key)

    def record_feedback(self, key: tuple, errors, *, drifted: bool = False) -> bool:
        """Fold one run's observed step errors into the plan's health.

        ``key`` is the exact key of a cached plan (:attr:`Plan.cache_key`);
        ``errors`` the signed per-step log errors of
        :func:`repro.planner.cost.observed_step_errors`.  The run's *worst*
        absolute error updates an EWMA; once the EWMA exceeds
        :data:`REPLAN_ERROR_THRESHOLD` (:data:`DRIFT_REPLAN_ERROR_THRESHOLD`
        for plans that only transferred across a data drift) the entry is
        invalidated — the next lookup misses and the planner searches
        again.  Returns ``True`` when the plan was invalidated.

        A plan that such a re-search already returned unchanged is not
        invalidated again at or below the error that sent it there
        (:attr:`PlanHealth.tolerated`): the same error would buy the same
        plan, for the price of a search on every few lookups.  An error
        that grows past that level still re-plans.
        """
        if not errors:
            return False
        signal = max(abs(e) for e in errors)
        threshold = DRIFT_REPLAN_ERROR_THRESHOLD if drifted else REPLAN_ERROR_THRESHOLD
        with self._lock:
            if len(self._health) > 4 * self.maxsize:
                self._health.clear()  # stale keys of long-evicted entries
            health = self._health.setdefault(key, PlanHealth())
            if health.observations == 0:
                health.ewma_error = signal
            else:
                health.ewma_error = (
                    (1.0 - _HEALTH_ALPHA) * health.ewma_error + _HEALTH_ALPHA * signal
                )
            health.observations += 1
            replan = health.ewma_error > max(threshold, health.tolerated)
            if replan:
                self.replans += 1
        if replan:
            dropped = self._remove(key)
            with self._lock:
                if dropped is None:
                    self._health.pop(key, None)
                else:
                    self._health[key] = PlanHealth(
                        tolerated=health.ewma_error, replanned=_choice(dropped)
                    )
        return replan

    def _settle_replan(self, key: tuple, plan: CachedPlan) -> None:
        """``plan`` is being stored under ``key``: if it answers a re-search
        that feedback forced, keep the tolerated level when it is the plan
        that was dropped, and forget it when the search chose otherwise.
        Call with the lock held."""
        health = self._health.get(key)
        if health is not None and health.replanned is not None:
            if health.replanned == _choice(plan):
                health.replanned = None
            else:
                del self._health[key]

    def invalidate(self, key: tuple) -> bool:
        """Drop the plan stored under ``key``.

        Returns ``True`` when an entry was actually removed.  The entry's
        shape pointer is cleaned up so a drifted lookup cannot resurrect
        the invalidated plan.
        """
        with self._lock:
            self._health.pop(key, None)
        return self._remove(key) is not None

    def _remove(self, key: tuple) -> Optional[CachedPlan]:
        """Pop and return the plan stored under ``key`` (``None`` if none)."""
        removed = self._entries.pop(key, None)
        split = _shape_key(key)
        if split is not None:
            with self._lock:
                if self._shapes.get(split[0]) == key:
                    del self._shapes[split[0]]
        return removed

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        with self._lock:
            self._shapes.clear()
            self._health.clear()
            self.replans = 0

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
        merged = self._entries.load(path, kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION)
        if merged:
            self._reindex_shapes()
        return merged

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
        merged = self._entries.adopt_entries(
            payload, kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION
        )
        if merged:
            self._reindex_shapes()
        return merged

    def _reindex_shapes(self) -> None:
        with self._lock:
            for key, _ in self._entries.items():
                split = _shape_key(key)
                if split is not None:
                    self._shapes[split[0]] = key


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
