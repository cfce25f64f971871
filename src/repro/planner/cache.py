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

Warm caches move between processes in one format, the
:func:`warm_sections` bundle: the plan cache (tagged with
:data:`repro.planner.signature.SIGNATURE_VERSION`, so a signature-format
change discards stale plans) and the ``ρ*`` memo of
:mod:`repro.hypergraph.covers`, each a section adopted only under its own
kind/version tags.  A replica fleet's parent pickles it into every
replica's arguments; :func:`save_planner_caches` seals it to one file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.caching import LruCache, seal, unseal, write_atomic
from repro.planner.signature import SIGNATURE_VERSION

_PLAN_CACHE_KIND = "repro-plan-cache"
# save_planner_caches' one file: a sealed warm_sections bundle (each
# section carries its own version, so the envelope's stays 1).
_WARM_CACHES_FILE = "planner_caches.pkl"
_WARM_CACHES_TAGS = {"kind": "repro-planner-caches", "version": 1}


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


DEFAULT_PLAN_CACHE = PlanCache()
"""The process-wide cache used when callers do not supply their own."""


def warm_sections(plan_cache: Optional[PlanCache]) -> Dict[str, dict]:
    """The warm planner caches as kind/version-tagged sections: the ``ρ*``
    memo and, when given, ``plan_cache``."""
    from repro.hypergraph import covers

    sections = {"rho_star": covers.dump_rho_star_section()}
    if plan_cache is not None:
        sections["plans"] = plan_cache._entries.dump_entries(
            kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION
        )
    return sections


def adopt_warm_sections(sections: Any, plan_cache: PlanCache) -> Dict[str, int]:
    """Merge a :func:`warm_sections` bundle; returns the entries adopted per section.

    Best-effort: a section of the wrong shape, kind or version — a plan
    section of another :data:`SIGNATURE_VERSION` included — adopts nothing.
    """
    from repro.hypergraph import covers

    sections = sections if isinstance(sections, dict) else {}
    return {
        "plans": plan_cache._entries.adopt_entries(
            sections.get("plans"), kind=_PLAN_CACHE_KIND, version=SIGNATURE_VERSION
        ),
        "rho_star": covers.adopt_rho_star_section(sections.get("rho_star")),
    }


def save_planner_caches(directory, plan_cache: Optional[PlanCache] = None) -> Dict[str, int]:
    """Seal the :func:`warm_sections` bundle of ``plan_cache`` (default: the
    process-wide one) to a file in ``directory``, atomically.

    Returns ``{"plans": n, "rho_star": m}`` entry counts; a later process
    adopts them with :func:`load_planner_caches`.
    """
    sections = warm_sections(plan_cache if plan_cache is not None else DEFAULT_PLAN_CACHE)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, _WARM_CACHES_FILE)
    write_atomic(path, seal(sections, **_WARM_CACHES_TAGS))
    return {name: len(section["entries"]) for name, section in sections.items()}


def load_planner_caches(directory, plan_cache: Optional[PlanCache] = None) -> Dict[str, int]:
    """Adopt what :func:`save_planner_caches` wrote (best-effort: a missing,
    torn, corrupt or foreign file adopts nothing, as does a stale section)."""
    try:
        with open(os.path.join(directory, _WARM_CACHES_FILE), "rb") as handle:
            sections = unseal(handle.read(), **_WARM_CACHES_TAGS)
    except Exception:  # noqa: BLE001 - e.g. a payload class that moved
        sections = None
    return adopt_warm_sections(
        sections, plan_cache if plan_cache is not None else DEFAULT_PLAN_CACHE
    )
