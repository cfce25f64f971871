"""The top-level facade: one configured object, every way to run a query.

:class:`Engine` bundles the pieces a user would otherwise wire by hand —
a private :class:`~repro.planner.cache.PlanCache`, an in-process
:class:`~repro.serve.server.PlanServer` with warm shared tries, and (on
demand) a replicated :class:`~repro.serve.frontend.Frontend` — behind the
serving contract of :mod:`repro.serve.api`::

    from repro import Engine

    engine = Engine(pool_size=2)
    result = engine.query(q)                   # ServeResult, warm caches
    results = engine.batch([q1, q2, q2])       # coalesced batch
    with engine.serve(replicas=4) as tier:     # the horizontal tier
        results = tier.serve_batch(requests)

Configuration is one frozen :class:`EngineConfig` value (or keyword
overrides); the same config drives the in-process path and the replica
fleet, so moving a workload up the scaling ladder changes no call sites.
A query's steps run on the thread that serves it; concurrency is across
requests — the server's pool in-process, the replicas in a fleet.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Union

from repro.core.query import FAQQuery
from repro.planner import Plan, PlanCache, plan
from repro.serve.api import ServeRequest, ServeResult
from repro.serve.frontend import Frontend
from repro.serve.server import PlanServer


@dataclass(frozen=True)
class EngineConfig:
    """Everything an :class:`Engine` needs to know, as one frozen value.

    Attributes
    ----------
    pool_size:
        In-process concurrency of the engine's :class:`PlanServer`
        (defaults to the CPU count).
    replicas:
        Default fleet size for :meth:`Engine.serve` (CPU count when
        ``None``).
    plan_cache_size:
        Capacity of the engine's private plan cache.
    start_method:
        ``multiprocessing`` start method for replica fleets (platform
        default when ``None``).
    max_pending / tenant_limit / health_interval:
        Admission-control and health-loop settings forwarded to
        :class:`~repro.serve.frontend.Frontend`.
    """

    pool_size: Optional[int] = None
    replicas: Optional[int] = None
    plan_cache_size: int = 1024
    start_method: Optional[str] = None
    max_pending: int = 1024
    tenant_limit: Optional[int] = None
    health_interval: Optional[float] = 1.0


class Engine:
    """A configured FAQ engine: plan, execute, batch and serve.

    Construct with an :class:`EngineConfig`, keyword overrides, or both
    (overrides win)::

        Engine()                               # defaults
        Engine(EngineConfig(pool_size=2))
        Engine(pool_size=2, plan_cache_size=256)

    The engine owns a private plan cache shared by every path through it,
    and lazily starts one in-process :class:`PlanServer` for
    :meth:`query`/:meth:`batch` (``engine.server.submit`` returns a
    future).  :meth:`serve` starts a
    replicated tier; the returned :class:`Frontend` is independently
    context-managed.  The fleet parent pickles its warm read-only caches
    (the engine's plan cache and the process-wide ρ* memo) into the
    arguments of every replica process it starts, so cold replicas begin
    warm; entries created later are still per-replica (re-derived from the
    same deterministic planner).
    """

    def __init__(self, config: Optional[EngineConfig] = None, **overrides: Any) -> None:
        base = config if config is not None else EngineConfig()
        self.config = replace(base, **overrides) if overrides else base
        self.cache = PlanCache(maxsize=self.config.plan_cache_size)
        self._server: Optional[PlanServer] = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # the in-process path
    # ------------------------------------------------------------------ #
    @property
    def server(self) -> PlanServer:
        """The lazily started in-process :class:`PlanServer`."""
        with self._lock:
            if self._closed:
                raise RuntimeError("Engine is closed")
            return self._started()

    def _started(self) -> PlanServer:
        """The server, built on first need (the caller holds the lock)."""
        if self._server is None:
            self._server = PlanServer(
                pool_size=self.config.pool_size,
                cache=self.cache,
            )
        return self._server

    def query(
        self,
        query: Union[FAQQuery, ServeRequest],
        *,
        output_mode: str = "listing",
        **options: Any,
    ) -> ServeResult:
        """Plan and execute one query synchronously, caches warm.

        ``options`` are the planner overrides a :class:`ServeRequest`
        accepts (``strategy=``/``backend=``/``ordering=``/``use_cache=``).
        Repeated calls reuse the engine's plan cache and digest-keyed
        shared tries.
        """
        request = self._as_request(query, output_mode=output_mode, options=options)
        return self.server.execute_request(request)

    def batch(
        self,
        queries: Sequence[Union[FAQQuery, ServeRequest]],
        *,
        coalesce: bool = True,
    ) -> List[ServeResult]:
        """Execute a batch concurrently; results come back in input order.

        Value-equal in-flight requests coalesce onto one execution
        (``coalesce=False`` opts the whole batch out).
        """
        requests = [self._as_request(q) for q in queries]
        return self.server.execute_batch(requests, coalesce=coalesce)

    # ------------------------------------------------------------------ #
    # the replicated path
    # ------------------------------------------------------------------ #
    def serve(self, replicas: Optional[int] = None, **overrides: Any) -> Frontend:
        """Start a replicated serving tier configured like this engine.

        Returns a :class:`~repro.serve.frontend.Frontend` (use it as a
        context manager).  ``overrides`` replace individual frontend
        arguments (``max_pending=``, ``tenant_limit=``, ...).  Every replica
        the tier starts, restarts included, adopts the engine's plan cache
        and the ρ* memo as they stand at this call.
        """
        kwargs = {
            "start_method": self.config.start_method,
            "max_pending": self.config.max_pending,
            "tenant_limit": self.config.tenant_limit,
            "health_interval": self.config.health_interval,
            # Cold replicas adopt the engine's warm plan cache (plus the
            # process-wide rho* memo) from their process arguments.
            "plan_cache": self.cache,
        }
        kwargs.update(overrides)
        return Frontend(
            replicas if replicas is not None else self.config.replicas, **kwargs
        )

    # ------------------------------------------------------------------ #
    # planner access
    # ------------------------------------------------------------------ #
    def plan(self, query: FAQQuery, **options: Any) -> Plan:
        """The plan the engine would run for ``query`` (uses its cache)."""
        return plan(query, cache=self.cache, **options)

    def explain(self, query: FAQQuery, **options: Any) -> str:
        """:meth:`~repro.planner.plan.Plan.explain` for the chosen plan."""
        return self.plan(query, **options).explain()

    # ------------------------------------------------------------------ #
    # observability + lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """The in-process server's counters (:meth:`PlanServer.stats`).

        One key set at every point of the lifecycle: zeros before the first
        query, the final counts after :meth:`close`.
        """
        with self._lock:
            server = self._started()
        return server.stats()

    def close(self) -> None:
        """Shut the in-process server down (idempotent); its counters stay."""
        with self._lock:
            self._closed = True
            server = self._server
        if server is not None:
            server.shutdown(wait=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _as_request(
        self,
        query: Union[FAQQuery, ServeRequest],
        *,
        output_mode: str = "listing",
        options: Optional[dict] = None,
    ) -> ServeRequest:
        if isinstance(query, ServeRequest):
            return query
        return ServeRequest(
            query=query,
            output_mode=output_mode,
            options=tuple((options or {}).items()),
        )
