"""The horizontal serving tier: an asyncio front-end over N replicas.

:class:`Frontend` is the admission point of the replicated tier.  One
``await frontend.submit(request)`` walks the full serving path:

1. **admission control** — a global pending bound, a per-tenant in-flight
   quota and deadline-aware rejection (don't dispatch work whose latency
   budget the current backlog already exceeds).  Shed requests raise
   :class:`~repro.serve.api.Overloaded`, which is retryable by contract.
2. **content-hash coalescing** — value-equal requests in flight *anywhere
   in the tier* (any client, any connection) share one execution; the
   duplicates' results come back flagged ``coalesced=True``.
3. **routing** — rendezvous hashing on the content key sends repeated
   traffic to the replica that already holds its factor tables and warm
   tries, falling back to least-loaded under skew (see
   :class:`~repro.serve.replica.ReplicaSet`).
4. **dispatch** — one retry loop for a single request (a batch of one)
   and a merged group alike.  The blocking pipe round-trip runs in a
   worker thread (``asyncio.to_thread``), so the event loop keeps
   admitting while replicas compute.  Failure handling follows the tier's
   :class:`~repro.serve.api.RetryPolicy`: a crashed (or RPC-deadline
   missing) replica is restarted and the request retried with jittered
   exponential backoff until the attempt budget runs out, after which the
   typed :class:`~repro.serve.api.ReplicaCrashed` /
   :class:`~repro.serve.api.ReplicaTimeout` surfaces.

Factor updates are not a tier operation.  An update is answered where the
kept run of its standing query lives — in-process, by
:meth:`PlanServer.update_factor <repro.serve.server.PlanServer.update_factor>`
over an :class:`~repro.incremental.IncrementalView`.  A tier client
submits the updated content like any other request: content addressing
names it afresh, so no read can see a mix of old and new content and no
replica needs telling that anything changed.

A background health loop sweeps for dead replicas every
``health_interval`` seconds and deep-pings the fleet — a replica that
accepts the ping but misses its RPC deadline is wedged and gets
restarted.  Synchronous callers (tests, benchmarks) use
:meth:`Frontend.serve_batch`, which runs the submissions in a private
event loop.

The tier's parallelism is its processes: each replica runs one request at
a time (``pool_size=1``), and a request's steps run on that one thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.query import FAQQuery
from repro.faults import FaultPlan, current_plan
from repro.planner.cache import warm_sections
from repro.planner.signature import query_sharing_key
from repro.serve.api import (
    Overloaded,
    PlanFailure,
    ReplicaCrashed,
    ReplicaTimeout,
    RetryPolicy,
    ServeRequest,
    ServeResult,
)
from repro.serve.replica import ReplicaSet

_EWMA_ALPHA = 0.2


def _warm_caches(plan_cache) -> Optional[bytes]:
    """The parent's warm read-only caches, pickled once for every replica.

    The :func:`~repro.planner.cache.warm_sections` bundle — the bytes
    :func:`~repro.planner.cache.save_planner_caches` seals to disk.
    ``None`` when it cannot be pickled: replicas then start cold — warm
    caches are an optimisation, never a startup requirement.
    """
    try:
        return pickle.dumps(warm_sections(plan_cache), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - e.g. unpicklable cache entries
        return None


class Frontend:
    """Admit, coalesce and route requests across a replica fleet.

    Sharing is per request (:attr:`ServeRequest.coalesce`); the tier has
    no switch of its own.

    Parameters
    ----------
    replicas:
        Fleet size (defaults to the CPU count).
    start_method:
        ``multiprocessing`` start method (platform default when ``None``).
    plan_cache:
        A warm :class:`~repro.planner.cache.PlanCache` to hand the replicas
        (:meth:`Engine.serve` passes the engine's own).  The parent pickles
        it, with the process-wide ρ* LP memo, once at construction; every
        replica process it starts, restarts included, adopts them, so
        cold replicas begin with the warm caches instead of warming
        private copies.  Each replica reports how many entries it adopted
        as the ``shared_cache_adopted`` health stat.
    max_pending:
        Global bound on dispatched-but-unfinished requests; past it new
        arrivals are shed with ``Overloaded("queue full")``.
    tenant_limit:
        Per-tenant in-flight quota (``None`` disables per-tenant
        metering).
    health_interval:
        Seconds between dead-replica sweeps (``None`` disables the loop;
        crashes are then only repaired on the dispatch retry path).
    retry:
        The tier's :class:`~repro.serve.api.RetryPolicy` — attempt budget,
        backoff shape and per-RPC deadline for every replica round trip.
        Defaults to ``RetryPolicy()`` (3 attempts, 30 s deadline).
    fault_plan:
        A seeded :class:`~repro.faults.FaultPlan` for chaos testing; each
        replica installs a deterministically derived child plan.  ``None``
        injects nothing.
    """

    def __init__(
        self,
        replicas: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        max_pending: int = 1024,
        tenant_limit: Optional[int] = None,
        health_interval: Optional[float] = 1.0,
        plan_cache: Any = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        size = replicas if replicas is not None else (os.cpu_count() or 1)
        self.max_pending = max_pending
        self.tenant_limit = tenant_limit
        self.health_interval = health_interval
        self.retry = retry if retry is not None else RetryPolicy()
        self._set = ReplicaSet(
            size,
            warm_caches=_warm_caches(plan_cache),
            start_method=start_method,
            rpc_timeout=self.retry.rpc_timeout,
            fault_plan=fault_plan,
        )
        # content key -> the primary's asyncio future (per-loop objects, but
        # the map is only touched from whichever loop is currently driving
        # submissions — serve_batch runs one loop at a time).
        self._inflight: Dict[str, "asyncio.Future[ServeResult]"] = {}
        self._tenant_pending: Dict[str, int] = {}
        self._pending = 0
        self._latency_ewma: Optional[float] = None
        self._health_task: Optional[asyncio.Task] = None
        self._health_loop_obj: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._submitted = 0
        self._coalesced = 0
        self._shed_queue = 0
        self._shed_tenant = 0
        self._shed_deadline = 0
        self._replica_crashes = 0
        self._merged_groups = 0
        self._merged_group_requests = 0
        self._retries = 0
        self._timeouts = 0

    # ------------------------------------------------------------------ #
    # the serving path
    # ------------------------------------------------------------------ #
    async def submit(self, request: ServeRequest) -> ServeResult:
        """Admit one request and return its typed result.

        Raises :class:`Overloaded` when shed, :class:`PlanFailure` when the
        query cannot be planned/executed, :class:`ReplicaCrashed` (or its
        :class:`ReplicaTimeout` subclass) when the fleet lost the request
        ``retry.attempts`` times.
        """
        tenants = self._admit([request])
        loop = asyncio.get_running_loop()
        deadline_at = None
        if request.deadline is not None:
            estimated = self._estimated_wait()
            if estimated > request.deadline:
                self._shed_deadline += 1
                self._decay_latency()
                raise Overloaded(
                    f"deadline {request.deadline:.3f}s unmeetable "
                    f"(estimated wait {estimated:.3f}s)",
                    request.tenant,
                )
            deadline_at = loop.time() + request.deadline

        # ------------------------- coalescing -------------------------- #
        key = request.content_key if request.coalesce else None
        if key is not None:
            primary = self._inflight.get(key)
            if primary is not None:
                self._coalesced += 1
                result = await asyncio.shield(primary)
                return result.mark_coalesced()

        future: Optional["asyncio.Future[ServeResult]"] = None
        if key is not None:
            future = loop.create_future()
            self._inflight[key] = future
        self._hold(tenants, +1)
        try:
            [result] = await self._dispatch([request], deadline_at)
            if isinstance(result, BaseException):
                raise result
        except BaseException as exc:
            if future is not None and not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved: waiters re-raise their own copy
            raise
        else:
            if future is not None and not future.done():
                future.set_result(result)
            return result
        finally:
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]
            self._hold(tenants, -1)

    def _admit(self, requests: Sequence[ServeRequest]) -> Dict[str, int]:
        """The admission check of :meth:`submit` and :meth:`submit_many`.

        Refuses malformed input, then sheds the group — whole, each request
        counted — when it would overflow ``max_pending`` or take any of its
        tenants past ``tenant_limit``.  Returns the group's per-tenant
        request counts for :meth:`_hold`.
        """
        if self._closed:
            raise RuntimeError("Frontend is shut down")
        tenants: Dict[str, int] = {}
        for request in requests:
            if not isinstance(request, ServeRequest):
                raise TypeError(
                    f"Frontend takes ServeRequest values, got {type(request).__name__}"
                )
            if request.output_mode != "listing":
                raise PlanFailure(
                    "factorized output cannot cross a process boundary; "
                    "serve factorized queries in-process via PlanServer",
                    cause_type="QueryError",
                )
            tenants[request.tenant] = tenants.get(request.tenant, 0) + 1
        self._ensure_health_task()
        count = len(requests)
        self._submitted += count
        if self._pending + count > self.max_pending:
            self._shed_queue += count
            self._decay_latency()
            raise Overloaded(f"queue full ({self._pending} pending)", requests[0].tenant)
        if self.tenant_limit is not None:
            for tenant, n in tenants.items():
                if self._tenant_pending.get(tenant, 0) + n > self.tenant_limit:
                    self._shed_tenant += count
                    self._decay_latency()
                    raise Overloaded(
                        f"tenant quota exceeded ({self.tenant_limit} in flight)", tenant
                    )
        return tenants

    def _hold(self, tenants: Dict[str, int], sign: int) -> None:
        """Take (``+1``) or release (``-1``) an admitted group's in-flight slots."""
        for tenant, n in tenants.items():
            self._pending += sign * n
            remaining = self._tenant_pending.get(tenant, 0) + sign * n
            if remaining <= 0:
                self._tenant_pending.pop(tenant, None)
            else:
                self._tenant_pending[tenant] = remaining

    async def _recover(self, replica, exc: ReplicaCrashed, attempts: int) -> bool:
        """The tier's one answer to a crashed or timed-out replica call.

        Counts the failure and restarts the replica; then, unless
        ``attempts`` (this failure included) has used up ``retry.attempts``,
        counts the retry and sleeps its backoff.  Returns whether to retry.
        """
        self._replica_crashes += 1
        if isinstance(exc, ReplicaTimeout):
            self._timeouts += 1
        await asyncio.to_thread(replica.restart)
        if attempts >= self.retry.attempts:
            return False
        self._retries += 1
        await asyncio.sleep(self.retry.backoff(attempts))
        return True

    async def _dispatch(
        self, requests: Sequence[ServeRequest], deadline_at: Optional[float]
    ) -> List[Any]:
        """The tier's one retry loop: run a group on one replica.

        Routes on the first request's content key and sends the group in
        one round trip; a crashed or timed-out replica is restarted and the
        group retried per the tier's :class:`RetryPolicy`.  Returns
        per-request outcomes in order (see :meth:`ReplicaHandle.execute`);
        sheds with :class:`Overloaded` once ``deadline_at`` (event-loop
        time) has passed.
        """
        loop = asyncio.get_running_loop()
        attempts = 0
        while True:
            if deadline_at is not None and loop.time() >= deadline_at:
                self._shed_deadline += 1
                self._decay_latency()
                raise Overloaded("deadline expired before dispatch", requests[0].tenant)
            replica = self._set.pick(requests[0].content_key)
            replica.load += len(requests)
            started = loop.time()
            try:
                return await asyncio.to_thread(replica.execute, list(requests))
            except ReplicaCrashed as exc:
                attempts += 1
                if not await self._recover(replica, exc, attempts):
                    raise
            finally:
                replica.load -= len(requests)
                self._observe_latency(loop.time() - started)

    async def submit_many(self, requests: Sequence[ServeRequest]) -> List[Any]:
        """Dispatch a sharing-key group to one replica as a merged batch.

        The group takes the one retry loop :meth:`submit` takes, as one
        ``exec`` message, and the replica merges their step DAGs, so
        structurally shared elimination steps execute once.  Returns
        per-request outcomes in order — each a :class:`ServeResult` or an
        exception object; admission shedding raises :class:`Overloaded`
        for the whole group.  Outcomes the replica coalesced (duplicates
        in the group, completed-result cache hits) count in
        ``stats()["coalesced"]``.
        """
        tenants = self._admit(requests)
        self._hold(tenants, +1)
        self._merged_groups += 1
        self._merged_group_requests += len(requests)
        try:
            outcomes = await self._dispatch(requests, None)
        finally:
            self._hold(tenants, -1)
        self._coalesced += sum(
            1 for o in outcomes if isinstance(o, ServeResult) and o.coalesced
        )
        return outcomes

    # ------------------------------------------------------------------ #
    # load estimation
    # ------------------------------------------------------------------ #
    def _estimated_wait(self) -> float:
        """Expected queueing delay for a new arrival, from the latency EWMA.

        Optimistic before any observation (admit; the tier has no basis to
        shed yet) — thereafter ``ewma × backlog share per replica``.
        """
        if self._latency_ewma is None or self._pending == 0:
            return 0.0
        per_replica = self._pending / max(1, len(self._set))
        return self._latency_ewma * per_replica

    def _observe_latency(self, seconds: float) -> None:
        if self._latency_ewma is None:
            self._latency_ewma = seconds
        else:
            self._latency_ewma = _EWMA_ALPHA * seconds + (1 - _EWMA_ALPHA) * self._latency_ewma

    def _decay_latency(self) -> None:
        """Decay the latency EWMA on a shed.

        A shed produces no latency sample, so after a failure or slow-query
        burst inflated the EWMA the estimate would stay pinned high forever
        — every deadline-carrying request gets rejected, no request runs,
        and no observation can ever pull the estimate back down.  Decaying
        by the EWMA step on each shed lets the tier probe its way out: a
        few rejections shrink the estimate until a request is admitted and
        contributes a real sample again.
        """
        if self._latency_ewma is not None:
            self._latency_ewma *= 1 - _EWMA_ALPHA

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    def _ensure_health_task(self) -> None:
        if self.health_interval is None or self._closed:
            return
        loop = asyncio.get_running_loop()
        if (
            self._health_task is not None
            and not self._health_task.done()
            and self._health_loop_obj is loop
        ):
            return
        self._health_task = loop.create_task(self._health_loop())
        self._health_loop_obj = loop

    async def _health_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.health_interval)
            restarted = await asyncio.to_thread(self._set.restart_dead)
            self._replica_crashes += len(restarted)
            self._replica_crashes += await asyncio.to_thread(self._ping_sweep)

    def _ping_sweep(self) -> int:
        """Deep-ping the fleet; restart wedged replicas.  Returns restarts.

        A busy replica answers with its cached pong (alive-but-busy); only
        a replica that accepted the ping and missed its RPC deadline — or
        died — comes back ``None`` and is restarted.
        """
        restarted = 0
        for replica in self._set.replicas:
            if self._closed:
                break
            if replica.ping() is None:
                try:
                    replica.restart()
                    restarted += 1
                except Exception:  # noqa: BLE001 - next sweep retries
                    pass
        return restarted

    async def _cancel_health_task(self) -> None:
        task = self._health_task
        if (
            task is not None
            and not task.done()
            and self._health_loop_obj is asyncio.get_running_loop()
        ):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._health_task = None
        self._health_loop_obj = None

    # ------------------------------------------------------------------ #
    # synchronous conveniences
    # ------------------------------------------------------------------ #
    def serve_batch(
        self,
        requests: Sequence[Union[ServeRequest, FAQQuery]],
        *,
        return_exceptions: bool = False,
        merge: bool = True,
    ) -> List[Any]:
        """Run a batch through the tier in a private event loop (blocking).

        Bare queries are wrapped into default :class:`ServeRequest` values.
        With ``return_exceptions=True`` shed/failed entries come back as
        their exception objects instead of raising, so open-loop callers
        (the benchmark) can count sheds without losing the batch.

        With ``merge=True`` (the default) requests whose queries share a
        :func:`~repro.planner.signature.query_sharing_key` — same semiring
        over the same factor content — are routed to one replica as a single
        merged batch, so their structurally shared elimination steps execute
        once tier-wide.  Requests that opted out of coalescing, carry a
        deadline, or are not digest-addressable take the per-request path.
        """
        wrapped = [
            r if isinstance(r, ServeRequest) else ServeRequest(query=r) for r in requests
        ]

        groups: Dict[str, List[int]] = {}
        if merge:
            for i, request in enumerate(wrapped):
                if (
                    not request.coalesce
                    or request.deadline is not None
                    or request.output_mode != "listing"
                ):
                    continue
                try:
                    key = query_sharing_key(request.query)
                except TypeError:
                    continue
                groups.setdefault(key, []).append(i)
        merged = {key: idxs for key, idxs in groups.items() if len(idxs) > 1}
        grouped = {i for idxs in merged.values() for i in idxs}
        singles = [i for i in range(len(wrapped)) if i not in grouped]

        async def _run() -> List[Any]:
            try:
                jobs: List[Tuple[List[int], Any]] = [
                    (idxs, self.submit_many([wrapped[i] for i in idxs]))
                    for idxs in merged.values()
                ]
                jobs.extend(([i], self.submit(wrapped[i])) for i in singles)
                replies = await asyncio.gather(
                    *(job for _, job in jobs), return_exceptions=True
                )
                results: List[Any] = [None] * len(wrapped)
                for (idxs, _), reply in zip(jobs, replies):
                    if isinstance(reply, BaseException):
                        for i in idxs:
                            results[i] = reply
                    elif len(idxs) > 1:
                        for i, outcome in zip(idxs, reply):
                            results[i] = outcome
                    else:
                        results[idxs[0]] = reply
                if not return_exceptions:
                    for outcome in results:
                        if isinstance(outcome, BaseException):
                            raise outcome
                return results
            finally:
                await self._cancel_health_task()

        return asyncio.run(_run())

    def ping(self) -> List[Optional[Dict[str, Any]]]:
        """Deep health probe: each replica's serving counters (``None`` = dead)."""
        return [replica.ping() for replica in self._set.replicas]

    def stats(self) -> Dict[str, Any]:
        """Tier counters: admission, coalescing, shedding, crashes, fleet state.

        ``faults_injected`` is the parent process's count; each replica
        reports its own in its health pong.
        """
        plan = current_plan()
        return {
            "replicas": len(self._set),
            "submitted": self._submitted,
            "coalesced": self._coalesced,
            "pending": self._pending,
            "shed_queue": self._shed_queue,
            "shed_tenant": self._shed_tenant,
            "shed_deadline": self._shed_deadline,
            "replica_crashes": self._replica_crashes,
            "retries": self._retries,
            "timeouts": self._timeouts,
            "faults_injected": plan.total_injected if plan is not None else 0,
            "merged_groups": self._merged_groups,
            "merged_group_requests": self._merged_group_requests,
            "latency_ewma_s": self._latency_ewma,
            "fleet": self._set.stats(),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Stop the health loop and shut the fleet down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        await self._cancel_health_task()
        await asyncio.to_thread(self._set.close)

    def close(self) -> None:
        """Synchronous shutdown (for non-async callers; idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._health_task = None
        self._health_loop_obj = None
        self._set.close()

    def __enter__(self) -> "Frontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    async def __aenter__(self) -> "Frontend":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()
