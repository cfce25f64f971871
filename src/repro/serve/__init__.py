"""The serving tier: typed requests in, typed results out, at any scale.

PR 2–4 made a *single* query fast (cost-based planning, plan caching,
fused kernels) and PR 5 served batches from one warm process; this package
is the horizontal tier on top, behind one stable contract:

* :mod:`repro.serve.api` — the public value types
  (:class:`ServeRequest` / :class:`ServeResult`), the typed error
  hierarchy (:class:`ServeError`, retryable :class:`Overloaded`,
  non-retryable :class:`PlanFailure`, :class:`ReplicaCrashed` and its
  :class:`ReplicaTimeout` subclass) and the tier's :class:`RetryPolicy`;
* :mod:`repro.serve.snapshot` — :class:`SnapshotStore`, checksummed
  atomic on-disk spill of warm serving state, so a restarted
  :class:`PlanServer` resumes incremental service without a cold full run;
* :mod:`repro.serve.server` — :class:`PlanServer`, the in-process serving
  loop (thread pool + plan cache + shared tries) with **content-hash
  coalescing**: value-equal in-flight requests execute once, keyed by the
  stable digests of :func:`repro.planner.signature.query_content_key`
  rather than object identity;
* :mod:`repro.serve.replica` / :mod:`repro.serve.protocol` — replica
  processes speaking a digest-addressed wire protocol (factor tables ship
  to each replica once, then travel as digests);
* :mod:`repro.serve.frontend` — :class:`Frontend`, the asyncio admission
  point: per-tenant quotas, deadline-aware load shedding, tier-wide
  coalescing, rendezvous-hash routing and replica health/restart.

Scaling ladder — every rung speaks the same request/result types::

    PlanServer().execute_request(req)          # one thread, warm caches
    PlanServer().submit(req)                   # thread pool, Future out
    await Frontend(replicas=4).submit(req)     # process fleet, coalesced

``ServeRequest(coalesce=False)`` is the one opt-out of sharing; no rung
has a switch of its own.  A request is a batch of one on every rung: the server has one execute
path (``PlanServer._serve``), the wire one execute message (``exec``)
and the front-end one retry loop (``Frontend._dispatch``).  Every
elimination plan on any rung — single request, merged batch,
incremental update — runs on the one driver, :class:`repro.exec.DagExecutor`.

Factor updates live on the in-process rung, where the kept run of the
standing query is: ``PlanServer.update_factor(s)`` over an
:class:`~repro.incremental.IncrementalView`.  The fleet has no update
call; a tier client submits the updated content as a request like any
other, and content addressing names it afresh.
"""

from repro.serve.api import (
    Overloaded,
    PlanFailure,
    ReplicaCrashed,
    ReplicaTimeout,
    RetryPolicy,
    ServeError,
    ServeRequest,
    ServeResult,
)
from repro.serve.frontend import Frontend
from repro.serve.replica import ReplicaHandle, ReplicaSet
from repro.serve.server import PlanServer
from repro.serve.snapshot import SnapshotStore

__all__ = [
    "ServeRequest",
    "ServeResult",
    "ServeError",
    "Overloaded",
    "PlanFailure",
    "ReplicaCrashed",
    "ReplicaTimeout",
    "RetryPolicy",
    "SnapshotStore",
    "PlanServer",
    "Frontend",
    "ReplicaSet",
    "ReplicaHandle",
]
