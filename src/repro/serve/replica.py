"""Replica processes: one warm :class:`PlanServer` per OS process.

:func:`_replica_main` is the child-process entry point — a blocking loop
over one pipe, speaking :mod:`repro.serve.protocol`.  Each replica keeps

* a digest-addressed **factor store** (tables ship once, then are referred
  to by digest — the amortisation the wire protocol exists for);
* a **query memo** (content key → rebuilt :class:`FAQQuery`), so repeated
  traffic reuses one query object and with it every per-object memo
  downstream (hypergraph, content and sharing keys);
* its own :class:`~repro.serve.server.PlanServer` for plan and trie
  reuse.

The parent side is :class:`ReplicaHandle` (spawn, locked request/response
call, known-digest tracking, restart) and :class:`ReplicaSet` (a fixed
fleet with rendezvous-hash routing and dead-replica sweeps).  Handles are
thread-safe; the asyncio front-end calls them via ``asyncio.to_thread``.

Every wire RPC carries a deadline (``rpc_timeout``): a replica that
accepts a request but never answers surfaces as a typed
:class:`~repro.serve.api.ReplicaTimeout` (a :class:`ReplicaCrashed`
subclass — the caller's restart-and-retry path covers both) instead of
wedging the caller forever.  Replies are validated against the request id
they answer; a mismatched or malformed reply means the conversation
desynced (e.g. a corrupted message) and is treated as a crash.  Fault
sites from :mod:`repro.faults` are threaded through both pipe directions
and the child loop, so the chaos tests can exercise every one of these
paths deterministically.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import os
import pickle
import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.caching import LruCache
from repro.faults import (
    ACTION_CORRUPT,
    ACTION_DELAY,
    ACTION_DROP,
    SITE_REPLICA_KILL,
    SITE_WIRE_RECV,
    SITE_WIRE_SEND,
    FaultPlan,
    current_plan,
    fire,
    install_plan,
)
from repro.serve.api import (
    PlanFailure,
    ReplicaCrashed,
    ReplicaTimeout,
    ServeError,
    ServeRequest,
    ServeResult,
)
from repro.serve.protocol import (
    ERR_INTERNAL,
    ERR_PLAN,
    MSG_ERR,
    MSG_EXEC,
    MSG_NEED,
    MSG_OK,
    MSG_OK_MANY,
    MSG_PING,
    MSG_PONG,
    MSG_SHUTDOWN,
    WireResult,
    decode_query,
    encode_query,
    missing_digests,
)

_MAX_REPLICA_QUERIES = 256
_REQ_IDS = itertools.count(1)

# Default per-RPC deadline (seconds).  Generous — it exists to convert a
# genuinely wedged replica into a typed ReplicaTimeout, not to police slow
# queries; latency-sensitive deployments pass a tighter RetryPolicy.
DEFAULT_RPC_TIMEOUT = 30.0

# Live replica fleets, reaped at interpreter exit so a caller that forgets
# close() cannot leak daemon processes + their pipes.  close() is
# idempotent, so double-reaping is safe.
_LIVE_SETS: "weakref.WeakSet" = weakref.WeakSet()

# Serialises the pipe-create → fork → close-child-end window of _start().
# With the fork start method, a process forked by a *concurrent* _start
# would inherit this pipe's child end and hold it open forever — then a
# replica dying mid-reply never EOFs the parent's recv (an unbounded hang
# instead of a clean ReplicaCrashed).
_START_LOCK = threading.Lock()


@atexit.register
def _reap_replicas() -> None:
    for replica_set in list(_LIVE_SETS):
        try:
            replica_set.close()
        except Exception:  # pragma: no cover - interpreter is going down
            pass


# ---------------------------------------------------------------------- #
# the child process
# ---------------------------------------------------------------------- #
def _memoised_query(wire, store: Dict[str, Any], queries: LruCache):
    """Rebuild (or recall) the query for a wire skeleton, LRU-bounded."""
    query = queries.get(wire.query_key) if wire.query_key is not None else None
    if query is None:
        query = decode_query(wire, store)
        if wire.query_key is not None:
            queries.put(wire.query_key, query)
    return query


def _wire_result(result) -> WireResult:
    return WireResult(
        factor=result.factor,
        ordering=result.ordering,
        strategy=result.strategy,
        backend=result.backend,
        seconds=result.seconds,
        coalesced=result.coalesced,
    )


def _wire_error(exc: BaseException) -> tuple:
    """``(kind, message, cause_type)`` of a failure crossing the pipe."""
    if isinstance(exc, PlanFailure):
        return (ERR_PLAN, str(exc), exc.cause_type)
    return (ERR_INTERNAL, f"{type(exc).__name__}: {exc}", type(exc).__name__)


def _replica_main(
    conn,
    replica_id: int,
    warm_caches: Optional[bytes] = None,
    fault_config: Optional[Dict[str, Any]] = None,
) -> None:
    """The replica loop (module-level so the spawn start method can pickle it)."""
    from repro.planner.cache import adopt_warm_sections
    from repro.serve.server import PlanServer

    # A replica carries its own deterministic fault plan (derived from the
    # parent's seed) so chaos runs inject inside the child too: step-kernel
    # faults and hard replica deaths originate here.
    install_plan(FaultPlan.from_config(fault_config))
    # cache_results=True is the replica-side completed-result cache: repeat
    # traffic that opted into sharing (coalesce=True on the wire) is answered
    # by content digest without re-executing.
    server = PlanServer(pool_size=1, cache_results=True)
    # Adopt the warm caches the parent pickled into our arguments so a cold
    # replica starts with the warm ρ* memo and plan cache instead of
    # warming private copies.  Best-effort: each section is checked against
    # its kind/version tags, and a stale or absent one adopts nothing.
    sections = pickle.loads(warm_caches) if warm_caches else None
    shared_cache_adopted = sum(adopt_warm_sections(sections, server.cache).values())
    store: Dict[str, Any] = {}
    queries = LruCache(maxsize=_MAX_REPLICA_QUERIES)
    served = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == MSG_SHUTDOWN:
            break
        if kind == MSG_PING:
            plan = current_plan()
            stats = {
                "replica": replica_id,
                "served": served,
                "factor_store": len(store),
                "query_memo": len(queries),
                "shared_cache_adopted": shared_cache_adopted,
                "faults_injected": plan.total_injected if plan is not None else 0,
            }
            stats.update(server.stats())
            conn.send((MSG_PONG, message[1], stats))
            continue
        # A hard replica death (child side): exit without answering — the
        # parent sees a pipe error or an RPC timeout and restarts us.
        if fire(SITE_REPLICA_KILL) is not None:
            os._exit(1)
        if kind != MSG_EXEC:
            conn.send((MSG_ERR, None, ERR_INTERNAL, f"unknown message {kind!r}", "ServeError"))
            continue
        _, req_id, items, payloads = message
        store.update(payloads)
        missing = missing_digests([item[0] for item in items], store.keys())
        if missing:
            conn.send((MSG_NEED, req_id, missing))
            continue
        decoded: List[Any] = []
        for wire, output_mode, options, coalesce in items:
            try:
                decoded.append(ServeRequest(
                    query=_memoised_query(wire, store, queries),
                    output_mode=output_mode,
                    coalesce=coalesce,
                    options=options,
                ))
            except Exception as exc:  # noqa: BLE001 - fail the item, not the batch
                decoded.append(exc)
        live = [r for r in decoded if isinstance(r, ServeRequest)]
        try:
            answers = iter(server._serve(live))
        except Exception as exc:  # noqa: BLE001 - replica must not die on a bad batch
            answers = itertools.repeat(exc)
        outcomes = []
        for item in decoded:
            outcome = next(answers) if isinstance(item, ServeRequest) else item
            if isinstance(outcome, BaseException):
                outcomes.append((MSG_ERR, *_wire_error(outcome)))
                continue
            served += not outcome.coalesced
            outcomes.append((MSG_OK, _wire_result(outcome)))
        conn.send((MSG_OK_MANY, req_id, outcomes))
    conn.close()


# ---------------------------------------------------------------------- #
# the parent side
# ---------------------------------------------------------------------- #
class ReplicaHandle:
    """One replica process plus its pipe, lock and known-digest set.

    One call runs work on the replica: :meth:`execute` runs a batch of
    requests (a single request is a batch of one); :meth:`ping` probes its
    health.  ``load`` is the front-end's in-flight count for routing
    decisions (the handle itself serialises calls under ``self.lock`` —
    one pipe, one outstanding request).  A pipe failure raises
    :class:`~repro.serve.api.ReplicaCrashed`; a reply missing its deadline
    raises :class:`~repro.serve.api.ReplicaTimeout`; :meth:`restart`
    replaces the process and resets the known-digest set, after which
    factor tables re-ship lazily — a restarted replica is cold, never
    wrong.  ``warm_caches`` (the parent's pickled warm-cache sections) is
    passed to every process the handle starts, restarts included.
    """

    def __init__(
        self,
        index: int,
        *,
        warm_caches: Optional[bytes] = None,
        rpc_timeout: Optional[float] = DEFAULT_RPC_TIMEOUT,
        fault_config: Optional[Dict[str, Any]] = None,
        context=None,
    ) -> None:
        self.index = index
        self.warm_caches = warm_caches
        self.rpc_timeout = rpc_timeout
        self.fault_config = fault_config
        self._ctx = context if context is not None else multiprocessing.get_context()
        self.lock = threading.Lock()
        self.load = 0
        self.restarts = 0
        self.timeouts = 0
        self.last_pong: Optional[Dict[str, Any]] = None
        self._closed = False
        self._start()

    def _start(self) -> None:
        with _START_LOCK:
            parent, child = self._ctx.Pipe()
            self.process = self._ctx.Process(
                target=_replica_main,
                args=(child, self.index, self.warm_caches, self.fault_config),
                name=f"repro-replica-{self.index}",
                daemon=True,
            )
            self.process.start()
            child.close()
        self.conn = parent
        self.known: set = set()
        self._closed = False  # a restarted handle is open again

    def alive(self) -> bool:
        return self.process.is_alive()

    def restart(self) -> None:
        """Replace a dead (or wedged) replica process with a fresh one.

        Taken under the handle lock: an RPC in flight on another thread
        finishes (or hits its deadline) before the pipe is torn down —
        closing a connection out from under a blocked reader would strand
        it on a dead (and soon recycled) file descriptor.
        """
        with self.lock:
            self._terminate()
            self.restarts += 1
            self._start()

    # ------------------------------------------------------------------ #
    def _encoded(self, query) -> Tuple[Any, Dict[str, Any]]:
        """The query's wire form and its digest → table map."""
        try:
            return encode_query(query)
        except TypeError as exc:
            raise PlanFailure(
                f"query is not digest-addressable and cannot be served by a replica: {exc}",
                cause_type=type(exc).__name__,
            ) from exc

    def _exchange(self, items: tuple, tables: Dict[str, Any]) -> Any:
        """The ship-once ``exec`` exchange.

        The message carries the ``tables`` of the items' wire queries that
        the replica is not known to hold.  A ``("need", ...)`` reply (a replica that restarted
        mid-conversation) is answered once, by resending with the
        requested tables.  Returns the per-item outcomes of the
        ``ok_many`` reply; an error reply raises :class:`PlanFailure`,
        anything else :class:`ReplicaCrashed`.
        """
        req_id = next(_REQ_IDS)
        wires = [item[0] for item in items]

        def send(payloads: Dict[str, Any]) -> tuple:
            reply = self._validated(self._call((MSG_EXEC, req_id, items, payloads)), req_id)
            self.known.update(payloads)
            return reply

        with self.lock:
            reply = send({d: tables[d] for d in missing_digests(wires, self.known)})
            if reply[0] == MSG_NEED:
                reply = send({d: tables[d] for d in reply[2]})
        if reply[0] == MSG_OK_MANY:
            return reply[2]
        if reply[0] == MSG_ERR:
            _, _, err_kind, message, cause_type = reply
            raise PlanFailure(message, cause_type=cause_type)
        raise ReplicaCrashed(
            f"replica {self.index} sent unexpected reply {reply[0]!r}"
        )

    def execute(self, requests: Sequence[ServeRequest]) -> List[Any]:
        """Run a batch on this replica (blocking; thread-safe) — a single
        request is a batch of one.

        The whole batch crosses the pipe in one ``exec`` message carrying
        only the factor payloads the replica is missing (:meth:`_exchange`);
        the replica's :class:`~repro.serve.server.PlanServer` merges the
        queries' step DAGs so structurally shared elimination steps execute
        once.  Returns per-request outcomes in order — each a
        :class:`~repro.serve.api.ServeResult` or an exception object
        (:class:`~repro.serve.api.PlanFailure`); a dead replica raises
        :class:`~repro.serve.api.ReplicaCrashed` for the whole batch.
        """
        outcomes: List[Any] = [None] * len(requests)
        encoded: List[Tuple[int, ServeRequest, Any]] = []
        combined: Dict[str, Any] = {}
        for i, request in enumerate(requests):
            try:
                wire, tables = self._encoded(request.query)
            except PlanFailure as exc:
                outcomes[i] = exc
                continue
            encoded.append((i, request, wire))
            combined.update(tables)
        if not encoded:
            return outcomes
        items = tuple(
            (wire, request.output_mode, request.options, request.coalesce)
            for _, request, wire in encoded
        )
        replies = self._exchange(items, combined)
        if len(replies) != len(encoded):
            raise ReplicaCrashed(
                f"replica {self.index} answered {len(replies)} of {len(encoded)} requests"
            )
        for (i, request, _), outcome in zip(encoded, replies):
            if outcome[0] == MSG_OK:
                outcomes[i] = self._serve_result(outcome[1], request)
            else:
                _, err_kind, message, cause_type = outcome
                outcomes[i] = PlanFailure(message, cause_type=cause_type)
        return outcomes

    def _serve_result(self, result: WireResult, request: ServeRequest) -> ServeResult:
        return ServeResult(
            factor=result.factor,
            ordering=result.ordering,
            strategy=result.strategy,
            backend=result.backend,
            content_key=request.content_key,
            coalesced=result.coalesced,
            replica=self.index,
            seconds=result.seconds,
        )

    def ping(
        self, timeout: Optional[float] = None, lock_wait: float = 0.1
    ) -> Optional[Dict[str, Any]]:
        """Health probe; the replica's serving counters, or ``None`` if dead.

        A replica busy executing a long request holds the handle lock; that
        is *alive-but-busy*, not wedged, so the probe answers with the last
        pong it got instead of blocking behind the request (or worse,
        timing out and triggering a spurious restart).  ``None`` therefore
        means the replica accepted the probe and failed to answer it — a
        real crash or wedge the caller should restart.
        """
        nonce = next(_REQ_IDS)
        if not self.lock.acquire(timeout=lock_wait):
            return self.last_pong
        try:
            reply = self._call((MSG_PING, nonce), timeout=timeout)
        except ServeError:
            return None
        finally:
            self.lock.release()
        if not isinstance(reply, tuple) or len(reply) != 3:
            return None
        if reply[0] != MSG_PONG or reply[1] != nonce:
            return None
        self.last_pong = reply[2]
        return reply[2]

    def _call(self, message: tuple, timeout: Optional[float] = None) -> tuple:
        """One locked request/response round trip (caller holds ``self.lock``).

        ``timeout`` defaults to the handle's ``rpc_timeout``; a reply that
        misses the deadline raises :class:`ReplicaTimeout` — the caller
        must treat the conversation as lost (the late reply, if it ever
        comes, would desync the pipe) and restart the replica.  The
        ``replica.kill`` / ``wire.send`` / ``wire.recv`` fault sites hook
        in here, which is what makes every failure path this method can
        take reachable from a seeded :class:`~repro.faults.FaultPlan`.
        """
        if timeout is None:
            timeout = self.rpc_timeout
        if fire(SITE_REPLICA_KILL) is not None:
            # Parent-side kill: the process dies before (or while) we talk
            # to it — the send or the recv below surfaces the crash.
            self.process.terminate()
            self.process.join(1.0)
        action = fire(SITE_WIRE_SEND)
        try:
            if action == ACTION_DROP:
                pass  # the request never reaches the replica
            elif action == ACTION_CORRUPT:
                self.conn.send(("corrupt", None))
            else:
                if action == ACTION_DELAY:
                    plan = current_plan()
                    if plan is not None:
                        plan.sleep()
                self.conn.send(message)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # Pickling happens before any bytes hit the pipe, so the
            # connection is still clean — fail the request, not the replica.
            raise PlanFailure(
                f"request is not picklable for replica dispatch: {exc}",
                cause_type=type(exc).__name__,
            ) from exc
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ReplicaCrashed(f"replica {self.index} died mid-send: {exc!r}") from exc
        try:
            if timeout is not None and not self.conn.poll(timeout):
                self.timeouts += 1
                raise ReplicaTimeout(
                    f"replica {self.index} did not answer within {timeout}s"
                )
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ReplicaCrashed(f"replica {self.index} died mid-request: {exc!r}") from exc
        action = fire(SITE_WIRE_RECV)
        if action == ACTION_DROP:
            self.timeouts += 1
            raise ReplicaTimeout(
                f"replica {self.index} reply lost in transit (injected)"
            )
        if action == ACTION_CORRUPT:
            return ("corrupt", None)
        if action == ACTION_DELAY:
            plan = current_plan()
            if plan is not None:
                plan.sleep()
        return reply

    def _validated(self, reply: Any, req_id: int) -> tuple:
        """Reject replies that do not answer ``req_id`` — protocol desync.

        A corrupted request makes the replica answer with ``req_id=None``;
        a timed-out request's late reply answers an *earlier* id.  Either
        way the conversation is unrecoverable on this pipe, so the caller
        gets :class:`ReplicaCrashed` and the restart path re-syncs.
        """
        if (
            not isinstance(reply, tuple)
            or len(reply) < 2
            or reply[0] not in (MSG_OK_MANY, MSG_ERR, MSG_NEED)
            or reply[1] != req_id
        ):
            raise ReplicaCrashed(
                f"replica {self.index} protocol desync: "
                f"expected a reply to request {req_id}, got {reply!r}"
            )
        return reply

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 2.0) -> None:
        """Ask the replica to drain and exit; escalate to terminate.

        Idempotent — a second close (e.g. the atexit reaper after an
        explicit shutdown) is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        try:
            with self.lock:
                self.conn.send((MSG_SHUTDOWN,))
        except Exception:  # noqa: BLE001 - already dead is fine
            pass
        self.process.join(timeout)
        self._terminate()

    def _terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        try:
            self.conn.close()
        except Exception:  # noqa: BLE001
            pass


class ReplicaSet:
    """A fixed fleet of replicas with content-affine routing.

    Routing is rendezvous (highest-random-weight) hashing on the request's
    content key: value-equal traffic lands on the replica that already
    holds the factor tables, the query memo and the warm tries for it.
    When the affine choice is overloaded (or the request has no content
    key) the least-loaded replica wins instead — shipping a table again is
    cheaper than queueing behind a hot spot.
    """

    def __init__(
        self,
        size: int,
        *,
        warm_caches: Optional[bytes] = None,
        start_method: Optional[str] = None,
        rpc_timeout: Optional[float] = DEFAULT_RPC_TIMEOUT,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"a ReplicaSet needs at least one replica, got {size}")
        context = multiprocessing.get_context(start_method)
        self._closed = False
        self.replicas: List[ReplicaHandle] = [
            ReplicaHandle(
                i, warm_caches=warm_caches,
                context=context, rpc_timeout=rpc_timeout,
                # Per-replica derived seeds keep chaos runs deterministic
                # yet uncorrelated across the fleet; a restarted replica
                # reinstalls the same derived plan.
                fault_config=(
                    fault_plan.child_config(i) if fault_plan is not None else None
                ),
            )
            for i in range(size)
        ]
        _LIVE_SETS.add(self)

    def __len__(self) -> int:
        return len(self.replicas)

    def pick(self, content_key: Optional[str], overload_margin: int = 2) -> ReplicaHandle:
        """The replica to route this key to (see the class docstring)."""
        live = [r for r in self.replicas if r.alive()] or self.replicas
        least = min(live, key=lambda r: (r.load, r.index))
        if content_key is None:
            return least
        affine = max(live, key=lambda r: _rendezvous_score(content_key, r.index))
        if affine.load > least.load + overload_margin:
            return least
        return affine

    def restart_dead(self) -> List[int]:
        """Replace every dead replica; returns the indices restarted."""
        restarted = []
        for replica in self.replicas:
            if not replica.alive():
                replica.restart()
                restarted.append(replica.index)
        return restarted

    def stats(self) -> List[Dict[str, Any]]:
        """Per-replica liveness, load and restart counters (no pipe traffic)."""
        return [
            {
                "replica": r.index,
                "alive": r.alive(),
                "load": r.load,
                "restarts": r.restarts,
                "timeouts": r.timeouts,
                "known_factors": len(r.known),
            }
            for r in self.replicas
        ]

    def close(self) -> None:
        """Shut the whole fleet down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for replica in self.replicas:
            replica.close()


def _rendezvous_score(content_key: str, index: int) -> Tuple[bytes, int]:
    digest = hashlib.sha256(f"{content_key}|{index}".encode("utf-8")).digest()
    return (digest, index)
