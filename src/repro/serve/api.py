"""The stable serving contract: typed requests, results and errors.

Everything a serving client touches lives here, frozen and explicit:

* :class:`ServeRequest` — what to run (query + output mode + planner
  overrides), for whom (``tenant``), and under what latency budget
  (``deadline`` seconds).  Requests are immutable values; their
  :attr:`~ServeRequest.content_key` is the stable cross-process digest the
  whole tier coalesces and routes on.
* :class:`ServeResult` — what came back: the output factor, the plan
  choices that produced it, and serving metadata (which replica ran it,
  whether the request was coalesced onto another in-flight execution).
* the error hierarchy — :class:`ServeError` is the base; admission control
  rejects with :class:`Overloaded` (retryable: back off), planner/engine
  failures surface as :class:`PlanFailure` (not retryable: fix the query).

The serving layer never takes bare ``FAQQuery`` objects or hands back bare
engine results — that was the PR 5 surface, now refused with a typed
:class:`~repro.core.query.QueryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Tuple

from repro.core.query import FAQQuery, QueryError
from repro.factors.factor import Factor
from repro.planner.signature import canonical_bytes, query_content_key
from repro.semiring.base import Semiring


class ServeError(Exception):
    """Base class of every serving-tier error."""


class Overloaded(ServeError):
    """The tier shed this request (admission control or load shedding).

    Retryable by construction: the query itself is fine, the tier just
    cannot take it *now*.  ``reason`` says which limit tripped; ``tenant``
    names the quota owner when a per-tenant bound did.
    """

    def __init__(self, reason: str, tenant: Optional[str] = None) -> None:
        self.reason = reason
        self.tenant = tenant
        detail = f"{reason} (tenant={tenant})" if tenant else reason
        super().__init__(detail)


class PlanFailure(ServeError):
    """Planning or executing the query failed (not retryable as-is).

    Wraps the underlying engine error — ``cause_type`` carries the original
    exception class name even when the failure crossed a process boundary
    (the original object may not be picklable or importable).
    """

    def __init__(self, message: str, cause_type: str = "QueryError") -> None:
        self.cause_type = cause_type
        super().__init__(message)


class ReplicaCrashed(ServeError):
    """A replica died mid-request and the retry budget is exhausted."""


class ReplicaTimeout(ReplicaCrashed):
    """A replica failed to answer an RPC within its deadline.

    A timeout is *treated as* a crash — the replica may be wedged rather
    than dead, but the recovery path is identical (terminate, restart,
    retry elsewhere), so the subclass relationship lets every existing
    crash handler cover the wedge case for free.  Kept distinct so the
    ``timeouts`` counter can tell the two apart in stats.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How the tier retries replica-side failures.

    Applied by :class:`~repro.serve.frontend.Frontend` on the dispatch
    path when a replica crashes or times out mid-request (never for
    :class:`PlanFailure` — the query itself is broken, a retry cannot
    help).  ``rpc_timeout`` is the per-RPC deadline every wire round-trip
    is armed with: a replica that neither answers nor dies surfaces as a
    typed :class:`ReplicaTimeout` instead of hanging the caller forever.

    Parameters
    ----------
    attempts:
        Total execution attempts per request (the first try included).
    base_delay / max_delay / jitter:
        Exponential backoff between attempts: attempt ``n`` sleeps
        ``min(max_delay, base_delay * 2**(n-1))`` scaled by a random
        factor in ``[1, 1 + jitter]`` so synchronized retries fan out.
    rpc_timeout:
        Per-RPC deadline in seconds (``None`` disables the deadline —
        discouraged; a wedged replica then blocks its caller thread).
    """

    attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5
    rpc_timeout: Optional[float] = 30.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise QueryError(f"RetryPolicy needs attempts >= 1, got {self.attempts}")
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise QueryError(
                f"rpc_timeout must be positive seconds or None, got {self.rpc_timeout!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        import random

        delay = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        return delay * (1.0 + self.jitter * random.random())


_VALID_OUTPUT_MODES = ("listing", "factorized")

# plan() keyword overrides a request may carry.  Anything else is rejected
# at construction, so malformed requests fail in the client's stack frame
# instead of deep inside a replica.
_ALLOWED_OPTIONS = ("strategy", "backend", "ordering", "use_cache")


def _normalized_options(options: Any) -> Tuple[Tuple[str, Any], ...]:
    if options is None:
        return ()
    if isinstance(options, Mapping):
        items = options.items()
    else:
        items = tuple(options)
    normalized = []
    for key, value in sorted(items):
        if key not in _ALLOWED_OPTIONS:
            raise QueryError(
                f"unknown serve option {key!r}; allowed: {_ALLOWED_OPTIONS}"
            )
        if key == "ordering" and value is not None and not isinstance(value, str):
            value = tuple(value)
        normalized.append((key, value))
    return tuple(normalized)


@dataclass(frozen=True)
class ServeRequest:
    """One admitted unit of serving work.

    Parameters
    ----------
    query:
        The :class:`~repro.core.query.FAQQuery` to answer.
    output_mode:
        ``"listing"`` (default) or ``"factorized"`` (in-process serving
        only — factorized outputs do not cross process boundaries).
    tenant:
        Admission-control bucket; per-tenant quotas meter on this.
    deadline:
        Optional latency budget in seconds from submission.  The front-end
        sheds the request (:class:`Overloaded`) rather than dispatch it
        once the budget cannot be met.
    coalesce:
        The one sharing switch: ``False`` opts out of coalescing, merged
        step sharing and result caches on every rung (e.g. for a timed run).
    options:
        Planner overrides forwarded to :func:`repro.planner.plan` —
        ``strategy=``/``backend=``/``ordering=``/``use_cache=`` only,
        normalised to a sorted tuple so requests stay hashable values.
    """

    query: FAQQuery
    output_mode: str = "listing"
    tenant: str = "default"
    deadline: Optional[float] = None
    coalesce: bool = True
    options: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.query, FAQQuery):
            raise QueryError(
                f"ServeRequest.query must be an FAQQuery, got {type(self.query).__name__}"
            )
        if self.output_mode not in _VALID_OUTPUT_MODES:
            raise QueryError(f"unknown output mode {self.output_mode!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise QueryError(f"deadline must be positive seconds, got {self.deadline!r}")
        object.__setattr__(self, "options", _normalized_options(self.options))

    # ------------------------------------------------------------------ #
    @property
    def content_key(self) -> Optional[str]:
        """The stable coalescing/routing key of this request.

        Equal keys certify that one execution answers both requests: the
        key digests the query *content* (structure, domains, factor
        tables) plus the output mode and planner overrides.  ``None`` when
        the query's values have no canonical encoding (exotic semiring
        domains) — such requests are never coalesced, only executed.

        Memoised on the request, outside its fields, so ``==``, ``hash``
        and ``replace()`` do not see it: every field is immutable, so the
        key never changes.
        """
        try:
            return self.__dict__["_content_key"]
        except KeyError:
            pass
        try:
            query_key = query_content_key(self.query)
            option_part = canonical_bytes((self.output_mode, self.options))
            key = f"{query_key}:{option_part.hex()}"
        except TypeError:
            key = None
        object.__setattr__(self, "_content_key", key)
        return key

    def plan_kwargs(self) -> dict:
        """The request's planner overrides as ``plan()`` keyword arguments."""
        return dict(self.options)


@dataclass(frozen=True)
class ServeResult:
    """The typed answer to one :class:`ServeRequest`.

    ``factor`` is the output in the listing representation (``None`` in
    factorized mode, where ``factorized`` is populated instead).  The
    serving metadata says how the answer was produced: the plan choices,
    which replica ran it (``None`` = in-process), whether this request
    coalesced onto another execution, and the wall-clock seconds the
    execution took on the server.
    """

    factor: Optional[Factor]
    ordering: Tuple[str, ...]
    strategy: str
    backend: str
    content_key: Optional[str] = None
    factorized: Any = None
    coalesced: bool = False
    replica: Optional[int] = None
    seconds: float = 0.0
    stats: Any = None

    def mark_coalesced(self) -> "ServeResult":
        """A copy of this result flagged as served by a shared execution."""
        if self.coalesced:
            return self
        return replace(self, coalesced=True)

    # ------------------------------------------------------------------ #
    # the PlanResult convenience surface, preserved on the typed result
    # ------------------------------------------------------------------ #
    @property
    def scalar(self) -> Any:
        """The scalar value for queries with no free variables."""
        if self.factor is None:
            raise QueryError("scalar access requires listing output mode")
        if self.factor.scope:
            raise QueryError("query has free variables; use .factor")
        return self.factor.table.get((), None)

    def scalar_or_zero(self, semiring: Semiring) -> Any:
        """The scalar value, or the semiring zero if the output is empty."""
        if self.factor is None:
            raise QueryError("scalar access requires listing output mode")
        return self.factor.table.get((), semiring.zero)
