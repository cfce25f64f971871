"""Deterministic fault injection for the serving and execution tiers.

The failure paths of this engine — replica crash/restart, wire timeouts,
kernel errors, snapshot spill I/O — were each covered by one
bespoke monkeypatch before this module.  A :class:`FaultPlan` replaces
them with a *seeded*, named-site harness: the hot paths call
:func:`fire`/:func:`maybe_raise` at fixed **fault sites**, and an
installed plan decides (reproducibly, from its seed and per-site call
counters) whether that particular call fails and how.

Fault sites
-----------

=================  ====================================================
``replica.kill``   the parent terminates the replica process just
                   before an RPC (detected as a pipe error / timeout)
``wire.send``      a frontend→replica message is dropped, delayed, or
                   replaced by garbage bytes
``wire.recv``      a replica→frontend reply is dropped (surfaces as an
                   RPC timeout), delayed, or corrupted
``step.kernel``    a step-DAG kernel raises :class:`InjectedFault`
``snapshot.io``    snapshot spill/restore I/O raises ``OSError``
=================  ====================================================

Plans are cheap to consult (one dict lookup when no plan is installed)
and thread-safe.  Two triggering modes compose:

* ``schedule={site: {nth_call: action}}`` — deterministic: exactly the
  n-th call at the site (1-based) fails with ``action``.
* ``rates={site: probability}`` or ``{site: (probability, actions)}`` —
  a seeded draw per call; the action is chosen from the site's action
  set with the same RNG, so a given seed yields one exact fault script.

Replica child processes do not inherit the parent's live plan object;
:meth:`FaultPlan.child_config` produces a picklable description that the
replica entry point re-installs (with a per-replica seed offset, so the
fleet's replicas fail independently but reproducibly).

Everything here is observable: per-site call and injection counters in
:attr:`FaultPlan.calls` and :attr:`FaultPlan.injected`, the total via
:attr:`FaultPlan.total_injected` — which the serving tier surfaces as
``faults_injected``.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

SITE_REPLICA_KILL = "replica.kill"
SITE_WIRE_SEND = "wire.send"
SITE_WIRE_RECV = "wire.recv"
SITE_STEP_KERNEL = "step.kernel"
SITE_SNAPSHOT_IO = "snapshot.io"

SITES = (
    SITE_REPLICA_KILL,
    SITE_WIRE_SEND,
    SITE_WIRE_RECV,
    SITE_STEP_KERNEL,
    SITE_SNAPSHOT_IO,
)

ACTION_KILL = "kill"
ACTION_DROP = "drop"
ACTION_DELAY = "delay"
ACTION_CORRUPT = "corrupt"
ACTION_ERROR = "error"

#: Default action set drawn from when a rate is given as a bare probability.
_DEFAULT_ACTIONS: Dict[str, Tuple[str, ...]] = {
    SITE_REPLICA_KILL: (ACTION_KILL,),
    SITE_WIRE_SEND: (ACTION_DROP, ACTION_DELAY, ACTION_CORRUPT),
    SITE_WIRE_RECV: (ACTION_DROP, ACTION_DELAY, ACTION_CORRUPT),
    SITE_STEP_KERNEL: (ACTION_ERROR,),
    SITE_SNAPSHOT_IO: (ACTION_ERROR,),
}


class InjectedFault(RuntimeError):
    """An error raised by an injected ``step.kernel`` fault.

    Deliberately an ordinary ``RuntimeError`` subclass: the hardening under
    test must convert it into the *typed* serving errors
    (:class:`~repro.serve.api.PlanFailure` et al.) exactly as it would any
    real kernel bug.
    """


class FaultPlan:
    """A seeded script of which calls at which fault sites fail, and how.

    Parameters
    ----------
    seed:
        Seeds the per-plan RNG; the same seed and call sequence produce
        the same fault script.
    rates:
        ``{site: probability}`` or ``{site: (probability, actions)}`` —
        each call at the site fails with the given probability.
    schedule:
        ``{site: {nth_call: action}}`` — the n-th call at the site
        (1-based) fails with exactly ``action``.  Takes precedence over
        ``rates`` (the rate draw is skipped for scheduled calls, keeping
        the rate stream aligned).
    delay:
        Seconds a ``"delay"`` action sleeps.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[str, Any]] = None,
        schedule: Optional[Mapping[str, Mapping[int, str]]] = None,
        delay: float = 0.02,
    ) -> None:
        self.seed = seed
        self.delay = delay
        self._rates: Dict[str, Tuple[float, Tuple[str, ...]]] = {}
        for site, spec in dict(rates or {}).items():
            self._validate_site(site)
            if isinstance(spec, (tuple, list)):
                probability, actions = spec
                actions = tuple(actions)
            else:
                probability = float(spec)
                actions = _DEFAULT_ACTIONS.get(site, (ACTION_ERROR,))
            self._rates[site] = (float(probability), actions)
        self._schedule: Dict[str, Dict[int, str]] = {}
        for site, calls in dict(schedule or {}).items():
            self._validate_site(site)
            self._schedule[site] = {int(n): str(action) for n, action in dict(calls).items()}
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self.calls: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}

    @staticmethod
    def _validate_site(site: str) -> None:
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; known sites: {SITES}")

    # ------------------------------------------------------------------ #
    def draw(self, site: str) -> Optional[str]:
        """The action to inject for this call at ``site``, or ``None``.

        Every call is counted whether or not it faults, so schedules keyed
        by call number stay deterministic under retries.
        """
        with self._lock:
            count = self.calls.get(site, 0) + 1
            self.calls[site] = count
            action = self._schedule.get(site, {}).get(count)
            if action is None:
                spec = self._rates.get(site)
                if spec is not None:
                    probability, actions = spec
                    if self._rng.random() < probability:
                        action = actions[self._rng.randrange(len(actions))]
            if action is not None:
                self.injected[site] = self.injected.get(site, 0) + 1
            return action

    def sleep(self) -> None:
        """Sleep the plan's delay (the body of a ``"delay"`` action)."""
        time.sleep(self.delay)

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    # ------------------------------------------------------------------ #
    def child_config(self, child_seed_offset: int = 0) -> Dict[str, Any]:
        """A picklable description for re-installing this plan in a child.

        Child counters start fresh (the child has its own call stream) and
        the seed is offset so distinct replicas draw independent — but
        reproducible — fault scripts.
        """
        return {
            "seed": self.seed + 7919 * (child_seed_offset + 1),
            "rates": {site: (p, list(a)) for site, (p, a) in self._rates.items()},
            "schedule": {site: dict(calls) for site, calls in self._schedule.items()},
            "delay": self.delay,
        }

    @classmethod
    def from_config(cls, config: Optional[Mapping[str, Any]]) -> Optional["FaultPlan"]:
        """Rebuild a plan from :meth:`child_config` output (``None`` passes through)."""
        if not config:
            return None
        return cls(
            seed=config.get("seed", 0),
            rates=config.get("rates"),
            schedule=config.get("schedule"),
            delay=config.get("delay", 0.02),
        )


# ---------------------------------------------------------------------- #
# the process-global installation point
# ---------------------------------------------------------------------- #
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears it)."""
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    install_plan(None)


def current_plan() -> Optional[FaultPlan]:
    return _PLAN


@contextlib.contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block (test helper)."""
    previous = _PLAN
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fire(site: str) -> Optional[str]:
    """The injected action for this call at ``site`` (fast ``None`` when clear).

    Callers that distinguish actions (the wire hooks) use this directly;
    raise-only sites use :func:`maybe_raise`.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.draw(site)


def maybe_raise(site: str, exc_type: type = InjectedFault) -> None:
    """Raise ``exc_type`` if the installed plan injects a fault at ``site``."""
    plan = _PLAN
    if plan is None:
        return
    action = plan.draw(site)
    if action is not None:
        raise exc_type(f"injected fault at {site} (action={action})")
