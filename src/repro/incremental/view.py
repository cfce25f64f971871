"""Incremental (delta) maintenance of FAQ query answers.

Given a standing :class:`~repro.core.query.FAQQuery` and a stream of
:class:`~repro.factors.FactorDelta` updates, an :class:`IncrementalView`
keeps the query answer current without full recomputation.  It keeps one
lowered run of its query — the step DAG, every slot's factor (the
intermediates included) and the indexes built on them — and an update
re-runs only the nodes downstream of the changed factor
(:meth:`repro.exec.executor._RunState.rerun_cone`), reading every clean
slot from the kept run.  How a dirty node re-runs depends on how the
change can be written as ``old ⊕ Δ``; the update's regime names that for
the changed factor:

* **delta propagation** (``REGIME_DELTA``) — for ⊕-invertible semirings
  (counting, sum-product): the FAQ expression is ⊕-linear in each factor
  when every bound aggregate *is* the semiring ⊕, so Δ is the sparse
  *signed difference* ``new ⊖ old``.
* **monotone append** (``REGIME_APPEND``) — for the other semirings
  (max-product, boolean, min-plus) when every changed cell *absorbs* its
  old value (``old ⊕ new = new``): Δ is the changed cells at their new
  values.
* **dirty-cone re-execution** (``REGIME_DIRTY``) — the universal
  fallback, when no Δ exists (a decrease under max, a delete under or,
  a query with product aggregates).

A node whose changed inputs all carry a Δ, and whose indicator
projections keep their support, is *corrected*: its step runs with the Δ
in the changed input's place (its incident positions take Δ, its read
positions keep the standing factors' projections), and the result is
⊕-combined into the node's kept result, which is the linearity the
answer itself obeys (§5; DBSP's rule for a bilinear operator, applied per
step).  So the delta and append regimes run every step at delta size and
leave each intermediate maintained: a later update in another cone finds
this one's steps current.  Any other dirty node — on the dirty regime's
path, or reading a projection whose support an insert or delete moved —
recomputes at full size over the kept clean slots, and a slot that comes
out unchanged ends the cone.

**What "equal to a full recomputation" means.**  For int, boolean and
idempotent (max, min, or) carriers every regime's answer is ``==`` a full
recomputation, cell for cell, and so is every kept intermediate (the
differential tests enforce this across backends, on values whose products
are exact).  A float ⊕-invertible view (sum-product) re-associates the
float sums: its answers and intermediates agree with a full recomputation
within :meth:`Semiring.values_equal` tolerance (:meth:`Factor.equals`),
not bit for bit — ROADMAP item 2(b) is where float equality gets one
definition.

Updates never mutate factors in place — factor tables freeze when
digested, and the supported update path is ``Factor.apply_delta``
producing a new factor with a new digest, which is what keeps every
digest-keyed cache in the engine honest.

**What an update pays for.**  The content that changed, and the steps of
its cone at delta size.  The standing query holds its (frozen) factors by
reference, and an update swaps one factor into a copy of it
(:meth:`FAQQuery.with_factor`), so the n−1 factors it does not touch are
neither copied nor swept for zeros nor digested again.  The new factor is
zero-free by construction (``Factor.apply_delta``) and is named once, by a
*derived* digest: it carries its parent's bucket table and the changed
keys, so naming it encodes the changed rows alone and re-hashes each
bucket one falls in from the encoded rows the lineage keeps — O(|delta|)
encodings, and O(|delta|·√|factor|) bytes hashed in C (see
:func:`~repro.planner.signature.factor_digest`).  The view keeps one
:class:`~repro.factors.index.SharedTrieCache` of its base factors' indexes
for its pinned ordering; the replaced content's entry is dropped with the
update, and the new content's is *derived* from it
(:meth:`~repro.factors.index.SharedTrieCache.derive`): a path-copied trie
and, while the support stays, the old projections and the old flat
encoding with the changed values patched in, so its Python work is
O(|delta|).  The kept run's own index holder keeps the intermediates'
tries across updates and drops those of the factors an update replaced.
Nothing is lowered, digested per step, looked up in a step cache or
rebuilt as a query per update.  What is still O(|factor|) per update is
copying the table (and, in NumPy, the value column), a fresh trie
(projections, encoding) when a change deletes (adds or deletes) a cell,
and the full-size steps of a dirty cone; per corrected node it is a copy
of that node's kept result.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.insideout import _validated_ordering
from repro.core.query import FAQQuery, QueryError
from repro.exec.executor import RunSpec, _RunState
from repro.factors.backend import BACKEND_SPARSE, as_sparse, validate_backend
from repro.factors.delta import FactorDelta
from repro.factors.factor import Factor
from repro.factors.index import SharedTrieCache
from repro.planner.signature import factor_digest
from repro.semiring.base import Semiring

REGIME_DELTA = "delta"
REGIME_APPEND = "append"
REGIME_DIRTY = "dirty"

#: Semiring name → the aggregate tag that *is* that semiring's ⊕.  A query
#: whose bound aggregates all carry this tag computes a polynomial that is
#: ⊕-linear in each factor (the flat FAQ form), which is what the delta
#: and append regimes rely on.
ADDITIVE_TAGS: Dict[str, str] = {
    "counting": "sum",
    "sum-product": "sum",
    "complex-sum-product": "sum",
    "max-product": "max",
    "max-sum": "max",
    "min-plus": "min",
    "min-product": "min",
    "boolean": "or",
}

#: Semiring name → a subtraction inverting its ⊕ (delta-propagation
#: regime).  Idempotent semirings have no such inverse and fall through
#: to monotone append or dirty re-execution.
SUBTRACTABLE: Dict[str, Callable[[Any, Any], Any]] = {
    "counting": operator.sub,
    "sum-product": operator.sub,
    "complex-sum-product": operator.sub,
}


def additive_tag(semiring: Semiring, override: Optional[str] = None) -> Optional[str]:
    """The aggregate tag matching ``semiring``'s ⊕, or ``None`` if unknown.

    Pass ``override`` for custom semirings whose ⊕ corresponds to a tag
    the registry does not know about.
    """
    if override is not None:
        return override
    return ADDITIVE_TAGS.get(semiring.name)


def is_flat_query(query: FAQQuery, add_tag: Optional[str]) -> bool:
    """True when every bound aggregate is the semiring ⊕ (no product vars).

    Flat queries are ⊕-linear in each input factor — the precondition for
    the delta-propagation and monotone-append regimes.
    """
    if add_tag is None:
        return False
    return all(
        not agg.is_product and agg.tag == add_tag
        for agg in query.aggregates.values()
    )


@dataclass
class IncrementalStats:
    """Per-view accounting of how updates were answered."""

    full_runs: int = 0
    nodes_reused: int = 0
    nodes_executed: int = 0
    regimes: Dict[str, int] = field(default_factory=dict)

    def record(self, regime: str) -> None:
        self.regimes[regime] = self.regimes.get(regime, 0) + 1


class IncrementalView:
    """A standing query whose answer is maintained under factor updates.

    Parameters
    ----------
    query:
        The FAQ query to maintain.  Listing output only — factorized
        outputs share sub-factors whose identity an update would break.
    ordering:
        Variable ordering pinned for the view's lifetime (every update
        re-runs steps of the one lowered run kept for it).  ``None`` keeps
        the query's own order.
    use_indicator_projections / backend:
        Execution knobs, same meaning as in
        :func:`repro.core.insideout.inside_out`.
    add_tag:
        Override for :func:`additive_tag` on custom semirings.
    """

    def __init__(
        self,
        query: FAQQuery,
        ordering: Sequence[str] | str | None = None,
        use_indicator_projections: bool = True,
        backend: str = BACKEND_SPARSE,
        add_tag: Optional[str] = None,
    ) -> None:
        self.query = query
        self._order: Tuple[str, ...] = tuple(_validated_ordering(query, ordering))
        self._uip = use_indicator_projections
        self._backend = validate_backend(backend)
        self._add_tag = additive_tag(query.semiring, add_tag)
        self._linear = is_flat_query(query, self._add_tag)
        self._tries = SharedTrieCache(self._order, query.semiring, query.factors)
        self._run: Optional[_RunState] = None
        self._output: Optional[Factor] = None
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------ #
    # durable state (snapshot spill / warm restart)
    # ------------------------------------------------------------------ #
    def dump_state(self) -> Dict[str, Any]:
        """The view's picklable state for snapshot spill.

        Everything a restarted server needs to resume *warm*: the current
        query (frozen factors), the pinned ordering/backend knobs and the
        kept run's intermediate factors, one per slot after the base
        factors (``None`` before the first answer).  Runtime-only machinery
        (the indexes) and the accounting stats are excluded — a restored
        view starts with fresh stats, which is what lets tests assert "no
        full recompute after restore" as ``full_runs == 0``.
        """
        run = self._run
        return {
            "query": self.query,
            "order": self._order,
            "uip": self._uip,
            "backend": self._backend,
            "add_tag": self._add_tag,
            "intermediates": None if run is None else run.slots[run.dag.num_base:],
        }

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "IncrementalView":
        """Rebuild a view from :meth:`dump_state` output.

        The restored view lowers its query again and takes the spilled
        intermediates as its kept run's slots, executing nothing: it answers
        :meth:`result` from them, and its first :meth:`update_factor`
        re-runs only that update's cone, exactly as if the process had
        never restarted.  Its indexes start empty and fill as updates run;
        naming the restored factors is a memo hit that freezes them again,
        so they are held by reference like a live view's.  Raises
        :class:`QueryError` when the intermediates do not fit the lowering.
        """
        view = cls(
            state["query"], state["order"], state["uip"], state["backend"], state["add_tag"]
        )
        if state["intermediates"] is not None:
            view._cover()
            view._keep(state["intermediates"])
        return view

    # ------------------------------------------------------------------ #
    @property
    def ordering(self) -> Tuple[str, ...]:
        return self._order

    @property
    def backend(self) -> str:
        return self._backend

    def result(self) -> Factor:
        """The current answer (normalized sparse factor over the free vars).

        Computed from scratch on first access; afterwards maintained by
        :meth:`update_factor`.
        """
        if self._run is None:
            self.stats.full_runs += 1
            self._cover()
            self._keep()
        return self._output

    # ------------------------------------------------------------------ #
    def update_factor(self, index: int, delta: FactorDelta) -> Factor:
        """Apply ``delta`` to factor ``index`` and return the fresh answer.

        Re-runs the update's cone of the kept run (see the module
        docstring); the returned factor equals a full recomputation of the
        updated query as the module docstring defines it.
        """
        if not 0 <= index < len(self.query.factors):
            raise QueryError(
                f"factor index {index} out of range (query has "
                f"{len(self.query.factors)} factors)"
            )
        base = self.result()  # ensure a baseline answer and its kept run exist
        semiring = self.query.semiring
        old_factor = self.query.factors[index]
        changes = delta.effective_changes(old_factor, semiring)
        if not changes:
            return base  # nothing changed: same query, same answer
        new_factor = old_factor.apply_delta(
            FactorDelta(old_factor.scope, changes), semiring
        )
        change = self._difference(old_factor, new_factor, changes)
        previous = self.query
        self._install(index, new_factor, changes)
        try:
            reused, executed = self._run.rerun_cone(
                self.query, index, change, self._difference
            )
        except BaseException:
            self.query = previous
            self._cover()
            raise
        if change is None:
            self.stats.record(REGIME_DIRTY)
        else:
            self.stats.record(REGIME_DELTA if semiring.name in SUBTRACTABLE else REGIME_APPEND)
        self.stats.nodes_reused += reused
        self.stats.nodes_executed += executed
        self._output = self._answer()
        return self._output

    # ------------------------------------------------------------------ #
    def _difference(self, old: Factor, new: Factor, keys=None) -> Optional[Factor]:
        """``new`` as ``old ⊕ Δ``: the factor Δ, empty when the two agree.

        ``None`` when ``⊕`` cannot express the change: the view is not
        ⊕-linear in its factors, or a changed cell can neither be
        subtracted (no ⊕-inverse) nor absorbs its old value
        (``old ⊕ new ≠ new``: a decrease under max, a delete).  ``keys``
        are the cells that may differ (every cell when ``None``).
        """
        semiring = self.query.semiring
        was, now = as_sparse(old, semiring), as_sparse(new, semiring)
        before, after = was.table, now.table
        if keys is None:
            keys = list(before) + [key for key in after if key not in before]
        zero, equal, is_zero = semiring.zero, semiring.values_equal, semiring.zero_test()
        sub = SUBTRACTABLE.get(semiring.name) if self._linear else None
        cells: Dict[Tuple[Any, ...], Any] = {}
        for key in keys:
            a, b = before.get(key, zero), after.get(key, zero)
            if a == b:
                continue
            if sub is not None:
                difference = sub(b, a)
                if not is_zero(difference):
                    cells[key] = difference
            elif equal(a, b):
                continue
            elif self._linear and equal(semiring.add(a, b), b):
                cells[key] = b
            else:
                return None
        return Factor._adopt(was.scope, cells, f"{was.name}+delta")

    def _install(self, index: int, factor: Factor, changes: Dict[Tuple[Any, ...], Any]) -> None:
        """Make ``factor`` (factor ``index`` with ``changes`` applied) factor
        ``index`` of the standing query.  New content is named here, once,
        before the query takes it: the digest freezes it, so this and every
        later query of the view hold it by reference, memo included.  Its
        index entry is derived from the replaced factor's before
        :meth:`_cover` drops that one."""
        self._digest(factor)
        self._tries.derive(self.query.factors[index], factor, changes)
        self.query = self.query.with_factor(index, factor)
        self._cover()

    @staticmethod
    def _digest(factor: Factor) -> None:
        try:
            factor_digest(factor)
        except TypeError:
            pass  # no canonical encoding: indexed by the kept run alone

    def _cover(self) -> None:
        """Name every factor of the standing query and sweep it for zeros
        (memo hits for all but new content), and point the index store at
        exactly those contents."""
        for factor in self.query.factors:
            self._digest(factor)
            factor.is_pruned(self.query.semiring)
        self._tries.cover(self.query.factors)

    def _keep(self, intermediates: Optional[Sequence[Any]] = None) -> None:
        """Lower the standing query into the run the view keeps, and fill
        its slots: by executing every node, or from spilled intermediates."""
        run = _RunState(
            RunSpec(
                self.query,
                ordering=list(self._order),
                use_indicator_projections=self._uip,
                backend=self._backend,
                shared_tries=self._tries,
            ),
            content_digests=False,
        )
        if intermediates is None:
            run.execute_all()
        elif len(intermediates) != len(run.slots) - run.dag.num_base:
            raise QueryError("spilled intermediates do not fit the view's lowered run")
        else:
            run.slots[run.dag.num_base:] = intermediates
        self._run = run
        self._output = self._answer()

    def _answer(self) -> Factor:
        run = self._run
        factor = as_sparse(run.slots[run.dag.final_live[0]], self.query.semiring)
        return factor.normalize_scope(self.query.free)
