"""Incremental (delta) maintenance of FAQ query answers.

Given a standing :class:`~repro.core.query.FAQQuery` and a stream of
:class:`~repro.factors.FactorDelta` updates, an :class:`IncrementalView`
keeps the query answer current without full recomputation.  Three regimes,
chosen per update from the semiring and the shape of the delta:

* **delta propagation** (``REGIME_DELTA``) — for ⊕-invertible semirings
  (counting, sum-product): the FAQ expression is ⊕-linear in each factor
  when every bound aggregate *is* the semiring ⊕, so the change to the
  answer is the same query evaluated with the touched factor replaced by
  the sparse *signed difference* ``new ⊖ old``.  Cost scales with the
  delta's support, not the factor's.
* **monotone append** (``REGIME_APPEND``) — for idempotent semirings
  (max-product, boolean, min-plus) when every changed cell *absorbs* its
  old value (``old ⊕ new = new``): re-running the query over just the
  changed cells and ⊕-combining into the stale answer is exact, because
  every stale contribution is absorbed by a fresh one.
* **dirty-subgraph re-execution** (``REGIME_DIRTY``) — the universal
  fallback: re-lower the updated query and replay every step-DAG node
  whose content digest is unchanged from the previous run (an ordinary
  :class:`repro.exec.DagExecutor` run whose step source is the view's
  private :class:`~repro.exec.StepResultCache`); only the subgraph
  downstream of the touched base factor recomputes.

**What "equal to a full recomputation" means.**  For int, boolean and
idempotent (max, min, or) carriers every regime's answer is ``==`` a full
recomputation, cell for cell (the differential tests enforce this across
backends).  A float ⊕-invertible view (sum-product) answers by delta
propagation, which re-associates the float sums: its answers agree with a
full recomputation within :meth:`Semiring.values_equal` tolerance
(:meth:`Factor.equals`), not bit for bit — ROADMAP item 2(b) is where float
equality gets one definition.

Updates never mutate factors in place — factor tables freeze when
digested, and the supported update path is ``Factor.apply_delta``
producing a new factor with a new digest, which is what keeps every
digest-keyed cache in the engine honest.

**What an update pays for.**  The content that changed, and the steps
downstream of it.  The standing query holds its (frozen) factors by
reference, so the n−1 factors an update does not touch are neither copied
nor swept for zeros nor digested again.  The new factor is zero-free by
construction (``Factor.apply_delta``) and is named once, by a *derived*
digest: it carries its parent's bucket table and the changed keys, so
naming it encodes the changed rows alone and re-hashes each bucket one
falls in from the encoded rows the lineage keeps — O(|delta|) encodings,
and O(|delta|·√|factor|) bytes hashed in C (see
:func:`~repro.planner.signature.factor_digest`; the first update of a
lineage encodes the parent's keys into their buckets, once, and the first
update to touch a bucket encodes its values).  It is held by reference
from then on.  The view keeps one
:class:`~repro.factors.index.SharedTrieCache` for its pinned ordering and
hands it to every run, so tries, indicator projections and flat encodings
of the untouched factors stay warm; it covers exactly the standing
query's factor contents (the replaced content's entry is dropped with the
update, a delta factor is never in it).  The new content's index is
*derived* from the replaced one's
(:meth:`~repro.factors.index.SharedTrieCache.derive`): a path-copied trie
and, while the support stays, the old projections and the old flat
encoding with the changed values patched into a copy of its value column,
so its Python work is O(|delta|).  Each query the view builds sweeps a
frozen factor for zeros once (:meth:`Factor.is_pruned`), so from the
first update on every held factor carries the zero-free memo, children
inherit it, and index builds skip the per-value zero test.  What is still
O(|factor|) per update is copying the table (and, in NumPy, the value
column), and a fresh trie (projections, encoding) when a change deletes
(adds or deletes) a cell; what is still O(|query|) is re-lowering and
re-annotating the step DAG — the latter splices each variable's memoised
domain encoding, so it is O(nodes) once every factor is named.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.insideout import STEP_COMPUTED, STEP_REPLAYED, InsideOutStats, apply_output_delta, _validated_ordering
from repro.core.query import FAQQuery, QueryError
from repro.exec.executor import DagExecutor, RunSpec, StepResultCache
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
        Variable ordering pinned for the view's lifetime (every regime
        must eliminate in the same order for digests and deltas to line
        up).  ``None`` keeps the query's own order.
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
        self._steps = StepResultCache()
        self._tries = SharedTrieCache(self._order, query.semiring, query.factors)
        self._output: Optional[Factor] = None
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------ #
    # durable state (snapshot spill / warm restart)
    # ------------------------------------------------------------------ #
    def dump_state(self) -> Dict[str, Any]:
        """The view's picklable state for snapshot spill.

        Everything a restarted server needs to resume *warm*: the current
        query (frozen factors), the pinned ordering/backend knobs, the
        digest-keyed step cache's entries and the current answer.  Runtime-only
        machinery (the index store) and the accounting stats
        are excluded — a restored view starts with fresh stats, which is
        what lets tests assert "no full recompute after restore" as
        ``full_runs == 0``.
        """
        return {
            "query": self.query,
            "order": self._order,
            "uip": self._uip,
            "backend": self._backend,
            "add_tag": self._add_tag,
            "steps": self._steps,
            "output": self._output,
        }

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "IncrementalView":
        """Rebuild a view from :meth:`dump_state` output.

        The restored view answers :meth:`result` from the saved output
        without any execution, and its first :meth:`update_factor` runs
        against the saved step entries — only the dirty subgraph of that
        update executes, exactly as if the process had never restarted.
        Its index store starts empty and refills as updates run; naming
        the restored factors is a memo hit that freezes them again, so
        they are held by reference like a live view's.
        """
        view = cls.__new__(cls)
        view.query = state["query"]
        view._order = tuple(state["order"])
        view._uip = state["uip"]
        view._backend = state["backend"]
        view._add_tag = state["add_tag"]
        view._steps = state["steps"]
        view._tries = SharedTrieCache(view._order, view.query.semiring, ())
        view._cover()
        view._output = state["output"]
        view.stats = IncrementalStats()
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
        if self._output is None:
            self._output = self._full_run()
        return self._output

    # ------------------------------------------------------------------ #
    def update_factor(self, index: int, delta: FactorDelta) -> Factor:
        """Apply ``delta`` to factor ``index`` and return the fresh answer.

        Picks the cheapest sound regime for this update (see the module
        docstring); the returned factor equals a full recomputation of the
        updated query as the module docstring defines it.
        """
        if not 0 <= index < len(self.query.factors):
            raise QueryError(
                f"factor index {index} out of range (query has "
                f"{len(self.query.factors)} factors)"
            )
        base = self.result()  # ensure a baseline answer + its steps exist
        semiring = self.query.semiring
        old_factor = self.query.factors[index]
        changes = delta.effective_changes(old_factor, semiring)
        if not changes:
            return base  # nothing changed: same query, same answer
        new_factor = old_factor.apply_delta(
            FactorDelta(old_factor.scope, changes), semiring
        )

        regime = self._choose_regime(old_factor, changes)
        self.stats.record(regime)
        if regime == REGIME_DELTA:
            cells = self._signed_differences(old_factor, changes)
            output = self._apply_cells(index, old_factor, cells, "+delta", base)
        elif regime == REGIME_APPEND:
            cells = {c: v for c, v in changes.items() if not semiring.is_zero(v)}
            output = self._apply_cells(index, old_factor, cells, "+append", base)
        else:
            self._install(index, new_factor, changes)
            output = self._update_run(self.query)
            self._output = output
            return output

        self._install(index, new_factor, changes)
        # The step cache stays: its entries are *content-addressed*, so a
        # stale entry can never replay wrongly — it either matches a future
        # node's digest (and is then valid by construction) or is ignored.
        # Steps disjoint from the updated factor keep replaying across
        # arbitrarily many updates.
        self._output = output
        return output

    # ------------------------------------------------------------------ #
    # regime selection and application
    # ------------------------------------------------------------------ #
    def _choose_regime(
        self, old_factor: Factor, changes: Dict[Tuple[Any, ...], Any]
    ) -> str:
        semiring = self.query.semiring
        if not is_flat_query(self.query, self._add_tag):
            return REGIME_DIRTY
        if semiring.name in SUBTRACTABLE:
            return REGIME_DELTA
        # Idempotent ⊕: sound to append only when every changed cell
        # absorbs its old value (old ⊕ new = new) — deletions and
        # "worsening" updates fall through to dirty re-execution.
        for cell, value in changes.items():
            old_value = old_factor.value_of_tuple(cell, semiring)
            if not semiring.values_equal(semiring.add(old_value, value), value):
                return REGIME_DIRTY
        return REGIME_APPEND

    def _signed_differences(
        self, old_factor: Factor, changes: Dict[Tuple[Any, ...], Any]
    ) -> Dict[Tuple[Any, ...], Any]:
        """The non-zero ``new ⊖ old`` of each changed cell (delta regime)."""
        semiring = self.query.semiring
        sub = SUBTRACTABLE[semiring.name]
        diff: Dict[Tuple[Any, ...], Any] = {}
        for cell, value in changes.items():
            signed = sub(value, old_factor.value_of_tuple(cell, semiring))
            if not semiring.values_equal(signed, semiring.zero):
                diff[cell] = signed
        return diff

    def _apply_cells(
        self,
        index: int,
        old_factor: Factor,
        cells: Dict[Tuple[Any, ...], Any],
        suffix: str,
        base: Factor,
    ) -> Factor:
        """``base ⊕`` the query run with factor ``index`` reduced to ``cells``."""
        if not cells:
            return base
        delta_factor = Factor(old_factor.scope, cells, name=old_factor.name + suffix)
        correction = self._run_with_factor(index, delta_factor)
        return apply_output_delta(base, correction, self.query.semiring, name=base.name)

    # ------------------------------------------------------------------ #
    # execution helpers
    # ------------------------------------------------------------------ #
    def _with_factor(self, index: int, factor: Factor) -> FAQQuery:
        """The current query with factor ``index`` replaced.

        The delta-propagation signed differences survive FAQQuery's
        zero-pruning because a non-zero ⊖ difference is, by construction,
        a non-zero semiring value.
        """
        factors = list(self.query.factors)
        factors[index] = factor
        return FAQQuery(
            variables=[self.query.variables[v] for v in self.query.order],
            free=self.query.free,
            aggregates=self.query.aggregates,
            factors=factors,
            semiring=self.query.semiring,
            name=self.query.name,
        )

    def _install(self, index: int, factor: Factor, changes: Dict[Tuple[Any, ...], Any]) -> None:
        """Make ``factor`` (factor ``index`` with ``changes`` applied) factor
        ``index`` of the standing query.  New content is named here, once,
        before the query takes it: the digest freezes it, so this and every
        later query of the view hold it by reference, memo included.  Its
        index entry is derived from the replaced factor's before
        :meth:`_cover` drops that one."""
        self._digest(factor)
        self._tries.derive(self.query.factors[index], factor, changes)
        self.query = self._with_factor(index, factor)
        self._cover()

    @staticmethod
    def _digest(factor: Factor) -> None:
        try:
            factor_digest(factor)
        except TypeError:
            pass  # no canonical encoding: copied and indexed per run, as before

    def _cover(self) -> None:
        """Name every factor of the standing query (a memo hit for all but
        new content) and point the index store at exactly those contents."""
        for factor in self.query.factors:
            self._digest(factor)
        self._tries.cover(self.query.factors)

    def _run_with_factor(self, index: int, factor: Factor) -> Factor:
        """Evaluate the view's query with factor ``index`` swapped for
        ``factor`` (the delta/append correction run).

        Runs against the view's step cache: every elimination step *not*
        involving the swapped factor has the same content digest as the
        baseline run and replays instead of recomputing, so the correction
        run pays only for the (small) subgraph the delta actually touches —
        the joins of a few changed cells, not the full factor tables.
        """
        return self._update_run(self._with_factor(index, factor))

    def _full_run(self) -> Factor:
        self.stats.full_runs += 1
        self._cover()
        output, _ = self._execute(self.query)
        return output

    def _update_run(self, query: FAQQuery) -> Factor:
        output, stats = self._execute(query)
        self.stats.nodes_reused += stats.provenance.count(STEP_REPLAYED)
        self.stats.nodes_executed += stats.provenance.count(STEP_COMPUTED)
        return output

    def _execute(self, query: FAQQuery) -> Tuple[Factor, InsideOutStats]:
        """Evaluate ``query`` against the view's step cache.

        An ordinary executor run whose step source is the cache: nodes
        whose content digest it holds replay, the rest execute and are
        recorded into it.  Its LRU bound keeps an unbounded update stream
        from pinning every intermediate ever computed.
        """
        [result] = DagExecutor().run_many(
            [RunSpec(
                query,
                ordering=list(self._order),
                use_indicator_projections=self._uip,
                backend=self._backend,
                shared_tries=self._tries,
            )],
            step_cache=self._steps,
        )
        factor = as_sparse(result.factor, self.query.semiring)
        return factor.normalize_scope(self.query.free), result.stats
