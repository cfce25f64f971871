"""The :class:`Plan` value object: a chosen strategy, ordering and backend.

A plan is produced by :func:`repro.planner.planner.plan` and executed with
:meth:`Plan.execute`, which dispatches to the engine the planner selected:

* ``"insideout"`` — :func:`repro.core.insideout.inside_out` (the general
  FAQ algorithm, any query);
* ``"variable-elimination"`` — the textbook baseline of
  :func:`repro.core.variable_elimination.variable_elimination` (FAQ-SS
  queries plus product aggregates);
* ``"yannakakis"`` — :func:`repro.db.yannakakis.yannakakis` (α-acyclic
  all-free indicator queries, i.e. natural joins);
* ``"generic-join"`` — :func:`repro.db.generic_join.generic_join`
  (cyclic all-free indicator queries).

:meth:`Plan.explain` renders a human-readable report of what was chosen and
why, including the scored runner-up candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.query import FAQQuery, QueryError
from repro.factors.factor import Factor
from repro.planner.cost import (
    OrderingEstimate,
    STRATEGY_GENERIC_JOIN,
    STRATEGY_INSIDEOUT,
    STRATEGY_VARIABLE_ELIMINATION,
    STRATEGY_YANNAKAKIS,
)
from repro.semiring.base import Semiring


@dataclass
class PlanResult:
    """The result of executing a plan — the surface of ``InsideOutResult``.

    ``raw`` keeps the underlying engine result (with its native stats) for
    callers that want strategy-specific detail.
    """

    plan: "Plan"
    factor: Optional[Factor]
    ordering: Tuple[str, ...]
    factorized: Any = None
    raw: Any = None

    @property
    def stats(self) -> Any:
        """The underlying engine's stats object, when it has one."""
        return getattr(self.raw, "stats", None)

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


@dataclass
class Plan:
    """An executable query plan chosen by the cost-based planner."""

    query: FAQQuery
    strategy: str
    ordering: Tuple[str, ...]
    backend: str
    estimated_cost: float
    faq_width: float
    signature: Optional[tuple] = None
    cache_hit: bool = False
    estimate: Optional[OrderingEstimate] = None
    candidates: List[OrderingEstimate] = field(default_factory=list)
    planning_seconds: float = 0.0
    # Closed-loop planning (see repro.planner.planner.record_plan_feedback):
    # the per-step estimated result sizes stored with the cached plan entry,
    # the cache key the plan was served/stored under, and whether it was
    # transferred across a shape drift (drifted plans demote first).
    step_sizes: Tuple[float, ...] = ()
    cache_key: Optional[tuple] = None
    drifted: bool = False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        output_mode: str = "listing",
        workers: int | str | None = None,
        workers_mode: str = "thread",
        shared_tries: Any = None,
        step_cache: Any = None,
    ) -> PlanResult:
        """Run the plan and return the output over the free variables.

        InsideOut always runs on the step-DAG executor (:mod:`repro.exec`);
        ``workers`` > 1 parallelises it and ``workers_mode="process"`` swaps its
        thread pool for shared-memory worker processes so the sparse
        kernels escape the GIL.  The other strategies always execute
        serially — per-query parallelism for them comes from batching whole
        queries through :mod:`repro.serve`.  ``shared_tries`` passes a
        :class:`~repro.factors.index.SharedTrieCache` of this query's
        base-factor tries (the serving layer reuses one across repeated
        identical queries); ``step_cache`` a
        :class:`~repro.exec.StepResultCache` of content-addressed step
        results (shared elimination prefixes replay instead of
        recomputing).  Both are InsideOut-only accelerations and are
        ignored by the other strategies.
        """
        if self.strategy == STRATEGY_INSIDEOUT:
            from repro.core.insideout import inside_out

            result = inside_out(
                self.query,
                ordering=list(self.ordering),
                output_mode=output_mode,
                backend=self.backend,
                workers=workers,
                workers_mode=workers_mode,
                shared_tries=shared_tries,
                step_cache=step_cache,
            )
            return PlanResult(
                plan=self,
                factor=result.factor,
                factorized=result.factorized,
                ordering=result.ordering,
                raw=result,
            )
        if output_mode != "listing":
            raise QueryError(
                f"output mode {output_mode!r} requires the insideout strategy"
            )
        if self.strategy == STRATEGY_VARIABLE_ELIMINATION:
            from repro.core.variable_elimination import variable_elimination

            result = variable_elimination(
                self.query, ordering=list(self.ordering), backend=self.backend
            )
            return PlanResult(
                plan=self, factor=result.factor, ordering=result.ordering, raw=result
            )
        if self.strategy == STRATEGY_YANNAKAKIS:
            return self._execute_yannakakis()
        if self.strategy == STRATEGY_GENERIC_JOIN:
            return self._execute_generic_join()
        raise QueryError(f"unknown plan strategy {self.strategy!r}")

    def _relations(self):
        from repro.db.relation import Relation

        return [
            Relation(factor.name or f"psi{i}", factor.scope, factor.table.keys())
            for i, factor in enumerate(self.query.factors)
        ]

    def _execute_yannakakis(self) -> PlanResult:
        from repro.db.yannakakis import yannakakis

        free = list(self.query.free)
        relation = yannakakis(self._relations(), output_attributes=free)
        one = self.query.semiring.one
        factor = Factor(
            tuple(free), {row: one for row in relation.tuples}, name=f"{self.query.name}(out)"
        )
        return PlanResult(plan=self, factor=factor, ordering=self.ordering, raw=relation)

    def _execute_generic_join(self) -> PlanResult:
        from repro.db.generic_join import generic_join

        relation = generic_join(self._relations(), attribute_order=list(self.ordering))
        one = self.query.semiring.one
        factor = Factor(
            relation.schema, {row: one for row in relation.tuples}, name=f"{self.query.name}(out)"
        ).normalize_scope(self.query.free)
        return PlanResult(plan=self, factor=factor, ordering=self.ordering, raw=relation)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def explain(self) -> str:
        """A human-readable report of the chosen plan.

        The report shows the selected strategy/ordering/backend, the
        estimated cost and FAQ-width, the per-step size estimates, and the
        scored candidates the winner was chosen from (see the README's
        planner section for how to read it).
        """
        lines = [
            f"plan for {self.query!r}",
            f"  strategy : {self.strategy}",
            f"  ordering : {' -> '.join(self.ordering) if self.ordering else '(none)'}",
            f"  backend  : {self.backend}",
            f"  est cost : {self.estimated_cost:.1f} (faqw ~ {self.faq_width:.2f})",
            f"  source   : {'plan cache hit' if self.cache_hit else 'cost-based search'}",
            f"  planned  : {self.planning_seconds * 1e3:.2f} ms",
        ]
        if self.estimate is not None and self.estimate.steps:
            lines.append("  steps:")
            for step in self.estimate.steps:
                box = "inf" if step.box_cells == float("inf") else f"{step.box_cells:.0f}"
                lines.append(
                    f"    eliminate {step.variable:<12} kind={step.kind:<8} "
                    f"|U|={len(step.induced):<2} rho*={step.rho_star:.2f} "
                    f"box={box} est={step.cost:.1f} backend={step.backend}"
                )
        if self.candidates:
            lines.append("  candidates considered:")
            for candidate in sorted(self.candidates, key=lambda c: c.total_cost):
                marker = "*" if (
                    candidate.strategy == self.strategy
                    and candidate.ordering == self.ordering
                ) else " "
                lines.append(
                    f"   {marker} {candidate.strategy:<20} cost={candidate.total_cost:<12.1f} "
                    f"faqw={candidate.faq_width:.2f} backend={candidate.backend:<6} "
                    f"ordering={','.join(candidate.ordering)}"
                )
        return "\n".join(lines)
