"""The :class:`Plan` value object: a chosen ordering and backend.

A plan is produced by :func:`repro.planner.planner.plan` and executed with
:meth:`Plan.execute`: an InsideOut run (Algorithm 1, the one strategy) on
the step-DAG executor (:class:`repro.exec.DagExecutor`), reached through
the one :meth:`Plan.run_spec`.

A natural join (every variable free) is an ordinary plan with no
elimination step: its answer is the output phase
(:func:`repro.core.insideout.output_phase`), which semijoin-reduces an
α-acyclic join along its join tree first, as Yannakakis' algorithm does,
and binds the variables worst-case optimally, as generic join does.

:meth:`Plan.explain` renders a human-readable report of what was chosen and
why, including the scored runner-up candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.query import FAQQuery, QueryError
from repro.factors.factor import Factor
from repro.planner.cost import STRATEGY_INSIDEOUT, OrderingEstimate
from repro.semiring.base import Semiring


@dataclass
class PlanResult:
    """The result of executing a plan — the surface of ``InsideOutResult``.

    ``raw`` keeps the underlying engine result (with its native stats) for
    callers that want its detail.
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

    @property
    def strategy(self) -> str:
        """The planned strategy: always ``"insideout"``."""
        return STRATEGY_INSIDEOUT

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        output_mode: str = "listing",
        shared_tries: Any = None,
        step_cache: Any = None,
    ) -> PlanResult:
        """Run the plan and return the output over the free variables.

        The plan runs on the step-DAG executor (:mod:`repro.exec`), on
        the calling thread.  ``shared_tries`` passes a
        :class:`~repro.factors.index.SharedTrieCache` of this query's
        base-factor tries (the serving layer reuses one across repeated
        identical queries); ``step_cache`` a
        :class:`~repro.exec.StepResultCache` of content-addressed step
        results (shared elimination prefixes replay instead of
        recomputing).
        """
        from repro.exec.executor import DagExecutor

        result = DagExecutor().run_many(
            [self.run_spec(output_mode, shared_tries)], step_cache=step_cache
        )[0]
        return PlanResult(
            plan=self,
            factor=result.factor,
            factorized=result.factorized,
            ordering=result.ordering,
            raw=result,
        )

    def run_spec(self, output_mode: str = "listing", shared_tries: Any = None):
        """This plan as a run of the step-DAG executor.

        The one place a plan becomes a :class:`~repro.exec.RunSpec` —
        :meth:`execute` runs it alone, the serving tier merges it with the
        rest of a batch.
        """
        from repro.exec.executor import RunSpec

        return RunSpec(
            query=self.query,
            ordering=list(self.ordering),
            output_mode=output_mode,
            backend=self.backend,
            shared_tries=shared_tries,
        )

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
                marker = "*" if candidate.ordering == self.ordering else " "
                lines.append(
                    f"   {marker} cost={candidate.total_cost:<12.1f} "
                    f"faqw={candidate.faq_width:.2f} backend={candidate.backend:<6} "
                    f"ordering={','.join(candidate.ordering)}"
                )
        return "\n".join(lines)
