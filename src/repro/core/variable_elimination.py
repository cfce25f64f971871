"""Textbook variable elimination — the baseline InsideOut improves upon.

This is the classic PGM / CSP dynamic-programming algorithm
(Section 5.1.2): to eliminate a variable, multiply *only* the factors that
contain it (pairwise hash joins, no indicator projections, no worst-case
optimal multiway join) and aggregate the variable away.  Its intermediate
results are bounded by the treewidth / integral-cover bounds rather than the
fractional hypertree width, which is exactly the gap Table 1 attributes to
prior PGM algorithms (``O~(N^htw)`` vs ``O~(N^faqw)``).

It is InsideOut's loop with two twists off, so it has no loop of its own: a
run is the ``"variable-elimination"`` *lowering* of
:func:`repro.exec.dag.lower_insideout` — no projection reads, semiring steps
marked for the pairwise join
(:func:`repro.core.insideout._pairwise_eliminate`) — executed by the one
step-DAG driver (:class:`repro.exec.DagExecutor`).  Product steps, constant
folds, dense steps and the output phase are the driver's own.

Only FAQ-SS queries (a single semiring aggregate shared by all bound
variables) plus product aggregates are supported, which covers the Marginal
and MAP rows of Table 1; the general multi-semiring case is handled by
InsideOut itself.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.insideout import InsideOutResult
from repro.core.query import FAQQuery, QueryError
from repro.factors.backend import BACKEND_SPARSE, BackendPolicy


def variable_elimination(
    query: FAQQuery,
    ordering: Sequence[str] | str | None = None,
    backend: str = BACKEND_SPARSE,
    backend_policy: BackendPolicy | None = None,
) -> InsideOutResult:
    """Evaluate an FAQ query by textbook variable elimination.

    Differences from :func:`repro.core.insideout.inside_out`:

    * intermediate results are formed by *pairwise* products of exactly the
      factors containing the eliminated variable (no indicator projections),
    * the run is serial (``workers=1``); a planned run
      (:meth:`repro.planner.plan.Plan.execute`) takes ``workers=``, a step
      cache and merged batches like any other run of the driver.

    ``ordering`` and ``backend`` mean what they mean for
    :func:`~repro.core.insideout.inside_out`, except that ``"plan"`` asks
    the cost-based planner for its best *variable-elimination* ordering.
    The result is the driver's :class:`~repro.core.insideout.InsideOutResult`
    (``stats.steps`` holds one record per elimination step).

    Raises
    ------
    QueryError
        If the bound variables use more than one distinct semiring aggregate
        (this baseline is an FAQ-SS algorithm; use InsideOut for general FAQ).
    """
    from repro.exec.executor import DagExecutor, RunSpec
    from repro.planner.cost import STRATEGY_VARIABLE_ELIMINATION

    tags = {query.aggregates[v].tag for v in query.semiring_variables}
    if len(tags) > 1:
        raise QueryError(
            f"variable_elimination supports a single semiring aggregate, got {sorted(tags)}"
        )
    spec = RunSpec(
        query, ordering, backend=backend, backend_policy=backend_policy,
        strategy=STRATEGY_VARIABLE_ELIMINATION,
    )
    return DagExecutor(workers=1).run_many([spec])[0]
