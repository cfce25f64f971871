"""Textbook variable elimination — the baseline InsideOut improves upon.

This is the classic PGM / CSP dynamic-programming algorithm
(Section 5.1.2): to eliminate a variable, multiply *only* the factors that
contain it (no indicator projections) and aggregate the variable away.  Its
intermediate results are bounded by the treewidth / integral-cover bounds
rather than the fractional hypertree width, which is exactly the gap
Table 1 attributes to prior PGM algorithms (``O~(N^htw)`` vs
``O~(N^faqw)``).

It is InsideOut with the indicator projections off, so it has no loop or
kernel of its own: a run is
``inside_out(query, use_indicator_projections=False)`` on the one step-DAG
driver (:class:`repro.exec.DagExecutor`).

Only FAQ-SS queries (a single semiring aggregate shared by all bound
variables) plus product aggregates are supported, which covers the Marginal
and MAP rows of Table 1; the general multi-semiring case is handled by
InsideOut itself.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.insideout import InsideOutResult, inside_out
from repro.core.query import FAQQuery, QueryError
from repro.factors.backend import BACKEND_SPARSE, BackendPolicy


def variable_elimination(
    query: FAQQuery,
    ordering: Sequence[str] | str | None = None,
    backend: str = BACKEND_SPARSE,
    backend_policy: BackendPolicy | None = None,
) -> InsideOutResult:
    """Evaluate an FAQ query by textbook variable elimination.

    The run is :func:`~repro.core.insideout.inside_out` with
    ``use_indicator_projections=False``, serially; ``ordering`` and
    ``backend`` mean what they mean there.  The result is the driver's
    :class:`~repro.core.insideout.InsideOutResult` (``stats.steps`` holds
    one record per elimination step).

    Raises
    ------
    QueryError
        If the bound variables use more than one distinct semiring aggregate
        (this baseline is an FAQ-SS algorithm; use InsideOut for general FAQ).
    """
    tags = {query.aggregates[v].tag for v in query.semiring_variables}
    if len(tags) > 1:
        raise QueryError(
            f"variable_elimination supports a single semiring aggregate, got {sorted(tags)}"
        )
    return inside_out(
        query, ordering, use_indicator_projections=False, backend=backend,
        backend_policy=backend_policy,
    )
