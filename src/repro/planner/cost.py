"""The planner's cost model: FAQ-width plus data-aware statistics.

A candidate ordering is scored by simulating the elimination InsideOut
would perform along it:

* the induced sets ``U_k`` come from the FAQ elimination sequence
  (product variables drop out of edges, Definition 5.4);
* each step is estimated by the *data-dependent AGM bound*
  ``AGM_H(U_k)`` of the original hypergraph (the quantity Theorem 4.6 bounds
  the intermediates by, thanks to the indicator projections), capped by the
  dense domain box ``∏_{v ∈ U_k} |Dom(v)|``;
* a step additionally gets a vectorised (dense) estimate — the box cell
  count weighted by :data:`DENSE_CELL_WEIGHT` — whenever the semiring and
  aggregate map to NumPy ufuncs and the box fits under the
  :class:`~repro.factors.backend.BackendPolicy` cell cap, mirroring the
  dense-vs-sparse heuristic of :mod:`repro.factors.backend`.

``ρ*`` and AGM evaluations are memoised for one search: candidate orderings
of the same query share most of their induced sets, and each evaluation is
at worst a small LP.  ``ρ*`` is additionally backed by the process-wide
restricted-edge-structure memo of
:func:`repro.hypergraph.covers.fractional_edge_cover_number`, so a search
rarely pays for an LP the process has seen before — and so does the AGM
bound whenever the factors meeting an induced set all have
one size ``N`` (#SAT clauses, one relation joined with itself): it is then
``N^ρ*`` and :func:`~repro.hypergraph.covers.agm_bound` asks that memo
instead of solving the weighted LP.  :attr:`CostModel.invocations` counts
scored candidates so tests can verify that a
:class:`~repro.planner.cache.PlanCache` hit skips the ordering search.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.query import FAQQuery
from repro.factors.backend import (
    BACKEND_DENSE,
    BACKEND_SPARSE,
    BackendPolicy,
    DEFAULT_POLICY,
    supports_dense,
)
from repro.hypergraph.covers import agm_bound, fractional_edge_cover_number
from repro.hypergraph.elimination import induced_unions
from repro.hypergraph.hypergraph import Hypergraph

# The one strategy the planner knows: InsideOut, whose lowering the step-DAG
# executor runs.  Textbook variable elimination is InsideOut with its
# indicator projections off, and a join is its output phase.
STRATEGY_INSIDEOUT = "insideout"
STRATEGIES = (STRATEGY_INSIDEOUT,)

# Per-estimated-tuple work factors.  A dense (vectorised) cell is far cheaper
# than a sparse per-tuple dict operation.
DENSE_CELL_WEIGHT = 0.05


@dataclass(frozen=True)
class QueryStatistics:
    """Data statistics the cost model scores candidate plans against."""

    factor_sizes: Dict[FrozenSet[str], int]
    domain_sizes: Dict[str, int]
    num_factors: int
    total_input: int
    max_factor_size: int

    @classmethod
    def from_query(cls, query: FAQQuery) -> "QueryStatistics":
        """Collect factor sizes, domain cardinalities and input totals."""
        return cls(
            factor_sizes=query.factor_sizes(),
            domain_sizes={v: query.domain_size(v) for v in query.order},
            num_factors=len(query.factors),
            total_input=sum(len(f) for f in query.factors),
            max_factor_size=query.input_size,
        )


@dataclass
class StepEstimate:
    """Estimated cost of one elimination step of a candidate plan."""

    variable: str
    kind: str  # "semiring", "product" or "output"
    induced: FrozenSet[str]
    rho_star: float
    box_cells: float
    sparse_cost: float
    dense_cost: Optional[float]  # None when the step cannot vectorise
    backend: str  # the cheaper representation for this step
    est_size: float = float("nan")  # estimated result tuples (NaN: not modelled)

    @property
    def cost(self) -> float:
        if self.dense_cost is not None and self.dense_cost < self.sparse_cost:
            return self.dense_cost
        return self.sparse_cost


@dataclass
class OrderingEstimate:
    """The scored result of one candidate ordering."""

    ordering: Tuple[str, ...]
    backend: str  # "sparse" | "dense" | "auto" suggestion for the whole run
    total_cost: float
    faq_width: float
    steps: List[StepEstimate] = field(default_factory=list)


class CostModel:
    """Scores candidate orderings against query statistics."""

    def __init__(self, policy: BackendPolicy = DEFAULT_POLICY) -> None:
        self.policy = policy
        self.invocations = 0
        # The process-wide model is shared by concurrent planner calls
        # (repro.serve plans queries on a pool): the counter is guarded so
        # it stays exact under concurrent requests.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _box_cells(self, variables: FrozenSet[str], stats: QueryStatistics) -> float:
        cells = 1.0
        for v in variables:
            cells *= stats.domain_sizes.get(v, 1)
            if cells > 1e18:
                return math.inf
        return cells

    def _dense_cost(
        self,
        query: FAQQuery,
        box: float,
        tag: Optional[str],
    ) -> Optional[float]:
        tags = (tag,) if tag is not None else ()
        if not supports_dense(query.semiring, tags):
            return None
        if box > self.policy.cell_cap:
            return None
        return box * DENSE_CELL_WEIGHT

    # ------------------------------------------------------------------ #
    # the main scoring entry point
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        query: FAQQuery,
        stats: QueryStatistics,
        ordering: Sequence[str],
        hypergraph: Hypergraph | None = None,
    ) -> OrderingEstimate:
        """Score one candidate ordering (a search of one candidate)."""
        return self._score(query, stats, [ordering], hypergraph)[0]

    def _score(
        self,
        query: FAQQuery,
        stats: QueryStatistics,
        orderings: Sequence[Sequence[str]],
        hypergraph: Hypergraph | None = None,
    ) -> List[OrderingEstimate]:
        """Score the candidate orderings of one search.

        The ``ρ*`` and AGM memos last for this call: candidate orderings of
        one query share most of their induced sets, and with the hypergraph
        and statistics fixed for the call a memo key is the subset alone.
        Adds one to :attr:`invocations` per candidate — the counter
        plan-cache tests use to prove that a cache hit skips the search.
        """
        if hypergraph is None:
            hypergraph = query.hypergraph()
        with self._lock:
            self.invocations += len(orderings)
        rho_memo: Dict[FrozenSet[str], float] = {}
        agm_memo: Dict[FrozenSet[str], float] = {}

        def rho_star(subset: FrozenSet[str]) -> float:
            value = rho_memo.get(subset)
            if value is None:
                if len(subset) <= 1:
                    value = float(bool(subset))
                else:
                    value = fractional_edge_cover_number(
                        hypergraph, subset, ignore_uncovered=True
                    )
                rho_memo[subset] = value
            return value

        def agm(subset: FrozenSet[str]) -> float:
            """The data-dependent AGM bound ``∏ |ψ_S|^{λ*_S}`` on ``subset``."""
            value = agm_memo.get(subset)
            if value is None:
                covered = frozenset(
                    v for v in subset if any(v in e for e in hypergraph.edges)
                )
                value = agm_bound(hypergraph, stats.factor_sizes, covered) if covered else 1.0
                agm_memo[subset] = value
            return value

        return [
            self._estimate(query, stats, tuple(ordering), hypergraph, rho_star, agm)
            for ordering in orderings
        ]

    def _estimate(
        self,
        query: FAQQuery,
        stats: QueryStatistics,
        order: Tuple[str, ...],
        hypergraph: Hypergraph,
        rho_star: Callable[[FrozenSet[str]], float],
        agm: Callable[[FrozenSet[str]], float],
    ) -> OrderingEstimate:
        """Score ``order`` with the search's memoised ``rho_star`` and ``agm``."""
        unions = induced_unions(hypergraph, order, query.product_variables)
        k_set = query.k_set

        # Simulated per-factor size estimates (scope, estimated tuples).
        live: List[Tuple[FrozenSet[str], float]] = [
            (frozenset(f.scope), float(len(f))) for f in query.factors
        ]
        estimates: List[StepEstimate] = []
        faq_width = 0.0
        total = 0.0

        for position in range(len(order) - 1, query.num_free - 1, -1):
            variable = order[position]
            aggregate = query.aggregates[variable]
            if aggregate.is_product:
                product_cost = sum(size for _, size in live)
                live = [
                    (scope - {variable}, size) for scope, size in live
                ]
                estimates.append(
                    StepEstimate(
                        variable=variable,
                        kind="product",
                        induced=frozenset({variable}),
                        rho_star=0.0,
                        box_cells=float(stats.domain_sizes.get(variable, 1)),
                        sparse_cost=product_cost,
                        dense_cost=None,
                        backend=BACKEND_SPARSE,
                    )
                )
                total += product_cost
                continue

            union = unions[variable]
            rho = rho_star(union)
            faq_width = max(faq_width, rho) if variable in k_set else faq_width
            box = self._box_cells(union, stats)

            incident = [(scope, size) for scope, size in live if variable in scope]
            rest = [(scope, size) for scope, size in live if variable not in scope]
            if not incident:
                # Constant fold, negligible work.
                estimates.append(
                    StepEstimate(
                        variable=variable,
                        kind="semiring",
                        induced=frozenset({variable}),
                        rho_star=rho,
                        box_cells=float(stats.domain_sizes.get(variable, 1)),
                        sparse_cost=1.0,
                        dense_cost=None,
                        backend=BACKEND_SPARSE,
                        est_size=1.0,
                    )
                )
                total += 1.0
                live = rest
                continue

            # A single worst-case-optimal join bounded by the data-dependent
            # AGM bound of the induced set.
            bound = agm(union)
            sparse = min(box, bound) + sum(size for _, size in incident)

            dense = self._dense_cost(query, box, aggregate.tag)
            backend = (
                BACKEND_DENSE if dense is not None and dense < sparse else BACKEND_SPARSE
            )
            result_scope = union - {variable}
            result_size = min(self._box_cells(result_scope, stats), bound)
            step = StepEstimate(
                variable=variable,
                kind="semiring",
                induced=union,
                rho_star=rho,
                box_cells=box,
                sparse_cost=sparse,
                dense_cost=dense,
                backend=backend,
                est_size=result_size,
            )
            estimates.append(step)
            total += step.cost

            live = rest + [(result_scope, result_size)]

        # Output phase over the free variables.
        if query.num_free:
            free_set = frozenset(query.free)
            for variable in query.free:
                rho = rho_star(unions[variable])
                faq_width = max(faq_width, rho)
            out_box = self._box_cells(free_set, stats)
            out_agm = agm(free_set)
            out_sparse = min(out_box, out_agm) + sum(size for _, size in live)
            out_dense = self._dense_cost(query, out_box, None)
            out_backend = (
                BACKEND_DENSE
                if out_dense is not None and out_dense < out_sparse
                else BACKEND_SPARSE
            )
            out_step = StepEstimate(
                variable="<output>",
                kind="output",
                induced=free_set,
                rho_star=rho_star(free_set),
                box_cells=out_box,
                sparse_cost=out_sparse,
                dense_cost=out_dense,
                backend=out_backend,
                est_size=min(out_box, out_agm),
            )
            estimates.append(out_step)
            total += out_step.cost

        backend = self._suggest_backend(estimates)
        return OrderingEstimate(
            ordering=order,
            backend=backend,
            total_cost=total,
            faq_width=faq_width,
            steps=estimates,
        )

    @staticmethod
    def _suggest_backend(steps: Sequence[StepEstimate]) -> str:
        """Collapse per-step representation choices into an engine mode."""
        eliminations = [s for s in steps if s.kind in ("semiring", "output")]
        if not eliminations:
            return BACKEND_SPARSE
        dense_steps = sum(1 for s in eliminations if s.backend == BACKEND_DENSE)
        if dense_steps == 0:
            return BACKEND_SPARSE
        if dense_steps == len(eliminations):
            return BACKEND_DENSE
        return "auto"


# ---------------------------------------------------------------------- #
# observed-vs-estimated comparison
# ---------------------------------------------------------------------- #
def observed_step_errors(step_sizes: Sequence[float], stats) -> List[float]:
    """Signed per-step log errors of a plan against an execution's stats.

    ``step_sizes`` is :attr:`repro.planner.plan.Plan.step_sizes` — the cost
    model's estimated result sizes in elimination order, optionally followed
    by the output-phase estimate; ``stats`` is the ``InsideOutStats`` of the
    run that executed the plan.  Each comparable step contributes
    ``log((observed_size + 1) / (estimated_size + 1))`` — positive when the
    data came in bigger than the model thought.  Product steps (``NaN``
    estimates) and shape mismatches (a different ordering executed than was
    estimated) contribute nothing; a mismatched step *count* returns ``[]``
    outright rather than comparing misaligned steps.
    """
    records = getattr(stats, "steps", None)
    if records is None or not step_sizes:
        return []
    if len(step_sizes) not in (len(records), len(records) + 1):
        return []
    errors: List[float] = []
    for estimated, record in zip(step_sizes, records):
        if record.kind != "semiring" or not math.isfinite(estimated):
            continue
        errors.append(math.log((record.result_size + 1.0) / (estimated + 1.0)))
    output_size = getattr(stats, "output_size", -1)
    if len(step_sizes) == len(records) + 1 and output_size >= 0:
        estimated = step_sizes[-1]
        if math.isfinite(estimated):
            errors.append(math.log((output_size + 1.0) / (estimated + 1.0)))
    return errors
