"""Textbook variable elimination — the baseline InsideOut improves upon.

This is the classic PGM / CSP dynamic-programming algorithm
(Section 5.1.2): to eliminate a variable, multiply *only* the factors that
contain it (pairwise hash joins, no indicator projections, no worst-case
optimal multiway join) and aggregate the variable away.  Its intermediate
results are bounded by the treewidth / integral-cover bounds rather than the
fractional hypertree width, which is exactly the gap Table 1 attributes to
prior PGM algorithms (``O~(N^htw)`` vs ``O~(N^faqw)``).

Only FAQ-SS queries (a single semiring aggregate shared by all bound
variables) plus product aggregates are supported, which covers the Marginal
and MAP rows of Table 1; the general multi-semiring case is handled by
InsideOut itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.core.insideout import _expand_isolated_free
from repro.core.query import FAQQuery, QueryError
from repro.factors.backend import (
    BACKEND_SPARSE,
    BackendPolicy,
    DEFAULT_POLICY,
    as_sparse,
    choose_dense,
    dense_join_reduce,
    multiply_factors,
    validate_backend,
)
from repro.factors.factor import Factor
from repro.faults import SITE_STEP_KERNEL, maybe_raise


@dataclass
class VariableEliminationStats:
    """Per-run counters for the baseline variable elimination."""

    max_intermediate_size: int = 0
    intermediate_sizes: List[int] = field(default_factory=list)
    multiplications: int = 0


@dataclass
class VariableEliminationResult:
    """Result of :func:`variable_elimination`."""

    factor: Factor
    ordering: Tuple[str, ...]
    stats: VariableEliminationStats

    @property
    def scalar(self) -> Any:
        """Scalar output for queries without free variables."""
        if self.factor.scope:
            raise QueryError("query has free variables; use .factor")
        return self.factor.table.get((), None)


def variable_elimination(
    query: FAQQuery,
    ordering: Sequence[str] | str | None = None,
    backend: str = BACKEND_SPARSE,
    backend_policy: BackendPolicy | None = None,
) -> VariableEliminationResult:
    """Evaluate an FAQ query by textbook variable elimination.

    Differences from :func:`repro.core.insideout.inside_out`:

    * intermediate results are formed by *pairwise* products of exactly the
      factors containing the eliminated variable (no indicator projections),
    * the final output is the pairwise product of the residual factors.

    ``backend`` selects the factor representation per elimination step just
    as in :func:`~repro.core.insideout.inside_out`: ``"sparse"`` (default),
    ``"dense"``, or the cost-heuristic ``"auto"``.  ``ordering="plan"`` asks
    the cost-based planner (:mod:`repro.planner`) for its best ordering.

    Raises
    ------
    QueryError
        If the bound variables use more than one distinct semiring aggregate
        (this baseline is an FAQ-SS algorithm; use InsideOut for general FAQ).
    """
    semiring = query.semiring
    backend = validate_backend(backend)
    policy = backend_policy if backend_policy is not None else DEFAULT_POLICY
    tags = {query.aggregates[v].tag for v in query.semiring_variables}
    if len(tags) > 1:
        raise QueryError(
            f"variable_elimination supports a single semiring aggregate, got {sorted(tags)}"
        )

    if ordering is None:
        order = list(query.order)
    elif isinstance(ordering, str):
        if ordering != "plan":
            raise QueryError(f"unknown ordering specification {ordering!r}")
        # Cost-based planner ordering (cached; see :mod:`repro.planner`).
        from repro.planner import STRATEGY_VARIABLE_ELIMINATION, plan

        order = list(plan(query, strategy=STRATEGY_VARIABLE_ELIMINATION).ordering)
    else:
        order = query.checked_ordering(ordering)

    stats = VariableEliminationStats()
    factors: List[Factor] = [f.copy() for f in query.factors]
    if not factors:
        factors = [Factor((), {(): semiring.one}, name="unit")]

    for position in range(len(order) - 1, query.num_free - 1, -1):
        maybe_raise(SITE_STEP_KERNEL)
        variable = order[position]
        aggregate = query.aggregates[variable]
        incident = [f for f in factors if variable in f.scope]
        rest = [f for f in factors if variable not in f.scope]

        if aggregate.is_product:
            domain_size = query.domain_size(variable)
            new_factors: List[Factor] = []
            for factor in incident:
                new_factors.append(factor.product_marginalize(variable, domain_size, semiring))
            for factor in rest:
                if factor.has_idempotent_range(semiring):
                    new_factors.append(factor)
                else:
                    new_factors.append(factor.power(domain_size, semiring))
            factors = new_factors
            continue

        if not incident:
            domain_size = query.domain_size(variable)
            value = semiring.one
            for _ in range(domain_size - 1):
                value = aggregate.combine(value, semiring.one)
            if not semiring.is_one(value):
                rest.append(Factor((), {(): value}, name=f"const({variable})"))
            factors = rest
            continue

        induced: set = set()
        for factor in incident:
            induced |= set(factor.scope)
        use_dense = choose_dense(
            backend, incident, induced, query.domains(), semiring, (aggregate.tag,), policy
        )
        if use_dense:
            output_scope = tuple(v for v in query.order if v in induced and v != variable)
            reduced = dense_join_reduce(
                incident,
                semiring,
                query.domains(),
                output_scope,
                (variable,),
                aggregate.tag,
                name=f"psi_elim({variable})",
            )
            # Account the *materialized* induced box, not the post-reduction
            # non-zero count, so intermediate sizes stay comparable with the
            # sparse path (which records the pre-marginalisation product).
            box_cells = 1
            for v in induced:
                box_cells *= query.domain_size(v)
            stats.multiplications += box_cells * max(len(incident) - 1, 0)
            stats.max_intermediate_size = max(stats.max_intermediate_size, box_cells)
            stats.intermediate_sizes.append(box_cells)
            factors = rest + [reduced]
            continue
        product = as_sparse(incident[0], semiring)
        if len(incident) == 1:
            reduced = product.aggregate_marginalize(variable, aggregate.combine, semiring)
            intermediate = len(product)
        else:
            # Pairwise products as before, but the *last* multiply is fused
            # with the marginalisation: the full induced-set product is never
            # materialised, while ``joined`` keeps the historical intermediate
            # accounting (it equals the listed size of the unfused product).
            for factor in incident[1:-1]:
                product = product.multiply(as_sparse(factor, semiring), semiring)
                stats.multiplications += len(product)
            reduced, joined = product.multiply_marginalize(
                as_sparse(incident[-1], semiring), variable, aggregate.combine, semiring
            )
            stats.multiplications += joined
            intermediate = joined
        stats.max_intermediate_size = max(stats.max_intermediate_size, intermediate)
        stats.intermediate_sizes.append(intermediate)
        factors = rest + [reduced]

    # Output phase: pairwise product of the residual factors.
    output = factors[0]
    for factor in factors[1:]:
        output = multiply_factors(output, factor, semiring)
        stats.multiplications += len(output)
    output = as_sparse(output, semiring)

    output = _expand_isolated_free(query, output, semiring)
    if query.free:
        output = output.normalize_scope(query.free)

    stats.max_intermediate_size = max(stats.max_intermediate_size, len(output))
    return VariableEliminationResult(factor=output, ordering=tuple(order), stats=stats)
