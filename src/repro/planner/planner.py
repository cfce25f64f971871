"""The cost-based query planner (the decision layer over the engines).

``plan(query, stats)`` turns the repo's five ad-hoc per-call-site choices
(which ordering heuristic, which factor backend, which algorithm) into one
tested decision:

1. **candidate orderings** — the written order, the Section 7
   FAQ-width approximation, the min-fill / min-degree / greedy-cover
   heuristics re-arranged to a free-prefix, plus a few linear extensions
   of the precedence poset for small queries.  Each must be in EVO
   (Section 6): a linear extension of the precedence poset is one by
   Theorems 6.8 / 6.23 and is accepted by a pass over its predecessor
   sets; only the rest — heuristic arrangements that break the poset of a
   multi-block query — go through the recursive membership test;
2. **scoring** — every candidate is scored by the
   :class:`~repro.planner.cost.CostModel` (FAQ-width LPs + data-aware AGM
   estimates + the dense-box heuristic) as an InsideOut run, the one
   strategy.  Where no indicator projection filters, InsideOut's steps are
   textbook variable elimination's.  A natural join (every variable free)
   plans with no elimination step, and its answer comes from the output
   phase, which carries Yannakakis' semijoin reduction for α-acyclic joins
   and generic join's worst-case-optimal search for the rest;
3. **caching** — the winning plan is stored in a
   :class:`~repro.planner.cache.PlanCache` under the structural signature
   of :mod:`repro.planner.signature`, so repeated or isomorphic queries
   skip the search entirely.  The signature is computed once per query
   instance and shared with the query's content key.

Explicit ``ordering=``/``backend=`` arguments are honoured as overrides,
preserving every pre-planner call signature in the repo; ``strategy=``
accepts ``"insideout"`` only.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.evo import is_equivalent_ordering, linear_extensions
from repro.core.expression_tree import build_expression_tree
from repro.core.faqw import approximate_faqw_ordering
from repro.core.query import FAQQuery, QueryError
from repro.factors.backend import validate_backend
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.orderings import min_degree_ordering, min_fill_ordering
from repro.planner.cache import DEFAULT_PLAN_CACHE, CachedPlan, PlanCache
from repro.planner.cost import (
    CostModel,
    OrderingEstimate,
    QueryStatistics,
    STRATEGIES,
)
from repro.planner.plan import Plan, PlanResult
from repro.planner.signature import (
    ordering_from_indices,
    ordering_to_indices,
    query_signature,
)
from repro.semiring.aggregates import PRODUCT_TAG

DEFAULT_COST_MODEL = CostModel()
"""The process-wide cost model (its ``invocations`` counter is observable)."""

_MAX_LINEAR_EXTENSIONS = 4
_LINEAR_EXTENSION_VARS = 8
_GREEDY_COVER_VARS = 10
_EXACT_SEARCH_VARS = 9


# ---------------------------------------------------------------------- #
# candidate orderings
# ---------------------------------------------------------------------- #
def _free_prefix_arrangement(query: FAQQuery, vertex_order: Sequence[str]) -> Tuple[str, ...]:
    """Re-arrange a plain vertex ordering into free-prefix query form."""
    free = set(query.free)
    order = [v for v in vertex_order if v in free] + [v for v in vertex_order if v not in free]
    missing = [v for v in query.order if v not in set(order)]
    return tuple(order + missing)


def candidate_orderings(
    query: FAQQuery, hypergraph: Hypergraph | None = None
) -> List[Tuple[str, ...]]:
    """Valid (EVO-member) candidate orderings for the planner to score."""
    if hypergraph is None:
        hypergraph = query.hypergraph()
    raw: List[Tuple[str, ...]] = [tuple(query.order)]
    tree = build_expression_tree(query)

    try:
        raw.append(tuple(approximate_faqw_ordering(query, exact_limit=_EXACT_SEARCH_VARS)))
    except Exception:  # pragma: no cover - defensive: never lose plannability
        pass

    # When one block holds every variable (a #SAT count, a partition
    # function, a join) the Section 7 tree has one node to order, its H_L
    # is the query's hypergraph, and the approximation above has just run
    # the very search below: same graph, same ρ*, same free prefix.
    blocks = [node for node in tree.iter_nodes() if node.variables]
    searched = len(blocks) == 1 and blocks[0].tag != PRODUCT_TAG
    if query.num_variables <= _EXACT_SEARCH_VARS and not searched:
        # Free-prefix-constrained branch-and-bound: optimal induced ρ* width
        # among the orderings the query actually admits (free variables
        # first), so the planner never has to repair an unconstrained
        # optimum into a worse free-prefix arrangement.
        from repro.hypergraph.covers import fractional_edge_cover_number
        from repro.hypergraph.orderings import best_ordering_search

        try:
            constrained, _ = best_ordering_search(
                hypergraph,
                lambda bag: fractional_edge_cover_number(
                    hypergraph, bag, ignore_uncovered=True
                ),
                free=query.free,
            )
            raw.append(_free_prefix_arrangement(query, constrained))
        except Exception:  # pragma: no cover - defensive
            pass

    heuristics = [min_fill_ordering, min_degree_ordering]
    if query.num_variables <= _GREEDY_COVER_VARS:
        from repro.hypergraph.orderings import greedy_fractional_cover_ordering

        heuristics.append(greedy_fractional_cover_ordering)
    for heuristic in heuristics:
        try:
            raw.append(_free_prefix_arrangement(query, heuristic(hypergraph)))
        except Exception:  # pragma: no cover - defensive
            continue

    if query.num_variables <= _LINEAR_EXTENSION_VARS:
        try:
            raw.extend(
                tuple(ext)
                for ext in itertools.islice(
                    linear_extensions(tree, limit=_MAX_LINEAR_EXTENSIONS),
                    _MAX_LINEAR_EXTENSIONS,
                )
            )
        except Exception:  # pragma: no cover - defensive
            pass

    # A linear extension of the precedence poset is an EVO member by
    # Theorems 6.8 / 6.23, so it needs no membership test.  The recursive
    # test runs only for the rest: heuristic arrangements that break the
    # poset of a multi-block query, some of which are still equivalent.
    try:
        predecessors = tree.precedence_predecessors()
    except Exception:  # pragma: no cover - defensive
        predecessors = None
    candidates: List[Tuple[str, ...]] = []
    seen = set()
    for order in raw:
        if order in seen or len(order) != query.num_variables:
            continue
        seen.add(order)
        if order == tuple(query.order) or _is_linear_extension(order, predecessors):
            candidates.append(order)
            continue
        try:
            if is_equivalent_ordering(query, order):
                candidates.append(order)
        except Exception:  # pragma: no cover - defensive
            continue
    return candidates


def _is_linear_extension(order: Sequence[str], predecessors) -> bool:
    """Whether ``order`` lists every variable once, each after all its
    predecessors."""
    if predecessors is None or len(order) != len(predecessors):
        return False
    placed: set = set()
    for variable in order:
        before = predecessors.get(variable)
        if before is None or variable in placed or not before <= placed:
            return False
        placed.add(variable)
    return True


# ---------------------------------------------------------------------- #
# the planner
# ---------------------------------------------------------------------- #
def plan(
    query: FAQQuery,
    stats: Optional[QueryStatistics] = None,
    *,
    ordering: Sequence[str] | str | None = None,
    backend: Optional[str] = None,
    strategy: Optional[str] = None,
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
    cost_model: Optional[CostModel] = None,
) -> Plan:
    """Choose a :class:`~repro.planner.plan.Plan` for ``query``.

    The returned plan carries ``planning_seconds`` — the wall-clock cost of
    this call — so callers (and ``benchmarks/bench_planner.py``) can track
    planning overhead against execution savings.

    Parameters
    ----------
    stats:
        Data statistics to plan against (collected from the query when
        omitted).  Caller-supplied statistics make the plan bespoke: it
        bypasses the plan cache in both directions, since cache keys do not
        encode statistics.
    ordering:
        ``None`` or ``"plan"`` searches the candidate space; ``"auto"``
        restricts the search to the Section 7 FAQ-width approximation (the
        pre-planner behaviour); an explicit sequence pins the ordering.
    backend / strategy:
        Optional overrides.  ``strategy`` must be ``"insideout"`` (any
        other raises :class:`~repro.core.query.QueryError`).  A pinned
        ordering is still scored, so ``explain()`` stays meaningful,
        unless the strategy is pinned too: scoring is then skipped
        entirely and an open backend defers to the engines' per-step
        runtime heuristic (``"auto"``).
    cache / use_cache:
        The :class:`~repro.planner.cache.PlanCache` to consult (defaults to
        the process-wide cache).  Explicitly pinned orderings are never
        cached — there is nothing to search.
    cost_model:
        The :class:`~repro.planner.cost.CostModel` to score with (defaults
        to the process-wide model, whose ``invocations`` counter tests
        use).  Like ``stats``, a caller-supplied model makes the plan
        bespoke and bypasses the plan cache in both directions.
    """
    started = time.perf_counter()
    result = _plan_search(
        query,
        stats,
        ordering=ordering,
        backend=backend,
        strategy=strategy,
        cache=cache,
        use_cache=use_cache,
        cost_model=cost_model,
    )
    result.planning_seconds = time.perf_counter() - started
    return result


def _plan_search(
    query: FAQQuery,
    stats: Optional[QueryStatistics] = None,
    *,
    ordering: Sequence[str] | str | None = None,
    backend: Optional[str] = None,
    strategy: Optional[str] = None,
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
    cost_model: Optional[CostModel] = None,
) -> Plan:
    """The body of :func:`plan` (split out so the wrapper can time it)."""
    plan_cache = cache if cache is not None else DEFAULT_PLAN_CACHE
    model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    if backend is not None:
        validate_backend(backend)
    if strategy is not None and strategy not in STRATEGIES:
        raise QueryError(f"unknown plan strategy {strategy!r}; expected one of {STRATEGIES}")

    mode = "search"
    if isinstance(ordering, str):
        if ordering == "auto":
            mode = "auto"
        elif ordering != "plan":
            raise QueryError(f"unknown ordering specification {ordering!r}")
        ordering = None

    # ------------------------------------------------------------------ #
    # pinned ordering: no search, no cache
    # ------------------------------------------------------------------ #
    if ordering is not None:
        order = tuple(query.checked_ordering(ordering))
        if strategy is not None:
            # Ordering and strategy pinned: nothing worth an LP-backed
            # scoring pass remains.  An open backend defers to the engines'
            # cheap per-step runtime heuristic ("auto") — the pre-planner
            # behaviour of the solver wrappers.
            return Plan(
                query=query,
                ordering=order,
                backend=backend if backend is not None else "auto",
                estimated_cost=float("nan"),
                faq_width=float("nan"),
            )
        if stats is None:
            stats = QueryStatistics.from_query(query)
        winner = model.estimate(query, stats, order, query.hypergraph())
        return Plan(
            query=query,
            ordering=order,
            backend=backend if backend is not None else winner.backend,
            estimated_cost=winner.total_cost,
            faq_width=winner.faq_width,
            estimate=winner,
            candidates=[winner],
            step_sizes=tuple(s.est_size for s in winner.steps),
        )

    # ------------------------------------------------------------------ #
    # cache lookup — before any stats collection, so a hit on repeated
    # query traffic costs only the signature itself.
    # Caller-supplied statistics or cost models make the plan bespoke: the
    # cache key encodes neither, so such plans neither read nor populate
    # the cache.
    # ------------------------------------------------------------------ #
    use_cache = use_cache and stats is None and cost_model is None
    signature, canon = query_signature(query)
    key = (signature, mode, backend)
    if use_cache:
        cached = plan_cache.lookup(key)
        if cached is not None and len(cached.ordering_indices) == query.num_variables:
            # An exact signature hit certifies isomorphism, so the cached
            # ordering transfers without re-validation.
            return Plan(
                query=query,
                ordering=ordering_from_indices(cached.ordering_indices, canon),
                backend=cached.backend,
                estimated_cost=cached.estimated_cost,
                faq_width=cached.faq_width,
                signature=signature,
                cache_hit=True,
                step_sizes=cached.step_sizes,
            )

    # ------------------------------------------------------------------ #
    # candidate search
    # ------------------------------------------------------------------ #
    hypergraph = query.hypergraph()
    if stats is None:
        stats = QueryStatistics.from_query(query)
    if mode == "auto":
        try:
            candidates = [tuple(approximate_faqw_ordering(query))]
        except Exception:  # pragma: no cover - defensive
            candidates = [tuple(query.order)]
    else:
        candidates = candidate_orderings(query, hypergraph)
    if not candidates:
        candidates = [tuple(query.order)]

    estimates = model._score(query, stats, candidates, hypergraph)
    winner = _pick(estimates)
    resolved_backend = backend if backend is not None else winner.backend
    step_sizes = tuple(s.est_size for s in winner.steps)

    result = Plan(
        query=query,
        ordering=winner.ordering,
        backend=resolved_backend,
        estimated_cost=winner.total_cost,
        faq_width=winner.faq_width,
        signature=signature,
        estimate=winner,
        candidates=estimates,
        step_sizes=step_sizes,
    )
    if use_cache:
        plan_cache.store(
            key,
            CachedPlan(
                backend=resolved_backend,
                ordering_indices=ordering_to_indices(result.ordering, canon),
                estimated_cost=result.estimated_cost,
                faq_width=result.faq_width,
                step_sizes=step_sizes,
            ),
        )
    return result


def _pick(estimates: List[OrderingEstimate]) -> OrderingEstimate:
    """The cheapest estimate, with a deterministic tie-break."""
    return min(
        estimates,
        key=lambda e: (e.total_cost, e.ordering),
    )


def execute(
    query: FAQQuery,
    stats: Optional[QueryStatistics] = None,
    *,
    output_mode: str = "listing",
    **kwargs,
) -> PlanResult:
    """Plan and execute ``query`` in one call (see :func:`plan` for kwargs)."""
    return plan(query, stats, **kwargs).execute(output_mode=output_mode)
