"""InsideOut — Algorithm 1 of the paper.

InsideOut eliminates the bound variables of an FAQ query from the innermost
aggregate outwards (i.e. from the back of the chosen variable ordering),
with three twists over textbook variable elimination:

1. every intermediate factor is computed by the OutsideIn worst-case-optimal
   join (:mod:`repro.core.outsidein`), so each elimination step costs at most
   the AGM bound of the induced set ``U_k``;
2. *indicator projections* (Definition 4.2) of the factors outside ``∂(k)``
   that intersect ``U_k`` participate in the join, pruning intermediate
   tuples that later factors would annihilate anyway — this is what lifts
   the guarantee from treewidth to fractional hypertree width;
3. product aggregates are eliminated per-factor: factors containing the
   variable are product-marginalised, the remaining factors are raised to
   the ``|Dom(X_k)|``-th power unless their range is ⊗-idempotent
   (Definition 5.2), in which case they are left untouched.

The output over the free variables is produced either in the listing
representation (a final OutsideIn join, equation (9)) or as a
:class:`~repro.core.output.FactorizedOutput` (Section 8.4).  When the
residual factors form an α-acyclic hypergraph the listing join is first
semijoin-reduced along its join tree: on a natural join, where nothing is
eliminated, this *is* Yannakakis' algorithm (Appendix F.1).

This module holds the per-step kernels — :func:`eliminate_semiring_step`,
:func:`eliminate_product_step` and :func:`output_phase`, each a pure function
of its input factors.  The loop over the elimination order lives in exactly
one place, the step-DAG executor (:mod:`repro.exec`): :func:`inside_out`
lowers the run to its step DAG and hands it to that one driver, which runs
the steps inline on the calling thread.  A semiring step leaves out each
indicator projection that is 1 everywhere (Section 5.2.1: it filters
nothing), so where no projection filters a step costs what textbook
variable elimination's does.  That baseline
(:mod:`repro.core.variable_elimination`) is the same run with twist 2 off.
A step's result therefore does not depend on the content of a factor it
reads whole-box (:func:`_lists_whole_box`), and its content digest
(:mod:`repro.exec.dag`) leaves that content out too, so a merged batch or
a step source shares the step between queries that differ only there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.outsidein import OutsideInStats, eliminate_join, join_factors
from repro.core.output import FactorizedOutput
from repro.core.query import FAQQuery, QueryError
from repro.factors.backend import (
    BACKEND_DENSE,
    BACKEND_FLAT,
    BACKEND_SPARSE,
    BackendPolicy,
    DEFAULT_POLICY,
    as_sparse,
    choose_dense,
    dense_join_reduce,
)
from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.factors.index import SharedTrieCache, TrieCache, build_trie
from repro.hypergraph.acyclicity import join_tree
from repro.hypergraph.hypergraph import Hypergraph
from repro.semiring.base import Semiring


@dataclass(frozen=True, slots=True)
class EliminationRecord:
    """Bookkeeping for one variable elimination step: a value, which every
    replay of the step reports as the computing run made it."""

    variable: str
    kind: str  # "semiring" or "product"
    induced_set: frozenset
    incident_count: int
    projection_count: int
    result_size: int
    seconds: float
    backend: str = BACKEND_SPARSE  # representation used for this step


#: The provenance tags of :attr:`InsideOutStats.provenance`.
STEP_COMPUTED, STEP_REPLAYED, STEP_SHARED = "computed", "replayed", "shared"


@dataclass(frozen=True, slots=True)
class InsideOutStats:
    """Counters and per-step records for one InsideOut run.

    ``provenance`` tags each node of the run's step DAG, the output node
    included: ``"computed"`` (this run executed it), ``"replayed"`` (from
    the step source) or ``"shared"`` (another run of the same merged
    batch).  A replayed or shared step reports the computing run's record
    and join counters, so the totals match an uncached run's.
    """

    steps: Tuple[EliminationRecord, ...] = ()
    provenance: Tuple[str, ...] = ()
    join_stats: OutsideInStats = field(default_factory=OutsideInStats)
    max_intermediate_size: int = 0
    output_size: int = 0
    total_seconds: float = 0.0


@dataclass
class InsideOutResult:
    """The result of an InsideOut run.

    ``factor`` holds the output in the listing representation (a factor over
    the free variables; an empty-scope factor for scalar queries).
    ``factorized`` is populated instead when ``output_mode='factorized'``.
    """

    factor: Optional[Factor]
    factorized: Optional[FactorizedOutput]
    ordering: Tuple[str, ...]
    stats: InsideOutStats

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


def _validated_ordering(query: FAQQuery, ordering: Sequence[str] | None) -> List[str]:
    """Resolve and validate the variable ordering of an elimination run."""
    if ordering is None:
        return list(query.order)
    if isinstance(ordering, str):
        if ordering == "plan":
            # Ask the cost-based planner for its best ordering (cached by
            # query signature, see :mod:`repro.planner`).
            from repro.planner import plan

            return list(plan(query).ordering)
        if ordering != "auto":
            raise QueryError(f"unknown ordering specification {ordering!r}")
        from repro.core.faqw import approximate_faqw_ordering

        return list(approximate_faqw_ordering(query))
    return query.checked_ordering(ordering)


def eliminate_semiring_step(
    query: FAQQuery,
    incident: List[Factor],
    others: List[Factor],
    variable: str,
    use_indicator_projections: bool,
    join_stats: OutsideInStats,
    tries: TrieCache,
    backend: str = BACKEND_SPARSE,
    policy: BackendPolicy = DEFAULT_POLICY,
) -> Tuple[Optional[Factor], EliminationRecord]:
    """One semiring-aggregate elimination step (lines 5-11 of Algorithm 1).

    ``incident`` are the factors whose scope contains ``variable``;
    ``others`` are the remaining live factors (scanned for indicator
    projections).  Returns the step's new factor (``None`` when the step
    produces nothing — a constant fold to the semiring one) plus its
    :class:`EliminationRecord`.  The step is a pure function of its factor
    inputs, which is what lets a merged batch share it across runs and a
    step source replay it.

    ``tries`` is the run's :class:`~repro.factors.index.TrieCache`: the
    sparse path runs the fused hash-join-and-aggregate kernel
    (:func:`repro.core.outsidein.eliminate_join`) over its tries, the flat
    path over its encodings, so surviving factors and repeated indicator
    projections keep their index across steps instead of being re-hashed
    tuple-by-tuple at every elimination.
    """
    semiring = query.semiring
    aggregate = query.aggregates[variable]
    start = time.perf_counter()

    if not incident:
        # The variable occurs in no remaining factor: the inner product is the
        # constant 1 and the aggregate folds |Dom| copies of it.
        domain_size = query.domain_size(variable)
        value = semiring.one
        for _ in range(domain_size - 1):
            value = aggregate.combine(value, semiring.one)
        new_factor = None
        if not semiring.is_one(value):
            new_factor = Factor._adopt((), {(): value}, f"const({variable})")
        record = EliminationRecord(
            variable=variable,
            kind="semiring",
            induced_set=frozenset({variable}),
            incident_count=0,
            projection_count=0,
            result_size=1,
            seconds=time.perf_counter() - start,
        )
        return new_factor, record

    induced: set = set()
    for factor in incident:
        induced |= set(factor.scope)

    # Indicator projections (Definition 4.2) of the factors outside the
    # step.  One that is 1 everywhere filters nothing and is left out: it
    # never mentions ``variable`` and multiplying by the semiring's one is
    # exact, so the result is bit-identical.  Its cells still count in the
    # representation choice, which therefore stays what it was with it.
    participants: List[Factor] = list(incident)
    projections: List[Tuple[Factor, frozenset]] = []  # (sparse source, overlap)
    dense_projections: List[Factor] = []
    ones_cells = 0
    domains = query.domains()
    if use_indicator_projections:
        for factor in others:
            overlap = frozenset(factor.scope) & induced
            if not overlap:
                continue
            cells = 1
            for v in overlap:
                cells *= len(domains[v])
            box = 1
            for v in factor.scope:
                box *= len(domains[v])
            if _lists_whole_box(factor, box, semiring):
                ones_cells += cells
                continue
            if isinstance(factor, DenseFactor):
                # Dense sources keep their vectorized projection (and stay
                # dense for the backend heuristic below).
                projected = factor.indicator_projection(overlap, semiring)
                dense_projections.append(projected)
            else:
                # Cached per (factor, overlap); the trie is built lazily on
                # the sparse branch only (dense steps never need one).
                projected = tries.projection_factor(factor, overlap)
                if len(projected) == cells:
                    ones_cells += cells
                    continue
                projections.append((factor, overlap))
            participants.append(projected)

    output_scope = tuple(v for v in query.order if v in induced and v != variable)
    use_dense = choose_dense(
        backend, participants, induced, domains, semiring, (aggregate.tag,), policy,
        ones_cells,
    )
    step_backend = BACKEND_DENSE if use_dense else BACKEND_SPARSE
    new_factor = None
    if not use_dense and policy.flat_enabled:
        new_factor = _try_flat_eliminate(
            query, incident, participants, projections, dense_projections,
            variable, output_scope, induced, aggregate.tag, policy, tries, ones_cells,
        )
        if new_factor is not None:
            step_backend = BACKEND_FLAT
    if use_dense:
        # Listing participants are read from the holder, which builds each
        # array once per content; the sparse projections follow the
        # incident factors, in ``projections``' order.
        sources = iter(projections)
        for position, factor in enumerate(participants):
            if isinstance(factor, DenseFactor):
                continue
            if position < len(incident):
                participants[position] = tries.dense(factor, domains)
            else:
                source, overlap = next(sources)
                participants[position] = tries.dense(source, domains, overlap)
        new_factor = dense_join_reduce(
            participants,
            semiring,
            domains,
            output_scope,
            (variable,),
            aggregate.tag,
            name=f"psi_elim({variable})",
        )
    elif new_factor is None:  # else the flat kernel already produced the result
        participant_tries = [tries.trie(f) for f in incident]
        participant_tries.extend(
            tries.projection(source, overlap)[1] for source, overlap in projections
        )
        # Projections of dense factors are transient (a new object per step):
        # index them directly rather than through the per-run cache.  The
        # dense-aware build walks the ndarray cells without a listing
        # detour.
        participant_tries.extend(
            build_trie(p, tries.order, semiring) for p in dense_projections
        )
        new_factor = eliminate_join(
            participant_tries,
            semiring,
            variable,
            output_scope,
            aggregate.op,  # a semiring step's aggregate always carries its ⊕
            variable_order=tries.order,
            stats=join_stats,
            name=f"psi_elim({variable})",
        )
    record = EliminationRecord(
        variable=variable,
        kind="semiring",
        induced_set=frozenset(induced),
        incident_count=len(incident),
        projection_count=len(projections) + len(dense_projections),
        result_size=len(new_factor),
        seconds=time.perf_counter() - start,
        backend=step_backend,
    )
    return new_factor, record


def _lists_whole_box(factor, box: int, semiring: Semiring) -> bool:
    """Whether ``factor`` lists every one of the ``box`` cells of its box,
    none of them zero (``box``: the product of its domain sizes).

    Each of its indicator projections is then 1 everywhere.  A sparse
    factor of a run lists no zero (a query holds pruned factors and every
    kernel drops the zeros it computes), so its length decides.  A dense
    factor holds every cell and counts its zeros once
    (:meth:`DenseFactor.lists_every_cell`).  The step DAG names a read by
    this same predicate (:mod:`repro.exec.dag`), so a read the step leaves
    out is exactly a read its digest leaves out.
    """
    if isinstance(factor, DenseFactor):
        return factor.cells == box and factor.lists_every_cell(semiring)
    return len(factor.table) == box


def _try_flat_eliminate(
    query: FAQQuery,
    incident: List[Factor],
    participants: List[Factor],
    projections: List[Tuple[Factor, frozenset]],
    dense_projections: List[Factor],
    variable: str,
    output_scope: Tuple[str, ...],
    induced: set,
    tag: str,
    policy: BackendPolicy,
    tries: TrieCache,
    ones_cells: int,
) -> Optional[Factor]:
    """Attempt the vectorized flat-table kernel for one sparse step.

    Returns the step result, or ``None`` when the step does not qualify
    (non-ufunc-able algebra, too few rows, unsafe value dtypes, join
    blow-up past the row cap) — the caller then runs the trie kernel,
    which stays the universal fallback.  The participants are folded in
    the trie kernel's exact order — indicator projections (its base
    tries) first, then the incident factors — so the surviving rows and
    their partial products match the trie path's row for row.  The rows of
    the projections the step left out (``ones_cells``) count toward the
    row threshold, so leaving them out does not change the kernel.
    """
    from repro.factors.flat import encode_flat, flat_eliminate, flat_step_eligible

    semiring = query.semiring
    if not flat_step_eligible(
        semiring, tag, query.domains(), induced, participants,
        policy.flat_min_rows - ones_cells,
    ):
        return None
    ctx = tries.flat_context(query.domains())
    if ctx is None:
        return None
    flats = []
    for source, overlap in projections:
        flat = tries.projection_flat(source, overlap, ctx)
        if flat is None:
            return None
        flats.append(flat)
    for projected in dense_projections:
        # Transient objects (a new projection per step): encode directly
        # rather than pinning them in the per-run cache.
        flat = encode_flat(projected, ctx)
        if flat is None:
            return None
        flats.append(flat)
    for factor in incident:
        flat = tries.flat(factor, ctx)
        if flat is None:
            return None
        flats.append(flat)
    return flat_eliminate(
        flats, variable, output_scope, tag, ctx, policy.flat_row_cap,
        name=f"psi_elim({variable})",
    )


def eliminate_product_step(
    query: FAQQuery,
    factors: List[Factor],
    variable: str,
) -> Tuple[List[Factor], EliminationRecord]:
    """One product-aggregate elimination step (lines 13-18 of Algorithm 1).

    Returns the new factor list aligned positionally with ``factors`` (the
    factor at index ``i`` is the image of ``factors[i]``) plus the step
    record, so the DAG executor can map input slots to output slots.
    """
    semiring = query.semiring
    domain_size = query.domain_size(variable)
    start = time.perf_counter()

    new_factors: List[Factor] = []
    incident_count = 0
    largest = 0
    for factor in factors:
        if variable in factor.scope:
            incident_count += 1
            marginalised = factor.product_marginalize(variable, domain_size, semiring)
            largest = max(largest, len(marginalised))
            new_factors.append(marginalised)
        elif factor.has_idempotent_range(semiring):
            new_factors.append(factor)
        else:
            powered = factor.power(domain_size, semiring)
            largest = max(largest, len(powered))
            new_factors.append(powered)

    record = EliminationRecord(
        variable=variable,
        kind="product",
        induced_set=frozenset({variable}),
        incident_count=incident_count,
        projection_count=0,
        result_size=largest,
        seconds=time.perf_counter() - start,
    )
    return new_factors, record


def _expand_isolated_free(
    query: FAQQuery, factor: Factor, semiring: Semiring
) -> Factor:
    """Extend the output factor over free variables it does not mention.

    A free variable that appears in no factor leaves the output constant
    along its domain: every domain value must be paired with every listed
    output tuple.
    """
    missing = [v for v in query.free if v not in factor.scope]
    if not missing:
        return factor
    result = factor
    for variable in missing:
        domain = query.domain(variable)
        table: Dict[Tuple[Any, ...], Any] = {}
        for key, value in result.table.items():
            for dom_value in domain:
                table[key + (dom_value,)] = value
        result = Factor._adopt(result.scope + (variable,), table, result.name)
    return result.normalize_scope(query.free)


def _semijoin_reduce(
    factors: List[Factor], semiring: Semiring, order: Sequence[str]
) -> Optional[Tuple[List[Factor], List[str]]]:
    """Yannakakis' full reducer over the factors' supports, or ``None``.

    ``None`` unless the factors have two or more distinct non-empty scopes
    forming an α-acyclic hypergraph.  Otherwise both semijoin passes run
    along its join tree over each scope's support (the tuples every factor
    on it lists non-zero), and each factor keeps its surviving rows — exact
    in every semiring, since a removed row could only produce ``⊗``-zero.
    Also returns a preorder of the tree's variables to bind them in: every
    value bound along it then extends to an output tuple, so the search
    takes ``O(input + output)`` steps whatever the plan's ordering.
    """
    scopes = {frozenset(f.scope) for f in factors if f.scope}
    tree = join_tree(Hypergraph.from_scopes(scopes)) if len(scopes) > 1 else None
    if tree is None:
        return None
    factors = [as_sparse(f, semiring) for f in factors]
    # The tree spans every pair of scopes, so one root reaches every node.
    root = next(iter(tree.nodes))
    preorder = list(nx.dfs_preorder_nodes(tree, root))
    parent = nx.dfs_predecessors(tree, root)
    # A node's support holds tuples over its variables in ``order``.
    columns = {node: [v for v in order if v in node] for node in preorder}

    def projection(variables: Sequence[str], onto: Sequence[str]):
        """A function taking a row over ``variables`` to its tuple over ``onto``."""
        indices = [list(variables).index(v) for v in onto]
        if len(indices) == 1:
            return lambda row, i=indices[0]: (row[i],)
        return itemgetter(*indices) if indices else (lambda row: ())

    is_zero = semiring.zero_test()
    support: Dict[frozenset, set] = {}
    for factor in factors:
        if factor.scope:
            node = frozenset(factor.scope)
            key = projection(factor.scope, columns[node])
            rows = {key(k) for k, v in factor.table.items() if not is_zero(v)}
            support[node] = support[node] & rows if node in support else rows

    def semijoin(node: frozenset, other: frozenset) -> None:
        """``support[node] ⋉ support[other]``, in place."""
        shared = [v for v in columns[node] if v in other]
        theirs = projection(columns[other], shared)
        keys = {theirs(row) for row in support[other]}
        mine = projection(columns[node], shared)
        support[node] = {row for row in support[node] if mine(row) in keys}

    for node in reversed(preorder[1:]):
        semijoin(parent[node], node)
    for node in preorder[1:]:
        semijoin(node, parent[node])

    reduced: List[Factor] = []
    for factor in factors:
        if factor.scope:
            node = frozenset(factor.scope)
            key = projection(factor.scope, columns[node])
            table = {k: v for k, v in factor.table.items() if key(k) in support[node]}
            if len(table) < len(factor.table):
                factor = Factor._adopt(factor.scope, table, factor.name)
        reduced.append(factor)
    binding = list(dict.fromkeys(v for node in preorder for v in columns[node]))
    return reduced, binding


def output_phase(
    query: FAQQuery,
    factors: List[Factor],
    order: Sequence[str],
    backend: str,
    policy: BackendPolicy,
    join_stats: OutsideInStats,
    tries: TrieCache,
) -> Factor:
    """The output phase over the free variables (listing mode, equation (9)).

    The listing branch is one multiway join of ``factors``, all of whose
    variables are free.  An α-acyclic join is semijoin-reduced and searched
    along its join tree first (:func:`_semijoin_reduce`); any other binds
    the variables in ``order``, worst-case optimally.  The dense branch
    reads listing factors' arrays from the run's holder ``tries``.
    """
    semiring = query.semiring
    if query.num_free == 0:
        value = semiring.one
        for factor in factors:
            value = semiring.mul(value, factor.value({}, semiring))
        table = {} if semiring.is_zero(value) else {(): value}
        return Factor._adopt((), table, f"{query.name}(out)")

    output_scope = tuple(v for v in query.free if any(v in f.scope for f in factors))
    domains = query.domains()
    if factors and choose_dense(backend, factors, output_scope, domains, semiring, (), policy):
        output = dense_join_reduce(
            [f if isinstance(f, DenseFactor) else tries.dense(f, domains) for f in factors],
            semiring,
            domains,
            output_scope,
            name=f"{query.name}(out)",
        ).to_factor(semiring, name=f"{query.name}(out)")
    else:
        variable_order = list(order)
        reduced = _semijoin_reduce(factors, semiring, order)
        if reduced is not None:
            factors, variable_order = reduced
        output = join_factors(
            factors,
            semiring,
            output_scope=output_scope,
            combine=None,
            variable_order=variable_order,
            stats=join_stats,
            name=f"{query.name}(out)",
        )
    return _expand_isolated_free(query, output, semiring)


def apply_output_delta(
    base: Factor, delta: Factor, semiring: Semiring, name: str | None = None
) -> Factor:
    """Combine a prior output factor with a delta output under ``⊕``.

    The delta-maintenance kernel of :mod:`repro.incremental`: ``delta``
    carries, per free tuple, the ⊕-aggregate of the changed assignments'
    contributions — the signed difference for ⊕-invertible semirings
    (delta propagation) or the improved values for monotone appends — and
    the refreshed answer is the cell-wise ``base ⊕ delta``.  Cells that
    combine to the semiring zero are dropped, so the result's listing
    matches a full recomputation's.
    """
    if set(base.scope) != set(delta.scope):
        raise QueryError(
            f"output delta scope {delta.scope} does not match output scope {base.scope}"
        )
    aligned = delta.normalize_scope(base.scope)
    table: Dict[Tuple[Any, ...], Any] = dict(base.table)
    add, is_zero = semiring.add, semiring.zero_test()
    for key, value in aligned.table.items():
        if key in table:
            combined = add(table[key], value)
            if is_zero(combined):
                del table[key]
            else:
                table[key] = combined
        elif not is_zero(value):
            table[key] = value
    return Factor._adopt(base.scope, table, name or base.name)


def inside_out(
    query: FAQQuery,
    ordering: Sequence[str] | str | None = None,
    use_indicator_projections: bool = True,
    output_mode: str = "listing",
    backend: str = BACKEND_SPARSE,
    backend_policy: BackendPolicy | None = None,
    shared_tries: SharedTrieCache | None = None,
    step_cache=None,
) -> InsideOutResult:
    """Run InsideOut (Algorithm 1) on an FAQ query.

    Parameters
    ----------
    query:
        The FAQ query to evaluate.
    ordering:
        The variable ordering to eliminate along.  ``None`` uses the order
        the query was written in; ``"auto"`` runs the FAQ-width approximation
        of Section 7 to pick an equivalent ordering; ``"plan"`` asks the
        cost-based planner (:mod:`repro.planner`) for its best InsideOut
        ordering (with plan caching); otherwise a permutation
        of the variables (free variables first) is expected.  The caller is
        responsible for semantic equivalence when supplying an explicit
        ordering — use :func:`repro.core.evo.is_equivalent_ordering` or
        :func:`repro.core.faqw.approximate_faqw_ordering` to stay safe.
    use_indicator_projections:
        Disable to fall back to plain variable elimination intermediates
        (:func:`repro.core.variable_elimination.variable_elimination` and
        the ablation benchmark).
    output_mode:
        ``"listing"`` (default) materialises the output factor;
        ``"factorized"`` skips the final join and returns a
        :class:`~repro.core.output.FactorizedOutput`.
    backend:
        Factor representation for the elimination steps.  ``"sparse"``
        (default) keeps everything in the listing representation;
        ``"dense"`` vectorizes every step whose semiring and aggregates map
        to NumPy ufuncs (falling back to sparse otherwise); ``"auto"`` picks
        per elimination step via the cost heuristic
        (:func:`repro.factors.backend.prefer_dense`): dense when the induced
        domain box is small and the participating factors are dense enough,
        sparse otherwise.  The output factor is always returned in the
        listing representation regardless of the backend.
    backend_policy:
        Thresholds for the heuristic (defaults to
        :data:`repro.factors.backend.DEFAULT_POLICY`).
    shared_tries:
        A :class:`~repro.factors.index.SharedTrieCache` holding this
        query's base-factor tries across runs (supplied by the serving
        layer for repeated identical queries); ignored unless it was built
        for the same ordering and semiring.
    step_cache:
        A :class:`~repro.exec.StepResultCache` of finished elimination
        steps keyed by content digest: shared elimination prefixes replay
        instead of recomputing.  Content digests are computed only when one
        is supplied — a plain run never pays for hashing its factors.

    Returns
    -------
    :class:`InsideOutResult`
    """
    from repro.exec.executor import DagExecutor

    return DagExecutor().run(
        query,
        ordering=ordering,
        use_indicator_projections=use_indicator_projections,
        output_mode=output_mode,
        backend=backend,
        backend_policy=backend_policy,
        shared_tries=shared_tries,
        step_cache=step_cache,
    )
