"""Randomized differential testing of the planner against brute force.

Every plan the planner can emit — each factor backend (sparse / dense /
auto) over a spread of EVO-valid candidate orderings, with InsideOut's
indicator projections on and off (off is textbook variable elimination,
which must also be exactly what :func:`variable_elimination` returns on an
FAQ-SS query) — is executed on small
random FAQ queries over five semirings (sum-product counting, max-product,
min-plus, Boolean, set) with random free-variable sets, and the output is
compared against the exhaustive reference semantics of
:meth:`FAQQuery.evaluate_brute_force` (the ``pgm/brute.py``-style ground
truth).  A quarter of the queries are natural joins (every variable free,
indicator values), acyclic and cyclic, which exercise the output phase's
semijoin reduction and its worst-case-optimal search.

Runs are fully seeded; on failure the assertion message prints the
semiring/seed pair (and the exact projections/backend/ordering) needed to
reproduce:

    query = _random_query("<semiring>", <seed>)

The quick profile (8 seeds per semiring, 40 queries) runs in tier-1; the
remaining 42 seeds per semiring (210 queries) carry the ``slow`` marker, so
a full run of this module covers 50 seeds per semiring — 250 queries, the
200+ of the acceptance criterion.
"""

import itertools
import random

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.core.variable_elimination import variable_elimination
from repro.factors.factor import Factor
from repro.hypergraph.acyclicity import join_tree
from repro.planner import PlanCache, candidate_orderings, plan
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate, semiring_aggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT, MIN_PLUS, set_semiring

SET_UNIVERSE = (0, 1, 2, 3)
SET_SEMIRING = set_semiring(SET_UNIVERSE)

BACKENDS = ("sparse", "dense", "auto")


def _union_aggregate():
    return semiring_aggregate("union", lambda a, b: a | b, frozenset())


# name -> (semiring, random value generator, semiring-aggregate factory, offset)
SEMIRINGS = {
    "counting": (COUNTING, lambda rng: rng.randint(1, 4), SemiringAggregate.sum, 0),
    "max-product": (
        MAX_PRODUCT,
        lambda rng: round(rng.uniform(0.1, 2.0), 3),
        SemiringAggregate.max,
        1,
    ),
    "min-plus": (
        MIN_PLUS,
        lambda rng: round(rng.uniform(0.1, 2.0), 3),
        SemiringAggregate.min,
        2,
    ),
    "boolean": (BOOLEAN, lambda rng: True, SemiringAggregate.logical_or, 3),
    "set": (
        SET_SEMIRING,
        lambda rng: frozenset(v for v in SET_UNIVERSE if rng.random() < 0.5),
        _union_aggregate,
        4,
    ),
}

QUICK_SEEDS = tuple(range(8))
FULL_SEEDS = tuple(range(8, 50))


def _random_query(name: str, seed: int) -> FAQQuery:
    """A small random FAQ query over the named semiring (deterministic)."""
    semiring, value_of, aggregate_factory, offset = SEMIRINGS[name]
    rng = random.Random(100_003 * offset + seed)
    n = rng.randint(2, 5)
    names = [f"x{i}" for i in range(n)]
    domains = {v: tuple(range(rng.randint(2, 3))) for v in names}

    all_free = rng.random() < 0.25
    if all_free:
        free = list(names)
        aggregates = {}
    else:
        free = names[: min(rng.randint(0, 2), n - 1)]
        aggregates = {}
        for variable in names[len(free):]:
            if rng.random() < 0.3:
                aggregates[variable] = ProductAggregate.product()
            else:
                aggregates[variable] = aggregate_factory()

    factors = []
    for index in range(rng.randint(1, 4)):
        arity = rng.randint(1, min(3, n))
        scope = tuple(rng.sample(names, arity))
        table = {}
        for values in itertools.product(*(domains[v] for v in scope)):
            if rng.random() < 0.7:
                # All-free queries use indicator values: natural joins.
                table[values] = semiring.one if all_free else value_of(rng)
        factors.append(Factor(scope, table, name=f"psi{index}"))

    return FAQQuery(
        variables=[Variable(v, domains[v]) for v in names],
        free=free,
        aggregates=aggregates,
        factors=factors,
        semiring=semiring,
        name=f"diff-{name}-{seed}",
    )


def _run_differential(name: str, seed: int) -> None:
    semiring = SEMIRINGS[name][0]
    query = _random_query(name, seed)
    expected = query.evaluate_brute_force()
    cache = PlanCache()

    def check(result, label):
        assert expected.equals(result.factor, semiring), (
            f"planner disagreement with brute force!\n"
            f"  reproduce: _random_query({name!r}, {seed})\n"
            f"  plan     : {label}\n"
            f"  query    : {query!r}\n"
            f"  expected : {sorted(expected.table.items(), key=repr)}\n"
            f"  got      : {sorted(result.factor.table.items(), key=repr)}"
        )

    # 1. the planner's own free choice.
    chosen = plan(query, cache=cache)
    check(chosen.execute(), f"free choice: {chosen.backend}")

    # 2. projections on / off x every backend over a spread of valid
    # orderings; off on an FAQ-SS query is variable_elimination, exactly.
    orderings = [chosen.ordering]
    for candidate in candidate_orderings(query):
        if candidate not in orderings:
            orderings.append(candidate)
    faq_ss = len({query.tag(v) for v in query.semiring_variables}) <= 1
    for ordering in orderings[:4]:
        for backend in BACKENDS:
            pinned = plan(query, ordering=list(ordering), backend=backend)
            check(pinned.execute(), f"projections=on backend={backend} ordering={ordering}")
            off = inside_out(
                query, list(ordering), use_indicator_projections=False, backend=backend
            )
            check(off, f"projections=off backend={backend} ordering={ordering}")
            if faq_ss:
                baseline = variable_elimination(query, list(ordering), backend=backend)
                assert baseline.factor.table == off.factor.table

    # 3. the repeated query hits the plan cache and still agrees
    repeated = plan(query, cache=cache)
    assert repeated.cache_hit, f"expected a plan-cache hit (seed={seed})"
    check(repeated.execute(), "plan cache hit")


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_differential_quick(name, seed):
    """Tier-1 profile: 8 seeds per semiring (40 random queries)."""
    _run_differential(name, seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_differential_full(name, seed):
    """Slow remainder (42 seeds per semiring): together with the quick
    profile this makes 50 seeds per semiring — 250 random queries, the
    200+ of the acceptance criterion."""
    _run_differential(name, seed)


# --------------------------------------------------------------------- #
# the randomized update-stream profile: incremental maintenance vs a full
# recompute, cell-for-cell
# --------------------------------------------------------------------- #

from repro.factors.backend import as_sparse, supports_dense  # noqa: E402
from repro.factors.delta import FactorDelta  # noqa: E402
from repro.incremental import IncrementalView  # noqa: E402
from _helpers import on_threads  # noqa: E402

# Integer-valued generators: products/sums of small ints are exact in
# every backend (Python ints, float64 within 2**53), so the incremental
# answer must match the brute-force recompute *bit for bit* — `==` on the
# output tables, not approximate equality.
UPDATE_SEMIRINGS = {
    "counting": (COUNTING, lambda rng: rng.randint(1, 5), SemiringAggregate.sum, 0),
    "max-product": (MAX_PRODUCT, lambda rng: rng.randint(1, 6), SemiringAggregate.max, 1),
    "min-plus": (MIN_PLUS, lambda rng: rng.randint(1, 6), SemiringAggregate.min, 2),
    "boolean": (BOOLEAN, lambda rng: True, SemiringAggregate.logical_or, 3),
}


def _random_update_query(name: str, seed: int) -> FAQQuery:
    """A small random query with integer-exact values (deterministic).

    Mixes flat queries (all aggregates = the semiring ⊕ — eligible for
    the delta/append regimes) with product-aggregate queries (forced onto
    the dirty-subgraph fallback), so one profile exercises all three
    regimes *and* the regime-selection logic.
    """
    semiring, value_of, aggregate_factory, offset = UPDATE_SEMIRINGS[name]
    rng = random.Random(900_001 * offset + seed)
    n = rng.randint(2, 4)
    names = [f"x{i}" for i in range(n)]
    domains = {v: tuple(range(rng.randint(2, 3))) for v in names}
    free = names[: rng.randint(1, max(1, n - 1))]
    aggregates = {}
    for variable in names[len(free):]:
        if rng.random() < 0.25:
            aggregates[variable] = ProductAggregate.product()
        else:
            aggregates[variable] = aggregate_factory()
    factors = []
    for index in range(rng.randint(2, 3)):
        arity = rng.randint(1, min(2, n))
        scope = tuple(rng.sample(names, arity))
        table = {}
        for values in itertools.product(*(domains[v] for v in scope)):
            if rng.random() < 0.8:
                table[values] = value_of(rng)
        factors.append(Factor(scope, table, name=f"psi{index}"))
    return FAQQuery(
        variables=[Variable(v, domains[v]) for v in names],
        free=free,
        aggregates=aggregates,
        factors=factors,
        semiring=semiring,
        name=f"upd-{name}-{seed}",
    )


def _run_update_stream(name: str, seed: int, backend: str, threads: int) -> None:
    """One seeded update stream, run by ``threads`` concurrent views of the
    same query (they share its frozen factors and the process-wide memos)."""
    semiring, value_of, _, offset = UPDATE_SEMIRINGS[name]
    if backend == "dense" and not supports_dense(semiring):
        pytest.skip(f"{name} has no dense ops")
    query = _random_update_query(name, seed)

    def stream(thread):
        rng = random.Random(700_001 * offset + seed)
        view = IncrementalView(query, backend=backend)
        out = view.result()

        def check(step):
            expected = as_sparse(
                view.query.evaluate_brute_force(), semiring
            ).normalize_scope(view.query.free)
            assert out.scope == expected.scope
            assert out.table == expected.table, (
                f"incremental answer diverged from full recompute!\n"
                f"  reproduce: _random_update_query({name!r}, {seed}) "
                f"backend={backend} thread={thread}/{threads} step={step}\n"
                f"  regimes  : {view.stats.regimes}\n"
                f"  expected : {sorted(expected.table.items(), key=repr)}\n"
                f"  got      : {sorted(out.table.items(), key=repr)}"
            )

        check("baseline")
        for step in range(4):
            index = rng.randrange(len(view.query.factors))
            factor = view.query.factors[index]
            cell_domains = [view.query.domain(v) for v in factor.scope]
            changes = {}
            for _ in range(rng.randint(1, 3)):
                cell = tuple(rng.choice(domain) for domain in cell_domains)
                if rng.random() < 0.2:
                    changes[cell] = semiring.zero  # deletion
                else:
                    changes[cell] = value_of(rng)
            out = view.update_factor(index, FactorDelta(factor.scope, changes))
            check(step)

    on_threads(threads, stream)


@pytest.mark.parametrize("threads", (1, 4))
@pytest.mark.parametrize("backend", ("sparse", "dense"))
@pytest.mark.parametrize("name", sorted(UPDATE_SEMIRINGS))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_update_stream_quick(name, seed, backend, threads):
    """Tier-1 update-stream profile: random cell deltas, bit-identical."""
    _run_update_stream(name, seed, backend, threads)


@pytest.mark.slow
@pytest.mark.parametrize("threads", (1, 4))
@pytest.mark.parametrize("backend", ("sparse", "dense"))
@pytest.mark.parametrize("name", sorted(UPDATE_SEMIRINGS))
@pytest.mark.parametrize("seed", tuple(range(3, 12)))
def test_update_stream_full(name, seed, backend, threads):
    _run_update_stream(name, seed, backend, threads)


def test_update_stream_reaches_all_regimes():
    """The random update space exercises delta, append and dirty."""
    from repro.incremental import REGIME_APPEND, REGIME_DELTA, REGIME_DIRTY

    seen = set()
    for name in sorted(UPDATE_SEMIRINGS):
        for seed in range(6):
            semiring, value_of, _, offset = UPDATE_SEMIRINGS[name]
            query = _random_update_query(name, seed)
            rng = random.Random(700_001 * offset + seed)
            view = IncrementalView(query)
            view.result()
            for _ in range(4):
                index = rng.randrange(len(view.query.factors))
                factor = view.query.factors[index]
                cell_domains = [view.query.domain(v) for v in factor.scope]
                changes = {}
                for _ in range(rng.randint(1, 3)):
                    cell = tuple(rng.choice(domain) for domain in cell_domains)
                    if rng.random() < 0.2:
                        changes[cell] = semiring.zero
                    else:
                        changes[cell] = value_of(rng)
                view.update_factor(index, FactorDelta(factor.scope, changes))
            seen.update(view.stats.regimes)
    assert {REGIME_DELTA, REGIME_APPEND, REGIME_DIRTY} <= seen


def test_join_strategies_are_exercised():
    """The random query space reaches both acyclic natural joins (the output
    phase's semijoin reduction) and cyclic ones (its worst-case-optimal
    search alone)."""
    seen = set()
    for name in sorted(SEMIRINGS):
        semiring = SEMIRINGS[name][0]
        for seed in range(50):
            query = _random_query(name, seed)
            indicator = all(
                semiring.is_one(value)
                for factor in query.factors
                for value in factor.table.values()
            )
            scopes = {frozenset(f.scope) for f in query.factors if f.scope}
            if query.num_free == query.num_variables and indicator and len(scopes) >= 2:
                seen.add(join_tree(query.hypergraph()) is not None)
    assert seen == {True, False}
