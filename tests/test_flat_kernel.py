"""Differential tests for the vectorized flat-table elimination kernel.

The contract of :mod:`repro.factors.flat` is that a sparse elimination step
executed by the flat kernel produces a table ``==``-equal to the trie
kernel's (:func:`repro.core.outsidein.eliminate_join`), with every unsafe
input — non-ufunc algebras, NaN values, lossy dtype conversions, custom
equality — falling back to the trie path instead of risking divergence.
The tests force the kernel on (``flat_min_rows=0``) and off
(``flat_enabled=False``) and diff entire InsideOut runs, plus brute force
as the independent ground truth on the small random family.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.factors import flat as flat_module
from repro.factors.backend import BACKEND_FLAT, BackendPolicy
from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.factors.flat import flat_step_eligible
from repro.factors.index import SharedTrieCache
from repro.planner.signature import query_content_key
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, MAX_PRODUCT, MAX_SUM, MIN_PLUS

from _helpers import on_threads
from test_planner_differential import _random_query

FORCE_FLAT = BackendPolicy(flat_min_rows=0)
NO_FLAT = BackendPolicy(flat_enabled=False)

# name -> (semiring, value generator, aggregate factory)
ELIGIBLE = {
    "max-product": (
        MAX_PRODUCT, lambda rng: round(rng.uniform(0.1, 2.0), 3), SemiringAggregate.max
    ),
    "min-plus": (
        MIN_PLUS, lambda rng: round(rng.uniform(-1.0, 3.0), 3), SemiringAggregate.min
    ),
    "max-sum": (
        MAX_SUM, lambda rng: round(rng.uniform(-2.0, 2.0), 3), SemiringAggregate.max
    ),
    "boolean": (BOOLEAN, lambda rng: True, SemiringAggregate.logical_or),
}


def _sparse_query(name, seed, n=6, domain=6, num_factors=5, density=0.45):
    """A moderately sized sparse chain-ish query over an eligible semiring."""
    semiring, value_of, aggregate_factory = ELIGIBLE[name]
    rng = random.Random(7_919 * seed + sum(ord(c) for c in name))
    names = [f"v{i}" for i in range(n)]
    domains = {v: tuple(range(domain)) for v in names}
    free = names[: rng.randint(0, 2)]
    aggregates = {v: aggregate_factory() for v in names[len(free):]}
    factors = []
    for index in range(num_factors):
        arity = rng.randint(1, 3)
        scope = tuple(rng.sample(names, arity))
        table = {}
        for values in itertools.product(*(domains[v] for v in scope)):
            if rng.random() < density:
                table[values] = value_of(rng)
        factors.append(Factor(scope, table, name=f"psi{index}"))
    return FAQQuery(
        variables=[Variable(v, domains[v]) for v in names],
        free=free,
        aggregates=aggregates,
        factors=factors,
        semiring=semiring,
    )


def _diff_runs(query, context, expect_flat=None):
    """Run flat-forced vs trie-only and require ``==``-equal outputs."""
    flat = inside_out(query, backend="sparse", backend_policy=FORCE_FLAT)
    trie = inside_out(query, backend="sparse", backend_policy=NO_FLAT)
    assert flat.factor.scope == trie.factor.scope, context
    assert flat.factor.table == trie.factor.table, (
        f"{context}: flat kernel diverged from the trie kernel\n"
        f"  trie: {sorted(trie.factor.table.items(), key=repr)}\n"
        f"  flat: {sorted(flat.factor.table.items(), key=repr)}"
    )
    assert flat.stats.output_size == trie.stats.output_size, context
    # Step structure (everything except the kernel label and timings) match.
    for a, b in zip(flat.stats.steps, trie.stats.steps):
        assert (
            a.variable, a.kind, a.induced_set, a.incident_count,
            a.projection_count, a.result_size,
        ) == (
            b.variable, b.kind, b.induced_set, b.incident_count,
            b.projection_count, b.result_size,
        ), f"{context}: step diverged at {a.variable}"
    flat_steps = [s for s in flat.stats.steps if s.backend == BACKEND_FLAT]
    if expect_flat is True:
        assert flat_steps, f"{context}: expected at least one flat-kernel step"
    elif expect_flat is False:
        assert not flat_steps, f"{context}: expected full fallback to the trie kernel"
    return flat


@pytest.mark.parametrize("name", sorted(ELIGIBLE))
@pytest.mark.parametrize("seed", range(6))
def test_flat_matches_trie_on_sparse_queries(name, seed):
    query = _sparse_query(name, seed)
    run = _diff_runs(query, f"{name}/seed={seed}")
    if any(not a.is_product for a in query.aggregates.values()):
        assert any(s.backend == BACKEND_FLAT for s in run.stats.steps), (
            f"{name}/seed={seed}: flat kernel never engaged under flat_min_rows=0"
        )


@pytest.mark.parametrize("name", ["max-product", "min-plus", "boolean"])
@pytest.mark.parametrize("seed", range(8))
def test_flat_matches_trie_on_random_family(name, seed):
    # The planner differential harness's own query family (includes product
    # aggregates, isolated variables, empty tables, all-free queries).
    query = _random_query(name, seed)
    _diff_runs(query, f"random/{name}/seed={seed}")


@pytest.mark.parametrize("name", sorted(ELIGIBLE))
def test_flat_matches_brute_force(name):
    query = _sparse_query(name, 3, n=4, domain=3, num_factors=4, density=0.6)
    result = inside_out(query, backend="sparse", backend_policy=FORCE_FLAT)
    expected = query.evaluate_brute_force()
    assert result.factor.equals(expected, query.semiring), name


def test_flat_engages_under_default_auto_policy():
    """Large sparse steps pick the flat kernel without any policy override."""
    query = _sparse_query("max-product", 1, n=6, domain=12, num_factors=5, density=0.5)
    run = inside_out(query, backend="sparse")
    assert any(s.backend == BACKEND_FLAT for s in run.stats.steps)
    trie = inside_out(query, backend="sparse", backend_policy=NO_FLAT)
    assert run.factor.table == trie.factor.table


def test_boolean_nonbool_values_fall_back():
    # `True and 2` is 2 on the trie path but would collapse to True in a
    # bool value column; the encoder must refuse the conversion.
    v = Variable("x", (0, 1, 2))
    w = Variable("y", (0, 1))
    query = FAQQuery(
        variables=[w, v],
        free=["y"],
        aggregates={"x": SemiringAggregate.logical_or()},
        factors=[
            Factor(("x", "y"), {(a, b): 2 for a in range(3) for b in range(2)}),
        ],
        semiring=BOOLEAN,
    )
    _diff_runs(query, "boolean-nonbool", expect_flat=False)


def test_nan_values_fall_back():
    # NaN makes max/min folds depend on candidate enumeration order.
    table = {(a, b): 1.5 for a in range(4) for b in range(4)}
    table[(0, 0)] = math.nan
    query = FAQQuery(
        variables=[Variable("y", tuple(range(4))), Variable("x", tuple(range(4)))],
        free=["y"],
        aggregates={"x": SemiringAggregate.max()},
        factors=[Factor(("x", "y"), table)],
        semiring=MAX_PRODUCT,
    )
    _diff_runs(query, "nan", expect_flat=False)


def test_unsafe_int_values_fall_back():
    # Integers beyond 2**53 do not round-trip through float64.
    big = (1 << 53) + 1
    table = {(a, b): big for a in range(3) for b in range(3)}
    query = FAQQuery(
        variables=[Variable("y", tuple(range(3))), Variable("x", tuple(range(3)))],
        free=["y"],
        aggregates={"x": SemiringAggregate.max()},
        factors=[Factor(("x", "y"), table)],
        semiring=MAX_PRODUCT,
    )
    _diff_runs(query, "big-int", expect_flat=False)


def test_safe_int_values_use_flat():
    table = {(a, b): a + b + 1 for a in range(4) for b in range(4)}
    query = FAQQuery(
        variables=[Variable("y", tuple(range(4))), Variable("x", tuple(range(4)))],
        free=["y"],
        aggregates={"x": SemiringAggregate.max()},
        factors=[Factor(("x", "y"), table)],
        semiring=MAX_PRODUCT,
    )
    _diff_runs(query, "small-int", expect_flat=True)


def test_custom_equality_is_never_flat():
    custom = dataclasses.replace(MAX_PRODUCT, eq=lambda a, b: abs(a - b) < 0.5)
    factor = Factor(("x",), {(0,): 1.0, (1,): 2.0})
    assert not flat_step_eligible(
        custom, "max", {"x": (0, 1)}, {"x"}, [factor], 0
    )
    assert flat_step_eligible(
        MAX_PRODUCT, "max", {"x": (0, 1)}, {"x"}, [factor], 0
    )


def test_sum_aggregates_are_never_flat():
    # Grouped reduceat re-associates float sums; the tag is ineligible.
    factor = Factor(("x",), {(0,): 1.0, (1,): 2.0})
    assert not flat_step_eligible(
        MAX_PRODUCT, "sum", {"x": (0, 1)}, {"x"}, [factor], 0
    )


def test_scalar_and_empty_outputs():
    # Scalar query (no free variables) and an annihilated (empty) output.
    semiring, value_of, aggregate_factory = ELIGIBLE["min-plus"]
    rng = random.Random(11)
    table = {
        (a, b): value_of(rng) for a in range(5) for b in range(5) if (a + b) % 2
    }
    scalar = FAQQuery(
        variables=[Variable("x", tuple(range(5))), Variable("y", tuple(range(5)))],
        free=[],
        aggregates={"x": aggregate_factory(), "y": aggregate_factory()},
        factors=[Factor(("x", "y"), table)],
        semiring=semiring,
    )
    _diff_runs(scalar, "scalar", expect_flat=True)

    disjoint = FAQQuery(
        variables=[Variable("y", (0, 1)), Variable("x", (0, 1))],
        free=["y"],
        aggregates={"x": SemiringAggregate.max()},
        factors=[
            Factor(("x", "y"), {(0, 0): 1.0}),
            Factor(("x",), {(1,): 1.0}),  # joint support is empty
        ],
        semiring=MAX_PRODUCT,
    )
    _diff_runs(disjoint, "empty-join")


@pytest.mark.parametrize("name", sorted(ELIGIBLE))
def test_flat_runs_are_worker_invariant(name):
    """Flat-kernel runs on 2 or 4 concurrent request threads match the lone run."""
    query = _sparse_query(name, 2)
    serial = inside_out(query, backend="sparse", backend_policy=FORCE_FLAT)
    for threads in (2, 4):
        for run in on_threads(threads, lambda _: inside_out(
            query, backend="sparse", backend_policy=FORCE_FLAT
        )):
            assert run.factor.table == serial.factor.table, (name, threads)
            assert [s.backend for s in run.stats.steps] == [
                s.backend for s in serial.stats.steps
            ], (name, threads)


# ---------------------------------------------------------------------- #
# per-content encodings: the shared store, the join index, the dense hand-off
# ---------------------------------------------------------------------- #
def _chain_query(seed=0, domain=20, density=0.7, domains=None, tables=None, free=("x0",)):
    """A max-product chain ``x0 - x1 - x2`` big enough that eliminating
    ``x2`` and ``x1`` picks the flat kernel under the default policy."""
    rng = random.Random(1_009 * seed + 17)
    names = ["x0", "x1", "x2"]
    if tables is None:
        tables = [
            {
                pair: round(rng.uniform(0.1, 2.0), 3)
                for pair in itertools.product(range(domain), repeat=2)
                if rng.random() < density
            }
            for _ in names[1:]
        ]
    domains = domains or {v: tuple(range(domain)) for v in names}
    return FAQQuery(
        variables=[Variable(v, domains[v]) for v in names],
        free=list(free),
        aggregates={v: SemiringAggregate.max() for v in names if v not in free},
        factors=[
            Factor(scope, table, name="".join(scope))
            for scope, table in zip(zip(names, names[1:]), tables)
        ],
        semiring=MAX_PRODUCT,
    )


def _filtering_chain_query(seed=0):
    """:func:`_chain_query` with no ``x0 - x1`` row at ``x1 = 0``, so the
    indicator projection of that factor onto ``x1`` filters; one listing
    every value of ``x1`` is 1 everywhere and is left out of the step."""
    first, second = (f.table for f in _chain_query(seed).factors)
    return _chain_query(tables=[{k: v for k, v in first.items() if k[1] != 0}, second])


def _check_answer(query, result, flat_steps=2, backend="sparse"):
    """Against brute force, and ``==`` the trie-only run; kernels as expected."""
    assert result.factor.equals(query.evaluate_brute_force(), query.semiring)
    trie = inside_out(query, backend=backend, backend_policy=NO_FLAT)
    assert result.factor.table == trie.factor.table
    kernels = [s.backend for s in result.stats.steps]
    assert kernels.count(BACKEND_FLAT) == flat_steps, kernels


def _store_for(query):
    query_content_key(query)  # leaves the digest memo the store keys by
    return SharedTrieCache(query.order, query.semiring, query.factors)


def test_warm_store_run_encodes_nothing(encode_counts):
    query = _filtering_chain_query()
    store = _store_for(query)
    cold = inside_out(query, shared_tries=store)
    _check_answer(query, cold)
    # 2 base tables + the one indicator projection, under one context.
    assert encode_counts == {"encodes": 3, "contexts": 1}
    twin = _filtering_chain_query()  # value-equal, all-new objects
    query_content_key(twin)
    warm = inside_out(twin, shared_tries=store)
    _check_answer(twin, warm)
    assert encode_counts == {"encodes": 3, "contexts": 1}
    assert warm.factor.table == cold.factor.table


def test_shared_columns_are_read_only():
    query = _chain_query()
    store = _store_for(query)
    inside_out(query, shared_tries=store)
    ctx = store.flat_context(query.domains())
    flat = store.flat(query.factors[0], ctx)
    with pytest.raises(ValueError):
        flat.values[0] = 0.0
    with pytest.raises(ValueError):
        flat.columns["x0"][0] = 0
    projection = store.projection_flat(query.factors[0], frozenset({"x1"}), ctx)
    with pytest.raises(ValueError):
        projection.columns["x1"][0] = 0


def test_stored_empty_encoding_is_an_encoding():
    # No rows is not "no encoding": the step stays on the flat kernel when
    # the empty table's encoding comes back from the store.
    query = _chain_query(tables=[_chain_query().factors[0].table, {}])
    store = _store_for(query)
    for _ in range(2):
        result = inside_out(query, backend_policy=FORCE_FLAT, shared_tries=store)
        assert result.stats.steps[0].backend == BACKEND_FLAT
        assert result.factor.table == {}
    ctx = store.flat_context(query.domains())
    assert len(store.flat(query.factors[1], ctx)) == 0


def test_store_is_ignored_for_encodings_when_domains_differ(encode_counts):
    query = _filtering_chain_query()
    store = _store_for(query)
    inside_out(query, shared_tries=store)
    before = dict(encode_counts)
    # Same tables (so the store covers them), domains listed backwards:
    # every stored code would now name another value.
    backwards = {v: tuple(reversed(d)) for v, d in query.domains().items()}
    other = _chain_query(domains=backwards, tables=[f.table for f in query.factors])
    query_content_key(other)
    assert all(store.covers(f) for f in other.factors)
    assert store.flat_context(other.domains()) is None
    result = inside_out(other, shared_tries=store)
    _check_answer(other, result)
    assert encode_counts["encodes"] == before["encodes"] + 3  # privately, as without a store
    assert encode_counts["contexts"] == before["contexts"] + 1
    # ... and the store still serves the domains it was built from.
    again = inside_out(query, shared_tries=store)
    _check_answer(query, again)
    assert encode_counts["encodes"] == before["encodes"] + 3


def test_concurrent_runs_on_a_cold_store_agree():
    """Two concurrent requests, each a serial run, race to fill one store."""
    query = _chain_query(seed=4)
    store = _store_for(query)
    results = on_threads(
        2, lambda _: inside_out(query, shared_tries=store), switch_interval=1e-5
    )
    for result in results:
        _check_answer(query, result)
    # First store wins: whatever the race, one encoding per content remains.
    ctx = store.flat_context(query.domains())
    assert store.flat(query.factors[0], ctx) is store.flat(query.factors[0], ctx)


def test_store_covers_only_unchanged_factors_after_an_update(encode_counts):
    from repro.factors.delta import FactorDelta

    query = _chain_query(seed=2)
    store = _store_for(query)
    inside_out(query, shared_tries=store)
    cell = next(iter(query.factors[1].table))
    changed = query.factors[1].apply_delta(
        FactorDelta(("x1", "x2"), {cell: 1.75}), query.semiring
    )
    updated = _chain_query(tables=[query.factors[0].table, changed.table])
    query_content_key(updated)
    before = encode_counts["encodes"]
    result = inside_out(updated, shared_tries=store)
    _check_answer(updated, result)
    # Only the changed table is encoded again; the unchanged one and its
    # projection come from the store.
    assert encode_counts["encodes"] == before + 1
    twin = _chain_query(seed=2)
    query_content_key(twin)
    old = inside_out(twin, shared_tries=store)
    assert encode_counts["encodes"] == before + 1
    _check_answer(twin, old)


def _two_searchsorted_join(state_key, other_key):
    """The join as the kernel first did it — the reference for ``_join_rows``."""
    order = np.argsort(other_key, kind="stable")
    sorted_key = other_key[order]
    left = np.searchsorted(sorted_key, state_key, side="left")
    right = np.searchsorted(sorted_key, state_key, side="right")
    counts = right - left
    keep = counts > 0
    counts = counts[keep]
    total = int(counts.sum())
    state_rows = np.repeat(np.flatnonzero(keep), counts)
    starts = np.repeat(left[keep], counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return state_rows, order[starts + offsets]


def _assert_join_matches(other, state, shared, ctx, direct):
    """``_join_rows`` over ``other``'s join index == the two-searchsorted join,
    on the probe branch ``direct`` names, up to and at the ``row_cap``."""
    rows = len(other)
    state_key = flat_module._pack_keys(state, shared, ctx, len(state[shared[0]]))
    other_key = flat_module._pack_keys(other.columns, shared, ctx, rows)
    want_state, want_other = _two_searchsorted_join(state_key, other_key)
    index = other.join_index(shared, ctx)
    assert other.join_index(shared, ctx) is index  # memoised per shared tuple
    assert (index[-1] is not None) == direct
    got_state, got_other = flat_module._join_rows(state_key, index, 1 << 30)
    assert got_state.tolist() == want_state.tolist()
    assert got_other.tolist() == want_other.tolist()
    assert flat_module._join_rows(state_key, index, len(want_state)) is not None
    if len(want_state):
        assert flat_module._join_rows(state_key, index, len(want_state) - 1) is None
    return want_state


@pytest.mark.parametrize("seed", range(8))
def test_join_index_matches_two_searchsorted(seed):
    rng = np.random.default_rng(seed)
    sizes = {"a": 7, "b": 5, "c": 3}
    ctx = flat_module.flat_context(
        MAX_PRODUCT, {v: tuple(range(n)) for v, n in sizes.items()}
    )
    shared = ("a", "b")
    box = sizes["a"] * sizes["b"]
    # Both probe branches: a shared box larger than the other side
    # (searchsorted) and one no larger (direct-address lookup).
    for rows, direct in ((int(rng.integers(1, box)), False),
                         (int(rng.integers(box, 2 * box)), True)):
        # Drawn with replacement from part of the key space: duplicate keys
        # on both sides, and state keys below, between and above the other
        # side's.
        other = flat_module.FlatFactor(
            ("a", "b", "c"),
            {v: rng.integers(1, max(2, n - 1), size=rows) for v, n in sizes.items()},
            rng.uniform(0.5, 1.5, size=rows),
        )
        state = {v: rng.integers(0, sizes[v], size=40) for v in shared}
        _assert_join_matches(other, state, shared, ctx, direct)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "searchsorted"])
def test_join_rows_edge_probes(direct):
    sizes = {"a": 4, "b": 3}
    ctx = flat_module.flat_context(
        MAX_PRODUCT, {v: tuple(range(n)) for v, n in sizes.items()}
    )
    shared = ("a", "b")
    # Keys 0..5 of the 12-cell box, each listed twice (12 rows: the direct
    # branch) or once with one dropped (5 rows: searchsorted).
    keys = np.repeat(np.arange(6), 2) if direct else np.array([0, 1, 2, 4, 5])
    other = flat_module.FlatFactor(
        shared,
        {"a": keys // 3, "b": keys % 3},
        np.linspace(0.5, 1.5, len(keys)),
    )

    def state(*packed):
        packed = np.array(packed, dtype=np.int64)
        return {"a": packed // 3, "b": packed % 3}

    # Keys past the last run (6..11, up to the box's last cell), between runs
    # (3 on the searchsorted side) and matching ones, in mixed order.
    matched = _assert_join_matches(other, state(11, 0, 7, 5, 3, 6, 2), shared, ctx, direct)
    assert set(matched.tolist()) == ({1, 3, 4, 6} if direct else {1, 3, 6})
    # A probe with no match at all: no pairs, within a row cap of 0.
    assert len(_assert_join_matches(other, state(11, 9, 6), shared, ctx, direct)) == 0


def test_row_cap_bails_out_to_the_trie_kernel():
    # Both steps join two encodings (x2's the filtering projection onto x1).
    query = _filtering_chain_query(seed=5)
    capped = inside_out(
        query, backend="sparse", backend_policy=BackendPolicy(flat_row_cap=10)
    )
    _check_answer(query, capped, flat_steps=0)


def test_flat_result_enters_a_dense_step_by_its_columns(monkeypatch):
    # Sparse enough that "auto" keeps x2 and x1 off the dense kernel, which
    # then takes the 48-row result over x0.
    query = _chain_query(seed=1, domain=48, density=0.1, free=())
    scattered = []
    from_flat = DenseFactor.from_flat.__func__

    def counting(cls, flat, *args, **kwargs):
        scattered.append(len(flat))
        return from_flat(cls, flat, *args, **kwargs)

    monkeypatch.setattr(DenseFactor, "from_flat", classmethod(counting))
    result = inside_out(query, backend="auto")
    assert [s.backend for s in result.stats.steps] == [BACKEND_FLAT, BACKEND_FLAT, "dense"]
    assert scattered == [result.stats.steps[1].result_size]
    _check_answer(query, result, backend="auto")


@pytest.mark.parametrize("rows", [0, 1, 30])
def test_dense_from_flat_equals_from_factor(rows):
    rng = random.Random(rows)
    domains = {"a": tuple("pqrst"), "b": tuple(range(4)), "c": (True, False)}
    ctx = flat_module.flat_context(MAX_PRODUCT, domains)
    cells = rng.sample(list(itertools.product(*domains.values())), rows)
    # Values within the tolerance of zero are dropped by both conversions.
    table = {cell: rng.choice([0.0, 1e-12, 0.25, 3.0]) for cell in cells}
    for scope in [("a", "b", "c"), ("c", "a"), ()]:
        keep = [list(domains).index(v) for v in scope]
        factor = Factor(scope, {tuple(c[i] for i in keep): v for c, v in table.items()})
        flat = flat_module.encode_flat(factor, ctx)
        got = DenseFactor.from_flat(flat, domains, MAX_PRODUCT, name=factor.name)
        want = DenseFactor.from_factor(factor, domains, MAX_PRODUCT)
        assert (got.scope, got.domains, got.name) == (want.scope, want.domains, want.name)
        assert got.array.dtype == want.array.dtype
        assert np.array_equal(got.array, want.array)


# ---------------------------------------------------------------------- #
# frozen join indexes; lazy result tables
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shared", [("x0",), ("x0", "x1")], ids=["direct", "searchsorted"])
@pytest.mark.parametrize("built", ["before-freeze", "after-freeze"])
def test_frozen_encoding_has_a_read_only_join_index(shared, built):
    query = _chain_query()  # 20 x 20 domain box, ~280 listed pairs
    ctx = flat_module.flat_context(query.semiring, query.domains())
    flat = flat_module.encode_flat(query.factors[0], ctx)
    if built == "before-freeze":
        flat.join_index(shared, ctx)
    flat.freeze()
    index = flat.join_index(shared, ctx)
    assert (index[-1] is not None) == (shared == ("x0",))
    arrays = [a for a in index if a is not None]
    assert arrays and all(not a.flags.writeable for a in arrays)


def _lazy_result():
    """A flat step's result (max over ``x1`` of the chain's two factors)."""
    query = _chain_query()
    ctx = flat_module.flat_context(query.semiring, query.domains())
    flats = [flat_module.encode_flat(f, ctx) for f in query.factors]
    result = flat_module.flat_eliminate(
        flats, "x1", ("x0", "x2"), "max", ctx, 1 << 30, name="lazy"
    )
    return result, ctx


def _eager_decode(flat, ctx):
    return {
        tuple(ctx.domains[v][int(flat.columns[v][row])] for v in flat.scope):
            flat.values[row].item()
        for row in range(len(flat))
    }


@pytest.fixture
def decodes(monkeypatch):
    """How many times a lazy result table has been decoded."""
    calls = []
    original = flat_module._decoded_items

    def counting(flat, ctx):
        calls.append(len(flat))
        return original(flat, ctx)

    monkeypatch.setattr(flat_module, "_decoded_items", counting)
    return calls


def test_lazy_table_equals_the_eager_decode(decodes):
    result, ctx = _lazy_result()
    flat = flat_module.stored_encoding(result, ctx)
    assert len(result) == len(flat) > 0 and not decodes  # len() reads the encoding
    table = result.table
    assert decodes == [len(flat)]
    assert table == _eager_decode(flat, ctx)
    assert result.table is table and len(decodes) == 1  # decoded once
    assert len(result) == len(table)


def test_lazy_result_hands_its_encoding_over(decodes, encode_counts):
    result, ctx = _lazy_result()
    before = encode_counts["encodes"]
    flat = flat_module.stored_encoding(result, ctx)
    assert flat_module.encode_flat(result, ctx) is flat
    assert not decodes and encode_counts["encodes"] == before
    # Another context's codes may mean other values: decoded and re-encoded.
    other = flat_module.flat_context(MAX_PRODUCT, ctx.domains)
    assert flat_module.stored_encoding(result, other) is None
    again = flat_module.encode_flat(result, other)
    assert again is not flat and encode_counts["encodes"] == before + 1
    assert decodes == [len(flat)]
    assert np.array_equal(again.values, flat.values)


def test_lazy_result_pickles_as_a_plain_factor():
    import pickle

    from repro.planner.signature import factor_digest

    result, _ = _lazy_result()
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone) is Factor
    assert (clone.scope, clone.name) == (result.scope, result.name)
    assert clone.table == result.table
    assert type(result.copy()) is Factor
    digest = factor_digest(result)  # frozen, with the digest memo
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone) is Factor and clone._digest == digest
    assert clone.table == result.table and factor_digest(clone) == digest


def test_racing_first_reads_then_digest_leave_a_frozen_table(monkeypatch):
    import threading

    from repro.planner.signature import factor_digest

    result, _ = _lazy_result()
    entered, release = threading.Event(), threading.Event()
    decode = flat_module._decoded_items

    def stalling(flat, ctx):
        items = list(decode(flat, ctx))
        if not entered.is_set():  # the first reader stalls mid-decode
            entered.set()
            release.wait(timeout=10)
        return items

    monkeypatch.setattr(flat_module, "_decoded_items", stalling)
    seen = []

    def read_then_digest():
        seen.append(result.table)
        seen.append(factor_digest(result))

    slow = threading.Thread(target=read_then_digest)
    slow.start()
    assert entered.wait(timeout=10)
    # The second reader decodes and stores first, and its digest freezes
    # what it stored; the stalled reader must then return that same table.
    read_then_digest()
    frozen = result.table
    assert result.frozen and seen == [frozen, seen[1]]
    release.set()
    slow.join(timeout=10)
    assert not slow.is_alive()
    assert seen[2] is frozen and seen[3] == seen[1]
    assert result.table is frozen and result.frozen


def test_flat_chain_never_decodes_its_intermediates(monkeypatch, decodes):
    # x2 and x1 run flat, the second consuming the first's result by its
    # encoding; x0 runs dense on the second's columns.
    query = _chain_query(seed=1, domain=48, density=0.1, free=())
    made = []
    eliminate = flat_module.flat_eliminate

    def keeping(*args, **kwargs):
        made.append(eliminate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(flat_module, "flat_eliminate", keeping)
    result = inside_out(query, backend="auto", backend_policy=FORCE_FLAT)
    assert [s.backend for s in result.stats.steps] == [BACKEND_FLAT, BACKEND_FLAT, "dense"]
    assert len(made) == 2 and not decodes
    assert [len(f) for f in made] == [s.result_size for s in result.stats.steps[:2]]
    _check_answer(query, result, backend="auto")
    assert not decodes  # the brute-force and trie runs decode nothing either
