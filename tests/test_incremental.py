"""Incremental delta evaluation and the stale-cache hazards it closes.

Covers, in order:

* :class:`~repro.factors.FactorDelta` validation and alignment;
* ``apply_delta`` on sparse and dense factors (new object, old untouched);
* **freeze-on-digest** — a factor that has been content-digested (and so
  may sit behind digest-keyed caches) rejects in-place mutation, on both
  representations (the satellite-1 stale-cache regression);
* the :class:`~repro.incremental.IncrementalView` regimes: delta
  propagation, monotone append, dirty-cone re-execution, and the selection
  logic between them (the run a view keeps has its own tests,
  ``test_incremental_kept_run.py``);
* a :class:`~repro.exec.StepResultCache` as a run's step source (the
  serving tier's): node-reuse accounting and the LRU growth bound;
* the :class:`~repro.exec.StepResultCache` claim lifecycle under a dying
  claimant (the satellite-2 wedge regression);
* :meth:`~repro.serve.PlanServer.update_factor` — warm-view hits, stale
  result-cache eviction, canonical re-pinning.
"""

import threading

import pytest

from repro.core.insideout import apply_output_delta, inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.exec import DagExecutor, RunSpec, StepResultCache, lower_insideout
from repro.factors import Factor, FactorDelta, FactorError, as_dense, as_sparse
from repro.incremental import (
    REGIME_APPEND,
    REGIME_DELTA,
    REGIME_DIRTY,
    IncrementalView,
    additive_tag,
    is_flat_query,
)
from repro.planner.signature import factor_digest
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT, MIN_PLUS, SUM_PRODUCT

from _helpers import step_accounting


def _chain_query(semiring, aggregate_factory, free=("a",)):
    """a–b–c chain with two factors (integer-valued, exact everywhere)."""
    variables = [Variable(v, (0, 1, 2)) for v in ("a", "b", "c")]
    f1 = Factor(("a", "b"), {(i, j): i + j + 1 for i in range(3) for j in range(3)})
    f2 = Factor(("b", "c"), {(i, j): 2 * i + j + 1 for i in range(3) for j in range(3)})
    bound = [v for v in ("a", "b", "c") if v not in free]
    return FAQQuery(
        variables=variables,
        free=list(free),
        aggregates={v: aggregate_factory() for v in bound},
        factors=[f1, f2],
        semiring=semiring,
    )


def _expected(query):
    return as_sparse(query.evaluate_brute_force(), query.semiring).normalize_scope(
        query.free
    )


# --------------------------------------------------------------------- #
# FactorDelta + apply_delta
# --------------------------------------------------------------------- #
def test_factor_delta_validates_scope_and_arity():
    with pytest.raises(FactorError):
        FactorDelta(("a", "a"), {})
    with pytest.raises(FactorError):
        FactorDelta(("a", "b"), {(0,): 1})
    delta = FactorDelta(("a", "b"), {(0, 1): 5})
    with pytest.raises(FactorError):
        delta.aligned_changes(("a", "c"))


def test_factor_delta_aligns_permuted_scopes():
    delta = FactorDelta(("b", "a"), {(0, 1): 7, (2, 0): 3})
    assert delta.aligned_changes(("a", "b")) == {(1, 0): 7, (0, 2): 3}


def test_apply_delta_sparse_builds_new_factor():
    factor = Factor(("a", "b"), {(0, 0): 1, (0, 1): 2})
    delta = FactorDelta(("a", "b"), {(0, 0): 9, (1, 1): 4, (0, 1): 0})
    updated = factor.apply_delta(delta, COUNTING)
    assert updated is not factor
    assert updated.table == {(0, 0): 9, (1, 1): 4}
    assert factor.table == {(0, 0): 1, (0, 1): 2}  # old factor untouched


def test_apply_delta_dense_builds_new_factor():
    factor = Factor(("a", "b"), {(0, 0): 1.0, (0, 1): 2.0})
    domains = {"a": (0, 1), "b": (0, 1)}
    dense = as_dense(factor, domains, SUM_PRODUCT)
    delta = FactorDelta(("b", "a"), {(0, 1): 9.0})  # permuted scope
    updated = dense.apply_delta(delta, SUM_PRODUCT)
    assert updated is not dense
    assert updated.value_of_tuple((1, 0), SUM_PRODUCT) == 9.0
    assert dense.value_of_tuple((1, 0), SUM_PRODUCT) == 0.0
    with pytest.raises(FactorError):
        dense.apply_delta(FactorDelta(("a", "b"), {(7, 0): 1.0}), SUM_PRODUCT)


def test_effective_changes_drops_noop_cells():
    factor = Factor(("a",), {(0,): 2, (1,): 3})
    delta = FactorDelta(("a",), {(0,): 2, (1,): 5})
    assert delta.effective_changes(factor, COUNTING) == {(1,): 5}


# --------------------------------------------------------------------- #
# freeze-on-digest: the satellite-1 stale-cache regression
# --------------------------------------------------------------------- #
def test_digested_sparse_factor_rejects_mutation():
    factor = Factor(("a",), {(0,): 1})
    assert not factor.frozen
    factor.table[(1,)] = 2  # mutable before any digest
    factor_digest(factor)
    assert factor.frozen
    with pytest.raises(FactorError):
        factor.table[(2,)] = 3
    with pytest.raises(FactorError):
        del factor.table[(0,)]
    with pytest.raises(FactorError):
        factor.table.update({(2,): 3})
    with pytest.raises(FactorError):
        factor.table.clear()
    # reads and copies still work; the copy is mutable again
    assert factor.table[(0,)] == 1
    clone = factor.copy()
    clone.table[(2,)] = 3
    assert clone.table[(2,)] == 3


def test_digested_dense_factor_rejects_mutation():
    import numpy as np

    factor = Factor(("a",), {(0,): 1.0})
    dense = as_dense(factor, {"a": (0, 1)}, SUM_PRODUCT)
    assert not dense.frozen
    factor_digest(dense)
    assert dense.frozen
    with pytest.raises((ValueError, RuntimeError)):
        dense.array[0] = 5.0
    assert isinstance(dense.array, np.ndarray)


def test_served_factor_mutation_raises_and_update_path_is_fresh():
    """The stale-answer hazard, end to end: once a factor has been served
    (digested into the plan/result caches), mutating it in place raises —
    and the supported path, ``apply_delta`` + ``update_factor``, yields a
    fresh answer instead of a stale cached one."""
    from repro.serve import PlanServer, ServeRequest

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    with PlanServer(cache_results=True) as server:
        request = ServeRequest(query=query)
        first = server.submit(request).result()
        served = query.factors[0]
        with pytest.raises(FactorError):
            served.table[(0, 0)] = 999  # in-place mutation is rejected
        updated = server.update_factor(
            request, 0, FactorDelta(("a", "b"), {(0, 0): 999})
        )
        assert updated.factor.table != first.factor.table
        assert updated.factor.table == _expected(
            FAQQuery(
                variables=[Variable(v, (0, 1, 2)) for v in ("a", "b", "c")],
                free=["a"],
                aggregates={
                    "b": SemiringAggregate.sum(),
                    "c": SemiringAggregate.sum(),
                },
                factors=[
                    query.factors[0].apply_delta(
                        FactorDelta(("a", "b"), {(0, 0): 999}), COUNTING
                    ),
                    query.factors[1],
                ],
                semiring=COUNTING,
            )
        ).table


def test_frozen_table_pickles_as_plain_dict(monkeypatch):
    """The table still pickles as a plain dict; the factor keeps its digest
    memo, and its first digest in the receiving process is a memo hit that
    freezes it again."""
    import pickle

    from repro.planner import signature

    factor = Factor(("a",), {(0,): 1})
    digest = factor_digest(factor)
    revived_table = pickle.loads(pickle.dumps(factor.table))
    assert type(revived_table) is dict
    assert revived_table == {(0,): 1}
    revived = pickle.loads(pickle.dumps(factor))
    assert not revived.frozen and revived._digest == digest
    computed = []
    monkeypatch.setattr(signature, "_compute_factor_digest", computed.append)
    assert factor_digest(revived) == digest
    assert revived.frozen and computed == []
    with pytest.raises(FactorError):
        revived.table[(1,)] = 2


# --------------------------------------------------------------------- #
# regime selection + equivalence
# --------------------------------------------------------------------- #
def test_additive_tag_and_flatness():
    q = _chain_query(COUNTING, SemiringAggregate.sum)
    assert additive_tag(COUNTING) == "sum"
    assert is_flat_query(q, "sum")
    q_prod = FAQQuery(
        variables=[Variable(v, (0, 1)) for v in ("a", "b")],
        free=["a"],
        aggregates={"b": ProductAggregate.product()},
        factors=[Factor(("a", "b"), {(0, 0): 1})],
        semiring=COUNTING,
    )
    assert not is_flat_query(q_prod, "sum")


def test_delta_regime_for_subtractable_semirings():
    view = IncrementalView(_chain_query(COUNTING, SemiringAggregate.sum))
    view.result()
    out = view.update_factor(0, FactorDelta(("a", "b"), {(0, 0): 42, (2, 2): 0}))
    assert view.stats.regimes == {REGIME_DELTA: 1}
    assert out.table == _expected(view.query).table


def test_append_regime_for_improving_idempotent_updates():
    view = IncrementalView(_chain_query(MAX_PRODUCT, SemiringAggregate.max))
    view.result()
    # (0,0) currently 1; 50 absorbs it under max — monotone append applies.
    out = view.update_factor(0, FactorDelta(("a", "b"), {(0, 0): 50}))
    assert view.stats.regimes == {REGIME_APPEND: 1}
    assert out.table == _expected(view.query).table


def test_dirty_regime_for_worsening_and_product_queries():
    # A "worsening" max-product update (old value not absorbed) goes dirty.
    view = IncrementalView(_chain_query(MAX_PRODUCT, SemiringAggregate.max))
    view.result()
    out = view.update_factor(0, FactorDelta(("a", "b"), {(2, 2): 1}))
    assert view.stats.regimes == {REGIME_DIRTY: 1}
    assert out.table == _expected(view.query).table
    # A product-aggregate query is never flat: always dirty.
    q = FAQQuery(
        variables=[Variable(v, (0, 1, 2)) for v in ("a", "b", "c")],
        free=["a"],
        aggregates={"b": SemiringAggregate.sum(), "c": ProductAggregate.product()},
        factors=[
            Factor(("a", "b"), {(i, j): i + j + 1 for i in range(3) for j in range(3)}),
            Factor(("b", "c"), {(i, j): i + 2 for i in range(3) for j in range(3)}),
        ],
        semiring=COUNTING,
    )
    view2 = IncrementalView(q)
    view2.result()
    out2 = view2.update_factor(0, FactorDelta(("a", "b"), {(0, 0): 9}))
    assert view2.stats.regimes == {REGIME_DIRTY: 1}
    assert out2.table == _expected(view2.query).table


def test_dirty_update_of_a_whole_box_factor_replays_its_readers():
    """The step eliminating ``c`` only reads ``f1``, which lists its whole
    box: a dirty value update of ``f1`` leaves the support that step reads
    alone, so it keeps its result and only the steps consuming ``f1``
    re-run.  A deletion leaves ``f1`` short of its box, and the reader
    re-runs too."""
    view = IncrementalView(_chain_query(MAX_PRODUCT, SemiringAggregate.max))
    view.result()
    dag = lower_insideout(view.query, list(view.query.order))
    assert [(n.variable, n.incident, n.reads) for n in dag.nodes[:2]] == [
        ("c", (1,), (0,)), ("b", (0, 2), ()),
    ]
    out = view.update_factor(0, FactorDelta(("a", "b"), {(2, 2): 1}))
    assert view.stats.regimes == {REGIME_DIRTY: 1}
    assert (view.stats.nodes_reused, view.stats.nodes_executed) == (1, 2)
    assert out.table == _expected(view.query).table

    out = view.update_factor(0, FactorDelta(("a", "b"), {(2, 1): 0}))
    assert view.stats.regimes == {REGIME_DIRTY: 2}
    assert (view.stats.nodes_reused, view.stats.nodes_executed) == (1, 5)
    assert out.table == _expected(view.query).table


def test_deletions_are_exact_in_every_regime():
    for semiring, factory in (
        (COUNTING, SemiringAggregate.sum),
        (MAX_PRODUCT, SemiringAggregate.max),
        (MIN_PLUS, SemiringAggregate.min),
        (BOOLEAN, SemiringAggregate.logical_or),
    ):
        view = IncrementalView(_chain_query(semiring, factory))
        view.result()
        out = view.update_factor(
            0, FactorDelta(("a", "b"), {(1, 1): semiring.zero})
        )
        assert out.table == _expected(view.query).table, semiring.name


def test_noop_update_keeps_answer_and_skips_regimes():
    view = IncrementalView(_chain_query(COUNTING, SemiringAggregate.sum))
    base = view.result()
    before = view.query
    out = view.update_factor(0, FactorDelta(("a", "b"), {(0, 0): 1}))  # same value
    assert out.table == base.table
    assert view.stats.regimes == {}
    assert view.query is before  # nothing changed, nothing rebuilt


def test_update_factor_index_out_of_range():
    view = IncrementalView(_chain_query(COUNTING, SemiringAggregate.sum))
    with pytest.raises(QueryError):
        view.update_factor(5, FactorDelta(("a", "b"), {(0, 0): 1}))


def test_view_matches_full_recomputation_after_update_stream():
    view = IncrementalView(_chain_query(COUNTING, SemiringAggregate.sum))
    view.result()
    for cell, value in (((0, 0), 10), ((1, 2), 0), ((2, 2), 3)):
        out = view.update_factor(0, FactorDelta(("a", "b"), {cell: value}))
    assert out.table == _expected(view.query).table
    # ... and a from-scratch InsideOut run of the final query agrees cell for cell.
    recomputed = inside_out(view.query)
    assert out.table == as_sparse(recomputed.factor, COUNTING).normalize_scope(
        view.query.free
    ).table


# --------------------------------------------------------------------- #
# an update costs what it touches
# --------------------------------------------------------------------- #
def _two_chains(semiring, aggregate_factory, domain, seed):
    """Two disjoint 4-variable chains: six integer pair factors, ``x0`` free."""
    import random

    rng = random.Random(seed)
    names = [f"x{i}" for i in range(8)]
    factors = [
        Factor((a, b), {
            (i, j): rng.randint(1, 4)
            for i in range(domain) for j in range(domain) if rng.random() < 0.8
        })
        for a, b in zip(names, names[1:]) if (a, b) != ("x3", "x4")
    ]
    return FAQQuery(
        variables=[Variable(v, tuple(range(domain))) for v in names],
        free=["x0"],
        aggregates={v: aggregate_factory() for v in names[1:]},
        factors=factors,
        semiring=semiring,
    )


def _store_digests(view):
    return set(view._tries._entries)


def _live_digests(view):
    return {factor._digest for factor in view.query.factors}


@pytest.mark.parametrize(
    "semiring, factory, regime, value",
    [
        (COUNTING, SemiringAggregate.sum, REGIME_DELTA, 9),
        (MAX_PRODUCT, SemiringAggregate.max, REGIME_APPEND, 9),
        (MAX_PRODUCT, SemiringAggregate.max, REGIME_DIRTY, 1),
    ],
)
def test_update_work_census(monkeypatch, semiring, factory, regime, value):
    """One update copies, sweeps, digests and indexes the factor it replaces
    and nothing else — counted, not clocked."""
    from repro.factors import factor as factor_module
    from repro.factors import index as index_module
    from repro.planner import signature

    view = IncrementalView(_two_chains(semiring, factory, domain=6, seed=3))
    view.result()
    index = 1
    # Warm-up on the same factor: the count below then sees an update of
    # content that an update already installed.
    view.update_factor(index, FactorDelta(("x1", "x2"), {(0, 0): 5}))
    before = list(view.query.factors)
    untouched = [f for j, f in enumerate(before) if j != index]
    cell = max(before[index].table, key=before[index].table.get)
    changes = {cell: before[index].table[cell] * value if value > 1 else value}
    assert len(before[index]) > len(changes)
    view.stats.regimes.clear()

    digested, pruned, indexed, projected = [], [], [], []

    def spy(owner, name, seen):
        """Record the factor each call of ``owner.name`` is made on."""
        original = getattr(owner, name)

        def wrapper(factor, *args, **kwargs):
            seen.append(factor)
            return original(factor, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(signature, "_compute_factor_digest", digested)
    spy(factor_module.Factor, "pruned", pruned)
    spy(factor_module.Factor, "indicator_projection", projected)
    spy(index_module, "build_trie", indexed)

    out = view.update_factor(index, FactorDelta(before[index].scope, changes))

    assert view.stats.regimes == {regime: 1}
    for j, factor in enumerate(before):
        assert (view.query.factors[j] is factor) == (j != index)
    new_factor = view.query.factors[index]
    assert new_factor.frozen and new_factor._digest is not None
    # the one full digest is the new factor's; a delta factor is delta-sized
    assert [f for f in digested if len(f) > len(changes)] == [new_factor]
    assert all(len(f) <= len(changes) for f in pruned), pruned
    for seen in (pruned, indexed, projected):
        assert not any(f is base for f in seen for base in untouched)
    # the store follows the standing query: old content out, new content in
    assert before[index]._digest not in _store_digests(view)
    assert _store_digests(view) <= _live_digests(view)
    assert view.stats.full_runs == 1
    # ... and the answer is the full recomputation's (which indexes everything,
    # so it comes after the counts).
    recomputed = as_sparse(inside_out(view.query).factor, semiring)
    assert out.table == recomputed.normalize_scope(view.query.free).table


@pytest.mark.parametrize(
    "semiring, factory",
    [(COUNTING, SemiringAggregate.sum), (MAX_PRODUCT, SemiringAggregate.max)],
)
def test_update_stream_stays_exact_and_store_stays_live(semiring, factory):
    """200 seeded updates (inserts, changes, deletions; every regime the
    semiring has): each answer equals brute force of the current query, and
    the view's index store never holds content that is no longer a factor."""
    import random

    rng = random.Random(20)
    view = IncrementalView(_two_chains(semiring, factory, domain=2, seed=4))
    view.result()
    for _ in range(200):
        index = rng.randrange(len(view.query.factors))
        scope = view.query.factors[index].scope
        changes = {
            (rng.randrange(2), rng.randrange(2)): rng.randint(0, 5)
            for _ in range(rng.randint(1, 2))
        }
        out = view.update_factor(index, FactorDelta(scope, changes))
        assert out.table == _expected(view.query).table
        assert _store_digests(view) <= _live_digests(view)
    assert _store_digests(view)
    assert view.stats.full_runs == 1
    assert len(view.stats.regimes) == (1 if semiring is COUNTING else 2)


def test_a_float_delta_stream_stays_within_value_tolerance():
    """The float contract: 200 seeded sum-product updates of a 3-factor
    chain with non-dyadic weights, answered by delta propagation.  The
    corrected answer re-associates the float sums, so it need not equal a
    full recomputation bit for bit; it must stay within
    ``Semiring.values_equal`` of one (``Factor.equals``) after every update."""
    import random

    rng = random.Random(200)
    names = "abcd"
    factors = [
        Factor((x, y), {
            (i, j): rng.uniform(0.1, 3.0)
            for i in range(4) for j in range(4) if rng.random() < 0.7
        })
        for x, y in zip(names, names[1:])
    ]
    view = IncrementalView(FAQQuery(
        variables=[Variable(v, tuple(range(4))) for v in names],
        free=["a"],
        aggregates={v: SemiringAggregate.sum() for v in names[1:]},
        factors=factors,
        semiring=SUM_PRODUCT,
    ))
    view.result()
    for _ in range(200):
        index = rng.randrange(len(view.query.factors))
        changes = {
            (rng.randrange(4), rng.randrange(4)):
                0.0 if rng.random() < 0.15 else rng.uniform(0.1, 3.0)
            for _ in range(rng.randint(1, 3))
        }
        out = view.update_factor(index, FactorDelta(view.query.factors[index].scope, changes))
        recomputed = as_sparse(inside_out(view.query).factor, SUM_PRODUCT)
        assert out.equals(recomputed.normalize_scope(view.query.free), SUM_PRODUCT)
    assert view.stats.regimes.get(REGIME_DELTA, 0) > 150
    assert view.stats.full_runs == 1


def test_restored_view_resumes_without_a_full_run():
    """The index store is runtime-only: a restored view starts with an empty
    one, refills it as updates run, and never recomputes from scratch.  Its
    factors come back frozen under their digest memos, so they are held by
    reference like a live view's."""
    import pickle

    from repro.factors.index import SharedTrieCache

    view = IncrementalView(_two_chains(MAX_PRODUCT, SemiringAggregate.max, 3, seed=6))
    view.result()
    view.update_factor(0, FactorDelta(("x0", "x1"), {(0, 0): 7}))
    state = view.dump_state()
    assert not any(isinstance(part, SharedTrieCache) for part in state.values())

    restored = IncrementalView.restore(pickle.loads(pickle.dumps(state)))
    assert not _store_digests(restored)
    assert restored.result().table == view.result().table
    listed = next(iter(view.query.factors[2].table))
    updates = (
        (0, {(0, 0): 9}),   # rises: append
        (2, {listed: 0}),   # deleted: dirty
        (4, {(2, 0): 6}),
    )
    for index, changes in updates:
        delta = FactorDelta(view.query.factors[index].scope, changes)
        before = list(restored.query.factors)
        out = restored.update_factor(index, delta)
        for j, factor in enumerate(before):  # by reference from the first update on
            assert (restored.query.factors[j] is factor) == (j != index)
        assert out.table == view.update_factor(index, delta).table
        assert out.table == _expected(restored.query).table
        assert _store_digests(restored) <= _live_digests(restored)
    assert _store_digests(restored)
    assert restored.stats.full_runs == 0


# --------------------------------------------------------------------- #
# apply_output_delta
# --------------------------------------------------------------------- #
def test_apply_output_delta_combines_and_prunes():
    base = Factor(("a",), {(0,): 2, (1,): 3})
    delta = Factor(("a",), {(0,): -2, (2,): 7})
    combined = apply_output_delta(base, delta, COUNTING)
    assert combined.table == {(1,): 3, (2,): 7}
    with pytest.raises(QueryError):
        apply_output_delta(base, Factor(("b",), {(0,): 1}), COUNTING)


# --------------------------------------------------------------------- #
# a StepResultCache step source: dirty-subgraph reuse accounting
# --------------------------------------------------------------------- #
def test_snapshot_step_source_reuses_clean_nodes():
    # Two disjoint chains a-b and c-d joined only at the output: updating
    # the a-b factor must not re-execute the c-d elimination.
    variables = [Variable(v, (0, 1, 2)) for v in ("a", "c", "b", "d")]
    f_ab = Factor(("a", "b"), {(i, j): i + j + 1 for i in range(3) for j in range(3)})
    f_cd = Factor(("c", "d"), {(i, j): 2 * i + j + 1 for i in range(3) for j in range(3)})
    query = FAQQuery(
        variables=variables,
        free=["a", "c"],
        aggregates={"b": SemiringAggregate.sum(), "d": SemiringAggregate.sum()},
        factors=[f_ab, f_cd],
        semiring=COUNTING,
    )
    executor = DagExecutor()
    cache = StepResultCache()
    cold = step_accounting(executor.run_many([RunSpec(query)], step_cache=cache))
    assert cold.replayed == 0 and cold.executed == cold.total
    assert len(cache) == cold.total

    updated = FAQQuery(
        variables=variables,
        free=["a", "c"],
        aggregates={"b": SemiringAggregate.sum(), "d": SemiringAggregate.sum()},
        factors=[f_ab.apply_delta(FactorDelta(("a", "b"), {(0, 0): 50}), COUNTING), f_cd],
        semiring=COUNTING,
    )
    [result2] = executor.run_many([RunSpec(updated)], step_cache=cache)
    info = step_accounting([result2])
    assert info.replayed > 0  # the untouched c-d subgraph replayed
    assert info.executed > 0  # the dirty a-b subgraph re-ran
    assert info.replayed + info.executed == info.total
    expected = updated.evaluate_brute_force()
    assert expected.equals(result2.factor, COUNTING)
    # Stats of the partly replayed run match an unshared run's.
    fresh = executor.run(updated)
    assert [(s.variable, s.result_size) for s in result2.stats.steps] == [
        (s.variable, s.result_size) for s in fresh.stats.steps
    ]
    assert result2.stats.join_stats == fresh.stats.join_stats

    # identical query + warm cache: everything replays
    [result3] = executor.run_many([RunSpec(updated)], step_cache=cache)
    info3 = step_accounting([result3])
    assert info3.executed == 0
    assert info3.replayed == info3.total
    assert result3.factor.table == result2.factor.table

    # The growth bound is the LRU: after maxsize unrelated entries, a re-run
    # of the updated query holds every key of that run.
    for i in range(cache._entries.maxsize):
        cache.fulfil(("stale", i), None)
    executor.run_many([RunSpec(updated)], step_cache=cache)
    dag = lower_insideout(updated, list(updated.order), content_digests=True)
    held = {key for key, _ in cache._entries.items()}
    assert {(node.digest, "sparse") for node in dag.nodes} <= held


# --------------------------------------------------------------------- #
# StepResultCache claim lifecycle: the satellite-2 wedge regression
# --------------------------------------------------------------------- #
def test_step_cache_recovers_after_claimant_dies(monkeypatch):
    """A step kernel raising between claim and fulfil must abandon the
    claim; the next run over the same digests recomputes instead of
    blocking forever on the dead claimant's in-flight event."""
    import repro.exec.executor as executor_module

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    cache = StepResultCache(maxsize=64)
    executor = DagExecutor()

    real_kernel = executor_module.eliminate_semiring_step
    calls = {"n": 0}

    def flaky_kernel(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected kernel fault")
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(executor_module, "eliminate_semiring_step", flaky_kernel)
    with pytest.raises(RuntimeError, match="injected kernel fault"):
        executor.run(query, step_cache=cache)
    assert not cache._inflight  # no wedged claims left behind

    # The same cache serves the retry (nothing blocks, answer is right).
    done = threading.Event()
    outcome = {}

    def retry():
        outcome["result"] = executor.run(query, step_cache=cache)
        done.set()

    thread = threading.Thread(target=retry, daemon=True)
    thread.start()
    assert done.wait(timeout=30.0), "retry wedged on an unreleased claim"
    thread.join()
    expected = query.evaluate_brute_force()
    assert expected.equals(outcome["result"].factor, COUNTING)


def test_step_cache_capture_failure_releases_claim(monkeypatch):
    """Same lifecycle hazard one step later: the kernel succeeds but the
    post-execution capture fails.  The claim must still be released."""
    import repro.exec.executor as executor_module

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    cache = StepResultCache(maxsize=64)
    executor = DagExecutor()

    real_capture = executor_module._RunState.capture
    calls = {"n": 0}

    def flaky_capture(self, index):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected capture fault")
        return real_capture(self, index)

    monkeypatch.setattr(executor_module._RunState, "capture", flaky_capture)
    with pytest.raises(RuntimeError, match="injected capture fault"):
        executor.run(query, step_cache=cache)
    assert not cache._inflight

    result = executor.run(query, step_cache=cache)
    expected = query.evaluate_brute_force()
    assert expected.equals(result.factor, COUNTING)


# --------------------------------------------------------------------- #
# PlanServer.update_factor
# --------------------------------------------------------------------- #
def test_server_update_factor_warm_view_and_stats():
    from repro.serve import PlanServer, ServeRequest

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    with PlanServer() as server:
        request = ServeRequest(query=query)
        first = server.update_factor(
            request, 0, FactorDelta(("a", "b"), {(0, 0): 9})
        )
        assert first.factor.table == _expected(
            _updated_chain(query, {(0, 0): 9})
        ).table
        # The follow-up update against the updated query hits the warm view.
        updated_query = _updated_chain(query, {(0, 0): 9})
        second = server.update_factor(
            ServeRequest(query=updated_query), 0, FactorDelta(("a", "b"), {(1, 1): 7})
        )
        stats = server.stats()
        assert stats["incremental_hits"] == 1
        assert stats["incremental_misses"] == 1
        assert stats["incremental_views"] == 1
        assert second.factor.table == _expected(
            _updated_chain(query, {(0, 0): 9, (1, 1): 7})
        ).table


def test_server_update_results_keep_their_own_stats():
    """Each update's result holds the view's stats as they stood after that
    update: a later update through the same warm view leaves an earlier
    result's counts alone."""
    from repro.serve import PlanServer, ServeRequest

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    with PlanServer() as server:
        first = server.update_factor(
            ServeRequest(query=query), 0, FactorDelta(("a", "b"), {(0, 0): 9})
        )
        regimes = dict(first.stats.regimes)
        assert sum(regimes.values()) == 1
        second = server.update_factor(
            ServeRequest(query=_updated_chain(query, {(0, 0): 9})),
            0, FactorDelta(("a", "b"), {(1, 1): 7}),
        )
        assert server.stats()["incremental_hits"] == 1
    assert first.stats is not second.stats
    assert first.stats.regimes == regimes
    assert sum(second.stats.regimes.values()) == 2


def test_server_update_factor_keeps_old_content_answerable():
    """An update evicts nothing: the old content is still a valid query whose
    cached answer is still right, and the new content has new digests."""
    from repro.serve import PlanServer, ServeRequest

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    changed = _updated_chain(query, {(0, 0): 123})
    with PlanServer(cache_results=True) as server:
        request = ServeRequest(query=query)
        before = server.submit(request).result()
        # Prime the completed-result cache (second submit is a cache hit).
        server.submit(request).result()
        assert server.stats()["result_cache_hits"] == 1
        updated = server.update_factor(
            request, 0, FactorDelta(("a", "b"), {(0, 0): 123})
        )
        assert updated.factor.table == _expected(changed).table
        assert updated.factor.table != before.factor.table
        # Old content, rebuilt as a fresh object, gets the old answer (from
        # whichever cache still holds it); new content gets the new one.
        old = server.submit(ServeRequest(query=_updated_chain(query, {}))).result()
        new = server.submit(ServeRequest(query=changed)).result()
        assert old.factor.table == _expected(query).table
        assert new.factor.table == _expected(changed).table
        assert server.stats()["result_cache_hits"] >= 1


def test_server_update_factor_rejects_factorized_mode():
    from repro.serve import PlanFailure, PlanServer, ServeRequest

    query = _chain_query(COUNTING, SemiringAggregate.sum)
    with PlanServer() as server:
        with pytest.raises(PlanFailure):
            server.update_factor(
                ServeRequest(query=query, output_mode="factorized"),
                0,
                FactorDelta(("a", "b"), {(0, 0): 9}),
            )


def _updated_chain(query, changes):
    new_factor = query.factors[0].apply_delta(
        FactorDelta(("a", "b"), changes), query.semiring
    )
    return FAQQuery(
        variables=[query.variables[v] for v in query.order],
        free=query.free,
        aggregates=query.aggregates,
        factors=[new_factor, query.factors[1]],
        semiring=query.semiring,
    )
