"""The run an :class:`~repro.incremental.IncrementalView` keeps.

A view keeps one lowered run of its standing query, intermediates and all,
and an update re-runs only the nodes downstream of the changed factor.
Covered here:

* a seeded update stream over four semirings, indicator projections on and
  off, backends ``sparse`` and ``auto``, with value rises and falls,
  inserts, deletes and 50-cell updates: after every update the answer
  equals a fresh ``inside_out`` of the view's query, and every kept
  intermediate equals a fresh run's (``==`` on exact carriers,
  ``values_equal`` on float sums);
* the census: updates alternating between two cones run no step at full
  size once each cone has been updated;
* the counters the benchmark reads (``nodes_reused``, ``nodes_executed``);
* spill and restore of the kept run, and an update that fails mid-cone.
"""

import pickle
import random

import pytest

import repro.exec.executor as executor_module
from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.exec import lower_insideout
from repro.exec.executor import RunSpec, _RunState
from repro.factors import Factor, FactorDelta, as_sparse
from repro.incremental import REGIME_APPEND, REGIME_DELTA, REGIME_DIRTY, IncrementalView
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT, SUM_PRODUCT

DOMAIN = 8  # 64 cells a pair factor: room for a 50-cell update

# name -> (semiring, aggregate factory, a listed value, exact carrier)
SEMIRINGS = {
    "counting": (COUNTING, SemiringAggregate.sum, lambda rng: rng.randint(1, 5), True),
    "sum-product": (SUM_PRODUCT, SemiringAggregate.sum, lambda rng: rng.uniform(0.1, 3.0), False),
    # quarters: every product of these queries' factors is exact in float64,
    # so a dense step and a sparse one agree to the bit
    "max-product": (
        MAX_PRODUCT, SemiringAggregate.max, lambda rng: rng.randint(1, 12) / 4, True,
    ),
    "boolean": (BOOLEAN, SemiringAggregate.logical_or, lambda rng: True, True),
}

# updates per (semiring, projections, backend) case: 2 000 float-sum updates
UPDATES = {"sum-product": 500}
DEFAULT_UPDATES = 150


def _stream_query(name, seed):
    """Two disjoint chains ``a0-a1-a2-a3`` and ``b0-b1-b2`` plus a unary
    factor on ``a2``; ``a0`` is free in half the seeds."""
    semiring, aggregate, draw, _ = SEMIRINGS[name]
    rng = random.Random(seed)
    names = ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]
    scopes = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("b0", "b1"), ("b1", "b2"), ("a2",)]
    free = ["a0"] if seed % 2 else []
    factors = [
        Factor(scope, {cell: draw(rng) for cell in _box(scope) if rng.random() < 0.6})
        for scope in scopes
    ]
    return FAQQuery(
        variables=[Variable(v, tuple(range(DOMAIN))) for v in names],
        free=free,
        aggregates={v: aggregate() for v in names if v not in free},
        factors=factors,
        semiring=semiring,
        name=f"kept-{name}-{seed}",
    )


def _moved(name, value, rng, up):
    """A listed ``value`` moved up or down, never to zero."""
    if name == "counting":
        return value + rng.randint(1, 3) if up or value == 1 else value - 1
    if name == "sum-product":
        return value * (rng.uniform(1.1, 2.0) if up else rng.uniform(0.3, 0.9))
    quarters = round(value * 4)
    return (quarters + rng.randint(1, 4)) / 4 if up or quarters == 1 else (quarters - 1) / 4


def _next_update(view, name, rng, kind):
    """``(index, changes)`` of one update of the given kind."""
    draw = SEMIRINGS[name][2]
    zero = view.query.semiring.zero
    index = rng.randrange(len(view.query.factors))
    factor = view.query.factors[index]
    box = _box(factor.scope)
    listed = list(factor.table)
    unlisted = [cell for cell in box if cell not in factor.table]
    if name == "boolean" and kind in ("up", "down"):
        kind = "insert" if kind == "up" else "delete"
    if kind in ("up", "down") and listed:
        cell = rng.choice(listed)
        return index, {cell: _moved(name, factor.table[cell], rng, kind == "up")}
    if kind == "insert" and unlisted:
        return index, {rng.choice(unlisted): draw(rng)}
    if kind == "delete" and listed:
        return index, {rng.choice(listed): zero}
    changes = {}
    for cell in rng.sample(box, min(50, len(box))):
        if cell in factor.table and rng.random() < 0.7:
            changes[cell] = _moved(name, factor.table[cell], rng, rng.random() < 0.5)
            if name == "boolean":
                changes[cell] = zero
        else:
            changes[cell] = zero if rng.random() < 0.3 else draw(rng)
    return index, changes


def _box(scope):
    """Every cell of a unary or pair factor's box."""
    if len(scope) == 1:
        return [(i,) for i in range(DOMAIN)]
    return [(i, j) for i in range(DOMAIN) for j in range(DOMAIN)]


def _fresh_run(view, uip, backend):
    """A full run of the view's query with the view's knobs, every slot kept."""
    run = _RunState(
        RunSpec(view.query, ordering=list(view.ordering),
                use_indicator_projections=uip, backend=backend),
        content_digests=False,
    )
    run.execute_all()
    return run


def _same(a, b, semiring, exact):
    a, b = as_sparse(a, semiring), as_sparse(b, semiring)
    if exact:
        return a.scope == b.scope and a.table == b.table
    return a.equals(b, semiring)


def _check_view(view, uip, backend, exact, context):
    semiring = view.query.semiring
    fresh = as_sparse(inside_out(view.query, ordering=view.ordering).factor, semiring)
    assert _same(view.result(), fresh.normalize_scope(view.query.free), semiring, exact), context
    kept, full = view._run.slots, _fresh_run(view, uip, backend).slots
    assert len(kept) == len(full)
    for slot, (mine, theirs) in enumerate(zip(kept, full)):
        if mine is None or theirs is None:
            assert mine is theirs, (context, slot)
        else:
            assert _same(mine, theirs, semiring, exact), (context, slot)


@pytest.mark.parametrize("backend", ["sparse", "auto"])
@pytest.mark.parametrize("uip", [True, False], ids=["projections", "no-projections"])
@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_kept_run_equals_a_fresh_run_after_every_update(name, uip, backend):
    semiring, _, _, exact = SEMIRINGS[name]
    seed = sorted(SEMIRINGS).index(name) * 4 + 2 * uip + (backend == "auto")
    rng = random.Random(4700 + seed)
    view = IncrementalView(
        _stream_query(name, seed), use_indicator_projections=uip, backend=backend
    )
    _check_view(view, uip, backend, exact, "baseline")
    kinds = ("up", "down", "insert", "delete", "many")
    for step in range(UPDATES.get(name, DEFAULT_UPDATES)):
        kind = kinds[step % len(kinds)]
        index, changes = _next_update(view, name, rng, kind)
        scope = view.query.factors[index].scope
        view.update_factor(index, FactorDelta(scope, changes))
        _check_view(view, uip, backend, exact, (name, step, kind))
    assert view.stats.full_runs == 1
    regimes = set(view.stats.regimes)
    assert regimes == ({REGIME_DELTA} if name in ("counting", "sum-product")
                       else {REGIME_APPEND, REGIME_DIRTY})


# --------------------------------------------------------------------- #
# the census: no full-size step once each cone is current
# --------------------------------------------------------------------- #
def _two_cones(semiring, draw, seed=5):
    """Chains ``x0-x1-x2-x3`` and ``y0-y1-y2-y3``: two cones meeting only
    at the output node."""
    rng = random.Random(seed)
    names = ["x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"]
    scopes = [("x0", "x1"), ("x1", "x2"), ("x2", "x3"), ("y0", "y1"), ("y1", "y2"), ("y2", "y3")]
    return FAQQuery(
        variables=[Variable(v, tuple(range(DOMAIN))) for v in names],
        free=[],
        aggregates={v: SemiringAggregate.sum() if semiring is COUNTING
                    else SemiringAggregate.max() for v in names},
        factors=[
            Factor(scope, {cell: draw(rng) for cell in _box(scope) if rng.random() < 0.6})
            for scope in scopes
        ],
        semiring=semiring,
    )


@pytest.mark.parametrize("name", ["counting", "max-product"])
def test_updates_alternating_between_two_cones_run_no_full_size_step(monkeypatch, name):
    """After one update in each cone, updates alternate between the cones
    (value rises: delta and append regimes).  No node executes over the
    standing slots: every step that runs has a delta factor in an
    incident position, so its size is the delta's."""
    semiring, _, draw, _ = SEMIRINGS[name]
    view = IncrementalView(_two_cones(semiring, draw))
    view.result()
    rng = random.Random(11)

    def rise(index):
        factor = view.query.factors[index]
        cell = rng.choice(list(factor.table))
        value = _moved(name, factor.table[cell], rng, True)
        view.update_factor(index, FactorDelta(factor.scope, {cell: value}))

    rise(1)
    rise(4)  # warm-up: one update in each cone
    full, kernels = [], []
    real_kernel = _RunState._kernel

    def kernel(run, node, incident, join_stats):
        kernels.append([
            f for f in incident if f is not None and not any(f is kept for kept in run.slots)
        ])
        return real_kernel(run, node, incident, join_stats)

    monkeypatch.setattr(_RunState, "execute_node", lambda run, index: full.append(index))
    monkeypatch.setattr(_RunState, "_kernel", kernel)
    for step in range(40):
        rise((0, 1, 2)[step % 3] if step % 2 else (3, 4, 5)[step % 3])
    monkeypatch.undo()
    assert full == []
    assert kernels and all(len(deltas) == 1 for deltas in kernels)
    assert view.stats.regimes == {REGIME_DELTA if name == "counting" else REGIME_APPEND: 42}
    _check_view(view, True, "sparse", True, "alternating")


# --------------------------------------------------------------------- #
# the counters the benchmark reads
# --------------------------------------------------------------------- #
def _cone(dag, slot):
    """The nodes downstream of base ``slot`` through incident slots."""
    dirty, cone = {slot}, []
    for node in dag.nodes:
        if dirty.intersection(node.incident):
            cone.append(node.index)
            dirty.update(node.outputs)
    return cone


def test_a_single_cell_update_reuses_every_node_outside_its_cone():
    view = IncrementalView(_stream_query("counting", 1))
    view.result()
    rng = random.Random(3)
    for index in range(len(view.query.factors)):  # warm-up
        view.update_factor(index, FactorDelta(view.query.factors[index].scope, {
            next(iter(view.query.factors[index].table)): 7,
        }))
    dag = lower_insideout(view.query, list(view.ordering))
    for index in range(len(view.query.factors)):
        factor = view.query.factors[index]
        cell = rng.choice(list(factor.table))
        reused, executed = view.stats.nodes_reused, view.stats.nodes_executed
        view.update_factor(index, FactorDelta(factor.scope, {cell: factor.table[cell] + 1}))
        cone = _cone(dag, index)
        assert view.stats.nodes_executed - executed == len(cone), index
        assert view.stats.nodes_reused - reused == len(dag.nodes) - len(cone) > 0, index
    # what the benchmark reports as incremental.nodes_reused_share
    stats = view.stats
    assert 0 < stats.nodes_reused / (stats.nodes_reused + stats.nodes_executed) < 1


# --------------------------------------------------------------------- #
# spill, restore, and an update that fails
# --------------------------------------------------------------------- #
def test_a_restored_view_answers_and_updates_from_its_spilled_run():
    view = IncrementalView(_stream_query("max-product", 3))
    view.result()
    rng = random.Random(8)
    for kind in ("up", "down", "insert"):
        view.update_factor(*_update_args(view, "max-product", rng, kind))
    state = pickle.loads(pickle.dumps(view.dump_state()))
    restored = IncrementalView.restore(state)
    assert restored.result().table == view.result().table
    for kind in ("up", "down", "insert", "delete", "many"):
        index, delta = _update_args(view, "max-product", rng, kind)
        assert restored.update_factor(index, delta).table == view.update_factor(index, delta).table
        _check_view(restored, True, "sparse", True, kind)
    assert restored.stats.full_runs == 0
    assert restored.stats.nodes_reused > 0

    # a spill taken before the first answer restores a view that computes it
    cold = IncrementalView.restore(IncrementalView(_stream_query("counting", 2)).dump_state())
    cold.result()
    assert cold.stats.full_runs == 1
    # intermediates that do not fit the lowering are refused
    state["intermediates"] = state["intermediates"][:-1]
    with pytest.raises(QueryError):
        IncrementalView.restore(state)


def _update_args(view, name, rng, kind):
    index, changes = _next_update(view, name, rng, kind)
    return index, FactorDelta(view.query.factors[index].scope, changes)


def test_an_update_failing_mid_cone_leaves_the_view_as_it_was(monkeypatch):
    view = IncrementalView(_stream_query("counting", 4))
    before = view.result()
    query, slots = view.query, list(view._run.slots)
    calls = {"n": 0}
    real = executor_module.eliminate_semiring_step

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected kernel fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_module, "eliminate_semiring_step", flaky)
    factor = view.query.factors[0]
    cell = next(iter(factor.table))
    delta = FactorDelta(factor.scope, {cell: factor.table[cell] + 5})
    with pytest.raises(RuntimeError, match="injected kernel fault"):
        view.update_factor(0, delta)
    assert view.query is query and view.result() is before
    assert all(a is b for a, b in zip(view._run.slots, slots))
    assert view.stats.regimes == {}
    monkeypatch.undo()
    view.update_factor(0, delta)
    _check_view(view, True, "sparse", True, "after the fault")


def test_with_factor_replaces_one_factor_and_shares_the_rest():
    query = _stream_query("counting", 0)
    factor = query.factors[1]
    replaced = query.with_factor(1, Factor(factor.scope, {(0, 0): 3, (0, 1): 0}))
    assert replaced.factors[1].table == {(0, 0): 3}  # pruned: not frozen, lists a zero
    assert all(replaced.factors[i] is query.factors[i] for i in (0, 2, 3, 4, 5))
    assert query.factors[1] is factor
    assert replaced.variables is query.variables and replaced.aggregates is query.aggregates
    with pytest.raises(QueryError):
        query.with_factor(1, Factor(("a2", "a1"), {(0, 0): 1}))


def test_a_slot_that_comes_out_unchanged_ends_the_cone():
    """A max-product fall of a cell below its row's maximum is a dirty
    update, yet the step eliminating ``x3`` computes the same table: the
    kept factor stays in its slot and no node after it re-runs."""
    semiring, _, draw, _ = SEMIRINGS["max-product"]
    view = IncrementalView(_two_cones(semiring, draw))
    view.result()
    factor = view.query.factors[2]  # (x2, x3), the first step's incident factor
    cell = next(
        (i, j) for (i, j), value in factor.table.items()
        if value > 0.25 and value < max(v for (a, _), v in factor.table.items() if a == i)
    )
    dag = lower_insideout(view.query, list(view.ordering))
    [first] = [node for node in dag.nodes if node.incident == (2,)]
    kept = view._run.slots[first.outputs[0]]
    view.update_factor(2, FactorDelta(factor.scope, {cell: 0.25}))
    assert view.stats.regimes == {REGIME_DIRTY: 1}
    assert view.stats.nodes_executed == 1
    assert view._run.slots[first.outputs[0]] is kept
    _check_view(view, True, "sparse", True, "unchanged")
