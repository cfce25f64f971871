"""An update's new content inherits its parent's index entry.

When an :class:`~repro.incremental.IncrementalView` installs
``new = old.apply_delta(...)``, its :class:`~repro.factors.index.SharedTrieCache`
derives ``new``'s entry from ``old``'s: the trie is path-copied, the
indicator projections are shared while the support stays the same.
Covers, in order:

* after every update of a seeded stream (value changes, inserts, deletes,
  50-cell updates; counting, sum-product floats and max-product views),
  every stored trie and projection equals a fresh build, key order
  included, and the answer is ``==`` a full recompute;
* a view that derives answers ``==`` one that builds every entry fresh,
  on floats that do not sum exactly (iteration order decides the folds);
* a derived flat encoding equals a fresh ``encode_flat`` of the new
  content — columns, values, dtypes and every join index it shares — and
  the store encodes afresh instead when the support moves or a new value
  fails the encoder's exactness rules;
* a single-cell value update after warm-up builds no base trie, no base
  projection and (on the flat kernel) no base encoding, neither in its own
  run nor in the next run that reads the new content;
* the soak: 2 000 updates over three views (marked ``slow``).
"""

import random

import numpy as np
import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.exec import executor as executor_module
from repro.factors import Factor, FactorDelta, as_sparse
from repro.factors import flat as flat_module
from repro.factors import index as index_module
from repro.factors.backend import BackendPolicy
from repro.factors.flat import FlatFactor, encode_flat
from repro.factors.index import SharedTrieCache, build_trie
from repro.planner.signature import factor_digest
from repro.incremental import IncrementalView
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import COUNTING, MAX_PRODUCT, SUM_PRODUCT

DOMAIN = 5

#: (semiring, aggregate factory, value draw) per view kind.  The counting
#: and max-product values are exact; the sum-product draw is dyadic, so a
#: delta-corrected answer equals a full recompute bit for bit.
VIEWS = {
    "counting": (COUNTING, SemiringAggregate.sum, lambda rng: rng.randint(1, 6)),
    "sum-product": (SUM_PRODUCT, SemiringAggregate.sum,
                    lambda rng: rng.choice((0.25, 0.5, 1.25, 2.0, 3.5))),
    "max-product": (MAX_PRODUCT, SemiringAggregate.max,
                    lambda rng: rng.choice((0.25, 0.5, 1.25, 2.0, 3.5))),
}


def _view_query(kind, seed):
    """Four variables, three factors; one is a 3-level factor whose scope is
    a permutation of the global order, so its trie levels are permuted."""
    semiring, aggregate, draw = VIEWS[kind]
    rng = random.Random(seed)

    def table(arity, density):
        cells = [()]
        for _ in range(arity):
            cells = [c + (v,) for c in cells for v in range(DOMAIN)]
        return {c: draw(rng) for c in cells if rng.random() < density}

    factors = [
        Factor(("b", "a"), table(2, 0.6)),
        Factor(("d", "b", "c"), table(3, 0.35)),
        Factor(("c", "a"), table(2, 0.6)),
    ]
    return FAQQuery(
        variables=[Variable(v, tuple(range(DOMAIN))) for v in "abcd"],
        free=["a"],
        aggregates={v: aggregate() for v in "bcd"},
        factors=factors,
        semiring=semiring,
    )


def _next_update(view, rng, draw):
    """A seeded update: one value change, insert or delete, or 50 cells."""
    index = rng.randrange(len(view.query.factors))
    factor = view.query.factors[index]
    listed = list(factor.table)
    many = rng.random() < 0.1
    changes = {}
    for _ in range(50 if many else 1):
        roll = rng.random()
        if roll < 0.25 or not listed:  # insert (or rewrite, if it is listed)
            changes[tuple(rng.randrange(DOMAIN) for _ in factor.scope)] = draw(rng)
        elif roll < 0.35:  # delete
            changes[rng.choice(listed)] = view.query.semiring.zero
        else:  # value change
            changes[rng.choice(listed)] = draw(rng)
    return index, FactorDelta(factor.scope, changes)


def _nested(node, depth):
    """A trie level as nested ``(key, child)`` lists, in iteration order."""
    if depth == 0:
        return node
    return [(key, _nested(child, depth - 1)) for key, child in node.items()]


def _recomputed(view):
    result = inside_out(view.query, ordering=list(view.ordering))
    return as_sparse(result.factor, view.query.semiring).normalize_scope(view.query.free)


def _assert_same_encoding(stored, fresh, ctx):
    """``stored`` equals the fresh encoding bit for bit, join indexes too."""
    assert stored.scope == fresh.scope and list(stored.columns) == list(fresh.columns)
    for variable, column in fresh.columns.items():
        assert stored.columns[variable].dtype == column.dtype
        assert np.array_equal(stored.columns[variable], column)
    assert stored.values.dtype == fresh.values.dtype
    assert stored.values.tobytes() == fresh.values.tobytes()
    assert not stored.values.flags.writeable
    for shared, index in list(stored._joins.items()):
        for built, rebuilt in zip(index, fresh.join_index(shared, ctx)):
            assert (built is None) == (rebuilt is None)
            assert built is None or np.array_equal(built, rebuilt)


def _check_entries(view):
    """Every stored trie, projection and encoding equals a fresh build, in
    order.  Returns how many were compared.

    Then leaves each standing factor an encoding with a join index (when
    the semiring has one): these views are too small for the flat kernel
    to encode anything, and the next update derives from what is stored.
    """
    semiring = view.query.semiring
    ctx = view._tries.flat_context(view.query.domains())
    compared = 0
    for factor in view.query.factors:
        if ctx is not None:
            entry = view._tries._entries.get(factor._digest)
            if entry is not None and isinstance(entry.flat, FlatFactor):
                _assert_same_encoding(entry.flat, encode_flat(factor, ctx), ctx)
                compared += 1
            view._tries.flat(factor, ctx).join_index(factor.scope[:1], ctx)
        entry = view._tries._entries.get(factor._digest)
        if entry is None:
            continue
        if entry.trie is not None:
            fresh = build_trie(factor, view.ordering, semiring)
            assert entry.trie.factor is factor
            assert entry.trie.variables == fresh.variables
            assert _nested(entry.trie.root, fresh.depth) == _nested(fresh.root, fresh.depth)
            compared += 1
        for overlap, projected in entry.projections.items():
            if projected.factor is None:
                continue
            fresh = factor.indicator_projection(overlap, semiring)
            assert projected.factor.scope == fresh.scope
            assert list(projected.factor.table.items()) == list(fresh.table.items())
            if projected.trie is not None:
                fresh_trie = build_trie(fresh, view.ordering, semiring)
                assert (_nested(projected.trie.root, fresh_trie.depth)
                        == _nested(fresh_trie.root, fresh_trie.depth))
            compared += 1
    return compared


def _count_derivations(monkeypatch):
    """Count the tries :meth:`FactorTrie.derive` hands out."""
    derived = []
    original = index_module.FactorTrie.derive

    def spy(self, factor, changes):
        derived.append(factor)
        return original(self, factor, changes)

    monkeypatch.setattr(index_module.FactorTrie, "derive", spy)
    return derived


def _count_patches(monkeypatch):
    """Count the encodings :func:`repro.factors.flat.patch_values` derives."""
    patched = []
    original = index_module.patch_values

    def spy(*args):
        flat = original(*args)
        if flat is not None:
            patched.append(flat)
        return flat

    monkeypatch.setattr(index_module, "patch_values", spy)
    return patched


@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_derived_entries_equal_a_fresh_build(monkeypatch, kind):
    derived = _count_derivations(monkeypatch)
    patched = _count_patches(monkeypatch)
    rng = random.Random(41)
    draw = VIEWS[kind][2]
    view = IncrementalView(_view_query(kind, seed=7))
    view.result()
    compared = 0
    for _ in range(120):
        index, delta = _next_update(view, rng, draw)
        out = view.update_factor(index, delta)
        compared += _check_entries(view)
        assert out.table == _recomputed(view).table
    assert view.stats.full_runs == 1
    assert compared > 100
    assert len(derived) > 20  # the stream did exercise the derivation
    # the float views encode (counting has no flat encoding); most of the
    # stream's updates keep the support, so their encodings are patched
    assert (len(patched) > 30) if kind != "counting" else not patched


def test_deriving_view_answers_equal_a_fresh_building_view(monkeypatch):
    """Floats that do not sum exactly: any change of iteration order in a
    derived trie would change a fold and show here."""
    rng = random.Random(5)

    def draw(r):
        return r.uniform(0.1, 3.0)

    semiring = VIEWS["sum-product"][0]
    query = _view_query("sum-product", seed=9)
    query = FAQQuery(
        variables=[query.variables[v] for v in query.order],
        free=query.free,
        aggregates=query.aggregates,
        factors=[f.map_values(lambda v: draw(rng)) for f in query.factors],
        semiring=semiring,
    )
    deriving, fresh = IncrementalView(query), IncrementalView(query)
    deriving.result(), fresh.result()
    original = SharedTrieCache.derive

    def derive_unless_fresh(store, old, new, changes):
        if store is not fresh._tries:
            original(store, old, new, changes)

    monkeypatch.setattr(SharedTrieCache, "derive", derive_unless_fresh)
    derived = _count_derivations(monkeypatch)
    updates = random.Random(6)
    for _ in range(150):
        index, delta = _next_update(deriving, updates, draw)
        assert deriving.update_factor(index, delta).table == fresh.update_factor(index, delta).table
        assert list(deriving.query.factors[index].table.items()) == list(
            fresh.query.factors[index].table.items())
    assert len(derived) > 50


@pytest.mark.parametrize("kind", ["counting", "max-product"])
def test_single_cell_value_update_builds_no_base_index(monkeypatch, kind):
    """Counted with spies: neither the update's own run nor the next runs,
    which read the new content, build a trie or a projection of a base
    factor (a delta factor's own index is built, as before).  The
    max-product view runs its steps on the flat kernel (its row threshold
    lowered to one) and encodes no base factor either."""
    rng = random.Random(3)
    if kind == "max-product":
        monkeypatch.setattr(executor_module, "DEFAULT_POLICY", BackendPolicy(flat_min_rows=1))
    view = IncrementalView(_view_query(kind, seed=11))
    view.result()
    # Warm-up: one value update of each factor, so every trie and projection
    # a run reads is stored for the standing contents.
    for _ in range(2):
        for index, factor in enumerate(view.query.factors):
            cell = next(iter(factor.table))
            view.update_factor(index, FactorDelta(factor.scope, {cell: factor.table[cell] * 2}))

    bases, built, projected, encoded = [], [], [], []  # bases holds the factors: ids stay unique
    original_build, original_project = index_module.build_trie, Factor.indicator_projection
    original_encode = flat_module._encode_listing

    def build_spy(factor, order, semiring):
        built.append(factor)
        return original_build(factor, order, semiring)

    def project_spy(factor, target, semiring):
        projected.append(factor)
        return original_project(factor, target, semiring)

    def encode_spy(factor, ctx):
        encoded.append(factor)
        return original_encode(factor, ctx)

    monkeypatch.setattr(index_module, "build_trie", build_spy)
    monkeypatch.setattr(Factor, "indicator_projection", project_spy)
    monkeypatch.setattr(flat_module, "_encode_listing", encode_spy)
    for index in (0, 1, 2, 0):
        factor = view.query.factors[index]
        cell = rng.choice(list(factor.table))
        bases.extend(view.query.factors)
        view.update_factor(index, FactorDelta(factor.scope, {cell: factor.table[cell] * 2}))
        bases.extend(view.query.factors)
    base_ids = {id(f) for f in bases}
    assert not [f for f in built if id(f) in base_ids]
    assert not [f for f in projected if id(f) in base_ids]
    assert not [f for f in encoded if id(f) in base_ids]
    assert bool(encoded) == (kind == "max-product")  # a delta factor's, on the flat kernel
    monkeypatch.undo()
    assert view.result().table == _recomputed(view).table
    _check_entries(view)


@pytest.mark.parametrize("change", ["value", "insert", "delete", "nan", "int-above-2**53"])
def test_an_encoding_is_patched_only_while_the_support_and_exactness_hold(change):
    """A value change gets a patched encoding that shares the codes and the
    join indexes; an insert, a delete, a NaN and an int a float column
    cannot hold exactly get none, and their first lookup encodes afresh."""
    semiring = SUM_PRODUCT
    cells = [(a, b) for a in range(DOMAIN) for b in range(DOMAIN) if (a + b) % 3]
    old = Factor(("a", "b"), {cell: 0.5 + sum(cell) for cell in cells})
    factor_digest(old)
    assert old.is_pruned(semiring)
    store = SharedTrieCache(("a", "b"), semiring, [old])
    ctx = store.flat_context({v: tuple(range(DOMAIN)) for v in "ab"})
    encoding = store.flat(old, ctx)
    encoding.join_index(("a",), ctx)
    listed, unlisted = (0, 1), (0, 0)
    changes = {
        "value": {listed: 7.25}, "insert": {unlisted: 2.0}, "delete": {listed: 0.0},
        "nan": {listed: float("nan")}, "int-above-2**53": {listed: 2**53 + 1},
    }[change]
    new = old.apply_delta(FactorDelta(old.scope, changes), semiring)
    factor_digest(new)
    store.derive(old, new, changes)
    store.cover([new])
    entry = store._entries[new._digest]
    fresh = encode_flat(new, ctx)
    if change == "value":
        assert entry.flat.columns is encoding.columns and entry.flat._joins is encoding._joins
        _assert_same_encoding(entry.flat, fresh, ctx)
        return
    assert entry.flat is None
    stored = store.flat(new, ctx)
    if change in ("nan", "int-above-2**53"):
        assert stored is fresh is None  # the encoder refuses them too
    else:
        _assert_same_encoding(stored, fresh, ctx)


@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_every_standing_factor_is_swept_for_zeros_once(kind):
    """From the first update on, every factor the view holds carries the
    zero-free memo (the query the update builds sweeps each frozen factor
    once), so index builds over it skip the per-value zero test and the
    children of an update inherit the memo instead of being swept again."""
    semiring, _, draw = VIEWS[kind]
    view = IncrementalView(_view_query(kind, seed=19))
    view.result()
    rng = random.Random(19)
    for _ in range(20):
        view.update_factor(*_next_update(view, rng, draw))
        assert all(f.table.zero_free is semiring for f in view.query.factors)


def test_no_derivation_without_the_zero_free_memo():
    """A parent that lists a zero derives nothing: its trie skipped the
    zero cells, so a rewritten zero cell would land last in the trie but
    keep its place in the table."""
    semiring = COUNTING
    old = Factor(("a", "b"), {(0, 0): 1, (0, 1): 0, (1, 1): 2})
    old.freeze()
    old._digest = "old"
    store = SharedTrieCache(("a", "b"), semiring, [old])
    store.trie(old)
    changes = {(0, 1): 5}
    new = old.apply_delta(FactorDelta(old.scope, changes), semiring)
    new.freeze()
    new._digest = "new"
    store.derive(old, new, changes)
    assert "new" not in store._entries


@pytest.mark.slow
def test_derivation_soak():
    """2 000 seeded updates over three views; every 100 updates, every
    stored entry equals a fresh build and every answer a full recompute."""
    rng = random.Random(2000)
    views = {kind: IncrementalView(_view_query(kind, seed=13)) for kind in sorted(VIEWS)}
    for view in views.values():
        view.result()
    kinds = sorted(views)
    for step in range(1, 2001):
        kind = kinds[step % len(kinds)]
        view = views[kind]
        index, delta = _next_update(view, rng, VIEWS[kind][2])
        view.update_factor(index, delta)
        if step % 100 == 0:
            for view in views.values():
                _check_entries(view)
                assert view.result().table == _recomputed(view).table
    for view in views.values():
        assert view.stats.full_runs == 1


def test_a_change_spelled_with_an_equal_key_of_another_type(monkeypatch):
    """``(True, 0)`` rewrites the listed ``(1, 0)``: the table keeps the
    stored key object and its place, and so does the derived trie."""
    derived = _count_derivations(monkeypatch)
    view = IncrementalView(_view_query("counting", seed=17))
    view.result()
    for index, factor in enumerate(view.query.factors):
        cell = next(key for key in factor.table if key[0] == 1)
        spelled = (True,) + cell[1:]
        out = view.update_factor(index, FactorDelta(factor.scope, {spelled: 9}))
        assert list(view.query.factors[index].table)[:3] == list(factor.table)[:3]
        _check_entries(view)
        assert out.table == _recomputed(view).table
    assert derived
