"""OutsideIn: the backtracking-search / worst-case-optimal multiway join.

Section 5.1.1 of the paper evaluates an FAQ-SS expression by backtracking
over the variables from the outermost aggregate inwards, at every level
intersecting the candidate values offered by the factors.  With factors
indexed as tries ordered by the global variable order this is exactly the
Generic-Join / LeapFrog-TrieJoin family of worst-case optimal join
algorithms, whose running time is bounded by the AGM bound of the joined
relations (Theorem 5.1).

The module exposes three entry points:

* :func:`enumerate_join` — a generator of ``(assignment, value)`` pairs over
  the union of the factor scopes, where ``value`` is the ``⊗``-product of
  the factor values (only non-zero assignments are produced),
* :func:`join_factors` — materialises the product as a single
  :class:`~repro.factors.factor.Factor` over a chosen output scope,
  optionally aggregating away the non-output variables with a semiring
  aggregate,
* :func:`eliminate_join` — the fused single-variable elimination kernel used
  by InsideOut's hot loop: a hash join over pre-built tries that groups by
  the surviving variables directly and folds the eliminated variable's
  aggregate in place, never materialising the full induced-set factor nor a
  per-tuple assignment dict.  Its (+, ×) steps — ``sum`` over COUNTING or
  SUM_PRODUCT — fold with inline ``*``, ``+`` and zero tests instead of a
  Python call per tuple; every other (⊕, ⊗) pair calls the semiring's
  operators.  Both folds multiply, test and add in the same order, so they
  give ``==`` tables and the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.factors.backend import as_sparse
from repro.factors.factor import Factor
from repro.factors.index import FactorTrie
from repro.semiring.aggregates import _op_sum
from repro.semiring.base import TOLERANCE, Semiring
from repro.semiring.standard import _mul


@dataclass
class OutsideInStats:
    """Counters describing one OutsideIn invocation (used by benchmarks)."""

    search_steps: int = 0
    emitted_tuples: int = 0
    intersections: int = 0


def _join_order(
    factors: Sequence[Factor], variable_order: Sequence[str] | None
) -> List[str]:
    """The global variable order used for the join.

    Variables are the union of the factor scopes; ``variable_order`` (when
    given) dictates their relative order, any variables it does not mention
    are appended in sorted order.
    """
    present: set = set()
    for factor in factors:
        present |= set(factor.scope)
    if variable_order is None:
        return sorted(present, key=repr)
    ordered = [v for v in variable_order if v in present]
    missing = sorted(present - set(ordered), key=repr)
    return ordered + missing


def enumerate_join(
    factors: Sequence[Factor],
    semiring: Semiring,
    variable_order: Sequence[str] | None = None,
    stats: OutsideInStats | None = None,
) -> Iterator[Tuple[Dict[str, Any], Any]]:
    """Enumerate the non-zero tuples of ``⊗_S psi_S`` by backtracking search.

    Yields ``(assignment, value)`` pairs where ``assignment`` maps every
    variable occurring in some factor scope to a value and ``value`` is the
    product of all factor values (never the semiring zero).

    Dense factors are accepted and converted to the listing representation
    (the backtracking search is inherently tuple-at-a-time).
    """
    factors = [as_sparse(f, semiring) for f in factors]
    if not factors:
        yield {}, semiring.one
        return
    order = _join_order(factors, variable_order)
    tries = [FactorTrie(f, order, semiring) for f in factors]
    if any(trie.empty for trie in tries):
        # Some factor is identically zero: the product is empty.
        return

    # The tries taking part at each depth: trie ``t`` holds ``order[d]`` at
    # its next level once every earlier variable of its scope is bound.
    participating = [
        [i for i, trie in enumerate(tries) if variable in trie.variables]
        for variable in order
    ]
    # Each trie's current node: its level of the next unbound variable, or
    # — once its whole scope is bound — its value.
    nodes: List[Any] = [trie.root for trie in tries]
    assignment: Dict[str, Any] = {}
    counters = stats if stats is not None else OutsideInStats()
    mul = semiring.mul
    one = semiring.one
    is_zero = semiring.zero_test()

    def recurse(depth: int) -> Iterator[Tuple[Dict[str, Any], Any]]:
        if depth == len(order):
            value = one
            for node in nodes:
                value = mul(value, node)
                if is_zero(value):
                    return
            counters.emitted_tuples += 1
            yield dict(assignment), value
            return

        variable = order[depth]
        active = participating[depth]
        counters.intersections += len(active)
        saved = [nodes[i] for i in active]
        # Intersect by walking the smallest level and probing the others in
        # place: no level is copied.
        smallest, *others = sorted(saved, key=len)
        for candidate in smallest:
            for level in others:
                if candidate not in level:
                    break
            else:
                counters.search_steps += 1
                assignment[variable] = candidate
                for i, level in zip(active, saved):
                    nodes[i] = level[candidate]
                yield from recurse(depth + 1)
        for i, level in zip(active, saved):
            nodes[i] = level
        assignment.pop(variable, None)

    yield from recurse(0)


def join_factors(
    factors: Sequence[Factor],
    semiring: Semiring,
    output_scope: Sequence[str] | None = None,
    combine: Callable[[Any, Any], Any] | None = None,
    variable_order: Sequence[str] | None = None,
    stats: OutsideInStats | None = None,
    name: str | None = None,
) -> Factor:
    """Materialise the multiway product of ``factors`` as a single factor.

    Parameters
    ----------
    output_scope:
        The scope of the result.  Variables of the join that are *not* in the
        output scope are aggregated away with ``combine``; when
        ``output_scope`` is ``None`` the full union of scopes is kept.
    combine:
        The semiring aggregate ``⊕`` used to merge values that collide on the
        output scope.  Required whenever some join variable is projected
        away; ignored otherwise.
    variable_order:
        Global variable order for the backtracking search (defaults to a
        deterministic sorted order).
    """
    all_vars: set = set()
    for factor in factors:
        all_vars |= set(factor.scope)
    if output_scope is None:
        scope = tuple(_join_order(factors, variable_order))
    else:
        scope = tuple(output_scope)
    projecting = bool(all_vars - set(scope))
    if projecting and combine is None:
        raise ValueError("join_factors needs `combine` when projecting variables away")

    table: Dict[Tuple[Any, ...], Any] = {}
    for assignment, value in enumerate_join(factors, semiring, variable_order, stats):
        key = tuple(assignment.get(v) for v in scope)
        if key in table:
            table[key] = combine(table[key], value) if combine is not None else semiring.add(
                table[key], value
            )
        else:
            table[key] = value
    is_zero = semiring.zero_test()
    table = {k: v for k, v in table.items() if not is_zero(v)}
    return Factor(scope, table, name=name or "join")


def eliminate_join(
    tries: Sequence[FactorTrie],
    semiring: Semiring,
    variable: str,
    output_scope: Sequence[str],
    combine: Callable[[Any, Any], Any],
    variable_order: Sequence[str],
    stats: OutsideInStats | None = None,
    name: str | None = None,
) -> Factor:
    """Fused multiply-then-marginalize kernel for one elimination step.

    ``tries`` index the participating factors against the run's global
    variable order, in which ``variable`` (the variable being eliminated)
    comes *after* every surviving variable — InsideOut eliminates from the
    back of the ordering, so every remaining scope is a subset of the
    not-yet-eliminated prefix plus ``variable`` itself.  The kernel runs the
    OutsideIn backtracking search over the surviving variables only,
    descending trie *nodes* instead of re-walking prefixes from the root,
    and at each complete survivor assignment intersects the candidate
    values of ``variable`` and folds them into a single aggregated value —
    the grouped-by-survivors hash join.  Equivalent to
    ``join_factors(participants, output_scope=survivors, combine=...)`` but
    without materialising per-tuple assignment dicts or the induced-set
    relation.

    The loops do per candidate only what differs per candidate: one ``⊗``
    and one zero test per participating trie and one ``⊕`` per surviving
    product.  How to test for zero is decided once per call
    (:meth:`Semiring.zero_test <repro.semiring.base.Semiring.zero_test>`),
    candidate sets are ``dict`` key views intersected in place, and the
    counters are added once per level.  ``combine`` is called directly, so
    pass the aggregate's ``⊕`` itself.  When a single trie carries
    ``variable`` its values are folded in that trie's insertion order; the
    ``⊕`` order is otherwise unspecified (a set's), so float sums are
    reproducible per input but compare by ``Factor.equals``, not ``==``,
    across versions.

    The plain (+, ×) steps (:func:`_folds_inline`: ``semiring.mul`` is the
    standard ``×``, ``combine`` the ``sum`` aggregate's ``+``, no custom
    ``eq``, an ``int`` 0 or ``float`` 0.0 zero — COUNTING and SUM_PRODUCT)
    run the same search with ``*``, ``+`` and the zero test written inline,
    and the last survivor level folds its bindings' leaves in one loop
    instead of a call per binding.  The ⊗ order (base tries by index, then
    the tries holding ``variable`` by index), the candidate order, the
    early-out after every ⊗, the dropped zero sums and every counter are
    the generic fold's, so the two give ``==`` tables with the same key
    order.  Max/min/or, a custom ``eq``, sets and any semiring whose
    operators are not the standard functions call them as above.

    Falls back to the general :func:`join_factors` when ``variable`` is not
    last in the join order (never the case when called from InsideOut).
    """
    counters = stats if stats is not None else OutsideInStats()
    out_scope = tuple(output_scope)
    empty = Factor(out_scope, {}, name=name or f"elim({variable})")
    if not tries:
        return empty

    # Join variables in the tries' shared global order (``variable_order``
    # must be the order the tries were built against).
    seen: set = set()
    for trie in tries:
        if trie.empty:
            return empty  # some participant is identically zero
        seen.update(trie.variables)
    order = [v for v in variable_order if v in seen]

    survivors = order[:-1]
    if (
        variable not in seen
        or order[-1] != variable
        or set(survivors) != set(out_scope)
        or len(survivors) != len(out_scope)
    ):
        return join_factors(
            [t.factor for t in tries],
            semiring,
            output_scope=out_scope,
            combine=combine,
            variable_order=order,
            stats=stats,
            name=name,
        )
    # Permutation from survivor enumeration order to the requested scope.
    if tuple(survivors) == out_scope:
        key_perm = None
    else:
        index = {v: i for i, v in enumerate(survivors)}
        key_perm = [index[v] for v in out_scope]

    # ``variable`` is the last level of every trie that holds it, so once
    # the survivors are bound such a trie's node maps candidate -> value,
    # and every other trie's node *is* its value.  The order of the ⊗ fold
    # (base tries by index, then these by index) is what the flat kernel's
    # row-for-row guarantee is stated against.
    var_tries = [i for i, t in enumerate(tries) if variable in t.variables]
    first_var, rest_vars = var_tries[0], var_tries[1:]
    base_tries = [i for i, t in enumerate(tries) if variable not in t.variables]
    participating: List[List[int]] = [
        [i for i, t in enumerate(tries) if v in t.variables] for v in survivors
    ]

    if _folds_inline(semiring, combine):
        table = _plus_times_fold(
            tries, participating, base_tries, var_tries, key_perm, semiring, counters
        )
        return Factor._adopt(out_scope, table, name or f"elim({variable})")

    nodes: List[Any] = [t.root for t in tries]
    values: List[Any] = [None] * len(survivors)
    table: Dict[Tuple[Any, ...], Any] = {}
    mul = semiring.mul
    one = semiring.one
    is_zero = semiring.zero_test()

    def emit() -> None:
        """All survivors bound: fold the eliminated variable's aggregate."""
        value = one
        for i in base_tries:
            value = mul(value, nodes[i])
            if is_zero(value):
                return
        counters.intersections += len(var_tries)
        first = nodes[first_var]
        rest = [nodes[i] for i in rest_vars]
        candidates = first.keys()
        for child in rest:
            candidates = candidates & child.keys()
        if not candidates:
            return
        counters.search_steps += len(candidates)
        emitted = 0
        accumulated = None
        for candidate in candidates:
            product = mul(value, first[candidate])
            if is_zero(product):
                continue
            for child in rest:
                product = mul(product, child[candidate])
                if is_zero(product):
                    break
            else:
                emitted += 1
                accumulated = product if accumulated is None else combine(accumulated, product)
        counters.emitted_tuples += emitted
        if accumulated is None or is_zero(accumulated):
            return
        key = tuple(values) if key_perm is None else tuple(values[i] for i in key_perm)
        table[key] = accumulated

    def descend(depth: int) -> None:
        if depth == len(survivors):
            emit()
            return
        active = participating[depth]
        counters.intersections += len(active)
        saved = [nodes[i] for i in active]
        candidates = saved[0].keys()
        for node in saved[1:]:
            candidates = candidates & node.keys()
        if not candidates:
            return
        counters.search_steps += len(candidates)
        for candidate in candidates:
            values[depth] = candidate
            for i, node in zip(active, saved):
                nodes[i] = node[candidate]
            descend(depth + 1)
        for i, node in zip(active, saved):
            nodes[i] = node

    descend(0)
    return Factor._adopt(out_scope, table, name or f"elim({variable})")


def _folds_inline(semiring: Semiring, combine: Callable[[Any, Any], Any]) -> bool:
    """Whether :func:`eliminate_join` folds this step's (⊕, ⊗) inline.

    True for exactly the plain (+, ×) steps: the standard ``×``
    (``semiring.mul is standard._mul``), the ``sum`` aggregate's ``+``
    (``combine is aggregates._op_sum``), no custom ``eq`` and an ``int`` 0
    or ``float`` 0.0 zero — ``sum`` steps of COUNTING and SUM_PRODUCT.
    """
    zero = semiring.zero
    return (
        semiring.mul is _mul
        and combine is _op_sum
        and semiring.eq is None
        and type(zero) in (int, float)
        and zero == 0
    )


def _plus_times_fold(
    tries: Sequence[FactorTrie],
    participating: List[List[int]],
    base_tries: List[int],
    var_tries: List[int],
    key_perm: List[int] | None,
    semiring: Semiring,
    counters: OutsideInStats,
) -> Dict[Tuple[Any, ...], Any]:
    """:func:`eliminate_join`'s search with the (+, ×) fold written inline.

    The same search and the same fold as the generic ``descend`` / ``emit``
    pair — the ⊗ order, the candidate order, the zero test after every ⊗,
    the dropped zero sums and every counter — with ``*``, ``+`` and
    :meth:`Semiring.zero_test`'s predicate spelled out instead of called,
    and the last survivor level folding its bindings' leaves in one loop.
    Returns the result table.
    """
    nodes: List[Any] = [t.root for t in tries]
    values: List[Any] = [None] * len(participating)
    table: Dict[Tuple[Any, ...], Any] = {}
    one = semiring.one
    float_zero = type(semiring.zero) is float
    tol = TOLERANCE
    floats = (float, complex)
    last = len(participating) - 1
    first_var = var_tries[0]
    # the tries holding the eliminated variable, as one tuple (two or more)
    var_levels = itemgetter(*var_tries) if len(var_tries) > 1 else None

    def leaves(active: List[int], saved: List[Any], candidates: Any) -> None:
        """Bind each of the last level's candidates and fold its leaf."""
        steps = emitted = intersections = 0
        only = active[0] if len(active) == 1 else None
        level = saved[0] if only is not None else None
        for candidate in candidates:
            if only is not None:
                nodes[only] = level[candidate]
            else:
                for i, node in zip(active, saved):
                    nodes[i] = node[candidate]
            value = one
            for i in base_tries:
                value = value * nodes[i]
                # zero_test(): abs(a) <= TOLERANCE for a float zero, for an
                # int zero a == 0 or a float / complex with abs(a) <= TOLERANCE
                if abs(value) <= tol if float_zero else value == 0 or (
                    value.__class__ is not int
                    and isinstance(value, floats)
                    and abs(value) <= tol
                ):
                    break
            else:
                accumulated = None
                if var_levels is None:
                    first = nodes[first_var]
                    intersections += 1
                    if not first:
                        continue
                    steps += len(first)
                    for x in first.values():
                        product = value * x
                        if abs(product) <= tol if float_zero else product == 0 or (
                            product.__class__ is not int
                            and isinstance(product, floats)
                            and abs(product) <= tol
                        ):
                            continue
                        emitted += 1
                        accumulated = product if accumulated is None else accumulated + product
                else:
                    levels = var_levels(nodes)
                    intersections += len(levels)
                    common = levels[0].keys()
                    for child in levels[1:]:
                        common = common & child.keys()
                    if not common:
                        continue
                    steps += len(common)
                    for x in common:
                        product = value
                        for child in levels:
                            product = product * child[x]
                            if abs(product) <= tol if float_zero else product == 0 or (
                                product.__class__ is not int
                                and isinstance(product, floats)
                                and abs(product) <= tol
                            ):
                                break
                        else:
                            emitted += 1
                            accumulated = (
                                product if accumulated is None else accumulated + product
                            )
                if accumulated is None or (
                    abs(accumulated) <= tol if float_zero else accumulated == 0 or (
                        accumulated.__class__ is not int
                        and isinstance(accumulated, floats)
                        and abs(accumulated) <= tol
                    )
                ):
                    continue
                if last >= 0:
                    values[last] = candidate
                key = tuple(values) if key_perm is None else tuple(values[i] for i in key_perm)
                table[key] = accumulated
        counters.search_steps += steps
        counters.emitted_tuples += emitted
        counters.intersections += intersections

    def descend(depth: int) -> None:
        active = participating[depth]
        counters.intersections += len(active)
        saved = [nodes[i] for i in active]
        candidates = saved[0].keys()
        for node in saved[1:]:
            candidates = candidates & node.keys()
        if not candidates:
            return
        counters.search_steps += len(candidates)
        if depth == last:
            leaves(active, saved, candidates)
        else:
            for candidate in candidates:
                values[depth] = candidate
                for i, node in zip(active, saved):
                    nodes[i] = node[candidate]
                descend(depth + 1)
        for i, node in zip(active, saved):
            nodes[i] = node

    if last < 0:  # no survivors: a single leaf, keyed by ()
        leaves([], [], (None,))
    else:
        descend(0)
    return table
