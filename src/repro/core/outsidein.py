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
  per-tuple assignment dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.factors.backend import as_sparse
from repro.factors.factor import Factor
from repro.factors.index import FactorTrie
from repro.semiring.base import Semiring


@dataclass
class OutsideInStats:
    """Counters describing one OutsideIn invocation (used by benchmarks)."""

    search_steps: int = 0
    emitted_tuples: int = 0
    intersections: int = 0

    def merge(self, other: "OutsideInStats") -> None:
        """Accumulate another invocation's counters into this one."""
        self.search_steps += other.search_steps
        self.emitted_tuples += other.emitted_tuples
        self.intersections += other.intersections


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
    return Factor(out_scope, table, name=name or f"elim({variable})")
