"""Answer checkers that do not go through the engine.

Every workload's expected answers come from here: plain-Python dynamic
programs over the generated tables for chains, a NumPy frontier DP for
grids, ``np.einsum`` over dense arrays for the small plan-cold queries and
``networkx.triangles`` for the triangle count.  Integers are compared
exactly, floats to 1e-9 relative.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

REL_TOL = 1e-9

PairTable = Mapping[Tuple[int, int], Any]


# ---------------------------------------------------------------------- #
# comparison
# ---------------------------------------------------------------------- #
def values_match(got: Any, want: Any) -> bool:
    if isinstance(want, (int, np.integer)) and not isinstance(want, bool):
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def tables_match(got: Mapping[tuple, Any], want: Mapping[tuple, Any]) -> bool:
    """Two listing tables agree cell for cell (absent cells are zeros)."""
    if got.keys() != want.keys():
        return False
    return all(values_match(got[key], value) for key, value in want.items())


def perturbed(want: Dict[tuple, Any]) -> Dict[tuple, Any]:
    """A deliberately wrong copy of an expected table (the smoke self-test)."""
    return {key: value + 1 if isinstance(value, int) else value * 1.01
            for key, value in want.items()}


# ---------------------------------------------------------------------- #
# chains — plain-Python DP over the listed tuples
# ---------------------------------------------------------------------- #
def chain_messages(
    tables: Sequence[PairTable], combine: Callable[[Any, Any], Any]
) -> Dict[int, Any]:
    """Eliminate a chain ``x0 - x1 - ... - xk`` from the right.

    ``tables[i]`` lists the pair factor on ``(x_i, x_{i+1})``.  Returns the
    message over ``x0``: for every value ``a`` the ⊕-aggregate over the
    other variables of the product of the factors (absent = zero).
    """
    message: Optional[Dict[int, Any]] = None
    for table in reversed(tables):
        fresh: Dict[int, Any] = {}
        for (a, b), value in table.items():
            if message is not None:
                tail = message.get(b)
                if tail is None:
                    continue
                value = value * tail
            fresh[a] = combine(fresh[a], value) if a in fresh else value
        message = fresh
    return message if message is not None else {}


def chain_scalar(
    blocks: Sequence[Sequence[PairTable]],
    combine: Callable[[Any, Any], Any],
    zero: Any,
) -> Any:
    """A query of disjoint chains with no free variable: ⊗ over blocks."""
    total: Any = None
    for tables in blocks:
        values = list(chain_messages(tables, combine).values())
        if not values:
            return zero
        block = values[0]
        for value in values[1:]:
            block = combine(block, value)
        total = block if total is None else total * block
    return total


SUM = operator.add


def MAX(a: Any, b: Any) -> Any:
    return a if a >= b else b


def scalar_table(value: Any, zero: Any) -> Dict[tuple, Any]:
    """The listing table of a scalar answer (a zero answer lists nothing)."""
    return {} if value == zero else {(): value}


# ---------------------------------------------------------------------- #
# grids — NumPy frontier DP, one cell at a time in column-major order
# ---------------------------------------------------------------------- #
def grid_last_cell(
    rows: int,
    cols: int,
    horizontal: Mapping[Tuple[int, int], np.ndarray],
    vertical: Mapping[Tuple[int, int], np.ndarray],
    use_max: bool,
) -> np.ndarray:
    """Sum- or max-marginal of a grid MRF on its last cell ``(rows-1, cols-1)``.

    ``horizontal[(r, c)]`` is the potential between ``(r, c)`` and
    ``(r, c+1)``, ``vertical[(r, c)]`` between ``(r, c)`` and ``(r+1, c)``.
    The frontier tensor has one axis per row, holding that row's variable
    in the newest column processed so far.
    """
    domain = next(iter(horizontal.values())).shape[0]
    frontier = np.ones((domain,) * rows)
    for c in range(cols):
        for r in range(rows):
            if c > 0:
                moved = np.moveaxis(frontier, r, -1)
                pair = horizontal[(r, c - 1)]
                if use_max:
                    moved = (moved[..., :, None] * pair).max(axis=-2)
                else:
                    moved = moved @ pair
                frontier = np.moveaxis(moved, -1, r)
            if r > 0:
                shape = [1] * rows
                shape[r - 1] = shape[r] = domain
                frontier = frontier * vertical[(r - 1, c)].reshape(shape)
    other = tuple(range(rows - 1))
    return frontier.max(axis=other) if use_max else frontier.sum(axis=other)


def vector_table(vector: np.ndarray) -> Dict[tuple, Any]:
    return {(i,): float(v) for i, v in enumerate(vector) if v != 0}


# ---------------------------------------------------------------------- #
# small sum-product queries — einsum over dense arrays
# ---------------------------------------------------------------------- #
def einsum_scalar(
    domain_sizes: Sequence[int], factors: Sequence[Tuple[Sequence[int], np.ndarray]]
) -> Any:
    """``Σ_x ∏_S ψ_S(x_S)`` with every variable summed out.

    ``factors`` are ``(variable indices, dense array)`` pairs.  A variable
    no factor mentions contributes its domain size, as in the FAQ
    semantics (the aggregate folds ``|Dom|`` copies of the product).
    """
    operands: List[Any] = []
    mentioned = set()
    for scope, array in factors:
        operands.extend((array, list(scope)))
        mentioned.update(scope)
    value = np.einsum(*operands, [], optimize="greedy")
    for index, size in enumerate(domain_sizes):
        if index not in mentioned:
            value = value * size
    return value.item()


# ---------------------------------------------------------------------- #
# triangles
# ---------------------------------------------------------------------- #
def triangle_homomorphisms(num_vertices: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Homomorphisms from K3 into a simple graph: 6 per triangle."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_vertices))
    graph.add_edges_from(edges)
    return 2 * sum(nx.triangles(graph).values())
