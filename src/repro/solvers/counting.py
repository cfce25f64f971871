"""Further counting problems from Appendix A: permanents and #CSP-style sums.

* :func:`permanent` (Example A.11): the permanent of an ``n × n`` matrix as
  an FAQ-SS instance with one unary factor per row and pairwise
  all-different factors — a #P-hard problem, included to exercise the
  engine on dense high-width queries (the FAQ view gives no asymptotic
  advantage here, matching the paper).
* :func:`count_weighted_homomorphisms`: the weighted homomorphism /
  partition-function form of #CSP (Example A.12 style), counting with
  arbitrary non-negative edge weights.
* :func:`ryser_permanent`: the classical Ryser inclusion–exclusion formula,
  used as the independent reference for the permanent.
"""

from __future__ import annotations

from typing import Dict, Tuple

import networkx as nx
import numpy as np

from repro.core.query import FAQQuery, QueryError, Variable
from repro.factors.factor import Factor
from repro.planner import STRATEGY_INSIDEOUT, execute
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import SUM_PRODUCT


def permanent_query(matrix: np.ndarray) -> FAQQuery:
    """The FAQ-SS encoding of the permanent (Example A.11).

    Variable ``X_i`` is the column assigned to row ``i``; a unary factor per
    row carries the matrix entries and a pairwise ``≠`` factor per row pair
    enforces that the assignment is a permutation.
    """
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise QueryError(f"permanent needs a square matrix, got shape {array.shape}")
    size = array.shape[0]
    names = [f"row{i}" for i in range(size)]
    columns = tuple(range(size))
    factors = []
    for i in range(size):
        entries = {(j,): float(array[i, j]) for j in range(size) if array[i, j] != 0.0}
        factors.append(Factor((names[i],), entries, name=f"row{i}"))
    for i in range(size):
        for j in range(i + 1, size):
            neq = {
                (a, b): 1.0 for a in columns for b in columns if a != b
            }
            factors.append(Factor((names[i], names[j]), neq, name=f"neq{i}{j}"))
    return FAQQuery(
        variables=[Variable(name, columns) for name in names],
        free=[],
        aggregates={name: SemiringAggregate.sum() for name in names},
        factors=factors,
        semiring=SUM_PRODUCT,
        name="permanent",
    )


def permanent(matrix: np.ndarray) -> float:
    """The permanent of a square matrix via InsideOut (exponential in n).

    The permanent's hypergraph is the complete graph of pairwise ``≠``
    factors, so every elimination ordering induces the same (full) union
    sets — an ordering search cannot help (matching the paper: the FAQ view
    gives no asymptotic advantage here).  The written order is therefore
    pinned through the planner, skipping the search entirely.
    """
    query = permanent_query(matrix)
    result = execute(
        query, ordering=list(query.order), strategy=STRATEGY_INSIDEOUT, backend="sparse",
    )
    return float(result.scalar_or_zero(SUM_PRODUCT))


def ryser_permanent(matrix: np.ndarray) -> float:
    """Ryser's inclusion–exclusion formula — the reference implementation."""
    array = np.asarray(matrix, dtype=float)
    size = array.shape[0]
    total = 0.0
    for subset_mask in range(1, 1 << size):
        columns = [j for j in range(size) if subset_mask & (1 << j)]
        row_sums = array[:, columns].sum(axis=1)
        product = float(np.prod(row_sums))
        sign = (-1) ** (size - len(columns))
        total += sign * product
    return total


def count_weighted_homomorphisms(
    pattern: nx.Graph,
    graph: nx.Graph,
    weights: Dict[Tuple, float] | None = None,
) -> float:
    """Weighted homomorphism count (partition-function form of #CSP).

    ``weights`` maps data-graph edges (in either orientation) to non-negative
    weights; missing edges weigh 0 and absent entries default to 1.  With all
    weights 1 this reduces to plain homomorphism counting.
    """
    data_vertices = tuple(sorted(graph.nodes, key=repr))
    table: Dict[Tuple, float] = {}
    for u, v in graph.edges:
        weight = 1.0
        if weights is not None:
            weight = weights.get((u, v), weights.get((v, u), 1.0))
        table[(u, v)] = weight
        table[(v, u)] = weight
    factors = []
    names = [f"p{u}" for u in sorted(pattern.nodes, key=repr)]
    for u, v in pattern.edges:
        factors.append(Factor((f"p{u}", f"p{v}"), dict(table), name=f"w_{u}{v}"))
    query = FAQQuery(
        variables=[Variable(name, data_vertices) for name in names],
        free=[],
        aggregates={name: SemiringAggregate.sum() for name in names},
        factors=factors,
        semiring=SUM_PRODUCT,
        name="weighted-hom",
    )
    return float(execute(query).scalar_or_zero(SUM_PRODUCT))
