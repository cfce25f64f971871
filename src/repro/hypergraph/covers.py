"""Edge covers and the AGM bound (Section 4.2 of the paper).

* :func:`fractional_edge_cover` — solves the fractional edge cover linear
  program for a vertex subset ``B``, optionally with per-edge weights
  (``log |ψ_S|`` for the AGM bound).
* :func:`fractional_edge_cover_number` — ``ρ*_H(B)``, memoised process-wide
  by the *restricted edge structure* ``{S ∩ B : S ∈ E, S ∩ B ≠ ∅}``: the LP
  depends on the hypergraph only through which (deduplicated, maximal) edge
  restrictions cover ``B``, and the same structures recur thousands of times
  across ordering-search candidates, planner invocations and queries.  It
  works on int bitmasks (one bit per vertex, fixed once per hypergraph in
  repr order), and its memo key is the structure relabelled to the covered
  vertices' relative order — a short tuple of ints with no names in it, so
  structures equal up to an order-preserving renaming share one entry.
  That is sound because ρ* is invariant under renaming vertices.
* :func:`integral_edge_cover_number` — ``ρ_H(B)`` (exact for small edge
  counts via branch-and-bound over distinct edges, otherwise greedy with a
  logarithmic guarantee — the paper only needs ``ρ*`` for its main results).
* :func:`agm_bound` — the data-dependent AGM bound ``∏ |ψ_S|^{λ*_S}``.

**How the LP is solved.**  With ``A`` the 0/1 vertex × edge incidence
matrix of the target and ``c ≥ 0`` the edge costs, the cover LP and its
packing dual are ::

    min c·λ   s.t.  Aλ ≥ 1,  λ ≥ 0        (cover: one λ per edge)
    max 1·y   s.t.  Aᵀy ≤ c,  y ≥ 0       (packing: one y per vertex)

The packing's slack basis is feasible at ``y = 0`` because ``c ≥ 0``, so
:func:`_tableau_cover` runs a dense primal simplex on it with no phase 1
and reads ``λ`` off the objective row under the slack columns.  The LPs
this package meets are a handful of vertices by a dozen edges (one induced
set of a planner step), where *calling* a general solver costs ten times
the solve.  Unit costs make them highly degenerate and size-1 factors give
zero costs (a degenerate start), hence Bland's anti-cycling rule.

**Certified, not trusted.**  The kernel's answer is returned only when
:func:`_certified` proves it: ``λ`` feasible for the cover, ``y`` feasible
for the packing, and ``c·λ = 1·y`` — by weak duality both are then optimal.
An LP above :data:`_TABLEAU_CELLS`, a run out of pivots or a failed
certificate goes to :func:`_reference_cover` (``scipy.optimize.linprog``,
imported there so that ``import repro`` does not pay for it), which is also
the reference ``tests/test_covers.py`` holds the kernel to.

**Closed forms** answer before any matrix is built: (i) a one-vertex target
costs the cheapest edge covering it; (ii) under unit costs, pairwise-disjoint
maximal restrictions cost their count (one restriction holding the whole
target: 1); (iii) when every edge meeting the target has the same size
``N``, the weighted LP is ``log N`` times the unit one, so ``AGM = N^ρ*``
and :func:`agm_bound` asks the ``ρ*`` memo instead of a solver.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.caching import LruCache
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError, bit_indices

# Feasibility / optimality tolerance of the kernel's pivots and certificate.
_EPS = 1e-9

# The kernel takes LPs whose tableau — (edges + 1) × (vertices + edges + 1)
# cells — is at most this big; larger ones go to scipy's HiGHS.  A constant,
# not a knob: a pivot costs O(cells) and Bland's rule takes many on a big
# degenerate LP, while HiGHS costs ~2 ms to *call* whatever the size.
# Measured on the 2-core reference host (40 seeded random covers per row,
# unit costs — the degenerate, slow case for the kernel; ms per solve):
#
#     vertices × edges, vertices per edge    cells   reference   kernel
#          6 × 12    3                         247      2.21       0.17
#         10 × 28    3                       1 131      2.43       0.34
#         20 × 40    3                       2 501      2.40       1.27
#         20 × 40    4                       2 501      2.90       1.99
#         29 × 39    2                       2 760      2.37       0.96
#         22 × 44    4                       3 015      2.80       2.62
#         25 × 50    4                       3 876      2.70       3.90
#         40 × 80    2                       9 801      3.04       2.46
#         40 × 80    4                       9 801      3.75      21.4
#         60 × 150   3                      31 861      7.72     123
#
# The curves cross near 3 000 cells for the worst shape measured.  The
# largest LP the tests and the benchmark workloads solve is 10 × 28.
_TABLEAU_CELLS = 3000
# Bland's rule terminates; the budget only bounds a numerically stuck run.
_PIVOTS_PER_COLUMN = 20


def _tableau_cover(
    matrix: np.ndarray, costs: np.ndarray
) -> Optional[Tuple[float, np.ndarray]]:
    """Certified optimum ``(c·λ, λ)`` of the cover LP, or ``None``.

    Primal simplex on the packing dual (module docstring).  Row ``j < n`` of
    the tableau is edge ``j``'s constraint ``Σ_{v ∈ S_j} y_v + s_j = c_j``;
    the last row holds the reduced costs, the last column the right-hand
    sides.  Bland's rule: the lowest-index improving column enters, and
    among the rows tying the ratio test the lowest-index basic variable
    leaves.  ``None`` means "not proved" — out of pivots, an unbounded
    column (an uncoverable vertex) or a failed :func:`_certified`.
    """
    m, n = matrix.shape
    width = m + n
    tableau = np.zeros((n + 1, width + 1))
    tableau[:n, :m] = matrix.T
    tableau[:n, m:width] = np.eye(n)
    tableau[:n, width] = costs
    tableau[n, :m] = -1.0
    basis = np.arange(m, width)
    for _ in range(_PIVOTS_PER_COLUMN * width):
        improving = np.flatnonzero(tableau[n, :width] < -_EPS)
        if not improving.size:
            break
        column = improving[0]
        entries = tableau[:n, column]
        rows = np.flatnonzero(entries > _EPS)
        if not rows.size:
            return None
        ratios = tableau[rows, width] / entries[rows]
        ties = rows[ratios <= ratios.min() + _EPS]
        row = ties[np.argmin(basis[ties])]
        pivot_row = tableau[row] / tableau[row, column]
        tableau -= np.outer(tableau[:, column], pivot_row)
        tableau[row] = pivot_row
        basis[row] = column
    else:
        return None
    cover = tableau[n, m:width].copy()
    packing = np.zeros(m)
    basic = basis < m
    packing[basis[basic]] = tableau[:n, width][basic]
    if not _certified(matrix, costs, cover, packing):
        return None
    np.maximum(cover, 0.0, out=cover)
    return float(costs @ cover), cover


def _certified(
    matrix: np.ndarray, costs: np.ndarray, cover: np.ndarray, packing: np.ndarray
) -> bool:
    """Whether ``cover`` and ``packing`` prove each other optimal.

    A feasible cover costs at least what any feasible packing is worth
    (weak duality), so a feasible pair of equal value is an optimal pair.
    """
    value = float(packing.sum())
    return bool(
        cover.min() >= -_EPS
        and packing.min() >= -_EPS
        and (matrix @ cover).min() >= 1.0 - _EPS
        and (packing @ matrix - costs).max() <= _EPS
        and abs(float(costs @ cover) - value) <= _EPS * max(1.0, value)
    )


def _reference_cover(matrix: np.ndarray, costs: np.ndarray) -> Tuple[float, np.ndarray]:
    """The cover LP through ``scipy`` (HiGHS): large LPs, and the reference."""
    from scipy.optimize import linprog
    result = linprog(
        costs, A_ub=-matrix, b_ub=-np.ones(len(matrix)), bounds=(0, None), method="highs"
    )
    if not result.success:  # pragma: no cover - defensive
        raise HypergraphError(f"fractional edge cover LP failed: {result.message}")
    return float(result.fun), result.x


def _distinct_covering_edges(
    hypergraph: Hypergraph, target: FrozenSet
) -> Tuple[Tuple[FrozenSet, ...], Dict[FrozenSet, float]]:
    """Distinct edges intersecting ``target`` (duplicates collapsed)."""
    seen: Dict[FrozenSet, float] = {}
    for edge in hypergraph.edges:
        if edge & target:
            seen.setdefault(edge, 0.0)
    return tuple(seen.keys()), seen


def fractional_edge_cover(
    hypergraph: Hypergraph,
    subset: Iterable | None = None,
    weights: Mapping[FrozenSet, float] | None = None,
    ignore_uncovered: bool = False,
) -> Tuple[float, Dict[FrozenSet, float]]:
    """Solve the fractional edge cover LP for ``subset`` (default: all of V).

    Minimise ``Σ_S w_S · λ_S`` subject to ``Σ_{S ∋ v} λ_S ≥ 1`` for every
    ``v`` in the subset and ``λ ≥ 0``.  ``weights`` defaults to all ones
    (giving ``ρ*``); pass ``log2 |ψ_S|`` to obtain the exponent of the AGM
    bound.

    Returns ``(objective, {edge: λ_S})`` — a proved optimum: closed form (i)
    for a one-vertex target, otherwise the certified tableau kernel for LPs
    up to :data:`_TABLEAU_CELLS` and ``scipy``'s HiGHS above it (module
    docstring).  Raises if some subset vertex is covered by no edge (the LP
    would be infeasible), unless ``ignore_uncovered`` is set, in which case
    uncovered vertices are simply dropped from the constraint set (useful
    for queries with variables that occur in no factor).
    """
    vertices = hypergraph.vertices
    target = vertices if subset is None else frozenset(subset) & vertices
    if not target:
        return 0.0, {}

    edges, _ = _distinct_covering_edges(hypergraph, target)
    covered = set()
    for edge in edges:
        covered |= edge & target
    missing = target - covered
    if missing:
        if ignore_uncovered:
            target = target - missing
            if not target:
                return 0.0, {}
            edges, _ = _distinct_covering_edges(hypergraph, target)
        else:
            raise HypergraphError(
                f"vertices {sorted(map(repr, missing))} are not covered by any hyperedge"
            )

    num_edges = len(edges)
    costs = np.ones(num_edges)
    if weights is not None:
        for j, edge in enumerate(edges):
            costs[j] = weights.get(edge, 1.0)

    if len(target) == 1:
        # Closed form (i): every candidate edge covers the one vertex.
        cheapest = int(np.argmin(costs))
        solution = dict.fromkeys(edges, 0.0)
        solution[edges[cheapest]] = 1.0
        return float(costs[cheapest]), solution

    row_of = {vertex: i for i, vertex in enumerate(sorted(target, key=repr))}
    matrix = np.zeros((len(row_of), num_edges))
    for j, edge in enumerate(edges):
        for vertex in edge & target:
            matrix[row_of[vertex], j] = 1.0

    objective, cover = _solve_cover(matrix, costs)
    return objective, {edge: float(cover[j]) for j, edge in enumerate(edges)}


def _solve_cover(matrix: np.ndarray, costs: np.ndarray) -> Tuple[float, np.ndarray]:
    """The cover LP's proved optimum: the kernel when the tableau is small
    enough and it certifies its answer, the reference otherwise."""
    rows, columns = matrix.shape
    solved = None
    if (columns + 1) * (rows + columns + 1) <= _TABLEAU_CELLS:
        solved = _tableau_cover(matrix, costs)
    if solved is None:
        solved = _reference_cover(matrix, costs)
    return solved


# The restricted-edge-structure memo for ρ*.  A key is a tuple of small ints:
# the maximal non-empty edge restrictions ``S ∩ B``, relabelled to the covered
# vertices' relative order (_structure_key).  The target is implied (it is the
# union of the restrictions once uncovered vertices are handled) and names are
# not in it, so one entry serves every (hypergraph, subset) pair inducing the
# same structure up to an order-preserving renaming.
# A real (thread-safe) LRU: full caches evict the least recently used
# structure instead of dropping everything at once, and concurrent planner
# threads (repro.serve) share it safely.
_RHO_STAR_CACHE = LruCache(maxsize=100_000)
_RHO_STAR_KIND = "repro-rho-star"
# Version 2: keys are relabelled int masks, not frozensets of named edges.
_RHO_STAR_VERSION = 2


def rho_star_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide ρ* memo (observability).

    Structures with a closed form never reach the memo, so ``misses`` is
    the number of ``ρ*`` LPs this process solved.
    """
    return {
        "hits": _RHO_STAR_CACHE.hits,
        "misses": _RHO_STAR_CACHE.misses,
        "size": len(_RHO_STAR_CACHE),
    }


def clear_rho_star_cache() -> None:
    """Drop the process-wide ρ* memo (tests and benchmarks)."""
    _RHO_STAR_CACHE.clear()


def dump_rho_star_section() -> dict:
    """The ρ* memo as the ``rho_star`` section of
    :func:`repro.planner.cache.warm_sections`: its keys hold no sizes and
    no names, so its values stay exact in any process of the same version."""
    return _RHO_STAR_CACHE.dump_entries(
        kind=_RHO_STAR_KIND, version=_RHO_STAR_VERSION
    )


def adopt_rho_star_section(payload) -> int:
    """Merge a :func:`dump_rho_star_section` payload (best-effort)."""
    return _RHO_STAR_CACHE.adopt_entries(
        payload, kind=_RHO_STAR_KIND, version=_RHO_STAR_VERSION
    )


def fractional_edge_cover_number(
    hypergraph: Hypergraph,
    subset: Iterable | None = None,
    ignore_uncovered: bool = False,
) -> float:
    """``ρ*_H(B)``: the optimal value of the fractional edge cover LP.

    Works on the hypergraph's vertex bits (:meth:`Hypergraph.numbering`).
    Pairwise-disjoint maximal restrictions (closed form (ii): a one-vertex
    target, one edge holding the whole target, a matching) are counted, not
    solved.  Everything else goes through the process-wide memo, keyed by
    the restricted structure relabelled to the covered vertices' relative
    order (see :func:`_structure_key`): the LP is solved at most once per
    key, from the key alone, so the cached value is bit-identical no matter
    which caller populated it.
    """
    numbering = hypergraph.numbering()
    if subset is None:
        target = (1 << len(numbering.order)) - 1
    else:
        target = numbering.mask(subset)
    if not target:
        return 0.0

    distinct = {edge & target for edge in numbering.edges}
    distinct.discard(0)
    covered = 0
    for edge in distinct:
        covered |= edge
    missing = target & ~covered
    if missing:
        if not ignore_uncovered:
            raise HypergraphError(
                f"vertices {sorted(map(repr, numbering.members(missing)))} "
                "are not covered by any hyperedge"
            )
        if not covered:
            return 0.0
        # Dropped vertices belonged to no edge, so the restrictions (and with
        # them the memo key) are unchanged by shrinking the target.

    # A restriction contained in another never helps the LP (its weight can
    # always be shifted to the superset at equal cost), so dominated
    # restrictions are dropped from the structure.  Largest first, a
    # restriction is dominated iff it lies in one already kept.
    restricted: list = []
    for edge in sorted(distinct, key=int.bit_count, reverse=True):
        for other in restricted:
            if edge & other == edge:
                break
        else:
            restricted.append(edge)
    if sum(map(int.bit_count, restricted)) == covered.bit_count():
        # Pairwise disjoint: each needs weight 1 and helps no other.
        return float(len(restricted))

    key = _structure_key(restricted, covered)
    cached = _RHO_STAR_CACHE.get(key)
    if cached is not None:
        return cached
    objective = _unit_cover_of_key(key, covered.bit_count())
    _RHO_STAR_CACHE.put(key, objective)
    return objective


def _structure_key(restricted: Iterable[int], covered: int) -> Tuple[int, ...]:
    """The memo key of a restricted structure: each restriction relabelled
    to the covered vertices' relative (repr) order, bit ``j`` standing for
    the ``j``-th covered vertex, and the restrictions sorted by their member
    lists.  Two structures equal up to an order-preserving renaming share
    the key, and the key fixes the LP's rows and columns (ρ* is invariant
    under renaming vertices)."""
    relabel = {i: j for j, i in enumerate(bit_indices(covered))}
    columns = sorted([relabel[i] for i in bit_indices(edge)] for edge in restricted)
    key = []
    for members in columns:
        mask = 0
        for j in members:
            mask |= 1 << j
        key.append(mask)
    return tuple(key)


def _unit_cover_of_key(key: Tuple[int, ...], rows: int) -> float:
    """ρ* of a memo key's structure: row ``j`` is relabelled vertex ``j``,
    column ``c`` the restriction ``key[c]`` (the rows and columns of the
    canonically sorted restricted hypergraph)."""
    matrix = np.zeros((rows, len(key)))
    for column, edge in enumerate(key):
        for row in bit_indices(edge):
            matrix[row, column] = 1.0
    objective, _ = _solve_cover(matrix, np.ones(len(key)))
    return objective


def integral_edge_cover_number(
    hypergraph: Hypergraph, subset: Iterable | None = None, exact_limit: int = 20
) -> int:
    """``ρ_H(B)``: the minimum number of edges covering ``B``.

    Exact (branch and bound on distinct edges) when the number of distinct
    candidate edges is at most ``exact_limit``; greedy set-cover otherwise.
    """
    target = frozenset(subset) if subset is not None else hypergraph.vertices
    target = frozenset(v for v in target if v in hypergraph.vertices)
    if not target:
        return 0
    edges, _ = _distinct_covering_edges(hypergraph, target)
    covered = set()
    for edge in edges:
        covered |= edge & target
    if target - covered:
        raise HypergraphError("subset not coverable by hyperedges")

    restricted = sorted({e & target for e in edges}, key=lambda e: (-len(e), sorted(map(repr, e))))
    # Drop dominated edges (subset of another restricted edge).
    maximal = [e for e in restricted if not any(e < other for other in restricted)]

    if len(maximal) <= exact_limit:
        best = [len(maximal)]

        def branch(remaining: FrozenSet, used: int, start: int) -> None:
            if used >= best[0]:
                return
            if not remaining:
                best[0] = used
                return
            # Choose an uncovered vertex and branch on the edges covering it.
            pivot = next(iter(remaining))
            for idx in range(len(maximal)):
                edge = maximal[idx]
                if pivot in edge:
                    branch(remaining - edge, used + 1, idx + 1)

        branch(target, 0, 0)
        return best[0]

    # Greedy fallback.
    remaining = set(target)
    count = 0
    while remaining:
        best_edge = max(maximal, key=lambda e: len(e & remaining))
        gain = best_edge & remaining
        if not gain:  # pragma: no cover - defensive
            raise HypergraphError("greedy cover stalled")
        remaining -= gain
        count += 1
    return count


def agm_bound(
    hypergraph: Hypergraph,
    factor_sizes: Mapping[FrozenSet, int],
    subset: Iterable | None = None,
) -> float:
    """The AGM bound ``AGM_H(B) = ∏_S |ψ_S|^{λ*_S}`` (equation (3)).

    ``factor_sizes`` maps each distinct hyperedge to the size of (the largest)
    factor on that edge.  Edges of size 0 force the bound to 0 whenever they
    intersect the target; edges of size 1 contribute nothing.  An edge with
    no recorded size cannot be used in the cover — any size invented for it
    would make the result something other than a bound — and the target
    must then be coverable by the sized edges alone.

    When every sized edge meeting the target has the same size ``N`` the
    bound is ``N^ρ*`` (closed form (iii)) and comes from the ``ρ*`` memo.
    """
    vertices = hypergraph.vertices
    target = vertices if subset is None else frozenset(subset) & vertices
    if not target:
        return 1.0

    weights: Dict[FrozenSet, float] = {}
    unsized = False
    for edge in set(hypergraph.edges):
        if not edge & target:
            continue
        size = factor_sizes.get(edge, None)
        if size is None:
            unsized = True
        elif size <= 0:
            return 0.0
        else:
            weights[edge] = math.log2(size) if size > 1 else 0.0
    if unsized:
        hypergraph = Hypergraph(vertices, weights)

    uniform = set(weights.values())
    if len(uniform) == 1:
        objective = uniform.pop() * fractional_edge_cover_number(hypergraph, target)
    else:
        objective, _ = fractional_edge_cover(hypergraph, target, weights=weights)
    return float(2.0 ** objective)
