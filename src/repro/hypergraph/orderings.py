"""Vertex-ordering heuristics (min-fill, min-degree, greedy cover, exhaustive).

Orderings are central to the paper: InsideOut's runtime is governed by the
induced sets ``U_k`` of the chosen ordering, and the widths of Section 4.4
are minima of induced widths over orderings.  For large hypergraphs finding
optimal orderings is NP-hard (Section 7), so the usual PGM/CSP heuristics are
provided alongside an exhaustive search for small instances.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Sequence, Tuple

import networkx as nx

from repro.hypergraph.covers import fractional_edge_cover_number
from repro.hypergraph.hypergraph import Hypergraph, bit_indices

# Fractional-cover costs come out of an LP solver, so two vertices whose
# neighbourhoods have the *same* cover number can differ in the last float
# bits and flip the greedy choice between runs or platforms.  All heuristics
# therefore compare costs quantised to this many decimals and break the
# remaining ties on the vertex repr — orderings are fully deterministic.
_COST_DECIMALS = 9


def _quantized(cost: float) -> float:
    """Quantise an LP-derived cost so equal-by-maths costs compare equal."""
    return round(cost, _COST_DECIMALS)


def _fill_in_count(graph: nx.Graph, vertex) -> int:
    """Number of edges that eliminating ``vertex`` would add to ``graph``."""
    neighbors = list(graph.neighbors(vertex))
    missing = 0
    for i, u in enumerate(neighbors):
        for v in neighbors[i + 1:]:
            if not graph.has_edge(u, v):
                missing += 1
    return missing


def min_fill_ordering(hypergraph: Hypergraph) -> List:
    """The min-fill elimination heuristic on the Gaifman graph.

    Vertices are eliminated in the order that greedily minimises the number
    of fill-in edges; the returned list is the *vertex ordering* ``σ``
    (i.e. the reverse of the elimination order), matching the convention of
    Definition 4.7 where elimination proceeds from the back of ``σ``.
    Cost ties break on the vertex repr, so the ordering is deterministic
    regardless of vertex insertion order.

    Fill-in counts are maintained incrementally: eliminating ``v`` can only
    change the count of a vertex adjacent to ``v`` or to one of ``v``'s
    neighbours (fill edges are added inside ``N(v)`` only), so each round
    recomputes counts just for that 2-hop neighbourhood instead of for every
    remaining vertex.
    """
    graph = hypergraph.gaifman_graph()
    fill: dict = {v: _fill_in_count(graph, v) for v in graph.nodes}
    eliminated: List = []
    while graph.number_of_nodes():
        vertex = min(graph.nodes, key=lambda v: (fill[v], repr(v)))
        neighbors = list(graph.neighbors(vertex))
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                graph.add_edge(u, v)
        graph.remove_node(vertex)
        del fill[vertex]
        affected = set(neighbors)
        for u in neighbors:
            affected.update(graph.neighbors(u))
        for u in affected:
            if u in graph:
                fill[u] = _fill_in_count(graph, u)
        eliminated.append(vertex)
    return list(reversed(eliminated))


def min_degree_ordering(hypergraph: Hypergraph) -> List:
    """The min-degree elimination heuristic (same conventions as min-fill)."""
    graph = hypergraph.gaifman_graph()
    eliminated: List = []
    while graph.number_of_nodes():
        vertex = min(graph.nodes, key=lambda v: (graph.degree(v), repr(v)))
        neighbors = list(graph.neighbors(vertex))
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                graph.add_edge(u, v)
        graph.remove_node(vertex)
        eliminated.append(vertex)
    return list(reversed(eliminated))


def greedy_fractional_cover_ordering(hypergraph: Hypergraph) -> List:
    """Greedy ordering minimising ``ρ*`` of each eliminated neighbourhood.

    At every step the vertex whose current neighbourhood (the union of its
    incident edges) has the smallest fractional edge cover number w.r.t. the
    *original* hypergraph is eliminated next.  More expensive than min-fill
    (one LP per candidate per step) but tracks the FAQ-width objective
    directly.
    """
    original = hypergraph
    current = hypergraph
    eliminated: List = []
    while current.num_vertices:
        def cost(vertex) -> float:
            union = current.neighborhood(vertex)
            if not union:
                return 0.0
            return _quantized(fractional_edge_cover_number(original, union))

        vertex = min(current.vertices, key=lambda v: (cost(v), repr(v)))
        union = current.neighborhood(vertex)
        rest = set(current.vertices) - {vertex}
        new_edges = [e for e in current.edges if vertex not in e]
        residual = union - {vertex}
        if residual:
            new_edges.append(residual)
        current = Hypergraph(rest, new_edges)
        eliminated.append(vertex)
    return list(reversed(eliminated))


def best_ordering_search(
    hypergraph: Hypergraph,
    width_fn: Callable[[FrozenSet], float],
    free: Sequence = (),
) -> Tuple[List, float]:
    """Optimal induced width by branch-and-bound over elimination prefixes.

    ``free`` vertices (Section 4.4: the free variables of an FAQ query) are
    constrained to the *prefix* of the returned ordering — elimination runs
    from the back, so they are eliminated last.  The search enforces this
    structurally instead of post-filtering: a free vertex only becomes an
    elimination candidate once every bound vertex is gone, so the search
    space is ``|bound|! · |free|!`` branches (before pruning) rather than
    ``n!`` filtered down.  With ``free`` empty the search is unconstrained
    and identical to the historical behaviour.

    Semantically identical to the exhaustive permutation scan (the search is
    complete), but exponentially cheaper: orderings are extended from the
    *back* — the end elimination starts from — one eliminated vertex at a
    time, and

    * a prefix is pruned as soon as its running maximum step width reaches
      the incumbent (step widths only accumulate along a prefix, so no
      completion can improve on it);
    * children are visited best first, in (step width, repr index) order,
      so the first descent is greedy and its incumbent prunes early — which
      changes how many widths are computed, never the result;
    * the induced set ``U(v, S)`` of eliminating ``v`` after the set ``S``
      depends only on the *set* ``S`` (not on the order it was eliminated
      in — the classic elimination-graph property), so per-step widths are
      memoised by ``(S, v)`` and every prefix that permutes the same suffix
      shares them; ``width_fn`` is asked once per distinct induced set;
    * a dominance memo per eliminated set ``S`` cuts any prefix reaching
      ``S`` with a running maximum no better than an earlier visit,
      bounding the search by the subset lattice instead of the factorial.

    Sets of vertices are int masks over the hypergraph's
    :meth:`~repro.hypergraph.hypergraph.Hypergraph.numbering`; ``width_fn``
    still receives a frozenset of vertices.

    Returns ``(ordering, width)`` where ``ordering`` is the lexicographically
    smallest (over the repr-sorted vertex list, i.e. the first the
    permutation scan would have found) ordering attaining the optimal
    quantised width.
    """
    numbering = hypergraph.numbering()
    vertices = numbering.order
    n = len(vertices)
    if n == 0:
        return [], 0.0
    full = (1 << n) - 1
    free_mask = numbering.mask(free)
    bound_count = n - free_mask.bit_count()
    neighbours = numbering.neighbours

    def union_after(index: int, eliminated: int) -> int:
        """``U(v, S)``: closed neighbourhood of ``v`` reachable through ``S``."""
        seen = union = frontier = 1 << index
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached = neighbours[low.bit_length() - 1] & ~seen
            seen |= reached
            union |= reached & ~eliminated
            frontier |= reached & eliminated
        return union

    width_memo: dict = {}
    step_memo: dict = {}

    def step_width(eliminated: int, index: int) -> float:
        key = (eliminated, index)
        width = step_memo.get(key)
        if width is None:
            union = union_after(index, eliminated)
            width = width_memo.get(union)
            if width is None:
                width = _quantized(width_fn(numbering.members(union)))
                width_memo[union] = width
            step_memo[key] = width
        return width

    best = [float("inf")]
    visited: dict = {}

    def search(eliminated: int, running: float) -> None:
        if running >= best[0]:
            return
        previous = visited.get(eliminated)
        if previous is not None and previous <= running:
            return
        visited[eliminated] = running
        if eliminated == full:
            best[0] = running
            return
        # Free vertices sit in the ordering prefix, i.e. they are only
        # eliminated once every bound vertex has been.
        allowed = full & ~eliminated
        if eliminated.bit_count() < bound_count:
            allowed &= ~free_mask
        # Best first: the cheapest step is tried first, so a good incumbent
        # prunes early; the children after the first one the incumbent
        # prunes are pruned too.
        children = sorted((step_width(eliminated, i), i) for i in bit_indices(allowed))
        for width, index in children:
            if max(running, width) >= best[0]:
                break
            search(eliminated | (1 << index), max(running, width))

    search(0, float("-inf"))
    best_width = best[0]

    # Reconstruct the lexicographically smallest optimal ordering from the
    # front (the front vertex is the one eliminated *last*): a remaining set
    # is feasible iff some vertex of it can be eliminated last within budget
    # and the rest remains feasible.
    feasible_memo: dict = {0: True}

    def front_candidates(remaining: int) -> int:
        """Vertices allowed at the front (eliminated last) of ``remaining``."""
        return (remaining & free_mask) or remaining

    def feasible(remaining: int) -> bool:
        result = feasible_memo.get(remaining)
        if result is None:
            result = any(
                step_width(remaining & ~(1 << i), i) <= best_width
                and feasible(remaining & ~(1 << i))
                for i in bit_indices(front_candidates(remaining))
            )
            feasible_memo[remaining] = result
        return result

    ordering: List = []
    remaining = full
    while remaining:
        for index in bit_indices(front_candidates(remaining)):
            rest = remaining & ~(1 << index)
            if step_width(rest, index) <= best_width and feasible(rest):
                ordering.append(vertices[index])
                remaining = rest
                break
        else:  # pragma: no cover - the optimum is always attainable
            ordering.extend(vertices[i] for i in bit_indices(remaining))
            break
    return ordering, best_width


def best_ordering_exhaustive(
    hypergraph: Hypergraph,
    width_fn: Callable[[FrozenSet], float],
    candidates: Sequence[Sequence] | None = None,
    free: Sequence = (),
) -> List:
    """Minimise an induced width over all orderings (or given candidates).

    When ``candidates`` is ``None`` the full ordering space is searched by
    the branch-and-bound of :func:`best_ordering_search` — complete, so the
    result is the same quantised width the historical permutation scan
    produced, including its tie-break (the earliest optimal permutation of
    the repr-sorted vertex set in enumeration order).  With ``candidates``
    the given orderings are scanned directly; widths are quantised before
    comparison and ties keep the earliest candidate, so the result is
    deterministic even when ``width_fn`` is LP-derived.

    ``free`` vertices are constrained to the ordering prefix (they are
    eliminated last): the branch-and-bound honours them structurally, and
    explicit ``candidates`` violating the prefix are skipped.
    """
    from repro.hypergraph.elimination import elimination_sequence

    vertices = sorted(hypergraph.vertices, key=repr)
    free_set = frozenset(free) & frozenset(vertices)
    if candidates is None:
        ordering, _ = best_ordering_search(hypergraph, width_fn, free=free_set)
        return ordering if ordering else list(vertices)

    best_order: List | None = None
    best_width = float("inf")
    for order in candidates:
        if free_set and set(order[: len(free_set)]) != set(free_set):
            continue
        steps = elimination_sequence(hypergraph, order)
        width = max((_quantized(width_fn(step.union)) for step in steps), default=0.0)
        if width < best_width:
            best_width = width
            best_order = list(order)
    return best_order if best_order is not None else list(vertices)
