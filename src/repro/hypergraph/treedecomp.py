"""Tree decompositions and the width-parameter family (Section 4.3 / 4.4).

The paper uses Adler's width-function framework: the ``g``-width of a tree
decomposition is the maximum of ``g`` over its bags, and (Lemma 4.12 /
Corollary 4.13) equals the minimum induced ``g``-width over vertex orderings
for monotone ``g``.  We exploit that equivalence computationally: widths are
computed over vertex orderings (exhaustively for small hypergraphs, with
min-fill / greedy heuristics otherwise), and decompositions are materialised
from orderings when an explicit tree is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

import networkx as nx

from repro.hypergraph.covers import (
    fractional_edge_cover_number,
    integral_edge_cover_number,
)
from repro.hypergraph.elimination import elimination_sequence
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.hypergraph.orderings import _quantized, best_ordering_search, min_fill_ordering


@dataclass
class TreeDecomposition:
    """A tree decomposition ``(T, χ)`` of a hypergraph.

    ``tree`` is a networkx tree whose nodes are opaque identifiers and
    ``bags`` maps each tree node to a frozenset of hypergraph vertices.
    """

    tree: nx.Graph
    bags: Dict[object, FrozenSet]
    hypergraph: Hypergraph = field(default=None)

    # ------------------------------------------------------------------ #
    def width(self, width_fn: Callable[[FrozenSet], float]) -> float:
        """The ``g``-width: maximum of ``width_fn`` over all bags."""
        if not self.bags:
            return 0.0
        return max(width_fn(bag) for bag in self.bags.values())

    def tree_width(self) -> int:
        """Classic treewidth contribution: ``max |bag| - 1``."""
        if not self.bags:
            return 0
        return max(len(bag) for bag in self.bags.values()) - 1

    def fractional_width(self, hypergraph: Hypergraph | None = None) -> float:
        """``ρ*``-width of this decomposition w.r.t. ``hypergraph``."""
        h = hypergraph or self.hypergraph
        if h is None:
            raise HypergraphError("a hypergraph is needed to evaluate ρ*-width")
        return self.width(lambda bag: fractional_edge_cover_number(h, bag))

    def integral_width(self, hypergraph: Hypergraph | None = None) -> float:
        """``ρ``-width (generalized hypertree width upper bound)."""
        h = hypergraph or self.hypergraph
        if h is None:
            raise HypergraphError("a hypergraph is needed to evaluate ρ-width")
        return self.width(lambda bag: integral_edge_cover_number(h, bag))

    # ------------------------------------------------------------------ #
    def is_valid(self, hypergraph: Hypergraph | None = None) -> bool:
        """Check the two tree-decomposition properties (Definition 4.3)."""
        h = hypergraph or self.hypergraph
        if h is None:
            raise HypergraphError("a hypergraph is needed for validation")
        if self.tree.number_of_nodes() != len(self.bags):
            return False
        if self.tree.number_of_nodes() and not nx.is_tree(self.tree):
            # Allow forests only when the hypergraph is disconnected.
            if not nx.is_forest(self.tree):
                return False
        # (a) every hyperedge inside some bag
        for edge in h.edges:
            if edge and not any(edge <= bag for bag in self.bags.values()):
                return False
        # (b) running intersection property per vertex
        for vertex in h.vertices:
            nodes = [node for node, bag in self.bags.items() if vertex in bag]
            if not nodes:
                return False
            sub = self.tree.subgraph(nodes)
            if sub.number_of_nodes() and not nx.is_connected(sub):
                return False
        return True


# ---------------------------------------------------------------------- #
# ordering <-> decomposition
# ---------------------------------------------------------------------- #
def decomposition_from_ordering(
    hypergraph: Hypergraph, ordering: Sequence
) -> TreeDecomposition:
    """Build a tree decomposition whose bags are the induced sets ``U_k``.

    This is the standard construction behind Lemma 4.12: eliminate vertices
    from the back of ``ordering``; the bag for ``v_k`` is ``U_k``; it is
    connected to the bag of the lowest-positioned vertex appearing in
    ``U_k - {v_k}`` (or to the next bag when ``U_k`` is a singleton).
    """
    order = list(ordering)
    steps = elimination_sequence(hypergraph, order)
    position = {v: i for i, v in enumerate(order)}

    tree = nx.Graph()
    bags: Dict[object, FrozenSet] = {}
    for step in steps:
        node = ("bag", step.vertex)
        bags[node] = frozenset(step.union)
        tree.add_node(node)

    for step in steps:
        node = ("bag", step.vertex)
        rest = step.union - {step.vertex}
        if rest:
            # Connect to the earliest remaining vertex's bag (the vertex in
            # rest with the largest position is eliminated next among them,
            # which is the standard parent choice).
            parent_vertex = max(rest, key=lambda v: position[v])
            tree.add_edge(node, ("bag", parent_vertex))
        else:
            # Isolated bag: attach to the previous vertex's bag to keep a tree
            # when possible (purely cosmetic; a forest is also acceptable).
            k = position[step.vertex]
            if k > 0:
                tree.add_edge(node, ("bag", order[k - 1]))

    # Connect any remaining components so downstream consumers (junction tree
    # calibration, GYO extraction) always see a single tree.  Linking bags of
    # different hypergraph components never violates the running-intersection
    # property because they share no vertices.
    components = list(nx.connected_components(tree)) if tree.number_of_nodes() else []
    for previous, current in zip(components, components[1:]):
        tree.add_edge(sorted(previous, key=repr)[0], sorted(current, key=repr)[0])
    return TreeDecomposition(tree=tree, bags=bags, hypergraph=hypergraph)


def ordering_from_decomposition(decomposition: TreeDecomposition) -> List:
    """Extract a vertex ordering from a tree decomposition (GYO-style).

    Repeatedly take a leaf bag of the tree, emit the vertices that appear in
    no other bag (in the *elimination* order), and remove the bag.  The
    returned list is the vertex ordering ``σ`` (reverse of elimination), so
    that running the elimination sequence along it yields induced sets that
    are contained in bags of the decomposition.
    """
    tree = decomposition.tree.copy()
    bags = dict(decomposition.bags)
    eliminated: List = []
    seen: set = set()

    while bags:
        if tree.number_of_nodes() == 1 or not tree.number_of_edges():
            leaves = list(bags.keys())
        else:
            leaves = [node for node in tree.nodes if tree.degree(node) <= 1]
        node = sorted(leaves, key=repr)[0]
        bag = bags[node]
        others: set = set()
        for other_node, other_bag in bags.items():
            if other_node != node:
                others |= other_bag
        exclusive = sorted(bag - others - set(seen), key=repr)
        eliminated.extend(exclusive)
        seen.update(exclusive)
        tree.remove_node(node)
        del bags[node]

    # Any vertices never emitted (e.g. appearing in every bag) go last in the
    # elimination, i.e. first in the ordering.
    all_vertices = set()
    for bag in decomposition.bags.values():
        all_vertices |= bag
    leftovers = sorted(all_vertices - set(eliminated), key=repr)
    eliminated.extend(leftovers)
    return list(reversed(eliminated))


# ---------------------------------------------------------------------- #
# width parameters of a hypergraph
# ---------------------------------------------------------------------- #
def _width_over_orderings(
    hypergraph: Hypergraph,
    width_fn: Callable[[FrozenSet], float],
    exact_limit: int,
) -> Tuple[float, List]:
    """Minimise the induced ``g``-width over orderings.

    Exact (complete branch-and-bound search, see
    :func:`repro.hypergraph.orderings.best_ordering_search`) for
    ≤ ``exact_limit`` vertices, otherwise the min-fill heuristic ordering
    plus a handful of greedy restarts.
    """
    vertices = sorted(hypergraph.vertices, key=repr)
    if not vertices:
        return 0.0, []

    def ordering_width(order: Sequence) -> float:
        # Quantised like the exact branch, so widths compare consistently
        # across the exact_limit size boundary.
        steps = elimination_sequence(hypergraph, order)
        return max(_quantized(width_fn(step.union)) for step in steps)

    if len(vertices) <= exact_limit:
        best_order, best_width = best_ordering_search(hypergraph, width_fn)
        return best_width, best_order

    candidates = [min_fill_ordering(hypergraph)]
    candidates.append(list(vertices))
    candidates.append(list(reversed(vertices)))
    best_order = min(candidates, key=ordering_width)
    return ordering_width(best_order), list(best_order)


def treewidth(hypergraph: Hypergraph, exact_limit: int = 8) -> int:
    """The treewidth ``tw(H)`` (``s``-width with ``s(B) = |B| - 1``)."""
    width, _ = _width_over_orderings(hypergraph, lambda bag: len(bag) - 1, exact_limit)
    return int(width) if width != float("inf") else 0


def _covered_vertices(hypergraph: Hypergraph) -> FrozenSet:
    """Vertices that belong to at least one hyperedge (coverable vertices)."""
    covered: set = set()
    for edge in hypergraph.edges:
        covered |= edge
    return frozenset(covered)


def hypertree_width(hypergraph: Hypergraph, exact_limit: int = 8) -> float:
    """(Generalized) hypertree width upper bound: the ``ρ``-width.

    Vertices covered by no hyperedge (isolated query variables) are ignored —
    they contribute nothing to the cover.
    """
    covered = _covered_vertices(hypergraph)
    width, _ = _width_over_orderings(
        hypergraph,
        lambda bag: integral_edge_cover_number(hypergraph, bag & covered),
        exact_limit,
    )
    return width


def fractional_hypertree_width(
    hypergraph: Hypergraph, exact_limit: int = 8, return_ordering: bool = False
):
    """The fractional hypertree width ``fhtw(H)`` (the ``ρ*``-width).

    Uses the vertex-ordering characterisation of Corollary 4.13.  When
    ``return_ordering`` is true, also returns a witnessing vertex ordering.
    Vertices covered by no hyperedge are ignored.
    """
    width, order = _width_over_orderings(
        hypergraph,
        lambda bag: fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True),
        exact_limit,
    )
    if return_ordering:
        return width, order
    return width
