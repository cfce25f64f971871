"""Hypergraph substrate: widths, covers, orderings and decompositions.

The FAQ paper's runtime guarantees are phrased in terms of hypergraph
parameters: fractional edge covers and the AGM bound (Section 4.2), tree
decompositions and the treewidth / hypertree width / fractional hypertree
width family (Section 4.3), vertex orderings and induced widths
(Section 4.4), and α/β-acyclicity (Definitions 4.4 / 4.5).  This package
implements that substrate from scratch on top of ``networkx`` (for Gaifman
graphs and trees).  The covering linear programs are a few vertices by a
dozen edges and are solved by a certified tableau kernel in
:mod:`~repro.hypergraph.covers`; ``scipy`` is imported only for a cover LP
too large for it.
"""

from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.hypergraph.covers import (
    agm_bound,
    clear_rho_star_cache,
    fractional_edge_cover,
    fractional_edge_cover_number,
    integral_edge_cover_number,
    rho_star_cache_info,
)
from repro.hypergraph.elimination import (
    EliminationStep,
    elimination_sequence,
    induced_width,
    induced_sets,
)
from repro.hypergraph.acyclicity import (
    gyo_reduction,
    is_alpha_acyclic,
    is_beta_acyclic,
    join_tree,
    nested_elimination_order,
)
from repro.hypergraph.treedecomp import (
    TreeDecomposition,
    decomposition_from_ordering,
    fractional_hypertree_width,
    hypertree_width,
    ordering_from_decomposition,
    treewidth,
)
from repro.hypergraph.orderings import (
    best_ordering_exhaustive,
    best_ordering_search,
    min_degree_ordering,
    min_fill_ordering,
    greedy_fractional_cover_ordering,
)

__all__ = [
    "Hypergraph",
    "HypergraphError",
    "agm_bound",
    "clear_rho_star_cache",
    "rho_star_cache_info",
    "fractional_edge_cover",
    "fractional_edge_cover_number",
    "integral_edge_cover_number",
    "EliminationStep",
    "elimination_sequence",
    "induced_width",
    "induced_sets",
    "gyo_reduction",
    "is_alpha_acyclic",
    "is_beta_acyclic",
    "join_tree",
    "nested_elimination_order",
    "TreeDecomposition",
    "decomposition_from_ordering",
    "fractional_hypertree_width",
    "hypertree_width",
    "ordering_from_decomposition",
    "treewidth",
    "best_ordering_exhaustive",
    "best_ordering_search",
    "min_degree_ordering",
    "min_fill_ordering",
    "greedy_fractional_cover_ordering",
]
