"""Yannakakis' algorithm for acyclic natural joins.

The paper repeatedly uses Yannakakis' algorithm as the reference point for
α-acyclic queries (it is InsideOut over the Boolean / set semiring, see
Appendix F.1): a full semijoin reduction along a join tree followed by joins
back up the tree runs in ``O~(N + output)``.

This module is the reference implementation over relations.  The engine
does not call it: InsideOut's output phase
(:func:`repro.core.insideout.output_phase`) runs the same semijoin
reduction over factor supports, so :func:`repro.db.join` gets Yannakakis'
bound on an α-acyclic join without leaving the planner's execution path.
"""

from __future__ import annotations

from typing import Dict, Sequence

import networkx as nx

from repro.db.hash_join import binary_hash_join
from repro.db.relation import Relation, RelationError
from repro.hypergraph.acyclicity import join_tree
from repro.hypergraph.hypergraph import Hypergraph


def semijoin(left: Relation, right: Relation) -> Relation:
    """The semijoin ``left ⋉ right``: rows of ``left`` with a match in ``right``."""
    shared = [a for a in left.schema if a in right.schema]
    if not shared:
        return left if len(right) else Relation(left.name, left.schema, [])
    right_keys = right.project(shared).tuples
    left_idx = [left.schema.index(a) for a in shared]
    rows = [row for row in left.tuples if tuple(row[i] for i in left_idx) in right_keys]
    return Relation(left.name, left.schema, rows)


def yannakakis(
    relations: Sequence[Relation], output_attributes: Sequence[str] | None = None
) -> Relation:
    """Evaluate an α-acyclic natural join with Yannakakis' algorithm.

    Phases: (1) build a join tree of the query hypergraph, (2) semijoin-reduce
    leaves-to-root then root-to-leaves, (3) join bottom-up, projecting onto
    the requested output attributes as early as possible.

    Raises
    ------
    RelationError
        If the query hypergraph is not α-acyclic.
    """
    if not relations:
        raise RelationError("cannot join an empty list of relations")
    hypergraph = Hypergraph.from_scopes([r.schema for r in relations])
    tree = join_tree(hypergraph)
    if tree is None:
        raise RelationError("Yannakakis requires an α-acyclic join query")

    # Map each join-tree node (a hyperedge) to the joined relation on it.
    by_edge: Dict[frozenset, Relation] = {}
    for relation in relations:
        edge = relation.attributes
        if edge in by_edge:
            # Multiple relations on identical schemas: intersect via join.
            by_edge[edge] = binary_hash_join(by_edge[edge], relation)
        else:
            by_edge[edge] = relation
    nodes = list(tree.nodes)

    if tree.number_of_nodes() == 1:
        only = by_edge[nodes[0]]
        if output_attributes is not None:
            return only.project(list(output_attributes))
        return only

    root = nodes[0]
    directed = nx.bfs_tree(tree, root)
    bottom_up = list(reversed(list(nx.topological_sort(directed))))

    # Phase 1: semijoin children into parents (leaves → root).
    for node in bottom_up:
        parents = list(directed.predecessors(node))
        if parents:
            parent = parents[0]
            by_edge[parent] = semijoin(by_edge[parent], by_edge[node])
    # Phase 2: semijoin parents into children (root → leaves).
    for node in nx.topological_sort(directed):
        for child in directed.successors(node):
            by_edge[child] = semijoin(by_edge[child], by_edge[node])

    # Phase 3: join bottom-up with eager projection.
    wanted = set(output_attributes) if output_attributes is not None else None
    result_by_node: Dict[frozenset, Relation] = {}
    for node in bottom_up:
        current = by_edge[node]
        for child in directed.successors(node):
            current = binary_hash_join(current, result_by_node[child])
        if wanted is not None:
            # Keep output attributes plus whatever the remaining ancestors need.
            ancestors_needed = set()
            for ancestor in nx.ancestors(directed, node):
                ancestors_needed |= set(ancestor)
            keep = [a for a in current.schema if a in wanted or a in ancestors_needed]
            current = current.project(keep)
        result_by_node[node] = current
    final = result_by_node[root]
    if output_attributes is not None:
        return final.project(list(output_attributes))
    return final
