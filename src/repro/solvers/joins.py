"""Natural joins and pattern counting as FAQ queries (Table 1, Joins row).

A natural join is the quantifier-free conjunctive query
``⋃_x ⋂_S ψ_S(x_S)`` — an FAQ over the Boolean semiring with every variable
free (Example A.6).  Counting homomorphisms of a small pattern graph into a
data graph (triangle counting, Example A.8) is the same query over the
counting semiring with no free variables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import networkx as nx

from repro.core.query import FAQQuery, Variable
from repro.db.relation import Relation, RelationError
from repro.planner import execute
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING


def _domains_from_relations(relations: Sequence[Relation]) -> Dict[str, Tuple[Any, ...]]:
    """Active domain of every attribute across the given relations."""
    domains: Dict[str, set] = {}
    for relation in relations:
        for row in relation.tuples:
            for attribute, value in zip(relation.schema, row):
                domains.setdefault(attribute, set()).add(value)
    return {a: tuple(sorted(values, key=repr)) for a, values in domains.items()}


def natural_join_query(relations: Sequence[Relation]) -> FAQQuery:
    """The FAQ query (Boolean semiring, all variables free) of a natural join."""
    domains = _domains_from_relations(relations)
    attributes = sorted(domains)
    variables = [Variable(a, domains[a]) for a in attributes]
    factors = [r.to_factor(BOOLEAN) for r in relations]
    return FAQQuery(
        variables=variables,
        free=attributes,
        aggregates={},
        factors=factors,
        semiring=BOOLEAN,
        name="natural-join",
    )


def natural_join_insideout(
    relations: Sequence[Relation],
    ordering: Sequence[str] | str | None = "plan",
) -> Relation:
    """Evaluate a natural join via the cost-based planner.

    Every variable is free, so the plan has no elimination step and the
    answer is InsideOut's output phase: a semijoin reduction and a search
    along the join tree for an α-acyclic join (Yannakakis' bound), a
    worst-case-optimal search in the plan's ordering for a cyclic one
    (generic join's).  Pass an explicit ``ordering`` to pin that ordering.
    """
    query = natural_join_query(relations)
    result = execute(query, ordering=ordering)
    return Relation("join", result.factor.scope, result.factor.table.keys())


def projected_join_query(
    relations: Sequence[Relation], output_attributes: Sequence[str]
) -> FAQQuery:
    """The projection ``π_out(R_1 ⋈ ... ⋈ R_m)`` as an FAQ query.

    Output attributes are free; every other attribute is existentially
    aggregated (``∨`` over the Boolean semiring), so the planner can bound
    the work by the *projected* output instead of materialising the full
    join first.
    """
    domains = _domains_from_relations(relations)
    out = list(output_attributes)
    missing = [a for a in out if a not in domains]
    if missing:
        raise RelationError(
            f"projection attributes {missing} appear in no relation schema"
        )
    bound = [a for a in sorted(domains) if a not in set(out)]
    variables = [Variable(a, domains[a]) for a in out + bound]
    factors = [r.to_factor(BOOLEAN) for r in relations]
    aggregates = {a: SemiringAggregate.logical_or() for a in bound}
    return FAQQuery(
        variables=variables,
        free=out,
        aggregates=aggregates,
        factors=factors,
        semiring=BOOLEAN,
        name="projected-join",
    )


def join_size_query(relations: Sequence[Relation]) -> FAQQuery:
    """The FAQ query counting the number of join results (no free variables)."""
    domains = _domains_from_relations(relations)
    attributes = sorted(domains)
    variables = [Variable(a, domains[a]) for a in attributes]
    factors = [r.to_factor(COUNTING) for r in relations]
    aggregates = {a: SemiringAggregate.sum() for a in attributes}
    return FAQQuery(
        variables=variables,
        free=[],
        aggregates=aggregates,
        factors=factors,
        semiring=COUNTING,
        name="join-size",
    )


def count_join_results(relations: Sequence[Relation]) -> int:
    """``|R_1 ⋈ ... ⋈ R_m|`` computed via the planner (counting semiring)."""
    query = join_size_query(relations)
    result = execute(query)
    return int(result.scalar_or_zero(COUNTING))


# ---------------------------------------------------------------------- #
# pattern / homomorphism counting (Example A.8)
# ---------------------------------------------------------------------- #
def _edge_relation(graph: nx.Graph) -> List[Tuple[Any, Any]]:
    """Both orientations of every edge (homomorphism counting convention)."""
    pairs: List[Tuple[Any, Any]] = []
    for u, v in graph.edges:
        pairs.append((u, v))
        pairs.append((v, u))
    return pairs


def homomorphism_count_query(pattern: nx.Graph, graph: nx.Graph) -> FAQQuery:
    """The FAQ query counting homomorphisms from ``pattern`` into ``graph``.

    One variable per pattern vertex (domain: the data-graph vertices), one
    edge factor per pattern edge, counting semiring, no free variables.
    """
    data_vertices = tuple(sorted(graph.nodes, key=repr))
    edge_pairs = _edge_relation(graph)
    variables = [Variable(f"v{u}", data_vertices) for u in sorted(pattern.nodes, key=repr)]
    factors = []
    for u, v in pattern.edges:
        relation = Relation(f"E_{u}{v}", (f"v{u}", f"v{v}"), edge_pairs)
        factors.append(relation.to_factor(COUNTING))
    aggregates = {f"v{u}": SemiringAggregate.sum() for u in pattern.nodes}
    return FAQQuery(
        variables=variables,
        free=[],
        aggregates=aggregates,
        factors=factors,
        semiring=COUNTING,
        name="hom-count",
    )


def count_homomorphisms(pattern: nx.Graph, graph: nx.Graph) -> int:
    """Number of homomorphisms from ``pattern`` to ``graph`` via the planner."""
    query = homomorphism_count_query(pattern, graph)
    return int(execute(query).scalar_or_zero(COUNTING))


def count_triangles(graph: nx.Graph) -> int:
    """Number of triangles in ``graph`` (each counted once).

    A triangle has 6 automorphic homomorphic images, so the homomorphism
    count is divided by 6 — this matches ``networkx`` triangle counting and
    is the quantity Example A.8 computes.
    """
    triangle = nx.complete_graph(3)
    injective_like = count_homomorphisms(triangle, graph)
    return injective_like // 6


def triangle_join_relations(graph: nx.Graph) -> List[Relation]:
    """The three binary relations of the triangle join query R(A,B) S(B,C) T(A,C)."""
    pairs = _edge_relation(graph)
    return [
        Relation("R", ("A", "B"), pairs),
        Relation("S", ("B", "C"), pairs),
        Relation("T", ("A", "C"), pairs),
    ]
