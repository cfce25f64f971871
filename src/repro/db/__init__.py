"""A miniature relational engine used as the database substrate.

The FAQ paper's join-related rows of Table 1 compare InsideOut against the
standard relational tool-chain: pairwise (binary) hash-join plans,
Yannakakis' algorithm for acyclic queries, and worst-case optimal multiway
joins.  This package implements all three from scratch over a simple
set-of-tuples :class:`~repro.db.relation.Relation` so the benchmarks can
measure baseline behaviour without any external database.
"""

from repro.db.relation import Relation, RelationError
from repro.db.hash_join import binary_hash_join, left_deep_join_plan
from repro.db.yannakakis import semijoin, yannakakis
from repro.db.generic_join import generic_join


def join(relations, output_attributes=None, workers=None):
    """Natural join routed through the cost-based planner.

    The join runs as an FAQ query on the planner's one execution path
    (:mod:`repro.planner`), whose output phase semijoin-reduces an
    α-acyclic join as Yannakakis does and searches a cyclic one worst-case
    optimally as generic join does.  ``output_attributes`` is pushed into
    the query as existential aggregates rather than applied as a
    post-projection, so the work is bounded by the *projected* output.
    :func:`yannakakis` and :func:`generic_join` are the reference
    evaluators it is tested against.
    """
    from repro.planner import execute
    from repro.solvers.joins import natural_join_insideout, projected_join_query

    if output_attributes is None:
        return natural_join_insideout(relations, workers=workers)
    query = projected_join_query(relations, output_attributes)
    result = execute(query, workers=workers)
    rows = [key for key, value in result.factor.table.items() if value]
    return Relation("join", result.factor.scope, rows)


__all__ = [
    "Relation",
    "RelationError",
    "binary_hash_join",
    "left_deep_join_plan",
    "semijoin",
    "yannakakis",
    "generic_join",
    "join",
]
