"""Constraint satisfaction problems as FAQ queries (Examples A.2 / A.4).

A CSP instance has variables over finite domains and constraints given by
allowed-tuple lists (the listing representation).  Satisfiability is the FAQ
over the Boolean semiring with every variable existentially aggregated;
solution counting uses the counting semiring; solution enumeration keeps all
variables free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import networkx as nx

from repro.core.query import FAQQuery, QueryError, Variable
from repro.factors.factor import Factor
from repro.planner import execute
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING


@dataclass
class Constraint:
    """A constraint: a variable scope plus the list of allowed tuples."""

    scope: Tuple[str, ...]
    allowed: Tuple[Tuple[Any, ...], ...]

    @classmethod
    def from_predicate(
        cls,
        scope: Sequence[str],
        domains: Mapping[str, Sequence[Any]],
        predicate: Callable[..., bool],
    ) -> "Constraint":
        """Materialise a predicate over the scope's domains into allowed tuples."""
        allowed = tuple(
            values
            for values in itertools.product(*(domains[v] for v in scope))
            if predicate(*values)
        )
        return cls(tuple(scope), allowed)


class CSP:
    """A constraint satisfaction problem instance."""

    def __init__(
        self, domains: Mapping[str, Sequence[Any]], constraints: Sequence[Constraint]
    ) -> None:
        self.domains: Dict[str, Tuple[Any, ...]] = {v: tuple(d) for v, d in domains.items()}
        self.constraints: List[Constraint] = list(constraints)
        for constraint in self.constraints:
            unknown = [v for v in constraint.scope if v not in self.domains]
            if unknown:
                raise QueryError(f"constraint mentions unknown variables {unknown}")

    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.domains))

    def _factors(self, semiring) -> List[Factor]:
        return [
            Factor(c.scope, {t: semiring.one for t in c.allowed}, name=f"C{i}")
            for i, c in enumerate(self.constraints)
        ]

    def satisfiability_query(self) -> FAQQuery:
        """FAQ over the Boolean semiring: is there a satisfying assignment?"""
        variables = [Variable(v, self.domains[v]) for v in self.variables]
        aggregates = {v: SemiringAggregate.logical_or() for v in self.variables}
        return FAQQuery(variables, [], aggregates, self._factors(BOOLEAN), BOOLEAN, name="csp-sat")

    def counting_query(self) -> FAQQuery:
        """FAQ over the counting semiring: how many satisfying assignments?"""
        variables = [Variable(v, self.domains[v]) for v in self.variables]
        aggregates = {v: SemiringAggregate.sum() for v in self.variables}
        return FAQQuery(variables, [], aggregates, self._factors(COUNTING), COUNTING, name="csp-count")

    def enumeration_query(self) -> FAQQuery:
        """FAQ with all variables free: the relation of all solutions."""
        variables = [Variable(v, self.domains[v]) for v in self.variables]
        return FAQQuery(variables, list(self.variables), {}, self._factors(BOOLEAN), BOOLEAN, name="csp-all")

    # ------------------------------------------------------------------ #
    def is_satisfiable(self, ordering="plan") -> bool:
        """Decide satisfiability via the cost-based planner (default)."""
        result = execute(self.satisfiability_query(), ordering=ordering)
        return bool(result.scalar_or_zero(BOOLEAN))

    def count_solutions(self, ordering="plan") -> int:
        """Count satisfying assignments via the cost-based planner."""
        result = execute(self.counting_query(), ordering=ordering)
        return int(result.scalar_or_zero(COUNTING))

    def solutions(self, ordering="plan") -> List[Dict[str, Any]]:
        """Enumerate all satisfying assignments via the cost-based planner."""
        result = execute(self.enumeration_query(), ordering=ordering)
        scope = result.factor.scope
        return [dict(zip(scope, key)) for key in result.factor.table]

    def count_solutions_brute_force(self) -> int:
        """Reference count by exhaustive enumeration."""
        names = self.variables
        count = 0
        for values in itertools.product(*(self.domains[v] for v in names)):
            assignment = dict(zip(names, values))
            if all(
                tuple(assignment[v] for v in c.scope) in set(c.allowed) for c in self.constraints
            ):
                count += 1
        return count


# ---------------------------------------------------------------------- #
# graph colouring (Example A.2)
# ---------------------------------------------------------------------- #
def graph_coloring_csp(graph: nx.Graph, num_colors: int) -> CSP:
    """The ``k``-colouring CSP of a graph: one inequality constraint per edge."""
    colors = tuple(range(num_colors))
    domains = {f"v{u}": colors for u in graph.nodes}
    constraints = []
    for u, v in graph.edges:
        allowed = tuple((a, b) for a in colors for b in colors if a != b)
        constraints.append(Constraint((f"v{u}", f"v{v}"), allowed))
    return CSP(domains, constraints)


def is_k_colorable(graph: nx.Graph, num_colors: int) -> bool:
    """Decide ``k``-colourability via the CSP → FAQ reduction."""
    if graph.number_of_edges() == 0:
        return True
    return graph_coloring_csp(graph, num_colors).is_satisfiable()


def count_proper_colorings(graph: nx.Graph, num_colors: int) -> int:
    """Count proper ``k``-colourings (the chromatic polynomial at ``k``)."""
    if graph.number_of_edges() == 0:
        return num_colors ** graph.number_of_nodes()
    return graph_coloring_csp(graph, num_colors).count_solutions()
