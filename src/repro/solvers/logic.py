"""Conjunctive queries with quantifiers: BCQ, CQ, #CQ, QCQ and #QCQ.

These are the problems of Table 1 rows 1-3 and of Examples 1.3, A.3, A.5
and A.20.  A quantified conjunctive query

``Φ(X_1..X_f) = Q_{f+1} X_{f+1} ... Q_n X_n  ⋀_R R(vars(R))``

is reduced to FAQ by encoding every atom as a 0/1 factor and mapping ``∃`` to
a ``max`` aggregate and ``∀`` to the product aggregate; counting versions
wrap the free variables in an outer ``Σ`` block.  Because every factor is
0/1-valued the product aggregates are idempotent, so the whole Section 6.2
machinery (expression trees with extended components) applies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.query import FAQQuery, QueryError, Variable
from repro.db.relation import Relation
from repro.planner import execute
from repro.hypergraph.elimination import elimination_sequence
from repro.hypergraph.hypergraph import Hypergraph
from repro.semiring.aggregates import Aggregate, ProductAggregate, SemiringAggregate
from repro.semiring.standard import COUNTING

EXISTS = "exists"
FORALL = "forall"


@dataclass
class Atom:
    """One atom ``R(X_{i_1}, ..., X_{i_k})`` of a conjunctive query."""

    relation: Relation
    variables: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.variables) != len(self.relation.schema):
            raise QueryError(
                f"atom arity {len(self.variables)} does not match relation "
                f"{self.relation.name} of arity {len(self.relation.schema)}"
            )


@dataclass
class QuantifiedConjunctiveQuery:
    """A quantified conjunctive query (QCQ).

    Attributes
    ----------
    free:
        The free variables ``X_1..X_f``.
    quantifiers:
        The quantifier prefix over the remaining variables, outermost first,
        as ``(variable, EXISTS | FORALL)`` pairs.
    atoms:
        The conjunctive body.
    domains:
        Optional explicit domains; defaults to the active domain of each
        variable (the values it takes in the relations it appears in).
    """

    free: Tuple[str, ...]
    quantifiers: Tuple[Tuple[str, str], ...]
    atoms: Tuple[Atom, ...]
    domains: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        for _, quantifier in self.quantifiers:
            if quantifier not in (EXISTS, FORALL):
                raise QueryError(f"unknown quantifier {quantifier!r}")
        names = list(self.free) + [v for v, _ in self.quantifiers]
        if len(set(names)) != len(names):
            raise QueryError("free and quantified variables must be distinct")
        self._fill_domains()

    def _fill_domains(self) -> None:
        for atom in self.atoms:
            for variable, attribute in zip(atom.variables, atom.relation.schema):
                index = atom.relation.schema.index(attribute)
                values = {row[index] for row in atom.relation.tuples}
                if variable in self.domains:
                    self.domains[variable] = tuple(
                        sorted(set(self.domains[variable]) | values, key=repr)
                    )
                else:
                    self.domains[variable] = tuple(sorted(values, key=repr))
        for variable in list(self.free) + [v for v, _ in self.quantifiers]:
            self.domains.setdefault(variable, ())
            if not self.domains[variable]:
                raise QueryError(
                    f"variable {variable} has an empty domain (appears in no atom "
                    "and no explicit domain was given)"
                )

    @property
    def all_variables(self) -> Tuple[str, ...]:
        return tuple(self.free) + tuple(v for v, _ in self.quantifiers)

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph (one hyperedge per atom)."""
        return Hypergraph(self.all_variables, [frozenset(a.variables) for a in self.atoms])

    # ------------------------------------------------------------------ #
    # factor encoding (atoms as 0/1 factors on the counting semiring)
    # ------------------------------------------------------------------ #
    def _atom_factors(self):
        factors = []
        for atom in self.atoms:
            if len(set(atom.variables)) == len(atom.variables):
                renamed = atom.relation.rename(
                    dict(zip(atom.relation.schema, atom.variables))
                )
                factors.append(renamed.to_factor(COUNTING))
                continue
            # Collapse repeated variables within an atom (e.g. R(x, x)): keep
            # only the rows where the repeated positions agree and project
            # down to one column per distinct variable.
            keep: List[str] = []
            for variable in atom.variables:
                if variable not in keep:
                    keep.append(variable)
            rows = []
            for row in atom.relation.tuples:
                seen: Dict[str, Any] = {}
                consistent = True
                for variable, value in zip(atom.variables, row):
                    if variable in seen and seen[variable] != value:
                        consistent = False
                        break
                    seen[variable] = value
                if consistent:
                    rows.append(tuple(seen[v] for v in keep))
            collapsed = Relation(atom.relation.name + "#collapsed", tuple(keep), rows)
            factors.append(collapsed.to_factor(COUNTING))
        return factors

    # ------------------------------------------------------------------ #
    # FAQ reductions
    # ------------------------------------------------------------------ #
    def decision_query(self) -> FAQQuery:
        """The QCQ as an FAQ query (Example A.20): output 0/1 per free tuple."""
        variables = [Variable(v, self.domains[v]) for v in self.all_variables]
        aggregates: Dict[str, Aggregate] = {}
        for variable, quantifier in self.quantifiers:
            if quantifier == EXISTS:
                aggregates[variable] = SemiringAggregate.max()
            else:
                aggregates[variable] = ProductAggregate.product()
        return FAQQuery(
            variables=variables,
            free=list(self.free),
            aggregates=aggregates,
            factors=self._atom_factors(),
            semiring=COUNTING,
            name="qcq",
        )

    def counting_query(self) -> FAQQuery:
        """The #QCQ FAQ query (Example 1.3): count satisfying free tuples."""
        variables = [Variable(v, self.domains[v]) for v in self.all_variables]
        aggregates: Dict[str, Aggregate] = {v: SemiringAggregate.sum() for v in self.free}
        for variable, quantifier in self.quantifiers:
            if quantifier == EXISTS:
                aggregates[variable] = SemiringAggregate.max()
            else:
                aggregates[variable] = ProductAggregate.product()
        return FAQQuery(
            variables=variables,
            free=[],
            aggregates=aggregates,
            factors=self._atom_factors(),
            semiring=COUNTING,
            name="sharp-qcq",
        )

    # ------------------------------------------------------------------ #
    # solvers
    # ------------------------------------------------------------------ #
    def solve(
        self, ordering: Sequence[str] | str | None = "plan"
    ) -> Relation:
        """Evaluate the QCQ via the planner; returns the satisfying free tuples."""
        result = execute(self.decision_query(), ordering=ordering)
        rows = [key for key, value in result.factor.table.items() if value]
        return Relation("qcq-answers", self.free, rows)

    def count(
        self, ordering: Sequence[str] | str | None = "plan"
    ) -> int:
        """Evaluate the #QCQ via the planner; returns the number of answers."""
        result = execute(self.counting_query(), ordering=ordering)
        return int(result.scalar_or_zero(COUNTING))

    # ------------------------------------------------------------------ #
    # reference semantics (brute force, used by the tests)
    # ------------------------------------------------------------------ #
    def _holds(self, assignment: Dict[str, Any], index: int) -> bool:
        if index == len(self.quantifiers):
            for atom in self.atoms:
                row = tuple(assignment[v] for v in atom.variables)
                if row not in atom.relation.tuples:
                    return False
            return True
        variable, quantifier = self.quantifiers[index]
        results = []
        for value in self.domains[variable]:
            assignment[variable] = value
            results.append(self._holds(assignment, index + 1))
        del assignment[variable]
        return any(results) if quantifier == EXISTS else all(results)

    def solve_brute_force(self) -> Relation:
        """Reference evaluation by direct quantifier semantics."""
        rows = []
        for values in itertools.product(*(self.domains[v] for v in self.free)) if self.free else [()]:
            assignment = dict(zip(self.free, values))
            if self._holds(assignment, 0):
                rows.append(values)
        return Relation("qcq-answers", self.free, rows)

    def count_brute_force(self) -> int:
        """Reference count by direct quantifier semantics."""
        return len(self.solve_brute_force())

    # ------------------------------------------------------------------ #
    # the Chen–Dalmau style prefix width (QCQ baseline of Table 1)
    # ------------------------------------------------------------------ #
    def prefix_width(self) -> int:
        """The width of the quantifier-prefix graph (baseline comparator).

        Only orderings that respect the quantifier blocks as written are
        allowed (free variables, then each maximal block of identical
        quantifiers, each block permutable internally); the width is the
        minimum over such orderings of ``max_k |U_k|``.  The paper's
        ``faqw`` is never larger and can be unboundedly smaller
        (Section 7.2.1).
        """
        hypergraph = self.hypergraph()
        blocks: List[List[str]] = [list(self.free)] if self.free else []
        for variable, quantifier in self.quantifiers:
            if blocks and blocks[-1] and self._block_tag(blocks[-1][-1]) == quantifier:
                blocks[-1].append(variable)
            else:
                blocks.append([variable])
        best = None
        for ordering in self._block_respecting_orderings(blocks):
            steps = elimination_sequence(hypergraph, ordering)
            width = max(len(step.union) for step in steps)
            if best is None or width < best:
                best = width
        return best if best is not None else 0

    def _block_tag(self, variable: str) -> str:
        for v, quantifier in self.quantifiers:
            if v == variable:
                return quantifier
        return "free"

    def _block_respecting_orderings(self, blocks: List[List[str]]):
        pools = [list(itertools.permutations(block)) for block in blocks]
        for choice in itertools.product(*pools):
            ordering: List[str] = []
            for block in choice:
                ordering.extend(block)
            yield ordering


# ---------------------------------------------------------------------- #
# convenience constructors for the simpler fragments
# ---------------------------------------------------------------------- #
def boolean_cq(atoms: Sequence[Atom]) -> QuantifiedConjunctiveQuery:
    """A Boolean conjunctive query: every variable existentially quantified."""
    variables: List[str] = []
    for atom in atoms:
        for variable in atom.variables:
            if variable not in variables:
                variables.append(variable)
    return QuantifiedConjunctiveQuery(
        free=(), quantifiers=tuple((v, EXISTS) for v in variables), atoms=tuple(atoms)
    )


def conjunctive_query(atoms: Sequence[Atom], free: Sequence[str]) -> QuantifiedConjunctiveQuery:
    """A CQ with the given free variables; the rest are existential."""
    free = tuple(free)
    variables: List[str] = []
    for atom in atoms:
        for variable in atom.variables:
            if variable not in variables and variable not in free:
                variables.append(variable)
    return QuantifiedConjunctiveQuery(
        free=free, quantifiers=tuple((v, EXISTS) for v in variables), atoms=tuple(atoms)
    )


def count_conjunctive_query_answers(
    atoms: Sequence[Atom], free: Sequence[str], ordering: Sequence[str] | str | None = "plan"
) -> int:
    """#CQ (Table 1 row 3): the number of distinct free tuples with a match."""
    return conjunctive_query(atoms, free).count(ordering=ordering)
