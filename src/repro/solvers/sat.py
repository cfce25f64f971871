"""SAT and #SAT: InsideOut over compactly represented factors (Section 8.3).

Clauses are kept in their natural compact representation
(:class:`~repro.factors.compact.Clause` — a box factor, Definition 8.2) and
variables are eliminated directly on clauses:

* **SAT** (Section 8.3.1): eliminating a variable is Davis–Putnam
  resolution — every positive/negative clause pair produces a resolvent,
  tautologies are dropped and subsumed clauses removed.  Along a *nested
  elimination order* of a β-acyclic formula every resolution is a
  subsumption resolution, so the clause set never grows and the algorithm
  runs in polynomial time (Theorem 8.3).
* **#SAT**: exact model counting.  The fully general weighted-clause
  elimination of Section 8.3.2 is replaced by an equivalent InsideOut run
  over the listing representation of each clause (a clause of width ``w``
  expands to ``2^w - 1`` satisfying tuples).  This substitution preserves
  the β-acyclic tractability *shape* for bounded clause width — which is
  what the Section 8 benchmark exercises — and is documented in DESIGN.md.

Brute-force evaluation is provided for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.query import FAQQuery, Variable
from repro.factors.compact import Clause
from repro.planner import STRATEGY_INSIDEOUT, execute
from repro.hypergraph.acyclicity import is_beta_acyclic, nested_elimination_order
from repro.hypergraph.hypergraph import Hypergraph
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import COUNTING


class CNFFormula:
    """A CNF formula: a set of clauses over named Boolean variables."""

    def __init__(self, clauses: Iterable[Clause]) -> None:
        self.clauses: List[Clause] = [c for c in clauses if not c.is_tautology]
        names: Set[str] = set()
        for clause in self.clauses:
            names |= clause.variables
        self.variables: Tuple[str, ...] = tuple(sorted(names))

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CNFFormula(vars={len(self.variables)}, clauses={len(self.clauses)})"

    def hypergraph(self) -> Hypergraph:
        """The formula hypergraph: one hyperedge per clause."""
        return Hypergraph(self.variables, [c.variables for c in self.clauses])

    def is_beta_acyclic(self) -> bool:
        """``True`` iff the clause hypergraph is β-acyclic."""
        return is_beta_acyclic(self.hypergraph())

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate the formula under a full assignment."""
        return all(clause.satisfied_by(assignment) for clause in self.clauses)

    # ------------------------------------------------------------------ #
    # brute force references
    # ------------------------------------------------------------------ #
    def count_models_brute_force(self) -> int:
        """Model counting by exhaustive enumeration (reference)."""
        count = 0
        for values in itertools.product((False, True), repeat=len(self.variables)):
            if self.evaluate(dict(zip(self.variables, values))):
                count += 1
        return count

    def is_satisfiable_brute_force(self) -> bool:
        """Satisfiability by exhaustive enumeration (reference)."""
        for values in itertools.product((False, True), repeat=len(self.variables)):
            if self.evaluate(dict(zip(self.variables, values))):
                return True
        return not self.clauses


@dataclass
class DavisPutnamStats:
    """Counters describing one Davis–Putnam elimination run."""

    max_clauses: int = 0
    total_resolvents: int = 0
    eliminations: int = 0


def _subsume(clauses: List[Clause]) -> List[Clause]:
    """Remove duplicate and subsumed clauses (keep minimal ones)."""
    unique: Dict[FrozenSet[Tuple[str, bool]], Clause] = {}
    for clause in clauses:
        key = frozenset((lit.variable, lit.positive) for lit in clause.literals.values())
        unique.setdefault(key, clause)
    keys = list(unique.keys())
    kept: List[Clause] = []
    for i, key in enumerate(keys):
        subsumed = any(other < key for j, other in enumerate(keys) if j != i)
        # ``other < key``: another clause's literal set is a strict subset, so
        # it implies this clause; also drop exact duplicates beyond the first.
        if not subsumed:
            kept.append(unique[key])
    return kept


def davis_putnam_sat(
    formula: CNFFormula, ordering: Sequence[str] | None = None
) -> Tuple[bool, DavisPutnamStats]:
    """Decide satisfiability by Davis–Putnam variable elimination.

    ``ordering`` is the vertex ordering (variables eliminated from the back);
    for β-acyclic formulas pass a nested elimination order to guarantee that
    the clause set never grows (Theorem 8.3).  Defaults to a NEO when one
    exists and to the sorted variable order otherwise.
    """
    stats = DavisPutnamStats()
    if not formula.clauses:
        return True, stats

    if ordering is None:
        ordering = nested_elimination_order(formula.hypergraph()) or list(formula.variables)
    order = list(ordering)

    clauses = _subsume(list(formula.clauses))
    stats.max_clauses = len(clauses)

    for variable in reversed(order):
        positive = [c for c in clauses if c.contains(variable) and c.literal_for(variable).positive]
        negative = [c for c in clauses if c.contains(variable) and not c.literal_for(variable).positive]
        rest = [c for c in clauses if not c.contains(variable)]
        resolvents: List[Clause] = []
        for clause_p in positive:
            for clause_n in negative:
                resolvent = clause_p.resolve(clause_n, variable)
                stats.total_resolvents += 1
                if resolvent.is_tautology:
                    continue
                if resolvent.is_empty:
                    stats.eliminations += 1
                    return False, stats
                resolvents.append(resolvent)
        clauses = _subsume(rest + resolvents)
        stats.eliminations += 1
        stats.max_clauses = max(stats.max_clauses, len(clauses))
        if any(c.is_empty for c in clauses):
            return False, stats

    return True, stats


# ---------------------------------------------------------------------- #
# #SAT via FAQ (listing representation of each clause)
# ---------------------------------------------------------------------- #
def sharp_sat_query(formula: CNFFormula) -> FAQQuery:
    """The #SAT instance as an FAQ-SS query over the counting semiring."""
    variables = [Variable(v, (False, True)) for v in formula.variables]
    aggregates = {v: SemiringAggregate.sum() for v in formula.variables}
    factors = [clause.to_factor(COUNTING) for clause in formula.clauses]
    return FAQQuery(variables, [], aggregates, factors, COUNTING, name="sharp-sat")


def count_models(
    formula: CNFFormula,
    ordering: Sequence[str] | str | None = None,
) -> int:
    """Exact model counting via the planner.

    For β-acyclic formulas the nested elimination order is pinned by
    default — together with the InsideOut strategy, since the Theorem 8.4
    argument (every intermediate factor stays nested inside an input clause
    scope, hence polynomial for bounded clause width) is stated for
    InsideOut's elimination — which makes the plan fully pinned and free of
    any scoring overhead.  Without a NEO the cost-based planner searches
    for an ordering; an explicit ``ordering`` is likewise pinned.
    """
    if not formula.clauses:
        return 2 ** len(formula.variables)
    query = sharp_sat_query(formula)
    if ordering is None:
        neo = nested_elimination_order(formula.hypergraph())
        ordering = list(neo) if neo is not None else "plan"
    if isinstance(ordering, str):
        result = execute(query, ordering=ordering)
    else:
        result = execute(
            query, ordering=ordering, strategy=STRATEGY_INSIDEOUT, backend="sparse",
        )
    return int(result.scalar_or_zero(COUNTING))


def is_satisfiable(formula: CNFFormula, ordering: Sequence[str] | None = None) -> bool:
    """Satisfiability via Davis–Putnam elimination (InsideOut on box factors)."""
    satisfiable, _ = davis_putnam_sat(formula, ordering)
    return satisfiable
