"""The :class:`FAQQuery` class — the Functional Aggregate Query of Section 1.2.

An FAQ query is

``phi(x_F) = ⊕^(f+1)_{x_{f+1}} ... ⊕^(n)_{x_n} ⊗_{S ∈ E} psi_S(x_S)``

where the first ``f`` variables are *free* and every bound variable carries
an aggregate that is either the product ``⊗`` or forms a commutative
semiring with it.  This module also provides a brute-force reference
evaluator used throughout the test-suite to validate InsideOut.
"""

from __future__ import annotations

import copy
import itertools
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.factors.factor import Factor
from repro.hypergraph.hypergraph import Hypergraph
from repro.semiring.aggregates import Aggregate, FREE_TAG
from repro.semiring.base import Semiring


class QueryError(ValueError):
    """Raised on malformed FAQ queries."""


@dataclass(frozen=True)
class Variable:
    """A query variable: a name plus its finite, totally ordered domain."""

    name: str
    domain: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.domain) == 0:
            raise QueryError(f"variable {self.name} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise QueryError(f"variable {self.name} has duplicate domain values")

    @property
    def size(self) -> int:
        """``|Dom(X)|``."""
        return len(self.domain)

    def content_bytes(self) -> bytes:
        """``canonical_bytes((name, domain))``, encoded once per variable.

        Step digests splice these bytes in for every variable a step
        induces (:func:`repro.exec.dag.annotate_digests`).  The memo is not
        a field: equality, hashing and pickling see only the name and the
        domain.  Raises ``TypeError`` for a domain without a canonical
        encoding.
        """
        encoded = self.__dict__.get("_content_bytes")
        if encoded is None:
            from repro.planner.signature import canonical_bytes

            encoded = canonical_bytes((self.name, tuple(self.domain)))
            object.__setattr__(self, "_content_bytes", encoded)
        return encoded

    def __getstate__(self) -> Dict[str, Any]:
        return {"name": self.name, "domain": self.domain}


class FAQQuery:
    """A Functional Aggregate Query.

    Parameters
    ----------
    variables:
        The query variables *in the order they are written in the query
        expression*: the free variables first, then the bound variables from
        the outermost aggregate to the innermost.
    free:
        Names of the free variables (must be a prefix of ``variables``).
    aggregates:
        Mapping from each bound variable name to its
        :class:`~repro.semiring.aggregates.Aggregate`.
    factors:
        The input factors ``psi_S`` (listing or dense representation).  The
        query takes a copy of each with explicit zero entries pruned, so
        the caller's later edits cannot reach it — except a factor that is
        *frozen* (content-digested, hence immutable) and lists no zero of
        ``semiring``: that one is held by reference
        (:meth:`Factor.is_pruned <repro.factors.factor.Factor.is_pruned>`),
        so its digest memo and everything indexed under it are shared by
        every query it is part of.
    semiring:
        Provides the product ``⊗`` with identities ``0`` / ``1`` shared by
        all aggregates.  (The ``add`` of this semiring is *not* used unless a
        bound variable's aggregate happens to be that operator.)
    name:
        Optional human-readable query name.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        free: Sequence[str],
        aggregates: Mapping[str, Aggregate],
        factors: Sequence[Factor],
        semiring: Semiring,
        name: str = "phi",
    ) -> None:
        self.name = name
        self.semiring = semiring
        self.variables: Dict[str, Variable] = {}
        self.order: Tuple[str, ...] = tuple(v.name for v in variables)
        for variable in variables:
            if variable.name in self.variables:
                raise QueryError(f"duplicate variable {variable.name}")
            self.variables[variable.name] = variable

        self.free: Tuple[str, ...] = tuple(free)
        if tuple(self.order[: len(self.free)]) != self.free:
            raise QueryError(
                "free variables must be a prefix of the variable order "
                f"(order={self.order}, free={self.free})"
            )

        bound = self.order[len(self.free):]
        self.aggregates: Dict[str, Aggregate] = {}
        for var_name in bound:
            if var_name not in aggregates:
                raise QueryError(f"bound variable {var_name} has no aggregate")
            self.aggregates[var_name] = aggregates[var_name]
        extra = set(aggregates) - set(bound)
        if extra:
            raise QueryError(f"aggregates given for non-bound variables {sorted(extra)}")

        self.factors: List[Factor] = []
        for factor in factors:
            unknown = [v for v in factor.scope if v not in self.variables]
            if unknown:
                raise QueryError(
                    f"factor {factor.name} mentions unknown variables {unknown}"
                )
            self.factors.append(
                factor if factor.is_pruned(semiring) else factor.pruned(semiring)
            )
        self._hypergraph: "weakref.ref[Hypergraph] | None" = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return len(self.order)

    @property
    def num_free(self) -> int:
        return len(self.free)

    @property
    def bound(self) -> Tuple[str, ...]:
        """The bound variables, outermost aggregate first."""
        return self.order[len(self.free):]

    @property
    def product_variables(self) -> Tuple[str, ...]:
        """Bound variables whose aggregate is the product ``⊗``."""
        return tuple(v for v in self.bound if self.aggregates[v].is_product)

    @property
    def semiring_variables(self) -> Tuple[str, ...]:
        """Bound variables with a genuine semiring aggregate."""
        return tuple(v for v in self.bound if self.aggregates[v].is_semiring)

    @property
    def k_set(self) -> frozenset:
        """The set ``K`` of equation (13): free plus semiring variables."""
        return frozenset(self.free) | frozenset(self.semiring_variables)

    def domain(self, variable: str) -> Tuple[Any, ...]:
        """The domain of a variable."""
        return self.variables[variable].domain

    def domain_size(self, variable: str) -> int:
        """``|Dom(X)|`` for a variable."""
        return self.variables[variable].size

    def domains(self) -> Dict[str, Tuple[Any, ...]]:
        """All domains keyed by variable name."""
        return {name: var.domain for name, var in self.variables.items()}

    def tag(self, variable: str) -> str:
        """The expression-tree tag of a variable (``free`` or aggregate tag)."""
        if variable in self.free:
            return FREE_TAG
        return self.aggregates[variable].tag

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph ``H`` (vertices = variables, edges = scopes).

        The hypergraph is built lazily and memoised weakly (queries are
        treated as immutable after construction): everything planning the
        query at once shares one instance — and with it the planner's
        per-hypergraph LP memos and vertex numbering — and a query that
        nobody is planning does not keep its edge sets alive.
        """
        hypergraph = self._hypergraph() if self._hypergraph is not None else None
        if hypergraph is None:
            hypergraph = Hypergraph(self.order, [f.scope for f in self.factors])
            self._hypergraph = weakref.ref(hypergraph)
        return hypergraph

    def factor_sizes(self) -> Dict[frozenset, int]:
        """Map each distinct hyperedge to the largest factor size on it."""
        sizes: Dict[frozenset, int] = {}
        for edge, factor in zip(self.hypergraph().edges, self.factors):
            sizes[edge] = max(sizes.get(edge, 0), len(factor))
        return sizes

    def __getstate__(self) -> Dict[str, Any]:
        # The hypergraph memo is a weak reference: it does not pickle, and a
        # copy rebuilds the hypergraph when it needs one.
        return {**self.__dict__, "_hypergraph": None}

    @property
    def input_size(self) -> int:
        """``N``: the size of the largest input factor."""
        return max((len(f) for f in self.factors), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        aggs = ",".join(f"{v}:{self.tag(v)}" for v in self.bound)
        return (
            f"FAQQuery({self.name}, n={self.num_variables}, free={list(self.free)}, "
            f"aggregates=[{aggs}], m={len(self.factors)})"
        )

    # ------------------------------------------------------------------ #
    # derived queries
    # ------------------------------------------------------------------ #
    def checked_ordering(self, ordering: Sequence[str]) -> List[str]:
        """``ordering`` as a list, or :class:`QueryError` unless it is an
        explicit permutation of the variables that lists the free ones first.

        The one syntactic check every engine and the planner apply to a
        caller-supplied ordering; no semantic check is performed here — use
        :func:`repro.core.evo.is_equivalent_ordering` for that.
        """
        order = list(ordering)
        if set(order) != set(self.order) or len(order) != len(self.order):
            raise QueryError("ordering must be a permutation of the query variables")
        if set(order[: self.num_free]) != set(self.free):
            raise QueryError("ordering must list the free variables first")
        return order

    def with_factor(self, index: int, factor: Factor) -> "FAQQuery":
        """The query with factor ``index`` replaced by ``factor``, over its scope.

        Nothing else is rebuilt or checked again: the variables, the
        aggregates and the other (already pruned) factors are shared.
        """
        if tuple(factor.scope) != tuple(self.factors[index].scope):
            raise QueryError(
                f"factor {factor.name} has scope {factor.scope}, not "
                f"{self.factors[index].scope}"
            )
        query = copy.copy(self)
        query.factors = list(self.factors)
        query.factors[index] = (
            factor if factor.is_pruned(self.semiring) else factor.pruned(self.semiring)
        )
        return query

    def with_ordering(self, ordering: Sequence[str]) -> "FAQQuery":
        """Re-write the query along a new variable ordering.

        The ordering must pass :meth:`checked_ordering`.  Aggregates travel
        with their variables.
        """
        order = self.checked_ordering(ordering)
        variables = [self.variables[v] for v in order]
        return FAQQuery(
            variables=variables,
            free=tuple(order[: self.num_free]),
            aggregates=self.aggregates,
            factors=self.factors,
            semiring=self.semiring,
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # brute-force reference evaluation
    # ------------------------------------------------------------------ #
    def _evaluate_bound(self, assignment: Dict[str, Any], index: int) -> Any:
        """Recursively evaluate the aggregates from ``order[index]`` onwards."""
        semiring = self.semiring
        if index == self.num_variables:
            return semiring.product(f.value(assignment, semiring) for f in self.factors)
        variable = self.order[index]
        aggregate = self.aggregates[variable]
        domain = self.domain(variable)
        values = []
        for value in domain:
            assignment[variable] = value
            values.append(self._evaluate_bound(assignment, index + 1))
        del assignment[variable]
        if aggregate.is_product:
            return semiring.product(values)
        result = values[0]
        for value in values[1:]:
            result = aggregate.combine(result, value)
        return result

    def evaluate_brute_force(self) -> Factor:
        """Evaluate the query by exhaustive recursion (reference semantics).

        Returns a factor over the free variables (an empty-scope factor whose
        single entry is the scalar answer when there are no free variables).
        Exponential in the number of variables — for tests and tiny inputs.
        """
        semiring = self.semiring
        table: Dict[Tuple[Any, ...], Any] = {}
        free_domains = [self.domain(v) for v in self.free]
        for free_values in itertools.product(*free_domains) if self.free else [()]:
            assignment = dict(zip(self.free, free_values))
            value = self._evaluate_bound(assignment, self.num_free)
            if not semiring.is_zero(value):
                table[tuple(free_values)] = value
        return Factor._adopt(self.free, table, f"{self.name}(brute)")

    def evaluate_scalar_brute_force(self) -> Any:
        """Brute-force evaluation of a query with no free variables."""
        if self.free:
            raise QueryError("evaluate_scalar_brute_force requires a query with no free variables")
        result = self.evaluate_brute_force()
        return result.table.get((), self.semiring.zero)
