"""The :class:`Relation` class — a named set of tuples over a schema."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Sequence, Set, Tuple

from repro.factors.factor import Factor
from repro.semiring.base import Semiring


class RelationError(ValueError):
    """Raised on schema mismatches and malformed relational operations."""


class Relation:
    """A relation: an attribute schema plus a set of tuples.

    Tuples are plain python tuples aligned with the schema.  Relations are
    immutable after construction (operations return new relations), which
    keeps the join algorithms free of aliasing surprises.
    """

    __slots__ = ("name", "schema", "tuples")

    def __init__(self, name: str, schema: Sequence[str], tuples: Iterable[Tuple[Any, ...]]) -> None:
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise RelationError(f"duplicate attributes in schema {self.schema}")
        arity = len(self.schema)
        data: Set[Tuple[Any, ...]] = set()
        for row in tuples:
            row = tuple(row)
            if len(row) != arity:
                raise RelationError(
                    f"tuple {row!r} has arity {len(row)}, schema {self.schema} expects {arity}"
                )
            data.add(row)
        self.tuples: FrozenSet[Tuple[Any, ...]] = frozenset(data)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.tuples)

    def __contains__(self, row: Tuple[Any, ...]) -> bool:
        return tuple(row) in self.tuples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name}, schema={self.schema}, size={len(self)})"

    @property
    def attributes(self) -> FrozenSet[str]:
        """The schema as a set."""
        return frozenset(self.schema)

    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Projection ``π_A(R)`` (duplicates eliminated, set semantics)."""
        missing = [a for a in attributes if a not in self.schema]
        if missing:
            raise RelationError(f"projection attributes {missing} not in schema {self.schema}")
        indices = [self.schema.index(a) for a in attributes]
        rows = {tuple(row[i] for i in indices) for row in self.tuples}
        return Relation(name or f"pi({self.name})", tuple(attributes), rows)

    def select(self, predicate, name: str | None = None) -> "Relation":
        """Selection ``σ_p(R)`` where ``predicate`` receives a row dict."""
        rows = [row for row in self.tuples if predicate(dict(zip(self.schema, row)))]
        return Relation(name or f"sigma({self.name})", self.schema, rows)

    def rename(self, mapping: Dict[str, str], name: str | None = None) -> "Relation":
        """Rename attributes according to ``mapping``."""
        schema = tuple(mapping.get(a, a) for a in self.schema)
        return Relation(name or self.name, schema, self.tuples)

    # ------------------------------------------------------------------ #
    def to_factor(self, semiring: Semiring, name: str | None = None) -> Factor:
        """Encode the relation as a ``0/1`` factor (Appendix A reductions)."""
        table = {row: semiring.one for row in self.tuples}
        return Factor(self.schema, table, name=name or self.name)

    @classmethod
    def from_factor(cls, factor: Factor, name: str | None = None) -> "Relation":
        """The support of a factor as a relation (values are dropped)."""
        return cls(name or factor.name, factor.scope, factor.table.keys())
