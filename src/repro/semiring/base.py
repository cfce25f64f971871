"""The :class:`Semiring` value type.

A commutative semiring ``(D, ⊕, ⊗)`` consists of a domain ``D`` and two
commutative binary operators such that

1. ``(D, ⊕)`` is a commutative monoid with additive identity ``0``,
2. ``(D, ⊗)`` is a commutative monoid with multiplicative identity ``1``,
3. ``⊗`` distributes over ``⊕``,
4. ``0`` annihilates: ``e ⊗ 0 = 0 ⊗ e = 0`` for every ``e ∈ D``.

The FAQ paper (Section 1.2) requires all semiring aggregates of a query to
share the same ``⊗``, ``0`` and ``1``; only ``⊕`` may differ per variable.
Instances of this class are cheap, immutable descriptions of such algebraic
structures; they are used both by the core engine and by the test-suite's
axiom checks.

What "zero" means, per carrier
------------------------------
Every kernel drops a value that *is* the additive identity, so the test
for it is part of a semiring's contract (``eq is None``; a custom ``eq``
decides everything itself):

* ``int``, ``bool``, :class:`fractions.Fraction`, ``frozenset`` and any
  other exact carrier: ``a == zero``, nothing else;
* an infinite identity (``±inf``: min-plus, max-sum, min-product):
  ``a == zero`` — no finite value and no ``nan`` is ever "close to" an
  infinity;
* a float zero ``0.0``: ``abs(a) <= 1e-9``, an *absolute* tolerance
  (:data:`TOLERANCE`), for every numeric ``a`` — a float or complex
  rounding residue is a zero, ``1e-8`` is not;
* an ``int`` or ``bool`` zero meeting a ``float`` / ``complex`` value (a
  counting query fed floats): the same absolute tolerance, for that
  value only.

:meth:`Semiring.values_equal` is the general (relative, ``1e-9 *
max(1, |a|, |b|)``) comparison; against a zero it reduces to the list
above, and :meth:`Semiring.zero_test` hands a loop the reduced form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


class SemiringError(ValueError):
    """Raised when a semiring is used inconsistently (e.g. axiom violation)."""


_INF = float("inf")

TOLERANCE = 1e-9
"""The one float tolerance: relative in :meth:`Semiring.values_equal`,
which makes it absolute against a ``0.0`` (see the module docstring)."""


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(D, ⊕, ⊗)`` with identities ``0`` and ``1``.

    Parameters
    ----------
    name:
        Human-readable name, used in reprs and error messages.
    add:
        The ``⊕`` operator (binary, commutative, associative).
    mul:
        The ``⊗`` operator (binary, commutative, associative, distributes
        over ``⊕``).
    zero:
        The additive identity, which must annihilate under ``⊗``.
    one:
        The multiplicative identity.
    eq:
        Optional equality predicate for domain values.  Defaults to ``==``
        (with a small absolute tolerance for floats, see :meth:`values_equal`).
    """

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    eq: Callable[[Any, Any], bool] | None = field(default=None, compare=False)

    # ------------------------------------------------------------------ #
    # basic operations
    # ------------------------------------------------------------------ #
    def values_equal(self, a: Any, b: Any) -> bool:
        """Return ``True`` if ``a`` and ``b`` are equal as domain values."""
        if self.eq is not None:
            return self.eq(a, b)
        if a == b:
            return True
        if isinstance(a, float) or isinstance(b, float) or isinstance(a, complex) or isinstance(b, complex):
            try:
                difference = abs(a - b)
                if difference == _INF:
                    # One side is infinite (tropical 0 = ±inf) and the other is
                    # not: a relative tolerance of 1e-9 * inf would declare
                    # *every* value equal to the infinite identity.
                    return False
                return difference <= TOLERANCE * max(1.0, abs(a), abs(b))
            except (OverflowError, ValueError):  # pragma: no cover - inf/nan corner
                return False
        return False

    def is_zero(self, a: Any) -> bool:
        """Return ``True`` if ``a`` equals the additive identity."""
        return self.values_equal(a, self.zero)

    def zero_test(self) -> Callable[[Any], bool]:
        """The cheapest predicate with :meth:`is_zero`'s truth table.

        For a loop that tests many values: bind the result once, outside
        the loop.  Which form applies is decided here, from the zero's
        type, instead of once per value inside :meth:`values_equal` (see
        the module docstring for the forms).  A custom ``eq`` and any zero
        that is not a plain ``int`` 0, a float ``0.0`` or a float infinity
        get :meth:`is_zero` itself.  Built per call and never stored: a
        semiring stays a picklable value.
        """
        zero = self.zero
        if self.eq is None:
            kind = type(zero)
            if kind is int and zero == 0:
                return lambda a: a == 0 or (
                    isinstance(a, (float, complex)) and abs(a) <= TOLERANCE
                )
            if kind is float and zero == 0.0:
                return lambda a: abs(a) <= TOLERANCE
            if kind is float and math.isinf(zero):
                return lambda a: a == zero
        return self.is_zero

    def is_one(self, a: Any) -> bool:
        """Return ``True`` if ``a`` equals the multiplicative identity."""
        return self.values_equal(a, self.one)

    def sum(self, values: Iterable[Any]) -> Any:
        """Fold ``⊕`` over ``values`` starting from ``0``."""
        acc = self.zero
        for value in values:
            acc = self.add(acc, value)
        return acc

    def product(self, values: Iterable[Any]) -> Any:
        """Fold ``⊗`` over ``values`` starting from ``1``."""
        acc = self.one
        for value in values:
            acc = self.mul(acc, value)
        return acc

    def power(self, value: Any, exponent: int) -> Any:
        """Raise ``value`` to an integer power under ``⊗`` by repeated squaring.

        This implements the ``|Dom(X_k)|``-th power needed when InsideOut
        passes a non-idempotent factor through a product aggregate
        (Section 5.2.2, Case 2 of the paper).
        """
        if exponent < 0:
            raise SemiringError(f"negative exponent {exponent} in semiring power")
        result = self.one
        base = value
        e = exponent
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_mul_idempotent(self, value: Any) -> bool:
        """Return ``True`` if ``value ⊗ value == value``.

        Idempotent elements (``0`` and ``1`` always are) let InsideOut skip
        powering factors when eliminating a product aggregate
        (Definition 5.2 of the paper).
        """
        return self.values_equal(self.mul(value, value), value)

    # ------------------------------------------------------------------ #
    # axiom verification (used by the test-suite and by sanity checks)
    # ------------------------------------------------------------------ #
    def check_axioms(self, sample: Sequence[Any]) -> None:
        """Verify the semiring axioms over a finite ``sample`` of the domain.

        Raises :class:`SemiringError` with a descriptive message on the first
        violated axiom.  The check is exhaustive over ``sample`` (cubic in its
        size), so keep samples small.
        """
        values = list(sample)
        for a in values:
            if not self.values_equal(self.add(a, self.zero), a):
                raise SemiringError(f"{self.name}: {a!r} ⊕ 0 != {a!r}")
            if not self.values_equal(self.mul(a, self.one), a):
                raise SemiringError(f"{self.name}: {a!r} ⊗ 1 != {a!r}")
            if not self.values_equal(self.mul(a, self.zero), self.zero):
                raise SemiringError(f"{self.name}: {a!r} ⊗ 0 != 0")
        for a in values:
            for b in values:
                if not self.values_equal(self.add(a, b), self.add(b, a)):
                    raise SemiringError(f"{self.name}: ⊕ not commutative on ({a!r}, {b!r})")
                if not self.values_equal(self.mul(a, b), self.mul(b, a)):
                    raise SemiringError(f"{self.name}: ⊗ not commutative on ({a!r}, {b!r})")
        for a in values:
            for b in values:
                for c in values:
                    if not self.values_equal(
                        self.add(self.add(a, b), c), self.add(a, self.add(b, c))
                    ):
                        raise SemiringError(f"{self.name}: ⊕ not associative")
                    if not self.values_equal(
                        self.mul(self.mul(a, b), c), self.mul(a, self.mul(b, c))
                    ):
                        raise SemiringError(f"{self.name}: ⊗ not associative")
                    if not self.values_equal(
                        self.mul(a, self.add(b, c)),
                        self.add(self.mul(a, b), self.mul(a, c)),
                    ):
                        raise SemiringError(
                            f"{self.name}: ⊗ does not distribute over ⊕ on ({a!r},{b!r},{c!r})"
                        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Semiring({self.name})"
