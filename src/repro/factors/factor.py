"""The :class:`Factor` class — sparse factors in the listing representation.

A factor ``ψ_S`` over scope ``S = (v_1, ..., v_s)`` is stored as a mapping
from value tuples ``(x_{v_1}, ..., x_{v_s})`` to non-zero semiring values.
Tuples absent from the table are implicitly ``0`` (the semiring's additive
identity, which annihilates under ``⊗``).

All operations that need to interpret values (detect zeros, multiply,
aggregate) take the :class:`~repro.semiring.base.Semiring` as an explicit
argument: a factor is just data, the algebra lives in the query.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, not_
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.semiring.base import Semiring

Assignment = Mapping[str, Any]
ValueTuple = Tuple[Any, ...]


class FactorError(ValueError):
    """Raised on inconsistent factor construction or use."""


def _frozen_table_write(self, *args, **kwargs):
    raise FactorError(
        "factor table is frozen: the factor has been content-digested and "
        "digest-keyed caches may hold results derived from it.  Build an "
        "updated factor with Factor.apply_delta (or construct a new Factor) "
        "instead of mutating the table in place."
    )


class _FrozenTable(dict):
    """A read-only factor table.

    Reads stay plain C-speed ``dict`` operations; every mutating method
    raises :class:`FactorError`.  Installed by :meth:`Factor.freeze` once a
    factor has been content-digested — an in-place table change after that
    point would silently invalidate every digest-keyed cache entry derived
    from the factor (step results, shared tries, completed serve results).

    Because the content can no longer change, what has been established
    about it stays true: ``zero_free`` is the semiring under which the
    table is known to list no zero (unset until
    :meth:`Factor.is_pruned` or :meth:`Factor.apply_delta` sets it).  It
    lives on the table, not the factor, so it cannot outlive the freeze:
    a copy or an unpickled factor starts with a plain ``dict`` and without
    it.
    """

    __slots__ = ("zero_free",)

    __setitem__ = _frozen_table_write
    __delitem__ = _frozen_table_write
    __ior__ = _frozen_table_write
    pop = _frozen_table_write
    popitem = _frozen_table_write
    clear = _frozen_table_write
    update = _frozen_table_write
    setdefault = _frozen_table_write

    def __reduce__(self):
        # Pickle as a plain dict: a factor crossing a process boundary keeps
        # its digest memo, and the first factor_digest call in the receiving
        # process freezes it again.
        return (dict, (dict(self),))


class Factor:
    """A sparse factor over a tuple of named variables.

    Parameters
    ----------
    scope:
        Ordered tuple of variable names the factor depends on.  Variable
        names must be unique within the scope.
    table:
        Mapping from value tuples (aligned with ``scope``) to semiring
        values.  Entries equal to the semiring zero may be present; use
        :meth:`pruned` to drop them.
    name:
        Optional human-readable name (defaults to ``psi_{scope}``).
    """

    __slots__ = ("scope", "table", "name", "_variables", "_digest", "_buckets")

    def __init__(
        self,
        scope: Sequence[str],
        table: Mapping[ValueTuple, Any] | Iterable[Tuple[ValueTuple, Any]],
        name: str | None = None,
    ) -> None:
        self.scope: Tuple[str, ...] = tuple(scope)
        if len(set(self.scope)) != len(self.scope):
            raise FactorError(f"duplicate variables in scope {self.scope}")
        if isinstance(table, Mapping):
            items: Iterable[Tuple[ValueTuple, Any]] = table.items()
        else:
            items = table
        self.table: Dict[ValueTuple, Any] = {}
        arity = len(self.scope)
        for key, value in items:
            key = tuple(key)
            if len(key) != arity:
                raise FactorError(
                    f"tuple {key!r} has arity {len(key)}, scope {self.scope} has arity {arity}"
                )
            self.table[key] = value
        self.name = name if name is not None else "psi_{" + ",".join(map(str, self.scope)) + "}"
        self._variables: frozenset | None = None
        self._digest: str | None = None  # content-digest memo; factors are immutable
        # bucket state of the digest (repro.planner.signature.BucketTable),
        # or what apply_delta handed over to derive it (BucketDelta)
        self._buckets = None

    @classmethod
    def _adopt(cls, scope: Tuple[str, ...], table: Dict[ValueTuple, Any], name: str) -> "Factor":
        """A factor that takes ``table`` over as its own, unchecked.

        For internal callers that have just built ``table`` as a fresh
        ``dict`` keyed by value tuples aligned with ``scope``, a tuple of
        distinct names: the public constructor would copy it, re-tupling
        and arity-checking every key.  The caller hands the dict over and
        keeps no other use of it.
        """
        factor = cls.__new__(cls)
        factor.scope = scope
        factor.table = table
        factor.name = name
        factor._variables = None
        factor._digest = None
        factor._buckets = None
        return factor

    def __getstate__(self):
        # The buckets' encoded rows are this process's cache: at most the
        # bucket digests cross a process boundary.
        state = {slot: getattr(self, slot, None) for slot in self.__slots__}
        if self._buckets is not None:
            state["_buckets"] = self._buckets.portable()
        return None, state

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """The factor size ``‖ψ_S‖``: the number of listed (non-zero) tuples."""
        return len(self.table)

    def __iter__(self) -> Iterator[Tuple[ValueTuple, Any]]:
        return iter(self.table.items())

    def __contains__(self, key: ValueTuple) -> bool:
        return tuple(key) in self.table

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Factor({self.name}, scope={self.scope}, size={len(self)})"

    @property
    def variables(self) -> frozenset:
        """The scope as a frozen set (the hyperedge ``S``), built lazily once."""
        if self._variables is None:
            self._variables = frozenset(self.scope)
        return self._variables

    def copy(self, name: str | None = None) -> "Factor":
        """Return a shallow copy (table dict is copied, values are shared).

        The copy's table is a fresh mutable dict even when this factor is
        frozen, and the copy carries no digest memo.
        """
        return Factor._adopt(self.scope, dict(self.table), name or self.name)

    # ------------------------------------------------------------------ #
    # immutability & updates
    # ------------------------------------------------------------------ #
    @property
    def frozen(self) -> bool:
        """``True`` once the table has been frozen (mutation raises)."""
        return isinstance(self.table, _FrozenTable)

    def freeze(self) -> "Factor":
        """Make the table read-only; returns ``self``.

        Called by :func:`repro.planner.signature.factor_digest` the moment
        a content digest is memoised: from then on the digest certifies the
        table's content to every cache keyed on it, so in-place mutation
        must fail loudly instead of serving stale answers.  Updates go
        through :meth:`apply_delta`, which returns a *new* factor.
        """
        if not isinstance(self.table, _FrozenTable):
            self.table = _FrozenTable(self.table)
        return self

    def apply_delta(
        self, delta, semiring: Semiring, name: str | None = None
    ) -> "Factor":
        """Return a new factor with the delta's cell updates applied.

        ``delta`` is a :class:`~repro.factors.delta.FactorDelta` over the
        same variables (any scope order).  Cells set to the semiring zero
        are removed from the listing; other cells are inserted or
        overwritten.  ``self`` is untouched — the returned factor is a new
        object with no digest memo, so every content-addressed layer sees
        the update as new content.

        Its digest is *derived*: when ``self`` is digested, frozen and
        bucketed (see :func:`~repro.planner.signature.factor_digest`) and
        the result keeps its bucket count, the result carries ``self``'s
        bucket table and the changed keys — no reference to ``self`` — and
        naming it re-hashes only the buckets those keys fall in.  Such a
        result comes back frozen, since the derivation certifies exactly
        the table built here.  The first child of a lineage encodes the
        parent's keys into their buckets, one pass over its table.

        A result cell is either one of ``self``'s or a non-zero change, so
        when ``self`` is known to list no zero of ``semiring``
        (:meth:`is_pruned`) the result lists none either.  It then comes
        back frozen and carrying that knowledge: the query it goes into
        holds it by reference instead of sweeping and copying it.
        """
        table: Dict[ValueTuple, Any] = dict(self.table)
        changes = delta.aligned_changes(self.scope)
        for cell, value in changes.items():
            if semiring.is_zero(value):
                table.pop(cell, None)
            else:
                table[cell] = value
        # this table's keys and the delta's are validated already
        updated = Factor._adopt(self.scope, table, name or self.name)
        if self._buckets is not None and self._digest is not None and self.frozen:
            updated._buckets = self._buckets.child(self.table, changes, len(table))
            if updated._buckets is not None:
                updated.freeze()
        if getattr(self.table, "zero_free", None) is semiring:
            updated.freeze().table.zero_free = semiring
        return updated

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def value(self, assignment: Assignment, semiring: Semiring) -> Any:
        """Evaluate the factor on ``assignment`` (a dict of variable values).

        Variables outside the scope are ignored; missing scope variables
        raise.  Tuples not in the table evaluate to ``semiring.zero``.
        """
        try:
            key = tuple(assignment[v] for v in self.scope)
        except KeyError as exc:
            raise FactorError(f"assignment {assignment} misses scope variable {exc}") from exc
        return self.table.get(key, semiring.zero)

    def value_of_tuple(self, key: ValueTuple, semiring: Semiring) -> Any:
        """Evaluate the factor on a value tuple aligned with the scope."""
        return self.table.get(tuple(key), semiring.zero)

    def assignments(self) -> Iterator[Dict[str, Any]]:
        """Iterate the listed tuples as ``{variable: value}`` dicts."""
        for key in self.table:
            yield dict(zip(self.scope, key))

    # ------------------------------------------------------------------ #
    # zero handling
    # ------------------------------------------------------------------ #
    def pruned(self, semiring: Semiring) -> "Factor":
        """Return a copy with explicit zero entries removed.

        Always a new, mutable factor without a digest memo — the copy a
        query takes of an input it may not hold by reference
        (:meth:`is_pruned`).
        """
        is_zero = semiring.zero_test()
        table = {k: v for k, v in self.table.items() if not is_zero(v)}
        return Factor._adopt(self.scope, table, self.name)

    def is_pruned(self, semiring: Semiring) -> bool:
        """Whether a query over ``semiring`` may hold this factor as it is.

        True when the table is frozen — nobody can change it under the
        query — and lists no zero of ``semiring``.  The sweep that
        establishes the second half runs once per frozen table and
        semiring: its outcome is remembered on the table
        (:class:`_FrozenTable`), for the semiring object that ran it, so a
        factor swept under one semiring is swept again under another whose
        zero may differ.
        """
        table = self.table
        if not isinstance(table, _FrozenTable):
            return False
        if getattr(table, "zero_free", None) is not semiring:
            if any(map(semiring.zero_test(), table.values())):
                return False
            table.zero_free = semiring
        return True

    def is_identically_zero(self, semiring: Semiring) -> bool:
        """Return ``True`` if every listed entry is zero (or none is listed)."""
        return all(semiring.is_zero(v) for v in self.table.values())

    # ------------------------------------------------------------------ #
    # conditioning (Section 4.1 of the paper)
    # ------------------------------------------------------------------ #
    def condition(self, partial: Assignment, semiring: Semiring) -> "Factor":
        """Return the conditional factor ``ψ_S(· | y_W)``.

        Entries inconsistent with the partial assignment become zero (i.e.
        are dropped); the scope is unchanged, matching Definition in
        Section 4.1 of the paper.
        """
        relevant = {v: partial[v] for v in self.scope if v in partial}
        if not relevant:
            return self.copy()
        positions = [(i, relevant[v]) for i, v in enumerate(self.scope) if v in relevant]
        table = {
            key: value
            for key, value in self.table.items()
            if all(key[i] == want for i, want in positions)
            and not semiring.is_zero(value)
        }
        return Factor._adopt(self.scope, table, self.name + "|cond")

    def restrict(self, partial: Assignment, semiring: Semiring) -> "Factor":
        """Condition on ``partial`` and drop the conditioned variables.

        Unlike :meth:`condition`, the returned factor's scope no longer
        contains the fixed variables.  This is the operation InsideOut and
        the brute-force evaluator use to "plug in" values.
        """
        fixed = {v: partial[v] for v in self.scope if v in partial}
        if not fixed:
            return self.copy()
        keep_idx = [i for i, v in enumerate(self.scope) if v not in fixed]
        check_idx = [(i, fixed[v]) for i, v in enumerate(self.scope) if v in fixed]
        new_scope = tuple(self.scope[i] for i in keep_idx)
        table: Dict[ValueTuple, Any] = {}
        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            if all(key[i] == want for i, want in check_idx):
                table[tuple(key[i] for i in keep_idx)] = value
        return Factor._adopt(new_scope, table, self.name + "|restr")

    # ------------------------------------------------------------------ #
    # projections
    # ------------------------------------------------------------------ #
    def indicator_projection(self, target: Iterable[str], semiring: Semiring) -> "Factor":
        """The indicator projection ``ψ_{S/T}`` onto ``T`` (Definition 4.2).

        ``ψ_{S/T}(x_T) = 1`` iff some extension of ``x_T`` to ``S`` has a
        non-zero value, else ``0``.  The result's scope is ``S ∩ T`` in the
        order of this factor's scope.

        Keys come out in order of first appearance in the table.  The build
        runs in C (``dict.fromkeys``); values are tested for zero only
        when the table is not known to list none under ``semiring``
        (:meth:`is_pruned`).
        """
        target_set = set(target)
        keep_idx = [i for i, v in enumerate(self.scope) if v in target_set]
        if not keep_idx:
            raise FactorError(
                f"indicator projection of {self.name} onto a disjoint set {sorted(target_set)}"
            )
        new_scope = tuple(self.scope[i] for i in keep_idx)
        table = self.table
        keys: Iterable[ValueTuple] = table
        if getattr(table, "zero_free", None) is not semiring:
            keys = compress(table, map(not_, map(semiring.zero_test(), table.values())))
        if len(keep_idx) == 1:
            keys = zip(map(itemgetter(keep_idx[0]), keys))
        elif len(keep_idx) < len(self.scope):
            keys = map(itemgetter(*keep_idx), keys)
        return Factor._adopt(new_scope, dict.fromkeys(keys, semiring.one),
                             self.name + f"/{{{','.join(new_scope)}}}")

    def support_projection(self, target: Iterable[str]) -> set:
        """Return the set of projected tuples (no values) onto ``target``."""
        target_set = set(target)
        keep_idx = [i for i, v in enumerate(self.scope) if v in target_set]
        return {tuple(key[i] for i in keep_idx) for key in self.table}

    # ------------------------------------------------------------------ #
    # marginalisation
    # ------------------------------------------------------------------ #
    def aggregate_marginalize(
        self, variable: str, combine: Callable[[Any, Any], Any], semiring: Semiring
    ) -> "Factor":
        """Eliminate ``variable`` with a semiring aggregate ``⊕``.

        Because unlisted tuples are zero (the identity of any semiring
        aggregate sharing the query's ``0``), the aggregate only runs over
        listed tuples.
        """
        if variable not in self.scope:
            raise FactorError(f"{variable} not in scope {self.scope}")
        keep_idx = [i for i, v in enumerate(self.scope) if v != variable]
        new_scope = tuple(self.scope[i] for i in keep_idx)
        is_zero = semiring.zero_test()
        table: Dict[ValueTuple, Any] = {}
        for key, value in self.table.items():
            if is_zero(value):
                continue
            reduced = tuple(key[i] for i in keep_idx)
            if reduced in table:
                table[reduced] = combine(table[reduced], value)
            else:
                table[reduced] = value
        table = {k: v for k, v in table.items() if not is_zero(v)}
        return Factor._adopt(new_scope, table, self.name + f"-agg({variable})")

    def product_marginalize(
        self, variable: str, domain_size: int, semiring: Semiring
    ) -> "Factor":
        """Eliminate ``variable`` with the product aggregate ``⊗``.

        ``ψ'_{S-{k}}(x_{S-{k}}) = ⊗_{x_k ∈ Dom(X_k)} ψ_S(x_S)``.  Because the
        product ranges over the *whole* domain, any group that does not list
        all ``domain_size`` values of ``variable`` is annihilated by an
        implicit zero and is dropped from the result.
        """
        if variable not in self.scope:
            raise FactorError(f"{variable} not in scope {self.scope}")
        if domain_size <= 0:
            raise FactorError(f"domain size must be positive, got {domain_size}")
        keep_idx = [i for i, v in enumerate(self.scope) if v != variable]
        new_scope = tuple(self.scope[i] for i in keep_idx)
        partial: Dict[ValueTuple, Any] = {}
        counts: Dict[ValueTuple, int] = {}
        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            reduced = tuple(key[i] for i in keep_idx)
            if reduced in partial:
                partial[reduced] = semiring.mul(partial[reduced], value)
                counts[reduced] += 1
            else:
                partial[reduced] = value
                counts[reduced] = 1
        table = {
            k: v
            for k, v in partial.items()
            if counts[k] == domain_size and not semiring.is_zero(v)
        }
        return Factor._adopt(new_scope, table, self.name + f"-prod({variable})")

    # ------------------------------------------------------------------ #
    # pointwise operations
    # ------------------------------------------------------------------ #
    def power(self, exponent: int, semiring: Semiring) -> "Factor":
        """Raise all listed values to ``exponent`` under ``⊗`` (pointwise)."""
        table = {k: semiring.power(v, exponent) for k, v in self.table.items()}
        table = {k: v for k, v in table.items() if not semiring.is_zero(v)}
        return Factor._adopt(self.scope, table, self.name + f"^{exponent}")

    def map_values(self, fn: Callable[[Any], Any], name: str | None = None) -> "Factor":
        """Apply ``fn`` to every listed value (scope preserved)."""
        return Factor._adopt(
            self.scope, {k: fn(v) for k, v in self.table.items()}, name or self.name
        )

    def has_idempotent_range(self, semiring: Semiring) -> bool:
        """``True`` iff every listed value is ⊗-idempotent (Definition 5.2)."""
        return all(semiring.is_mul_idempotent(v) for v in self.table.values())

    # ------------------------------------------------------------------ #
    # binary operations
    # ------------------------------------------------------------------ #
    def _joined_items(
        self, other: "Factor", semiring: Semiring
    ) -> Iterator[Tuple[ValueTuple, Any]]:
        """Hash-join with ``other``: yield ``(joined_tuple, product)`` pairs.

        The joined tuple follows the scope ``self.scope + other_only``;
        zero inputs and zero products are skipped.
        """
        shared = [v for v in self.scope if v in other.scope]
        other_only = [v for v in other.scope if v not in self.scope]
        other_shared_idx = [other.scope.index(v) for v in shared]
        other_rest_idx = [other.scope.index(v) for v in other_only]
        self_shared_idx = [self.scope.index(v) for v in shared]

        is_zero = semiring.zero_test()
        mul = semiring.mul
        buckets: Dict[ValueTuple, list] = {}
        for key, value in other.table.items():
            if is_zero(value):
                continue
            sig = tuple(key[i] for i in other_shared_idx)
            buckets.setdefault(sig, []).append((tuple(key[i] for i in other_rest_idx), value))

        for key, value in self.table.items():
            if is_zero(value):
                continue
            sig = tuple(key[i] for i in self_shared_idx)
            for rest, other_value in buckets.get(sig, ()):
                prod = mul(value, other_value)
                if is_zero(prod):
                    continue
                yield key + rest, prod

    def multiply(self, other: "Factor", semiring: Semiring) -> "Factor":
        """Pointwise product ``ψ_S ⊗ ψ_T`` over scope ``S ∪ T`` (a join).

        This is a straightforward hash join on the shared variables; the
        engine's OutsideIn join is used for the multiway case, this method is
        mostly a convenience for tests, baselines and small factors.
        """
        other_only = [v for v in other.scope if v not in self.scope]
        new_scope = self.scope + tuple(other_only)
        table: Dict[ValueTuple, Any] = dict(self._joined_items(other, semiring))
        return Factor._adopt(new_scope, table, f"({self.name}*{other.name})")

    def normalize_scope(self, order: Sequence[str]) -> "Factor":
        """Return an equivalent factor whose scope follows ``order``.

        Variables in the scope are re-ordered according to their position in
        ``order``; variables not listed in ``order`` keep their relative
        order at the end.
        """
        position = {v: i for i, v in enumerate(order)}
        new_scope = tuple(sorted(self.scope, key=lambda v: (position.get(v, len(order)), v)))
        if new_scope == self.scope:
            return self.copy()
        perm = [self.scope.index(v) for v in new_scope]
        table = {tuple(key[i] for i in perm): value for key, value in self.table.items()}
        return Factor._adopt(new_scope, table, self.name)

    # ------------------------------------------------------------------ #
    # comparisons (used heavily in tests)
    # ------------------------------------------------------------------ #
    def equals(self, other: "Factor", semiring: Semiring) -> bool:
        """Semantic equality: same function over the union of listed tuples."""
        if set(self.scope) != set(other.scope):
            return False
        other_aligned = other.normalize_scope(self.scope)
        keys = set(self.table) | set(other_aligned.table)
        for key in keys:
            a = self.table.get(key, semiring.zero)
            b = other_aligned.table.get(key, semiring.zero)
            if not semiring.values_equal(a, b):
                return False
        return True
