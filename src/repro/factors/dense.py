"""Dense (ndarray-backed) factors — the vectorized alternative to listing.

The listing representation (:class:`~repro.factors.factor.Factor`) stores
only the non-zero tuples of a factor, which is optimal for sparse inputs but
pays a Python-dict-iteration cost per tuple on every product and aggregate.
Workloads that are *naturally dense* — the DFT twiddle factors, matrix chain
multiplication, most PGM potentials — list (nearly) every cell of the domain
box anyway, so the same operations map directly onto NumPy broadcasting and
ufunc reductions with a two-orders-of-magnitude smaller constant factor.

A :class:`DenseFactor` stores

* ``scope`` — the ordered variable names (like a sparse factor),
* ``domains`` — the full domain tuple of every scope variable,
* ``array`` — an ndarray of shape ``(|Dom(v_1)|, ..., |Dom(v_s)|)`` whose
  cell ``[i_1, ..., i_s]`` holds ``ψ(dom_1[i_1], ..., dom_s[i_s])``.

Unlisted tuples of the sparse representation appear here as explicit
semiring-zero cells, so ``0``-annihilation under ``⊗`` and identity under
``⊕`` are handled by ordinary arithmetic instead of key absence.

Only semirings whose operators map to NumPy ufuncs get a dense
representation (see :data:`DENSE_SEMIRING_OPS`); queries over other
semirings — e.g. the set semiring — stay on the sparse path.  The counting
semiring deliberately uses ``object`` dtype so that #CQ / #SAT style counts
keep Python's arbitrary precision instead of silently overflowing ``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.factors.factor import Factor, FactorError
from repro.semiring.base import Semiring

ValueTuple = Tuple[Any, ...]

# :meth:`DenseFactor.from_factor` stores a listing's cells one by one below
# this many tuples and with one ``np.fromiter`` pass per axis from it on:
# the pass's fixed cost is a dozen or so per-cell stores.  Per-cell vs
# vectorised, arity 2-3 on a 2-core x86 host: 9 tuples 18.0 vs 22.8 µs,
# 16 tuples 25.2 vs 25.9 µs, 27 tuples 39.7 vs 38.5 µs, 64 tuples 67.6 vs
# 47.1 µs.
_FROMITER_MIN_TUPLES = 20


@dataclass(frozen=True)
class DenseOps:
    """NumPy counterparts of a semiring's operators.

    ``pow_kind`` selects the vectorized implementation of the ``⊗``-power
    used when InsideOut pushes a factor through a product aggregate:
    ``"mul"`` (ordinary ``x ** n``), ``"add"`` (tropical ``x * n``) or
    ``"idempotent"`` (``x ⊗ x = x``, the power is the identity for n >= 1).
    """

    name: str
    dtype: Any
    add: np.ufunc
    mul: np.ufunc
    zero: Any
    one: Any
    pow_kind: str = "mul"


DENSE_SEMIRING_OPS: Dict[str, DenseOps] = {}
"""Registry mapping semiring *names* to their NumPy operator table."""


def register_dense_ops(ops: DenseOps) -> None:
    """Register (or replace) the dense operator table for a semiring name."""
    DENSE_SEMIRING_OPS[ops.name] = ops


for _ops in (
    DenseOps("boolean", np.bool_, np.logical_or, np.logical_and, False, True, "idempotent"),
    # object dtype: Python ints never overflow, which #SAT-style counts need.
    DenseOps("counting", object, np.add, np.multiply, 0, 1, "mul"),
    DenseOps("sum-product", np.float64, np.add, np.multiply, 0.0, 1.0, "mul"),
    DenseOps("complex-sum-product", np.complex128, np.add, np.multiply, 0j, 1 + 0j, "mul"),
    DenseOps("max-product", np.float64, np.maximum, np.multiply, 0.0, 1.0, "mul"),
    DenseOps("min-plus", np.float64, np.minimum, np.add, np.inf, 0.0, "add"),
    DenseOps("max-sum", np.float64, np.maximum, np.add, -np.inf, 0.0, "add"),
    # min-product is intentionally absent: its additive identity +inf is not
    # an annihilator of ``×`` (inf * 0 = nan), so the dense path cannot rely
    # on plain arithmetic for zero-annihilation.  It stays on the sparse path.
):
    register_dense_ops(_ops)


AGGREGATE_UFUNCS: Dict[str, np.ufunc] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "or": np.logical_or,
}
"""ufunc reductions for the standard semiring-aggregate tags."""


def dense_ops_for(semiring: Semiring) -> DenseOps | None:
    """The registered dense operator table for ``semiring``, if any."""
    return DENSE_SEMIRING_OPS.get(semiring.name)


def aggregate_ufunc(tag: str) -> np.ufunc | None:
    """The reduction ufunc for an aggregate tag, if the tag is mappable."""
    return AGGREGATE_UFUNCS.get(tag)


class DenseFactor:
    """A factor stored as a dense ndarray over the full domain box.

    Parameters
    ----------
    scope:
        Ordered tuple of variable names (axes of ``array``).
    domains:
        Mapping from every scope variable to its full domain tuple; the
        position of a value in the tuple is its index along that axis.
    array:
        The value array; shape must equal the per-variable domain sizes.
    name:
        Optional human-readable name.
    """

    __slots__ = ("scope", "domains", "array", "name", "zero", "_digest", "_nonzero")

    def __init__(
        self,
        scope: Sequence[str],
        domains: Mapping[str, Sequence[Any]],
        array: np.ndarray,
        name: str | None = None,
        zero: Any = None,
    ) -> None:
        self.scope: Tuple[str, ...] = tuple(scope)
        if len(set(self.scope)) != len(self.scope):
            raise FactorError(f"duplicate variables in scope {self.scope}")
        self.domains: Dict[str, Tuple[Any, ...]] = {
            v: tuple(domains[v]) for v in self.scope
        }
        self.array = np.asarray(array)
        expected = tuple(len(self.domains[v]) for v in self.scope)
        if self.array.shape != expected:
            raise FactorError(
                f"array shape {self.array.shape} does not match domain shape {expected} "
                f"for scope {self.scope}"
            )
        self.name = name if name is not None else "psi_{" + ",".join(map(str, self.scope)) + "}"
        if zero is None:
            zero = False if self.array.dtype == np.bool_ else 0
        self.zero = zero
        self._digest = None  # content-digest memo; factors are immutable
        self._nonzero = None  # ``len`` memo, for the same reason

    # ------------------------------------------------------------------ #
    # basic protocol (mirrors Factor where the semantics carry over)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """The number of non-zero cells (the listing size ``‖ψ_S‖``).

        Counted once: a step's result is measured for its record and then
        asked by the next step whether it lists its whole box.
        """
        count = self._nonzero
        if count is None:
            count = self._nonzero = int(np.count_nonzero(self.nonzero_mask()))
        return count

    def lists_every_cell(self, semiring: Semiring) -> bool:
        """Whether no cell holds ``semiring``'s zero.

        Read off the memoised :meth:`__len__` when the factor's own zero
        tests like the semiring's (every kernel result's does); otherwise
        one scan.
        """
        zero = semiring.zero
        if self.zero == zero and (self.zero is False) == (zero is False):
            return len(self) == self.cells
        return bool(self.nonzero_mask(semiring).all())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DenseFactor({self.name}, scope={self.scope}, shape={self.array.shape})"

    @property
    def variables(self) -> frozenset:
        """The scope as a frozen set (the hyperedge ``S``)."""
        return frozenset(self.scope)

    @property
    def cells(self) -> int:
        """The total number of cells ``∏ |Dom(v)|`` (dense size)."""
        return int(self.array.size)

    def copy(self, name: str | None = None) -> "DenseFactor":
        return DenseFactor(
            self.scope, self.domains, self.array.copy(), name=name or self.name, zero=self.zero
        )

    # ------------------------------------------------------------------ #
    # immutability & updates
    # ------------------------------------------------------------------ #
    @property
    def frozen(self) -> bool:
        """``True`` once the value array has been made read-only."""
        return not self.array.flags.writeable

    def freeze(self) -> "DenseFactor":
        """Make the value array read-only; returns ``self``.

        Called by :func:`repro.planner.signature.factor_digest` when a
        content digest is memoised — after that an in-place cell write
        would silently invalidate digest-keyed cache entries, so NumPy now
        raises on it.  Updates go through :meth:`apply_delta`.
        """
        self.array.flags.writeable = False
        return self

    def apply_delta(
        self, delta, semiring: Semiring, name: str | None = None
    ) -> "DenseFactor":
        """Return a new dense factor with the delta's cell updates applied.

        ``delta`` is a :class:`~repro.factors.delta.FactorDelta` over the
        same variables; cells set to the semiring zero become explicit zero
        cells.  Raises when a cell value lies outside a domain.  ``self``
        is untouched.
        """
        index = self._index_maps()
        array = self.array.copy()
        for cell, value in delta.aligned_changes(self.scope).items():
            try:
                position = tuple(index[d][cell[d]] for d in range(len(self.scope)))
            except KeyError as exc:
                raise FactorError(
                    f"delta cell {cell!r} lies outside the domains of {self.name} ({exc})"
                ) from exc
            array[position] = value
        return DenseFactor(
            self.scope, self.domains, array, name=name or self.name, zero=self.zero
        )

    # ------------------------------------------------------------------ #
    # zero handling
    # ------------------------------------------------------------------ #
    def nonzero_mask(self, semiring: Semiring | None = None) -> np.ndarray:
        """Boolean mask of the cells that differ from the semiring zero."""
        zero = semiring.zero if semiring is not None else self.zero
        if self.array.dtype == np.bool_:
            return self.array.copy() if zero is False else ~self.array
        return self.array != zero

    def pruned(self, semiring: Semiring) -> "DenseFactor":
        """Zeros are implicit in the dense representation; returns a copy."""
        return self.copy()

    def is_pruned(self, semiring: Semiring) -> bool:
        """Whether a query may hold this factor as it is: once frozen, since
        there are no listed zeros to sweep (see :meth:`Factor.is_pruned`)."""
        return self.frozen

    def is_identically_zero(self, semiring: Semiring) -> bool:
        return not bool(self.nonzero_mask(semiring).any())

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _index_maps(self) -> Tuple[Dict[Any, int], ...]:
        return tuple({val: i for i, val in enumerate(self.domains[v])} for v in self.scope)

    def value(self, assignment: Mapping[str, Any], semiring: Semiring) -> Any:
        """Evaluate on an assignment dict (variables outside scope ignored)."""
        try:
            key = tuple(assignment[v] for v in self.scope)
        except KeyError as exc:
            raise FactorError(f"assignment {assignment} misses scope variable {exc}") from exc
        return self.value_of_tuple(key, semiring)

    def value_of_tuple(self, key: ValueTuple, semiring: Semiring) -> Any:
        """Evaluate on a value tuple aligned with the scope."""
        key = tuple(key)
        index = []
        for v, val in zip(self.scope, key):
            try:
                index.append(self.domains[v].index(val))
            except ValueError:
                return semiring.zero
        return self.array[tuple(index)].item() if self.array.dtype != object else self.array[tuple(index)]

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_factor(
        cls,
        factor: Factor,
        domains: Mapping[str, Sequence[Any]],
        semiring: Semiring,
        name: str | None = None,
    ) -> "DenseFactor":
        """Materialise a sparse listing factor over the full domain box."""
        ops = dense_ops_for(semiring)
        if ops is None:
            raise FactorError(
                f"semiring {semiring.name!r} has no dense operator table; "
                "register one with register_dense_ops or stay on the sparse path"
            )
        scope = factor.scope
        doms = {v: tuple(domains[v]) for v in scope}
        shape = tuple(len(doms[v]) for v in scope)
        array = np.full(shape, ops.zero, dtype=ops.dtype)
        is_zero = semiring.zero_test()
        kept = [(key, value) for key, value in factor.table.items() if not is_zero(value)]
        index = tuple({val: i for i, val in enumerate(doms[v])} for v in scope)
        try:
            if len(kept) < _FROMITER_MIN_TUPLES:
                for key, value in kept:
                    array[tuple(map(getitem, index, key))] = value
            else:
                keys, values = zip(*kept)
                codes = tuple(
                    np.fromiter(map(axis.__getitem__, column), dtype=np.intp, count=len(keys))
                    for axis, column in zip(index, zip(*keys))
                )
                # ``object`` dtype keeps counting's Python ints exact.
                array[codes] = np.fromiter(values, dtype=ops.dtype, count=len(values))
        except KeyError as exc:
            key = next(k for k, _ in kept if any(k[d] not in axis for d, axis in enumerate(index)))
            raise FactorError(
                f"tuple {key!r} of {factor.name} lies outside the given domains ({exc})"
            ) from exc
        return cls(scope, doms, array, name=name or factor.name, zero=ops.zero)

    @classmethod
    def from_flat(
        cls,
        flat,
        domains: Mapping[str, Sequence[Any]],
        semiring: Semiring,
        name: str | None = None,
    ) -> "DenseFactor":
        """:meth:`from_factor` of a listing factor, from its flat encoding.

        ``flat`` is the factor's :class:`~repro.factors.flat.FlatFactor`
        over the same ``domains``: its code columns *are* the cell indices
        and its tolerant zeros are already masked, so the per-tuple
        ``is_zero`` + dict-lookup loop becomes one scatter.
        """
        ops = dense_ops_for(semiring)
        if ops is None:
            raise FactorError(f"no dense ops for semiring {semiring.name!r}")
        scope = flat.scope
        doms = {v: tuple(domains[v]) for v in scope}
        array = np.full(tuple(len(doms[v]) for v in scope), ops.zero, dtype=ops.dtype)
        if len(flat):
            # The leading ellipsis makes the empty scope (one value, no
            # columns) the same scatter as every other.
            array[(..., *(flat.columns[v] for v in scope))] = flat.values
        return cls(scope, doms, array, name=name, zero=ops.zero)

    def to_factor(self, semiring: Semiring, name: str | None = None) -> Factor:
        """Convert back to the sparse listing representation (zeros dropped)."""
        mask = self.nonzero_mask(semiring)
        table: Dict[ValueTuple, Any] = {}
        domains = [self.domains[v] for v in self.scope]
        for cell in np.argwhere(mask):
            key = tuple(domains[d][i] for d, i in enumerate(cell))
            raw = self.array[tuple(cell)]
            table[key] = raw if self.array.dtype == object else raw.item()
        return Factor._adopt(self.scope, table, name or self.name)

    # ------------------------------------------------------------------ #
    # projections
    # ------------------------------------------------------------------ #
    def indicator_projection(self, target: Iterable[str], semiring: Semiring) -> "DenseFactor":
        """The indicator projection ``ψ_{S/T}`` onto ``T`` (Definition 4.2)."""
        ops = dense_ops_for(semiring)
        if ops is None:
            raise FactorError(f"no dense ops for semiring {semiring.name!r}")
        target_set = set(target)
        keep = [i for i, v in enumerate(self.scope) if v in target_set]
        if not keep:
            raise FactorError(
                f"indicator projection of {self.name} onto a disjoint set {sorted(target_set)}"
            )
        drop = tuple(i for i in range(len(self.scope)) if i not in keep)
        mask = self.nonzero_mask(semiring)
        if drop:
            mask = np.logical_or.reduce(mask, axis=drop)
        new_scope = tuple(self.scope[i] for i in keep)
        array = np.where(mask, ops.one, ops.zero)
        if ops.dtype == object:
            array = array.astype(object)
        else:
            array = array.astype(ops.dtype)
        return DenseFactor(
            new_scope,
            {v: self.domains[v] for v in new_scope},
            array,
            name=self.name + f"/{{{','.join(new_scope)}}}",
            zero=ops.zero,
        )

    # ------------------------------------------------------------------ #
    # marginalisation
    # ------------------------------------------------------------------ #
    def reduce_variable(self, variable: str, ufunc: np.ufunc) -> "DenseFactor":
        """Eliminate ``variable`` by a ufunc reduction along its axis."""
        if variable not in self.scope:
            raise FactorError(f"{variable} not in scope {self.scope}")
        axis = self.scope.index(variable)
        new_scope = tuple(v for v in self.scope if v != variable)
        array = ufunc.reduce(self.array, axis=axis)
        return DenseFactor(
            new_scope,
            {v: self.domains[v] for v in new_scope},
            array,
            name=self.name + f"-agg({variable})",
            zero=self.zero,
        )

    def aggregate_marginalize(self, variable: str, tag_or_ufunc, semiring: Semiring) -> "DenseFactor":
        """Eliminate ``variable`` with a semiring aggregate.

        Accepts either an aggregate *tag* (``"sum"``, ``"max"``, ...) or a
        ufunc directly.  Unlike the sparse method this cannot take an
        arbitrary Python combine callable — callers holding only a callable
        should convert to the listing representation first.
        """
        if isinstance(tag_or_ufunc, str):
            ufunc = aggregate_ufunc(tag_or_ufunc)
            if ufunc is None:
                raise FactorError(f"aggregate tag {tag_or_ufunc!r} has no ufunc mapping")
        else:
            ufunc = tag_or_ufunc
        return self.reduce_variable(variable, ufunc)

    def product_marginalize(self, variable: str, domain_size: int, semiring: Semiring) -> "DenseFactor":
        """Eliminate ``variable`` with the product aggregate ``⊗``.

        The dense array stores the implicit zeros explicitly, so the
        annihilation rule of the sparse implementation (drop groups missing a
        domain value) is plain arithmetic here.
        """
        ops = dense_ops_for(semiring)
        if ops is None:
            raise FactorError(f"no dense ops for semiring {semiring.name!r}")
        if variable not in self.scope:
            raise FactorError(f"{variable} not in scope {self.scope}")
        if domain_size != len(self.domains[variable]):
            raise FactorError(
                f"product over {variable} expects the full domain "
                f"({len(self.domains[variable])} values), got {domain_size}"
            )
        result = self.reduce_variable(variable, ops.mul)
        result.name = self.name + f"-prod({variable})"
        return result

    # ------------------------------------------------------------------ #
    # pointwise operations
    # ------------------------------------------------------------------ #
    def power(self, exponent: int, semiring: Semiring) -> "DenseFactor":
        """Raise all cells to ``exponent`` under ``⊗`` (pointwise)."""
        ops = dense_ops_for(semiring)
        if ops is None:
            raise FactorError(f"no dense ops for semiring {semiring.name!r}")
        if exponent < 0:
            raise FactorError(f"negative exponent {exponent} in factor power")
        if exponent == 0:
            # Mirror the sparse semantics: only *listed* (non-zero) cells are
            # powered, so the implicit zeros stay zero instead of becoming 1.
            mask = self.nonzero_mask(semiring)
            array = np.where(mask, ops.one, ops.zero)
            array = array.astype(ops.dtype)
        elif ops.pow_kind == "idempotent":
            array = self.array.copy()
        elif ops.pow_kind == "add":
            array = self.array * exponent
        else:
            array = self.array**exponent
        return DenseFactor(
            self.scope, self.domains, array, name=self.name + f"^{exponent}", zero=ops.zero
        )

    def has_idempotent_range(self, semiring: Semiring) -> bool:
        """``True`` iff every cell is ⊗-idempotent (Definition 5.2)."""
        ops = dense_ops_for(semiring)
        if ops is None or self.array.dtype == object:
            return all(semiring.is_mul_idempotent(v) for v in self.array.flat)
        if ops.pow_kind == "idempotent":
            return True
        squared = ops.mul(self.array, self.array)
        with np.errstate(invalid="ignore"):
            scale = np.maximum(1.0, np.maximum(np.abs(squared), np.abs(self.array)))
            close = np.abs(squared - self.array) <= 1e-9 * scale
        return bool(np.all(close))

    # ------------------------------------------------------------------ #
    # binary operations
    # ------------------------------------------------------------------ #
    def multiply(self, other: "DenseFactor", semiring: Semiring) -> "DenseFactor":
        """Pointwise product ``ψ_S ⊗ ψ_T`` over scope ``S ∪ T`` (dense join)."""
        if not isinstance(other, DenseFactor):
            raise FactorError(
                "DenseFactor.multiply requires a DenseFactor operand"
            )
        ops = dense_ops_for(semiring)
        if ops is None:
            raise FactorError(f"no dense ops for semiring {semiring.name!r}")
        target = self.scope + tuple(v for v in other.scope if v not in self.scope)
        domains = dict(self.domains)
        for v in other.scope:
            if v in domains and domains[v] != other.domains[v]:
                raise FactorError(f"domain mismatch for {v} between {self.name} and {other.name}")
            domains.setdefault(v, other.domains[v])
        array = ops.mul(aligned_array(self, target), aligned_array(other, target))
        return DenseFactor(
            target, domains, array, name=f"({self.name}*{other.name})", zero=ops.zero
        )

    def normalize_scope(self, order: Sequence[str]) -> "DenseFactor":
        """Return an equivalent factor whose scope follows ``order``."""
        position = {v: i for i, v in enumerate(order)}
        new_scope = tuple(sorted(self.scope, key=lambda v: (position.get(v, len(order)), v)))
        if new_scope == self.scope:
            return self.copy()
        perm = [self.scope.index(v) for v in new_scope]
        return DenseFactor(
            new_scope, self.domains, self.array.transpose(perm), name=self.name, zero=self.zero
        )

    # ------------------------------------------------------------------ #
    # comparisons
    # ------------------------------------------------------------------ #
    def equals(self, other, semiring: Semiring) -> bool:
        """Semantic equality with another factor (dense or sparse)."""
        mine = self.to_factor(semiring)
        theirs = other.to_factor(semiring) if isinstance(other, DenseFactor) else other
        return mine.equals(theirs, semiring)


def aligned_array(dense: DenseFactor, target_scope: Sequence[str]) -> np.ndarray:
    """View ``dense.array`` broadcastable against a target scope.

    The factor's axes are permuted into target order and size-1 axes are
    inserted for target variables outside the factor's scope, so that NumPy
    broadcasting implements the scope-union join.
    """
    position = {v: i for i, v in enumerate(dense.scope)}
    perm = [position[v] for v in target_scope if v in position]
    if len(perm) != len(dense.scope):
        missing = [v for v in dense.scope if v not in set(target_scope)]
        raise FactorError(f"target scope {tuple(target_scope)} misses factor variables {missing}")
    array = dense.array.transpose(perm)
    sizes = iter(array.shape)
    shape = tuple(next(sizes) if v in position else 1 for v in target_scope)
    return array.reshape(shape)
