"""The pluggable factor-backend layer: sparse listing vs dense ndarray.

The core algorithms (InsideOut, whose variant with the indicator
projections off is textbook variable elimination, and OutsideIn) operate
on *factors* through a small shared surface — scope inspection,
indicator projections, product marginalisation, powers — captured here as
the :class:`FactorBackend` protocol.  Two implementations exist:

* :class:`~repro.factors.factor.Factor` — the sparse listing representation
  (hash tables keyed by value tuples), optimal when ``‖ψ‖ ≪ ∏|Dom|``;
* :class:`~repro.factors.dense.DenseFactor` — an ndarray over the full
  domain box, optimal for dense workloads (DFT, MCM, PGM potentials) where
  vectorized ufunc reductions beat per-tuple Python dict iteration.

This module provides the glue:

* :func:`as_sparse` / :func:`as_dense` — conversions both ways,
* :class:`BackendPolicy` + :func:`prefer_dense` — the cost heuristic that
  picks a representation per elimination step (dense cell count of the
  induced variable set vs the listed-tuple count of the participants),
* :func:`dense_join_reduce` — the vectorized elimination kernel: a (+, ×)
  step over floats is one ``np.einsum`` tensor contraction; any other step
  is a broadcast ``⊗``-product of the participants over the induced box
  followed by a ufunc ``⊕``-reduction of the eliminated variables.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from repro.factors.dense import (
    AGGREGATE_UFUNCS,
    DenseFactor,
    DenseOps,
    aggregate_ufunc,
    aligned_array,
    dense_ops_for,
)
from repro.factors.factor import Factor, FactorError
from repro.semiring.base import Semiring

AnyFactor = Union[Factor, DenseFactor]


@runtime_checkable
class FactorBackend(Protocol):
    """The operation surface the core algorithms need from a factor.

    Both :class:`~repro.factors.factor.Factor` and
    :class:`~repro.factors.dense.DenseFactor` satisfy this protocol, so the
    elimination loops can hold mixed lists and defer the representation
    choice to the per-step heuristic.
    """

    scope: Tuple[str, ...]
    name: str

    def __len__(self) -> int: ...

    @property
    def variables(self) -> frozenset: ...

    def value(self, assignment: Mapping[str, Any], semiring: Semiring) -> Any: ...

    def pruned(self, semiring: Semiring) -> "FactorBackend": ...

    def is_pruned(self, semiring: Semiring) -> bool: ...

    def indicator_projection(self, target: Iterable[str], semiring: Semiring) -> "FactorBackend": ...

    def product_marginalize(self, variable: str, domain_size: int, semiring: Semiring) -> "FactorBackend": ...

    def power(self, exponent: int, semiring: Semiring) -> "FactorBackend": ...

    def has_idempotent_range(self, semiring: Semiring) -> bool: ...

    def equals(self, other: "FactorBackend", semiring: Semiring) -> bool: ...


BACKEND_SPARSE = "sparse"
BACKEND_DENSE = "dense"
BACKEND_AUTO = "auto"
BACKENDS = (BACKEND_SPARSE, BACKEND_DENSE, BACKEND_AUTO)

# Record-only label for elimination steps executed by the vectorized
# flat-table kernel (:mod:`repro.factors.flat`).  Not a selectable backend
# mode: the flat kernel engages automatically under ``"sparse"``/``"auto"``
# whenever a step qualifies, with the trie kernel as the fallback.
BACKEND_FLAT = "flat"


def validate_backend(backend: str) -> str:
    """Validate a backend selector string, returning it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown factor backend {backend!r}; expected one of {BACKENDS}")
    return backend


# ---------------------------------------------------------------------- #
# conversions
# ---------------------------------------------------------------------- #
def as_sparse(factor: AnyFactor, semiring: Semiring) -> Factor:
    """The factor in the listing representation (no-op for sparse factors)."""
    if isinstance(factor, DenseFactor):
        return factor.to_factor(semiring)
    return factor


def as_dense(
    factor: AnyFactor, domains: Mapping[str, Sequence[Any]], semiring: Semiring
) -> DenseFactor:
    """The factor in the dense representation (no-op for dense factors)."""
    if isinstance(factor, DenseFactor):
        return factor
    return DenseFactor.from_factor(factor, domains, semiring)


# ---------------------------------------------------------------------- #
# the cost heuristic
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendPolicy:
    """Thresholds for the per-step sparse/dense decision.

    ``cell_cap`` bounds the dense box materialised in one elimination step
    (cells, not bytes).  ``density_ratio`` is how much implicit-zero padding
    the dense path may pay: a step goes dense when the participants list at
    least ``1/density_ratio`` of their combined domain-box cells.
    """

    cell_cap: int = 1 << 21
    density_ratio: float = 8.0
    # The vectorized flat-table kernel (repro.factors.flat) replaces the
    # trie kernel on sparse steps when the participants list at least
    # ``flat_min_rows`` tuples (below that the NumPy fixed costs lose to
    # the trie) and no join intermediate exceeds ``flat_row_cap`` rows
    # (the trie's depth-first descent never materialises the join, so it
    # stays the safe fallback for blow-up joins).  ``flat_enabled=False``
    # pins every sparse step to the trie kernel.
    flat_enabled: bool = True
    flat_min_rows: int = 256
    flat_row_cap: int = 1 << 22


DEFAULT_POLICY = BackendPolicy()


def dense_cell_count(
    variables: Iterable[str], domains: Mapping[str, Sequence[Any]], cap: int
) -> int | None:
    """``∏ |Dom(v)|`` over ``variables``, or ``None`` once it exceeds ``cap``."""
    total = 1
    for v in variables:
        total *= len(domains[v])
        if total > cap:
            return None
    return total


def supports_dense(semiring: Semiring, tags: Iterable[str] = ()) -> bool:
    """Whether the semiring (and the aggregate tags) map to NumPy ufuncs."""
    if dense_ops_for(semiring) is None:
        return False
    return all(tag in AGGREGATE_UFUNCS for tag in tags)


def prefer_dense(
    participants: Sequence[AnyFactor],
    induced: Iterable[str],
    domains: Mapping[str, Sequence[Any]],
    semiring: Semiring,
    tags: Iterable[str] = (),
    policy: BackendPolicy = DEFAULT_POLICY,
    ones_cells: int = 0,
) -> bool:
    """The cost-based representation choice for one elimination step.

    Dense wins when (a) the algebra is ufunc-mappable, (b) the induced
    domain box fits under ``policy.cell_cap`` and (c) the participants are
    dense enough: their total listed-tuple count is at least
    ``1/policy.density_ratio`` of their combined per-factor cell count.
    ``ones_cells`` are the cells of all-ones participants the caller left
    out of ``participants``; each is listed.
    """
    if not participants or not supports_dense(semiring, tags):
        return False
    if dense_cell_count(induced, domains, policy.cell_cap) is None:
        return False
    listed = float(ones_cells)
    box_cells = float(ones_cells)
    for factor in participants:
        if isinstance(factor, DenseFactor):
            # Already materialised: count it as fully dense so that chains of
            # dense intermediates do not flap back to sparse.
            listed += factor.array.size
            box_cells += factor.array.size
        else:
            listed += len(factor)
            cells = dense_cell_count(factor.scope, domains, policy.cell_cap)
            box_cells += float(policy.cell_cap) * 2 if cells is None else cells
    if listed == 0:
        return False
    return listed * policy.density_ratio >= box_cells


def force_dense_ok(
    induced: Iterable[str],
    domains: Mapping[str, Sequence[Any]],
    semiring: Semiring,
    tags: Iterable[str] = (),
    policy: BackendPolicy = DEFAULT_POLICY,
) -> bool:
    """Eligibility check for ``backend="dense"`` (ignores the density test)."""
    if not supports_dense(semiring, tags):
        return False
    return dense_cell_count(induced, domains, policy.cell_cap) is not None


def choose_dense(
    backend: str,
    participants: Sequence[AnyFactor],
    induced: Iterable[str],
    domains: Mapping[str, Sequence[Any]],
    semiring: Semiring,
    tags: Iterable[str] = (),
    policy: BackendPolicy = DEFAULT_POLICY,
    ones_cells: int = 0,
) -> bool:
    """Per-step representation choice under a requested backend mode.

    ``"sparse"`` never goes dense, ``"dense"`` goes dense whenever the
    algebra is mappable and the induced box fits under the cell cap, and
    ``"auto"`` additionally applies the density test of
    :func:`prefer_dense`.
    """
    if backend == BACKEND_SPARSE:
        return False
    if backend == BACKEND_DENSE:
        return force_dense_ok(induced, domains, semiring, tags, policy)
    return prefer_dense(participants, induced, domains, semiring, tags, policy, ones_cells)


# ---------------------------------------------------------------------- #
# the vectorized elimination kernel
# ---------------------------------------------------------------------- #
# ``einsum``'s path search (``optimize=True``, opt_einsum inside NumPy) costs
# 20-70 µs a step before it contracts anything, so a contraction follows a
# path only where one pays: two or more operands and a box of at least
# 2**15 cells.  Measured on a 2-core x86 host (plain C loop vs searched
# path): two operands at 2**12 cells 10.9 vs 23.3 µs, at 2**14 46.2 vs
# 41.8 µs, at 2**15 52.9 vs 38.6 µs; three operands at 2**14 74.6 vs
# 97.7 µs, at 2**15 122 vs 98 µs; four at 2**15 334 vs 114 µs.  One operand
# has nothing to order: the C loop always wins.  The contractions of eight
# grid-MRF marginal and partition queries (5x8 grid, domain 8) took
# 106.5 ms in C and 51.7 ms with the path.  The path is a function of the
# subscripts and the operand shapes alone, so it is searched once per such
# pair (:func:`_einsum_path`) and handed to ``einsum`` as ``optimize=path``:
# the same contractions in the same order, hence the same bits.
_EINSUM_PATH_MIN_CELLS = 1 << 15
_EINSUM_LABELS = string.ascii_letters


@functools.lru_cache(maxsize=256)
def _einsum_path(subscripts: str, shapes: Tuple[Tuple[int, ...], ...]) -> tuple:
    """``np.einsum_path(..., optimize=True)``'s path for operands of ``shapes``
    (a tuple: every caller is handed the same one)."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *operands, optimize=True)[0])


def _contracts(ops: DenseOps, target: Sequence[str], reduce_tag: str | None, reducing: bool) -> bool:
    """Whether a step is a (+, ×) tensor contraction ``einsum`` can run."""
    return (
        ops.add is np.add
        and ops.mul is np.multiply
        and np.dtype(ops.dtype).kind in "fc"
        and (not reducing or reduce_tag == "sum")
        and len(target) <= len(_EINSUM_LABELS)
    )


def _contract(
    denses: Sequence[DenseFactor],
    domains: Mapping[str, Sequence[Any]],
    output_scope: Tuple[str, ...],
    reduce_variables: Tuple[str, ...],
) -> np.ndarray:
    """``Σ_{reduce_variables} ∏ participants`` as one ``einsum``, in
    ``output_scope`` axis order, without materialising the step's box."""
    target = output_scope + reduce_variables
    label = dict(zip(target, _EINSUM_LABELS))
    try:
        inputs = ",".join(["".join([label[v] for v in dense.scope]) for dense in denses])
    except KeyError as exc:
        raise FactorError(f"target scope {target} misses factor variable {exc}") from exc
    mentioned = set(inputs)
    present = [v for v in output_scope if label[v] in mentioned]
    subscripts = inputs + "->" + "".join([label[v] for v in present])
    arrays = [dense.array for dense in denses]
    optimize = False
    if len(arrays) > 1 and math.prod(len(domains[v]) for v in target) >= _EINSUM_PATH_MIN_CELLS:
        optimize = list(_einsum_path(subscripts, tuple(array.shape for array in arrays)))
    result = np.einsum(subscripts, *arrays, optimize=optimize)
    for v in reduce_variables:
        if label[v] not in mentioned:
            # Summing a variable no participant mentions folds |Dom| copies.
            result = result * len(domains[v])
    if len(present) != len(output_scope):
        # An output variable no participant mentions is a constant direction.
        shape = tuple(len(domains[v]) if label[v] in mentioned else 1 for v in output_scope)
        result = np.broadcast_to(
            np.reshape(result, shape), tuple(len(domains[v]) for v in output_scope)
        )
    return result


def _broadcast_reduce(
    denses: Sequence[DenseFactor],
    ops: DenseOps,
    domains: Mapping[str, Sequence[Any]],
    target: Tuple[str, ...],
    reduce_variables: Tuple[str, ...],
    reduce_tag: str | None,
) -> Any:
    """The ``⊗``-product broadcast over the full box of ``target``, with the
    trailing ``reduce_variables`` axes folded by ``reduce_tag``'s ufunc."""
    accumulator: np.ndarray | None = None
    for dense in denses:
        aligned = aligned_array(dense, target)
        accumulator = aligned if accumulator is None else ops.mul(accumulator, aligned)
    # ufuncs over 0-d object arrays return bare Python scalars; re-wrap.
    accumulator = np.asarray(accumulator)
    full_shape = tuple(len(domains[v]) for v in target)
    if accumulator.shape != full_shape:
        # Some target variable appears in no participant: broadcast the
        # constant direction explicitly.
        accumulator = np.broadcast_to(accumulator, full_shape)
    if reduce_variables:
        ufunc = aggregate_ufunc(reduce_tag) if reduce_tag is not None else None
        if ufunc is None:
            raise FactorError(f"aggregate tag {reduce_tag!r} has no ufunc mapping")
        for _ in reduce_variables:
            accumulator = ufunc.reduce(accumulator, axis=-1)
    return accumulator


def dense_join_reduce(
    participants: Sequence[AnyFactor],
    semiring: Semiring,
    domains: Mapping[str, Sequence[Any]],
    output_scope: Sequence[str],
    reduce_variables: Sequence[str] = (),
    reduce_tag: str | None = None,
    name: str | None = None,
) -> DenseFactor:
    """``⊗``-multiply ``participants`` and ``⊕``-reduce variables away.

    The target scope is ``output_scope + reduce_variables``; every
    participant's scope must be a subset of it.  This is the vectorized
    counterpart of one InsideOut elimination step (lines 5-11 of
    Algorithm 1), run one of two ways:

    * a (+, ×) step over a float or complex carrier (``sum-product``,
      ``complex-sum-product``) that sums its ``reduce_variables`` (or
      reduces none) is a tensor contraction: one ``np.einsum`` over the
      participants' own arrays, which never materialises the box;
    * every other step — max-product, min-plus, max-sum, boolean, and
      counting's exact ``object`` ints — broadcasts the participants over
      the full domain box and folds the trailing ``reduce_variables`` axes
      with the aggregate ufunc for ``reduce_tag``.

    The float contract: a contraction adds and multiplies in another order
    than the broadcast fold, so its answers agree with the sparse pipeline
    within :meth:`Semiring.values_equal` (relative ``TOLERANCE``), not bit
    for bit.  Sums of products of small integers held in floats are exact
    in any order, hence ``==``.  Every other step is the broadcast fold,
    bit for bit as it always was.
    """
    ops = dense_ops_for(semiring)
    if ops is None:
        raise FactorError(f"semiring {semiring.name!r} has no dense operator table")
    if not participants:
        raise FactorError("dense_join_reduce requires at least one participant")
    output_scope = tuple(output_scope)
    reduce_variables = tuple(reduce_variables)
    target = output_scope + reduce_variables
    denses = [as_dense(factor, domains, semiring) for factor in participants]
    if _contracts(ops, target, reduce_tag, bool(reduce_variables)):
        accumulator = _contract(denses, domains, output_scope, reduce_variables)
    else:
        accumulator = _broadcast_reduce(denses, ops, domains, target, reduce_variables, reduce_tag)
    # Reductions of object arrays can return bare Python scalars; re-wrap so
    # the result is always an ndarray of the semiring dtype.
    result = np.array(accumulator, dtype=ops.dtype, copy=True)
    result_domains = {v: tuple(domains[v]) for v in output_scope}
    return DenseFactor(
        output_scope,
        result_domains,
        result,
        name=name or "dense_join",
        zero=ops.zero,
    )
