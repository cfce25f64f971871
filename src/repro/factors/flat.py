"""The vectorized flat-table kernel for sparse elimination steps.

The trie kernel (:func:`repro.core.outsidein.eliminate_join`) is pure
Python: every survivor tuple costs dict probes, set intersections and a
per-candidate fold, all under the GIL.  Its (+, ×) ``sum`` steps fold
with inline ``*``, ``+`` and zero tests; every other pair, the
``max``/``min``/``or`` steps this kernel takes over among them, pays a
Python call per ``⊗``, ``⊕`` and zero test.  For the semirings whose operators
map to NumPy ufuncs *and* whose aggregates are fold-order independent
(``max``/``min``/``or`` — never float ``sum``, whose re-association changes
the bits), the same fused multiply-then-marginalize step can run as a
handful of GIL-releasing array operations instead:

* a factor's sparse table is *encoded* as one ``int64`` domain-code column
  per scope variable plus a value column of the semiring dtype
  (:class:`FlatFactor`);
* the multiway natural join is an iterative sorted-merge on packed
  mixed-radix key codes: each participant's *join index* (stable sort
  permutation, distinct keys, run-length table — :meth:`FlatFactor.join_index`)
  is probed by indexing a direct-address lookup array when the shared key
  box is no larger than the encoding (one ``searchsorted`` into the
  distinct keys otherwise) and expanded with ``repeat``;
* the eliminated variable's aggregate is a grouped ``ufunc.reduceat`` over
  the survivor key, and zero tuples are dropped by a vectorized mask that
  reproduces :meth:`repro.semiring.base.Semiring.values_equal` exactly;
* a step result is a :class:`Factor` whose ``table`` is decoded from its
  encoding on first read: a flat or dense step consuming it reads the
  encoding, so a chain of flat steps builds no Python table in between.

The kernel is engineered to agree with the trie path up to ``==`` on the
resulting table (and to be deterministic in itself): participants are
folded in the trie kernel's exact order (indicator projections first, then
the incident factors), the partial product is zero-masked after *every*
multiplication just as ``eliminate_join`` tests ``is_zero`` after every
``mul``, per-source zero screening matches the corresponding trie build
(tolerant for listing factors, exact ``!=`` for dense ndarrays), and any
input that could make a ``max``/``min`` fold order-dependent (NaN values,
unsafe ``int``→``float64`` conversions, custom equality predicates) makes
the step fall back to the trie kernel instead.  :func:`try_flat_eliminate`
returns ``None`` for every such bail-out; the caller keeps the trie path
as the universal fallback.

Everything derived from a factor's *content* — its columns, the domain code
maps they index (:class:`FlatContext`) and its join indexes — is built once
per content, not once per run: a step result carries its encoding to
whichever run's :class:`~repro.factors.index.TrieCache` reads it under the
same context (:func:`encode_flat` hands it over instead of re-encoding),
and a base factor's (and its indicator projections') is kept, read-only, in the
serving layer's content-addressed
:class:`~repro.factors.index.SharedTrieCache`, so a warm run of a
value-equal query does no per-tuple Python work at all.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.factors.dense import AGGREGATE_UFUNCS, DenseFactor, DenseOps, dense_ops_for
from repro.factors.factor import Factor
from repro.semiring.base import Semiring

# Aggregate tags whose folds are order-independent on IEEE values (ties are
# ``==``-equal either way).  Float ``sum`` is deliberately absent: grouped
# reduceat re-associates the fold, which changes the bits vs the trie path.
FLAT_TAGS = frozenset({"max", "min", "or"})

# Mixed-radix packed keys must fit int64 with headroom for the running
# ``key * radix + code`` accumulation.
_MAX_RADIX = 1 << 62

# Integers above 2**53 do not round-trip through float64; converting them
# would diverge from the trie path's exact Python arithmetic.
_MAX_SAFE_INT = 1 << 53


class FlatFactor:
    """One factor's sparse table as aligned NumPy columns.

    ``columns`` maps each scope variable to an ``int64`` array of domain
    codes (the value's index in the query domain tuple); ``values`` is the
    aligned value column in the semiring's dense dtype.  Rows are exactly
    the tuples the corresponding :class:`~repro.factors.index.FactorTrie`
    would hold.  The codes are positions in one :class:`FlatContext`'s
    domain tuples, so an encoding is only meaningful next to the context
    it was built with.
    """

    __slots__ = ("scope", "columns", "values", "_joins")

    def __init__(
        self,
        scope: Tuple[str, ...],
        columns: Dict[str, np.ndarray],
        values: np.ndarray,
    ) -> None:
        self.scope = scope
        self.columns = columns
        self.values = values
        # shared-variable tuple -> join index (see :meth:`join_index`)
        self._joins: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]] = {}

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def freeze(self) -> "FlatFactor":
        """Make every column and join index read-only; returns ``self``.

        An encoding kept across runs (:class:`~repro.factors.index.
        SharedTrieCache`) is frozen first, so a kernel that wrote into a
        participant in place would raise instead of corrupting the next run.
        Join indexes built later are frozen as they are stored.
        """
        for column in self.columns.values():
            column.setflags(write=False)
        self.values.setflags(write=False)
        for index in list(self._joins.values()):
            _freeze_arrays(index)
        return self

    def join_index(
        self, shared: Tuple[str, ...], ctx: "FlatContext"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(order, keys, starts, counts, lut)`` for a sorted-merge on ``shared``.

        ``order`` is the stable sort permutation of the rows by their packed
        key over ``shared``; ``keys`` are the distinct packed keys in
        ascending order, and rows ``order[starts[i] : starts[i] + counts[i]]``
        carry ``keys[i]``.  ``lut`` maps every packed key of the ``shared``
        box to its position in ``keys`` (``-1``: absent) when the box has
        no more cells than the encoding has rows — so it is never larger
        than ``order`` — and is ``None`` above that.  Determined by the
        encoding's content alone, so it is memoised here and lives exactly
        as long as the encoding does (two threads racing build it twice,
        equal).
        """
        index = self._joins.get(shared)
        if index is None:
            rows = len(self)
            key = _pack_keys(self.columns, shared, ctx, rows)
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            starts = _run_starts(sorted_key)
            counts = np.diff(starts, append=rows)
            keys = sorted_key[starts]
            lut = None
            box = math.prod(ctx.sizes[v] for v in shared)
            if box <= rows:
                lut = np.full(box, -1, dtype=np.int64)
                lut[keys] = np.arange(len(keys), dtype=np.int64)
            index = self._joins[shared] = (order, keys, starts, counts, lut)
            # Checked after the store: a concurrent freeze() either sees the
            # index in ``_joins`` or has already frozen the values.
            if not self.values.flags.writeable:
                _freeze_arrays(index)
        return index


class FlatContext:
    """Encoding context: domain code maps + the semiring's ufuncs.

    A function of the semiring and the query's ``domains`` only, so one
    context serves every run over the same domains (``domains`` keeps the
    tuples it was built from for that comparison).
    """

    __slots__ = ("semiring", "ops", "domains", "index", "objects", "sizes")

    def __init__(self, semiring: Semiring, ops: DenseOps, domains) -> None:
        self.semiring = semiring
        self.ops = ops
        self.domains: Dict[str, Tuple[Any, ...]] = {}
        self.index: Dict[str, Dict[Any, int]] = {}
        self.objects: Dict[str, np.ndarray] = {}
        self.sizes: Dict[str, int] = {}
        for variable, domain in domains.items():
            self.domains[variable] = domain = tuple(domain)
            self.index[variable] = {value: i for i, value in enumerate(domain)}
            holder = np.empty(len(domain), dtype=object)
            holder[:] = list(domain)
            self.objects[variable] = holder
            self.sizes[variable] = len(domain)


def flat_context(semiring: Semiring, domains) -> Optional[FlatContext]:
    """Build an encoding context, or ``None`` if the semiring has no ufuncs."""
    ops = dense_ops_for(semiring)
    if ops is None or ops.dtype == object:
        return None
    return FlatContext(semiring, ops, domains)


def flat_step_eligible(
    semiring: Semiring,
    tag: str,
    domains,
    induced,
    participants: Sequence[Any],
    min_rows: int,
) -> bool:
    """Whether one elimination step qualifies for the flat kernel.

    Deterministic in the step's content (the step cache keys results by
    content digest, so the kernel choice must be a function of the inputs):
    the aggregate fold must be order-independent, the semiring must map to
    non-object ufuncs with default value equality, the induced domain box
    must pack into ``int64`` keys, and the participants must list enough
    tuples to amortise the NumPy fixed costs.
    """
    if tag not in FLAT_TAGS:
        return False
    if semiring.eq is not None:
        return False
    ops = dense_ops_for(semiring)
    if ops is None or ops.dtype == object:
        return False
    radix = 1
    for variable in induced:
        radix *= len(domains[variable])
        if radix > _MAX_RADIX:
            return False
    return sum(len(f) for f in participants) >= min_rows


# ---------------------------------------------------------------------- #
# zero screening
# ---------------------------------------------------------------------- #
def _zero_mask(values: np.ndarray, zero: Any) -> np.ndarray:
    """Vectorized :meth:`Semiring.values_equal` against the semiring zero.

    Bit-for-bit the scalar predicate: exact comparison for ``bool`` and for
    infinite zeros (min-plus ``+inf``, max-sum ``-inf``), and the relative
    ``1e-9 * max(1, |a|, |b|)`` tolerance with the ``|a-b| == inf`` escape
    for finite zeros.  NaN values are never zero (as in the scalar code).

    A ``float64`` column against the zero ``0.0`` takes one comparison:
    there the tolerance test reduces exactly to ``|a| <= 1e-9`` (for
    ``|a| >= 1`` both sides fail; infinities and NaN fail both).
    """
    if values.dtype == np.float64 and type(zero) is float and zero == 0.0:
        return np.abs(values) <= 1e-9
    if values.dtype == np.bool_:
        return values == zero
    if np.isinf(zero):
        return values == zero
    with np.errstate(invalid="ignore"):
        diff = np.abs(values - zero)
        scale = np.maximum(np.abs(values), abs(zero))
        tolerance = 1e-9 * np.maximum(scale, 1.0)
        return (diff <= tolerance) & (diff != np.inf)


def _drop_zero_rows(
    columns: Dict[str, np.ndarray], values: np.ndarray, zero: Any
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    mask = _zero_mask(values, zero)
    if mask.any():
        keep = ~mask
        columns = {v: c[keep] for v, c in columns.items()}
        values = values[keep]
    return columns, values


def _value_column(values: Sequence[Any], ops: DenseOps) -> Optional[np.ndarray]:
    """Convert listed Python values to the semiring dtype, or ``None`` if lossy.

    Only exact conversions are allowed: float64/bool pass through, ints
    below ``2**53`` widen exactly.  Anything else (mixed object columns,
    huge ints, bool tables holding non-bool truthy values) would diverge
    from the trie path's Python arithmetic, so the step falls back.  An int
    beside floats is one: NumPy rounds it into the float column, so the
    column's large magnitudes are checked against the listed values.
    """
    raw = np.asarray(values)
    if raw.dtype == ops.dtype:
        column = raw
    elif ops.dtype == np.float64 and raw.dtype.kind in "iu":
        if raw.size and (int(raw.max()) > _MAX_SAFE_INT or int(raw.min()) < -_MAX_SAFE_INT):
            return None
        column = raw.astype(np.float64)
    else:
        return None
    if column.dtype == np.float64 and column.size:
        high, low = float(column.max()), float(column.min())
        if math.isnan(high):
            # NaN makes max/min folds depend on candidate enumeration order.
            return None
        if max(high, -low) >= _MAX_SAFE_INT and column is raw and not isinstance(values, np.ndarray):
            large = np.flatnonzero(np.abs(column) >= _MAX_SAFE_INT).tolist()
            if any(_unsafe_int(values[i]) for i in large):
                return None
    return column


def _unsafe_int(value: Any) -> bool:
    """Whether ``value`` is an int that float64 may not hold exactly."""
    return isinstance(value, int) and abs(value) > _MAX_SAFE_INT


# ---------------------------------------------------------------------- #
# encoding
# ---------------------------------------------------------------------- #
def encode_flat(factor, ctx: FlatContext) -> Optional[FlatFactor]:
    """Encode a factor's sparse table as flat columns, or ``None``.

    Zero screening mirrors the matching trie build exactly: listing factors
    drop tolerant-zero entries (as :class:`FactorTrie` does), dense factors
    keep every exactly-non-zero cell (as :meth:`FactorTrie.from_dense`
    does) — the join's per-multiplication masking handles the near-zero
    stragglers precisely where the trie kernel's ``is_zero`` tests would.
    A flat step's result under ``ctx`` is not re-encoded: its own encoding
    is returned (:func:`stored_encoding`).
    """
    stored = stored_encoding(factor, ctx)
    if stored is not None:
        return stored
    if isinstance(factor, DenseFactor):
        return _encode_dense(factor, ctx)
    return _encode_listing(factor, ctx)


def _encode_listing(factor: Factor, ctx: FlatContext) -> Optional[FlatFactor]:
    scope = tuple(factor.scope)
    table = factor.table
    rows = len(table)
    indexes = []
    for variable in scope:
        index = ctx.index.get(variable)
        if index is None:
            return None
        indexes.append(index)
    if rows == 0:
        columns = {variable: np.empty(0, dtype=np.int64) for variable in scope}
        return FlatFactor(scope, columns, np.empty(0, dtype=ctx.ops.dtype))
    try:
        # One pass per column: the code lookup runs inside ``map`` and the
        # array fills straight from the iterator, with no per-tuple Python.
        columns = {
            variable: np.fromiter(
                map(index.__getitem__, column), np.int64, count=rows
            )
            for variable, index, column in zip(scope, indexes, zip(*table))
        }
    except (KeyError, TypeError):
        return None  # a table value outside the declared domain
    values = _value_column(list(table.values()), ctx.ops)
    if values is None:
        return None
    columns, values = _drop_zero_rows(columns, values, ctx.semiring.zero)
    return FlatFactor(scope, columns, values)


def _encode_dense(dense: DenseFactor, ctx: FlatContext) -> Optional[FlatFactor]:
    scope = tuple(dense.scope)
    if dense.array.dtype == object:
        return None
    for variable in scope:
        if dense.domains[variable] != ctx.domains.get(variable):
            return None  # axis indices would not be query-domain codes
    mask = dense.nonzero_mask(ctx.semiring)
    cells = np.nonzero(mask)
    columns = {
        variable: cells[axis].astype(np.int64)
        for axis, variable in enumerate(scope)
    }
    values = _value_column(dense.array[mask], ctx.ops)
    if values is None:
        return None
    return FlatFactor(scope, columns, values)


def patch_values(flat: FlatFactor, rows: List[int], values: List[Any],
                 ctx: FlatContext) -> Optional[FlatFactor]:
    """``flat`` with ``values`` written at ``rows``, frozen, or ``None``.

    The encoding of a table that differs from ``flat``'s in those rows'
    values alone: the code columns and the memoised join indexes, which
    depend on codes alone, are shared with ``flat``; the value column is
    copied.  ``None`` when the new values fail :func:`_value_column`'s
    exactness rules on their own (a NaN, an int above ``2**53`` for a
    float column); the caller then encodes the table afresh.
    """
    column = _value_column(values, ctx.ops)
    if column is None:
        return None
    patched = FlatFactor(flat.scope, flat.columns, flat.values.copy())
    patched.values[rows] = column
    patched._joins = flat._joins
    return patched.freeze()


# ---------------------------------------------------------------------- #
# lazy result tables
# ---------------------------------------------------------------------- #
_TABLE = Factor.table  # the slot a lazy result's decoded table fills
_DECODE_LOCK = threading.Lock()


class _LazyFactor(Factor):
    """A flat step's result: ``table`` is decoded on first read.

    Flat and dense consumers read the encoding (:func:`stored_encoding`,
    :meth:`DenseFactor.from_flat`) and ``len()`` counts its rows, so a
    table nobody reads is never built.  The first read decodes the rows
    (whose keys are value tuples of the scope's arity already) into a plain
    ``dict`` and fills the slot only if it is still empty, so two threads racing it leave one table — and never undo
    a :meth:`freeze` the other applied.  Pickles as a plain :class:`Factor`.
    """

    __slots__ = ("_flat", "_ctx")

    def __init__(self, flat: FlatFactor, ctx: FlatContext, name: str) -> None:
        super().__init__(flat.scope, (), name=name)
        _TABLE.__delete__(self)
        self._flat = flat
        self._ctx = ctx

    @property
    def table(self):
        try:
            return _TABLE.__get__(self)
        except AttributeError:
            pass
        decoded = dict(_decoded_items(self._flat, self._ctx))
        with _DECODE_LOCK:
            try:
                return _TABLE.__get__(self)
            except AttributeError:
                _TABLE.__set__(self, decoded)
                return decoded

    @table.setter
    def table(self, table) -> None:
        _TABLE.__set__(self, table)

    def __len__(self) -> int:
        return len(self._flat)

    def __reduce_ex__(self, protocol):
        plain = Factor.__new__(Factor)
        for slot in Factor.__slots__:
            setattr(plain, slot, getattr(self, slot))
        return object.__new__, (Factor,), plain.__getstate__()


def _decoded_items(flat: FlatFactor, ctx: FlatContext):
    """``(value tuple, value)`` pairs of an encoding, in row order."""
    values = flat.values.tolist()
    if not flat.scope:
        return zip([()] * len(values), values)
    decoded = [ctx.objects[v][flat.columns[v]].tolist() for v in flat.scope]
    return zip(zip(*decoded), values)


def stored_encoding(factor, ctx) -> Optional[FlatFactor]:
    """The encoding a flat step's result carries, if it was made under ``ctx``."""
    if isinstance(factor, _LazyFactor) and factor._ctx is ctx:
        return factor._flat
    return None


# ---------------------------------------------------------------------- #
# the fused join-and-marginalize kernel
# ---------------------------------------------------------------------- #
def _pack_keys(
    columns: Dict[str, np.ndarray], variables: Sequence[str], ctx: FlatContext,
    rows: int,
) -> np.ndarray:
    """Mixed-radix packed ``int64`` key codes over ``variables``."""
    key = np.zeros(rows, dtype=np.int64)
    for variable in variables:
        key = key * ctx.sizes[variable] + columns[variable]
    return key


def _run_starts(sorted_key: np.ndarray) -> np.ndarray:
    """First position of every run of equal keys in a non-empty sorted array."""
    return np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))


def _freeze_arrays(arrays: Iterable[Optional[np.ndarray]]) -> None:
    for array in arrays:
        if array is not None:
            array.setflags(write=False)


def _join_rows(
    state_key: np.ndarray,
    index: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]],
    row_cap: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The matching ``(state row, other row)`` pairs of a sorted-merge join.

    ``index`` is the other side's :meth:`FlatFactor.join_index` (of a
    non-empty encoding).  Pairs come state row by state row, each state
    row's matches in the other side's original row order — the order the
    trie kernel enumerates them in.  ``None`` past ``row_cap`` pairs.
    """
    order, keys, run_starts, run_counts, lut = index
    if lut is not None:
        # Packed state keys lie in the box ``lut`` spans: a direct lookup.
        run = lut[state_key]
        keep = run >= 0
    else:
        # Clipping keeps the probe of a state key past the last run in
        # range; the equality test then rejects it like any other non-match.
        run = np.minimum(np.searchsorted(keys, state_key, side="left"), len(keys) - 1)
        keep = keys[run] == state_key
    run = run[keep]
    counts = run_counts[run]
    total = int(counts.sum())
    if total > row_cap:
        return None
    state_rows = np.repeat(np.flatnonzero(keep), counts)
    # Output position p of a state row whose block starts at ``first`` reads
    # the other side's sorted row ``run_start + (p - first)``.
    first = np.cumsum(counts) - counts
    other_rows = order[
        np.repeat(run_starts[run] - first, counts) + np.arange(total, dtype=np.int64)
    ]
    return state_rows, other_rows


def flat_eliminate(
    participants: Sequence[FlatFactor],
    variable: str,
    output_scope: Tuple[str, ...],
    tag: str,
    ctx: FlatContext,
    row_cap: int,
    name: str,
) -> Optional[Factor]:
    """Fused multiply-then-marginalize over flat-encoded participants.

    ``participants`` must be in the trie kernel's fold order (indicator
    projections first, then the incident factors): the running product is
    multiplied participant by participant and zero-masked after every
    multiplication, reproducing ``eliminate_join``'s per-``mul``
    ``is_zero`` short-circuits row for row.  Returns the result as a
    :class:`Factor` that holds its own flat encoding and decodes ``table``
    only when something reads it (a consumer under ``ctx`` takes the
    encoding instead — :func:`stored_encoding`), or ``None`` when an
    intermediate would exceed ``row_cap`` rows (the caller falls back to
    the trie kernel, whose depth-first descent never materialises the
    join).
    """
    ops = ctx.ops

    def result(columns: Dict[str, np.ndarray], values: np.ndarray) -> Factor:
        return _LazyFactor(FlatFactor(output_scope, columns, values), ctx, name)

    def empty() -> Factor:
        return result(
            {v: np.empty(0, dtype=np.int64) for v in output_scope},
            np.empty(0, dtype=ops.dtype),
        )

    for flat in participants:
        if len(flat) == 0:
            return empty()  # some participant is identically zero

    columns: Dict[str, np.ndarray] = {}
    values: Optional[np.ndarray] = None
    for flat in participants:
        if values is None:
            columns = dict(flat.columns)
            # Fold from the semiring one exactly as the trie kernel does.
            values = ops.mul(np.asarray(ops.one, dtype=ops.dtype), flat.values)
        else:
            shared = tuple(v for v in flat.scope if v in columns)
            if shared:
                state_key = _pack_keys(columns, shared, ctx, values.shape[0])
                joined = _join_rows(state_key, flat.join_index(shared, ctx), row_cap)
                if joined is None:
                    return None
                state_rows, other_rows = joined
            else:
                total = values.shape[0] * len(flat)
                if total > row_cap:
                    return None
                state_rows = np.repeat(
                    np.arange(values.shape[0], dtype=np.int64), len(flat)
                )
                other_rows = np.tile(
                    np.arange(len(flat), dtype=np.int64), values.shape[0]
                )
            values = ops.mul(values[state_rows], flat.values[other_rows])
            new_columns = {v: c[state_rows] for v, c in columns.items()}
            for v in flat.scope:
                if v not in new_columns:
                    new_columns[v] = flat.columns[v][other_rows]
            columns = new_columns
        columns, values = _drop_zero_rows(columns, values, ctx.semiring.zero)
        if values.shape[0] == 0:
            return empty()

    ufunc = AGGREGATE_UFUNCS[tag]
    if not output_scope:
        total_value = ufunc.reduce(values)
        total_value = (
            bool(total_value) if values.dtype == np.bool_ else float(total_value)
        )
        if ctx.semiring.is_zero(total_value):
            return empty()
        return result({}, np.asarray([total_value], dtype=ops.dtype))

    group_key = _pack_keys(columns, output_scope, ctx, values.shape[0])
    order = np.argsort(group_key, kind="stable")
    sorted_key = group_key[order]
    sorted_values = values[order]
    starts = _run_starts(sorted_key)
    aggregated = ufunc.reduceat(sorted_values, starts)
    group_rows = order[starts]
    mask = _zero_mask(aggregated, ctx.semiring.zero)
    if mask.any():
        keep = ~mask
        aggregated = aggregated[keep]
        group_rows = group_rows[keep]
    if aggregated.shape[0] == 0:
        return empty()
    return result({v: columns[v][group_rows] for v in output_scope}, aggregated)
