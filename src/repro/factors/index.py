"""Hash-trie indexes over factors, used by the OutsideIn join.

The OutsideIn algorithm (Section 5.1.1 of the paper) is a backtracking
search that binds variables one at a time in a *global* variable order and,
at each level, intersects the candidate values offered by every factor whose
scope contains the current variable.  To make each intersection step cheap we
index every factor as a trie whose levels follow the global order restricted
to the factor's scope — the classic structure behind worst-case-optimal join
algorithms such as LeapFrog TrieJoin and Generic Join.

Three index holders live here:

* :class:`FactorTrie` — one factor's trie.  Builds from the listing
  representation or (via :meth:`FactorTrie.from_dense`) directly from a
  dense ndarray factor's non-zero cells, skipping the dense → listing
  round trip mixed ``auto`` plans used to pay.
* :class:`TrieCache` — the per-run index shared across one InsideOut run's
  elimination steps (optionally thread-safe for the parallel executor).
* :class:`SharedTrieCache` — a cross-run store for *base* factors' tries,
  indicator projections and flat encodings (:mod:`repro.factors.flat`),
  keyed by factor content digest, used by :mod:`repro.serve` so repeated
  value-equal queries stop re-indexing and re-encoding their input
  factors on every execution.

Both holders index a factor two ways — as a trie for the Python kernel and
as flat code columns for the vectorized one — and their ``hits``/``misses``
count lookups of either kind: a hit is a trie, projection or encoding
(including a cached "this table has no encoding") that was already there.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.factors.factor import Factor
from repro.factors.flat import encode_flat, flat_context
from repro.semiring.base import Semiring

ValueTuple = Tuple[Any, ...]

_LEAF = "__leaf__"


class FactorTrie:
    """A trie over a factor's non-zero tuples, ordered by a global order.

    Parameters
    ----------
    factor:
        The factor to index.
    order:
        Global variable order.  The trie levels are the factor's scope
        variables sorted by their position in ``order``; scope variables not
        present in ``order`` are an error.
    semiring:
        Used to skip explicit zero entries.
    """

    __slots__ = ("factor", "variables", "root")

    def __init__(self, factor: Factor, order: Sequence[str], semiring: Semiring) -> None:
        position = {v: i for i, v in enumerate(order)}
        missing = [v for v in factor.scope if v not in position]
        if missing:
            raise ValueError(f"order {list(order)} misses scope variables {missing}")
        self.factor = factor
        self.variables: Tuple[str, ...] = tuple(
            sorted(factor.scope, key=lambda v: position[v])
        )
        perm = [factor.scope.index(v) for v in self.variables]
        root: Dict[Any, Any] = {}
        for key, value in factor.table.items():
            if semiring.is_zero(value):
                continue
            node = root
            for idx in perm[:-1] if perm else []:
                node = node.setdefault(key[idx], {})
            if perm:
                last = key[perm[-1]]
                leaf = node.setdefault(last, {})
                leaf[_LEAF] = value
            else:
                root[_LEAF] = value
        self.root = root

    @classmethod
    def from_dense(cls, dense, order: Sequence[str], semiring: Semiring) -> "FactorTrie":
        """Index a :class:`~repro.factors.dense.DenseFactor` directly.

        Builds the trie in one pass over the array's non-zero cells instead
        of materialising an intermediate listing ``Factor`` first (the
        dense → listing → trie round trip a sparse step following a dense
        one used to pay under ``backend="auto"``).  The inserted values are
        exactly those ``DenseFactor.to_factor`` would produce, so the
        resulting trie is interchangeable with the converted one.
        """
        position = {v: i for i, v in enumerate(order)}
        missing = [v for v in dense.scope if v not in position]
        if missing:
            raise ValueError(f"order {list(order)} misses scope variables {missing}")
        self = cls.__new__(cls)
        self.factor = dense
        self.variables = tuple(sorted(dense.scope, key=lambda v: position[v]))
        perm = [dense.scope.index(v) for v in self.variables]
        root: Dict[Any, Any] = {}
        mask = dense.nonzero_mask(semiring)
        domains = [dense.domains[v] for v in dense.scope]
        array = dense.array
        is_object = array.dtype == object
        for cell in np.argwhere(mask):
            raw = array[tuple(cell)]
            value = raw if is_object else raw.item()
            node = root
            for idx in perm[:-1] if perm else []:
                node = node.setdefault(domains[idx][cell[idx]], {})
            if perm:
                last = domains[perm[-1]][cell[perm[-1]]]
                leaf = node.setdefault(last, {})
                leaf[_LEAF] = value
            else:
                root[_LEAF] = value
        self.root = root
        return self

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of trie levels (the factor arity)."""
        return len(self.variables)

    def children(self, prefix: ValueTuple) -> Dict[Any, Any]:
        """Return the child map at ``prefix`` (values of the next variable).

        ``prefix`` is a tuple of values for ``self.variables[:len(prefix)]``.
        Returns an empty dict if the prefix is not present.
        """
        node = self.root
        for value in prefix:
            node = node.get(value)
            if node is None:
                return {}
        return {k: v for k, v in node.items() if k != _LEAF}

    def candidate_values(self, prefix: ValueTuple) -> set:
        """Set of values of the next variable compatible with ``prefix``."""
        return set(self.children(prefix).keys())

    def has_prefix(self, prefix: ValueTuple) -> bool:
        """``True`` iff some listed tuple extends ``prefix``."""
        node = self.root
        for value in prefix:
            node = node.get(value)
            if node is None:
                return False
        return True

    def value(self, full: ValueTuple, default: Any = None) -> Any:
        """The stored value for a complete tuple over ``self.variables``."""
        node = self.root
        for value in full:
            node = node.get(value)
            if node is None:
                return default
        return node.get(_LEAF, default)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FactorTrie({self.factor.name}, levels={self.variables})"


def build_trie(factor, order: Sequence[str], semiring: Semiring) -> FactorTrie:
    """Index one factor, dispatching on its representation.

    Dense factors are indexed straight from their ndarray cells
    (:meth:`FactorTrie.from_dense`); sparse factors through the ordinary
    constructor.
    """
    from repro.factors.dense import DenseFactor

    if isinstance(factor, DenseFactor):
        return FactorTrie.from_dense(factor, order, semiring)
    return FactorTrie(factor, order, semiring)


def build_tries(
    factors: Iterable[Factor], order: Sequence[str], semiring: Semiring
) -> list:
    """Index every factor against the same global ``order``."""
    return [build_trie(f, order, semiring) for f in factors]


class SharedTrieCache:
    """Cross-run index store for a query's *base* factors.

    A per-run :class:`TrieCache` dies with its run, so repeated executions
    of a value-equal query re-index the same input factors every time.  The
    serving layer (:mod:`repro.serve`) keeps one ``SharedTrieCache`` per
    (query content, ordering) and hands it to each run as the
    :class:`TrieCache` parent: base-factor tries, indicator projections and
    — for the vectorized kernel — their flat encodings, join indexes and
    the query's :class:`~repro.factors.flat.FlatContext` are built once and
    survive across runs.  Entries are keyed by the factor's *content
    digest* — the memo :func:`repro.planner.signature.factor_digest` leaves
    on the (from then on frozen) factor — so the store serves value-equal
    factors held by distinct objects, and a factor that was never digested
    is simply not covered.

    Flat encodings are codes into one context's domain tuples, so
    :meth:`flat_context` hands the store's context (and with it the stored
    encodings) only to a run over equal ``domains``; any other run encodes
    privately.  Stored columns are read-only.

    All methods are thread-safe — concurrent runs of the same query may
    populate the store simultaneously (both build the same entry outside
    the lock; the first store wins, the results are equal).
    """

    __slots__ = ("order", "semiring", "hits", "misses", "_digests",
                 "_tries", "_projections", "_flats", "_flat_ctx", "_lock")

    def __init__(self, order: Sequence[str], semiring: Semiring, factors: Sequence[Any]) -> None:
        self.order: Tuple[str, ...] = tuple(order)
        self.semiring = semiring
        self.hits = 0
        self.misses = 0
        self._digests = frozenset(getattr(f, "_digest", None) for f in factors) - {None}
        self._tries: Dict[str, FactorTrie] = {}
        # (digest, overlap) -> [projected factor, trie or None (lazy),
        #                       FlatFactor | False or None (lazy)]
        self._projections: Dict[Tuple[str, frozenset], list] = {}
        # digest -> FlatFactor | False (a failed encode, probed once per content)
        self._flats: Dict[str, Any] = {}
        self._flat_ctx: Any = None  # FlatContext | False once built
        self._lock = threading.Lock()

    def covers(self, factor) -> bool:
        """Whether ``factor``'s content digest is one this store was built for."""
        return getattr(factor, "_digest", None) in self._digests

    def trie(self, factor) -> FactorTrie:
        key = factor._digest
        with self._lock:
            trie = self._tries.get(key)
            if trie is not None:
                self.hits += 1
                return trie
            self.misses += 1
        trie = build_trie(factor, self.order, self.semiring)
        with self._lock:
            return self._tries.setdefault(key, trie)

    def projection_entry(self, factor, overlap: frozenset) -> list:
        """The cached ``[projected, trie-or-None, flat-or-None]`` entry."""
        from repro.factors.backend import as_sparse

        key = (factor._digest, overlap)
        with self._lock:
            entry = self._projections.get(key)
            if entry is not None:
                self.hits += 1
                return entry
            self.misses += 1
        sparse = as_sparse(factor, self.semiring)
        projected = sparse.indicator_projection(overlap, self.semiring)
        with self._lock:
            return self._projections.setdefault(key, [projected, None, None])

    def projection_trie(self, entry: list) -> FactorTrie:
        """The (lazily built) trie of a projection entry."""
        with self._lock:
            if entry[1] is not None:
                return entry[1]
        trie = FactorTrie(entry[0], self.order, self.semiring)
        with self._lock:
            if entry[1] is None:
                entry[1] = trie
            return entry[1]

    def flat_context(self, domains):
        """The store's encoding context, if ``domains`` are the ones it encodes.

        Built from the first run's ``domains``; ``None`` for a run whose
        domains differ (its codes would mean other values) or a semiring
        without ufuncs.
        """
        with self._lock:
            ctx = self._flat_ctx
        if ctx is None:
            built = flat_context(self.semiring, domains) or False
            with self._lock:
                if self._flat_ctx is None:
                    self._flat_ctx = built
                ctx = self._flat_ctx
        if ctx is False or ctx.domains != domains:
            return None
        return ctx

    def flat(self, factor, ctx):
        """The stored flat encoding of a covered factor (``None`` if it has none).

        ``ctx`` must be this store's :meth:`flat_context`.
        """
        key = factor._digest
        with self._lock:
            flat = self._flats.get(key)
            if flat is not None:
                self.hits += 1
                return _encoding(flat)
            self.misses += 1
        flat = _encode_frozen(factor, ctx)
        with self._lock:
            return _encoding(self._flats.setdefault(key, flat))

    def projection_flat(self, entry: list, ctx):
        """The (lazily built) flat encoding of a projection entry."""
        with self._lock:
            if entry[2] is not None:
                self.hits += 1
                return _encoding(entry[2])
            self.misses += 1
        flat = _encode_frozen(entry[0], ctx)
        with self._lock:
            if entry[2] is None:
                entry[2] = flat
            return _encoding(entry[2])


def _encode_frozen(factor, ctx):
    """A read-only flat encoding to keep across runs, or ``False`` if none."""
    flat = encode_flat(factor, ctx)
    return False if flat is None else flat.freeze()


def _encoding(cached):
    """A cached encode outcome as callers see it: ``False`` (none) -> ``None``.

    Not ``cached or None``: an encoding with no rows is falsy too.
    """
    return None if cached is False else cached


class TrieCache:
    """Per-run trie index shared across elimination steps.

    InsideOut's hot loop used to rebuild every participant's hash index at
    every elimination step, even though most factors survive many steps
    unchanged.  A :class:`TrieCache` is created once per run with the run's
    global variable order and hands out

    * :meth:`trie` — the :class:`FactorTrie` of a factor, built once per
      factor object (dense factors are indexed straight from their ndarray
      cells), and
    * :meth:`projection` — the indicator projection of a factor onto an
      overlap set *and* its trie, built once per ``(factor, overlap)`` pair
      (the same projection recurs whenever later steps induce the same
      overlap).

    Entries are keyed by object identity; the cache holds a reference to
    the keyed factor so the identity cannot be recycled while the entry
    lives.  :meth:`discard` drops entries for factors consumed by a step.

    ``thread_safe=True`` (used by the parallel DAG executor) guards the
    entry maps and the ``hits``/``misses`` counters with a lock so stats
    stay exact under the worker pool; tries themselves are built outside
    the lock (two threads may build the same trie — the first store wins
    and both results are equal).  ``adopt_parent`` plugs in a
    :class:`SharedTrieCache` whose entries are consulted, by content
    digest, for every factor it covers before anything is built here, and
    are never discarded.

    The vectorized kernel's encodings follow the same lookup order —
    local, then parent, then encode — through :meth:`flat` and
    :meth:`projection_flat`; the parent's encodings are used only when the
    run also adopted the parent's context (:meth:`flat_context`).
    """

    __slots__ = ("order", "semiring", "hits", "misses", "_tries", "_projections",
                 "_projection_keys", "_lock", "_parent", "_flats", "_flat_ctx",
                 "_flat_parent")

    def __init__(
        self, order: Sequence[str], semiring: Semiring, thread_safe: bool = False
    ) -> None:
        self.order: Tuple[str, ...] = tuple(order)
        self.semiring = semiring
        self.hits = 0
        self.misses = 0
        self._tries: Dict[int, Tuple[Any, FactorTrie]] = {}
        # key -> [source factor, projected factor, trie or None (lazy),
        #         parent entry or None, FlatFactor | False or None (lazy)]
        self._projections: Dict[Tuple[int, frozenset], list] = {}
        self._projection_keys: Dict[int, set] = {}
        self._lock = threading.RLock() if thread_safe else nullcontext()
        self._parent: Optional[SharedTrieCache] = None
        # id -> (factor pin, FlatFactor | False): per-run flat encodings for
        # the vectorized kernel; False caches a failed encode so ineligible
        # factors are probed once.  Discarded together with the tries.
        self._flats: Dict[int, Tuple[Any, Any]] = {}
        self._flat_ctx: Any = None
        # The parent, once its flat context is this run's (else None).
        self._flat_parent: Optional[SharedTrieCache] = None

    def adopt_parent(self, parent: Optional[SharedTrieCache]) -> None:
        """Consult ``parent`` for base-factor tries before building locally.

        A parent built against a different global order or semiring is
        silently ignored — its tries would be ordered wrong for this run.
        """
        if parent is None:
            return
        if parent.order != self.order or parent.semiring is not self.semiring:
            return
        self._parent = parent

    def trie(self, factor) -> FactorTrie:
        key = id(factor)
        with self._lock:
            entry = self._tries.get(key)
            if entry is not None and entry[0] is factor:
                self.hits += 1
                return entry[1]
            self.misses += 1
        if self._parent is not None and self._parent.covers(factor):
            trie = self._parent.trie(factor)
        else:
            trie = build_trie(factor, self.order, self.semiring)
        with self._lock:
            stored = self._tries.get(key)
            if stored is not None and stored[0] is factor:
                return stored[1]
            self._tries[key] = (factor, trie)
        return trie

    def _projection_entry(self, factor, overlap: Iterable[str]) -> list:
        overlap_key = frozenset(overlap)
        key = (id(factor), overlap_key)
        with self._lock:
            entry = self._projections.get(key)
            if entry is not None and entry[0] is factor:
                self.hits += 1
                return entry
            self.misses += 1
        if self._parent is not None and self._parent.covers(factor):
            shared = self._parent.projection_entry(factor, overlap_key)
            entry = [factor, shared[0], None, shared, None]
        else:
            from repro.factors.backend import as_sparse

            sparse = as_sparse(factor, self.semiring)
            projected = sparse.indicator_projection(overlap_key, self.semiring)
            entry = [factor, projected, None, None, None]
        with self._lock:
            stored = self._projections.get(key)
            if stored is not None and stored[0] is factor:
                return stored
            self._projections[key] = entry
            self._projection_keys.setdefault(id(factor), set()).add(key)
        return entry

    def projection_factor(self, factor, overlap: Iterable[str]) -> Factor:
        """The cached indicator projection of ``factor`` onto ``overlap``.

        Does *not* build the projection's trie — steps that end up on the
        dense path never need one (see :meth:`projection` for the trie).
        """
        return self._projection_entry(factor, overlap)[1]

    def projection(self, factor, overlap: Iterable[str]) -> Tuple[Factor, FactorTrie]:
        """The indicator projection of ``factor`` onto ``overlap`` + its trie."""
        entry = self._projection_entry(factor, overlap)
        if entry[2] is None:
            if entry[3] is not None:  # backed by the shared parent store
                entry[2] = self._parent.projection_trie(entry[3])
            else:
                entry[2] = FactorTrie(entry[1], self.order, self.semiring)
        return entry[1], entry[2]

    def projection_flat(self, factor, overlap: Iterable[str], ctx):
        """The flat encoding of ``factor``'s indicator projection onto ``overlap``."""
        entry = self._projection_entry(factor, overlap)
        if entry[4] is None:
            if entry[3] is not None and self._flat_parent is not None:
                flat = self._flat_parent.projection_flat(entry[3], ctx)
            else:
                flat = encode_flat(entry[1], ctx)
            entry[4] = flat if flat is not None else False
        return _encoding(entry[4])

    def flat_context(self, domains):
        """The run's flat-encoding context, built once (``None`` if unmapped).

        A run evaluates a single query, so the ``domains`` mapping is the
        same at every call — the first one wins.  The parent's context is
        adopted when it encodes these very domains.
        """
        with self._lock:
            if self._flat_ctx is None:
                shared = None
                if self._parent is not None:
                    shared = self._parent.flat_context(domains)
                if shared is not None:
                    self._flat_parent = self._parent
                self._flat_ctx = shared or flat_context(self.semiring, domains) or False
            return self._flat_ctx or None

    def flat(self, factor, ctx):
        """The cached flat encoding of ``factor`` (``None`` if it has none)."""
        key = id(factor)
        with self._lock:
            entry = self._flats.get(key)
            if entry is not None and entry[0] is factor:
                self.hits += 1
                return _encoding(entry[1])
            self.misses += 1
        if self._flat_parent is not None and self._flat_parent.covers(factor):
            encoded = self._flat_parent.flat(factor, ctx)
        else:
            encoded = encode_flat(factor, ctx)
        with self._lock:
            stored = self._flats.get(key)
            if stored is not None and stored[0] is factor:
                return _encoding(stored[1])
            self._flats[key] = (factor, encoded if encoded is not None else False)
        return encoded

    def stored_flat(self, factor):
        """The encoding already held for ``factor``, if any (never encodes)."""
        with self._lock:
            entry = self._flats.get(id(factor))
        if entry is not None and entry[0] is factor:
            return _encoding(entry[1])
        return None

    def store_flat(self, factor, flat) -> None:
        """Register a step result's flat encoding for downstream steps."""
        with self._lock:
            self._flats[id(factor)] = (factor, flat)

    def discard(self, factor) -> None:
        """Drop the tries of a factor consumed by an elimination step.

        Parent (:class:`SharedTrieCache`) entries are never discarded —
        they exist precisely to survive into the next run of the query.
        """
        with self._lock:
            self._tries.pop(id(factor), None)
            self._flats.pop(id(factor), None)
            for key in self._projection_keys.pop(id(factor), ()):
                self._projections.pop(key, None)

    def counters(self) -> Dict[str, int]:
        """A snapshot of the hit/miss counters (exact under the pool)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}
