"""Hash-trie indexes over factors, used by the OutsideIn join.

The OutsideIn algorithm (Section 5.1.1 of the paper) is a backtracking
search that binds variables one at a time in a *global* variable order and,
at each level, intersects the candidate values offered by every factor whose
scope contains the current variable.  To make each intersection step cheap we
index every factor as a trie whose levels follow the global order restricted
to the factor's scope — the classic structure behind worst-case-optimal join
algorithms such as LeapFrog TrieJoin and Generic Join.

What has been derived from one factor's content — its trie, its flat code
columns for the vectorized kernel (:mod:`repro.factors.flat`), its dense
array for the ndarray kernel (:mod:`repro.factors.dense`) and the same
three for each of its indicator projections (Definition 4.2) — lives in
one entry record per factor, and every kernel reads it through one holder:

* :class:`FactorTrie` — one factor's trie.  Builds from the listing
  representation or (via :meth:`FactorTrie.from_dense`) directly from a
  dense ndarray factor's non-zero cells.
* :class:`TrieCache` — the holder: a map from factor to entry with one
  lookup path (local entry, then the parent holder if it covers the
  factor, else build outside the lock, first store wins).  One per
  InsideOut run, keyed by factor identity; a run is one thread, so it
  never locks.
* :class:`SharedTrieCache` — the same holder keyed by factor content
  digest, which :mod:`repro.serve` and each incremental view keep across
  runs as each run's parent so repeated value-equal queries, and updates
  of a standing one, stop re-indexing, re-encoding and re-densifying the
  *base* factors that did not change.  Content an update replaces hands
  its entry on (:meth:`SharedTrieCache.derive`): a trie path-copied along
  the delta (Driscoll, Sarnak, Sleator and Tarjan's persistent structures),
  in a fresh build's order, and, while the support stays, the projections
  and the encoding with its changed values patched.

A holder's ``hits``/``misses`` count lookups: a hit is a trie, projection,
encoding (including a cached "this table has no encoding") or dense array
that was already in its entry; a lookup the parent serves is a miss here
and a hit or miss there.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.factors.flat import FlatFactor, encode_flat, flat_context, patch_values, stored_encoding
from repro.semiring.base import Semiring

ValueTuple = Tuple[Any, ...]


class FactorTrie:
    """A trie over a factor's non-zero tuples, ordered by a global order.

    One nested ``dict`` level per scope variable, in the global order; the
    *last* level maps the last variable's value straight to the tuple's
    semiring value.  A node reached by binding every variable therefore
    *is* the value — there is no leaf record and no sentinel key, so no
    domain value can be mistaken for one.  A factor over no variables has
    no level to hold its value: its ``root`` is the value itself.

    Parameters
    ----------
    factor:
        The factor to index.
    order:
        Global variable order.  The trie levels are the factor's scope
        variables sorted by their position in ``order``; scope variables not
        present in ``order`` are an error.
    semiring:
        Used to skip explicit zero entries (not at all when the table is
        already known to list none under this semiring).

    ``empty`` is true when no tuple was indexed (the factor is identically
    zero).  It is the only valid emptiness test: an arity-0 ``root`` is a
    semiring value, and a non-zero value may well be falsy (min-plus' one
    is ``0.0``).
    """

    __slots__ = ("factor", "variables", "root", "empty")

    def __init__(self, factor: Factor, order: Sequence[str], semiring: Semiring) -> None:
        table = factor.table
        skip = None if getattr(table, "zero_free", None) is semiring else semiring.zero_test()
        self._index(factor, order, table.items(), skip)

    @classmethod
    def from_dense(cls, dense, order: Sequence[str], semiring: Semiring) -> "FactorTrie":
        """Index a :class:`~repro.factors.dense.DenseFactor` directly.

        Builds the trie in one pass over the array's non-zero cells instead
        of materialising an intermediate listing ``Factor`` first (which a
        sparse step following a dense one under ``backend="auto"`` would
        otherwise pay for).  The inserted values are exactly those
        ``DenseFactor.to_factor`` would produce, so the resulting trie is
        interchangeable with the converted one.
        """
        domains = [dense.domains[v] for v in dense.scope]
        array = dense.array
        is_object = array.dtype == object

        def cells():
            for cell in np.argwhere(dense.nonzero_mask(semiring)):
                raw = array[tuple(cell)]
                key = tuple(domain[i] for domain, i in zip(domains, cell))
                yield key, raw if is_object else raw.item()

        self = cls.__new__(cls)
        self._index(dense, order, cells(), None)
        return self

    def _index(self, factor, order: Sequence[str], items, skip) -> None:
        """Fill the trie from ``(scope-aligned tuple, value)`` pairs.

        ``skip`` is the zero predicate to filter the values with, or
        ``None`` when ``items`` are known to hold no zero.
        """
        position = {v: i for i, v in enumerate(order)}
        missing = [v for v in factor.scope if v not in position]
        if missing:
            raise ValueError(f"order {list(order)} misses scope variables {missing}")
        self.factor = factor
        self.variables: Tuple[str, ...] = tuple(
            sorted(factor.scope, key=lambda v: position[v])
        )
        perm = [factor.scope.index(v) for v in self.variables]
        if not perm:
            held = [value for _, value in items if skip is None or not skip(value)]
            self.empty = not held
            self.root = held[0] if held else None
            return
        inner, last = perm[:-1], perm[-1]
        root: Dict[Any, Any] = {}
        for key, value in items:
            if skip is not None and skip(value):
                continue
            node = root
            for idx in inner:
                child = node.get(key[idx])
                if child is None:
                    child = node[key[idx]] = {}
                node = child
            node[key[last]] = value
        self.root = root
        self.empty = not root

    def derive(self, factor: Factor, changes: Dict[ValueTuple, Any]) -> "FactorTrie":
        """The trie of ``factor``, this trie's factor with ``changes`` written.

        ``changes`` map scope-aligned keys to non-zero values, in the order
        :meth:`Factor.apply_delta <repro.factors.factor.Factor.apply_delta>`
        wrote them, and both tables list no zero.  Path copying: only the
        level dicts on a changed key's path are copied, every other level
        is shared with this trie.  A rewritten key keeps its place in each
        level and a new key goes last, as in the table, so iteration order
        equals a fresh build's.
        """
        derived = FactorTrie.__new__(FactorTrie)
        derived.factor = factor
        derived.variables = variables = self.variables
        *inner, last = [factor.scope.index(v) for v in variables]
        root = dict(self.root)
        copied = {id(root)}
        for key, value in changes.items():
            node = root
            for idx in inner:
                child = node.get(key[idx])
                if child is None:
                    child = node[key[idx]] = {}
                    copied.add(id(child))
                elif id(child) not in copied:
                    child = node[key[idx]] = dict(child)
                    copied.add(id(child))
                node = child
            node[key[last]] = value
        derived.root = root
        derived.empty = not root
        return derived

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of trie levels (the factor arity)."""
        return len(self.variables)

    def level(self, prefix: ValueTuple) -> Optional[Dict[Any, Any]]:
        """The trie's own node reached by ``prefix`` (read it, never write it).

        ``prefix`` binds ``self.variables[:len(prefix)]``.  The level maps
        each next-variable value extending it to a sub-trie, or to the
        tuple's semiring value at the last variable.  ``None`` when no
        listed tuple extends ``prefix`` or it binds every variable.
        """
        if self.empty or len(prefix) >= len(self.variables):
            return None
        node = self.root
        for value in prefix:
            node = node.get(value)
            if node is None:
                return None
        return node

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


class _FactorIndex:
    """Everything a holder has derived from one factor's content.

    ``trie``, ``flat`` and ``dense`` fill in lazily (``None`` = not looked
    up yet; ``flat`` is ``False`` once an encode was refused, so an
    ineligible table is probed once; ``dense`` is a frozen
    :class:`~repro.factors.dense.DenseFactor` over the holder's domains).
    ``projections`` maps an overlap set to the entry of the factor's
    indicator projection onto it — itself an entry, whose ``factor`` is
    filled in by its first lookup.  ``positions`` maps each key of the
    factor's table to its row of ``flat``; :meth:`SharedTrieCache.derive`
    builds it once and hands it on while the support stays.
    """

    __slots__ = ("factor", "trie", "flat", "dense", "projections", "positions")

    def __init__(self, factor=None) -> None:
        self.factor = factor
        self.trie: Optional[FactorTrie] = None
        self.flat: Any = None
        self.dense: Optional[DenseFactor] = None
        self.projections: Dict[frozenset, "_FactorIndex"] = {}
        self.positions: Optional[Dict[ValueTuple, int]] = None


def _encoding(cached):
    """A cached encode outcome as callers see it: ``False`` (none) -> ``None``.

    Not ``cached or None``: an encoding with no rows is falsy too.
    """
    return None if cached is False else cached


class TrieCache:
    """Per-run index entries shared across one run's elimination steps.

    Created once per run with the run's global variable order, it hands out

    * :meth:`trie` — the :class:`FactorTrie` of a factor (dense factors are
      indexed straight from their ndarray cells),
    * :meth:`projection_factor` / :meth:`projection` — the indicator
      projection of a factor onto an overlap set, and its trie (the same
      projection recurs whenever later steps induce the same overlap),
    * :meth:`flat` / :meth:`projection_flat` — their flat encodings for the
      vectorized kernel, under the run's :meth:`flat_context`,
    * :meth:`dense` — the dense array of a factor or of one of its
      projections for the ndarray kernel, over the run's domains,

    each built once per factor object.  Entries are keyed by object
    identity; an entry holds its factor, so the identity cannot be recycled
    while the entry lives.  :meth:`discard` drops the entry of a factor
    consumed by a step.

    A per-run holder is read by one thread and never locks; the
    :class:`SharedTrieCache` subclass, which concurrent requests share,
    guards its entries and counters with a lock.  ``adopt_parent`` plugs in a
    :class:`SharedTrieCache`, which is asked first for everything derived
    from a factor it covers — its encodings only when the run also adopted
    its context (:meth:`flat_context`), its dense arrays only when the run's
    domains are the ones they are laid out over.
    """

    __slots__ = ("order", "semiring", "hits", "misses", "_entries", "_lock",
                 "_parent", "_flat_ctx", "_domains")

    def __init__(self, order: Sequence[str], semiring: Semiring) -> None:
        self.order: Tuple[str, ...] = tuple(order)
        self.semiring = semiring
        self.hits = 0
        self.misses = 0
        self._entries: Dict[Any, _FactorIndex] = {}
        self._lock = nullcontext()
        self._parent: Optional[SharedTrieCache] = None
        self._flat_ctx: Any = None  # FlatContext | False once built
        self._domains: Optional[Dict[str, Tuple[Any, ...]]] = None  # see _layout

    def adopt_parent(self, parent: Optional["SharedTrieCache"]) -> None:
        """Consult ``parent`` for base-factor entries before building locally.

        A parent built against a different global order or semiring is
        silently ignored — its tries would be ordered wrong for this run.
        """
        if parent is None:
            return
        if parent.order != self.order or parent.semiring is not self.semiring:
            return
        self._parent = parent

    # ------------------------------------------------------------------ #
    # the one lookup path
    # ------------------------------------------------------------------ #
    def _key(self, factor):
        return id(factor)

    def _entry(self, factor, overlap: Optional[frozenset] = None) -> _FactorIndex:
        """The entry of ``factor`` (or of its projection onto ``overlap``),
        created empty on first use.  Call with the lock held."""
        key = self._key(factor)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _FactorIndex(factor)
        if overlap is not None:
            projections = entry.projections
            entry = projections.get(overlap)
            if entry is None:
                entry = projections[overlap] = _FactorIndex()
        return entry

    def _lookup(self, factor, overlap: Optional[frozenset], slot: str, ctx=None):
        """``slot`` of ``factor``'s entry, or of its ``overlap`` projection's.

        Local entry, then the parent if it covers ``factor`` (and ``ctx``,
        the run's encoding context for an encoding or its :meth:`_layout`
        for a dense array, is the parent's), else built here — outside the
        lock: two threads may build the same thing, the first store wins
        and the results are equal.  A projection's ``factor`` slot must be
        looked up before its trie, encoding or dense array.
        """
        with self._lock:
            entry = self._entry(factor, overlap)
            found = getattr(entry, slot)
            if found is not None:
                self.hits += 1
                return found
            self.misses += 1
        parent = self._parent
        if (
            parent is not None
            and parent.covers(factor)
            and (ctx is None or ctx is parent._flat_ctx or ctx is parent._domains)
        ):
            found = parent._lookup(factor, overlap, slot, ctx)
        elif slot == "factor":
            from repro.factors.backend import as_sparse

            sparse = as_sparse(factor, self.semiring)
            found = sparse.indicator_projection(overlap, self.semiring)
        elif slot == "trie":
            found = build_trie(entry.factor, self.order, self.semiring)
        elif slot == "dense":
            found = self._densify(entry, ctx)
        else:
            found = self._encode(entry.factor, ctx)
        with self._lock:
            if getattr(entry, slot) is None:
                setattr(entry, slot, found)
            return getattr(entry, slot)

    def _encode(self, factor, ctx):
        """A fresh flat encoding of ``factor``, or ``False`` if it has none."""
        flat = encode_flat(factor, ctx)
        return False if flat is None else flat

    def _densify(self, entry: _FactorIndex, domains) -> DenseFactor:
        """A fresh read-only dense array of ``entry``'s factor over ``domains``.

        Scattered from the factor's encoding when one is stored (its codes
        index this holder's domains) instead of looping over the listing.
        """
        factor = entry.factor
        flat = entry.flat
        if flat is None or flat is False:
            flat = stored_encoding(factor, self._flat_ctx)
        if flat is None:
            dense = DenseFactor.from_factor(factor, domains, self.semiring)
        else:
            dense = DenseFactor.from_flat(flat, domains, self.semiring, name=factor.name)
        return dense.freeze()

    def _layout(self, domains):
        """The one ``domains`` mapping the holder's dense arrays are over.

        A run evaluates a single query, so the first mapping asked for wins;
        it is the parent's own when the parent lays out equal domains, which
        is what lets the parent serve this run its arrays.
        """
        layout = self._domains  # set once and never changed: read unlocked
        if layout is None:
            parent = self._parent
            layout = None if parent is None else parent._layout(domains)
            if layout is None or layout != domains:
                layout = dict(domains)
            with self._lock:
                if self._domains is None:
                    self._domains = layout
                layout = self._domains
        return layout

    # ------------------------------------------------------------------ #
    def trie(self, factor) -> FactorTrie:
        """The trie of ``factor`` along the holder's global order."""
        return self._lookup(factor, None, "trie")

    def projection_factor(self, factor, overlap: Iterable[str]) -> Factor:
        """The indicator projection of ``factor`` onto ``overlap``.

        Does *not* build the projection's trie — steps that end up on the
        dense path never need one (see :meth:`projection` for the trie).
        """
        return self._lookup(factor, frozenset(overlap), "factor")

    def projection(self, factor, overlap: Iterable[str]) -> Tuple[Factor, FactorTrie]:
        """The indicator projection of ``factor`` onto ``overlap`` + its trie."""
        overlap = frozenset(overlap)
        projected = self._lookup(factor, overlap, "factor")
        return projected, self._lookup(factor, overlap, "trie")

    def flat(self, factor, ctx):
        """The flat encoding of ``factor`` under ``ctx`` (``None`` if it has none).

        ``ctx`` must be this holder's :meth:`flat_context`.
        """
        return _encoding(self._lookup(factor, None, "flat", ctx))

    def projection_flat(self, factor, overlap: Iterable[str], ctx):
        """The flat encoding of ``factor``'s indicator projection onto ``overlap``."""
        overlap = frozenset(overlap)
        self._lookup(factor, overlap, "factor")
        return _encoding(self._lookup(factor, overlap, "flat", ctx))

    def dense(self, factor, domains, overlap: Optional[Iterable[str]] = None) -> DenseFactor:
        """The read-only dense array of listing ``factor`` over ``domains``.

        With ``overlap``, of ``factor``'s indicator projection onto it.
        ``domains`` are the run's: the first call's win (:meth:`_layout`).
        """
        if overlap is not None:
            overlap = frozenset(overlap)
            self._lookup(factor, overlap, "factor")
        return self._lookup(factor, overlap, "dense", self._layout(domains))

    def flat_context(self, domains):
        """The holder's flat-encoding context, built once (``None`` if unmapped).

        A run evaluates a single query, so the ``domains`` mapping is the
        same at every call — the first one wins.  The parent's context is
        adopted when it encodes these very domains.
        """
        with self._lock:
            ctx = self._flat_ctx
        if ctx is None:
            if self._parent is not None:
                ctx = self._parent.flat_context(domains)
            ctx = ctx or flat_context(self.semiring, domains) or False
            with self._lock:
                if self._flat_ctx is None:
                    self._flat_ctx = ctx
                ctx = self._flat_ctx
        return ctx or None

    def discard(self, factor) -> None:
        """Drop the entry of a factor consumed by an elimination step."""
        with self._lock:
            self._entries.pop(self._key(factor), None)

    def counters(self) -> Dict[str, int]:
        """A snapshot of the hit/miss counters."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


class SharedTrieCache(TrieCache):
    """Cross-run index entries for a query's *base* factors.

    A per-run :class:`TrieCache` dies with its run, so repeated executions
    of a value-equal query would re-index the same input factors every
    time.  Whoever runs the same contents again keeps one and hands it to
    each run as the :class:`TrieCache` parent.  There are two such owners:
    the serving layer (:mod:`repro.serve`) keeps one per (query content,
    ordering) and never changes what it covers — an updated query is other
    content and gets another store — while an
    :class:`~repro.incremental.IncrementalView` keeps one for its lifetime
    and moves it along with its standing query (:meth:`cover`), so an
    update indexes only its delta (:meth:`derive`).  It is the same holder
    with five differences:

    * entries are keyed by the factor's *content digest* — the memo
      :func:`repro.planner.signature.factor_digest` leaves on the (from
      then on frozen) factor — so it serves value-equal factors held by
      distinct objects, and :meth:`covers` only the digests it was last
      told to :meth:`cover` (a factor that was never digested is simply
      not covered);
    * it is locked: concurrent requests for the same query may populate
      it simultaneously;
    * stored encodings are read-only (:meth:`FlatFactor.freeze
      <repro.factors.flat.FlatFactor.freeze>`), like every holder's dense
      arrays;
    * encodings are codes into one context's domain tuples and dense
      arrays are laid out over the same domains, so both — through
      :meth:`flat_context` and :meth:`_layout` — are handed only to a run
      over the ``domains`` of the store's first run; any other run encodes
      and densifies privately;
    * :meth:`discard` keeps the entry: it exists to survive into the next
      run of the query.
    """

    __slots__ = ("_digests",)

    def __init__(self, order: Sequence[str], semiring: Semiring, factors: Sequence[Any]) -> None:
        super().__init__(order, semiring)
        self._lock = threading.Lock()
        self.cover(factors)

    def cover(self, factors: Sequence[Any]) -> None:
        """Serve exactly the contents of ``factors`` from now on.

        Entries of any other content are dropped, so the store never holds
        an index of something that is no longer one of its owner's factors;
        entries of contents that stay are untouched.  Not to be called
        while a run is reading the store.
        """
        digests = frozenset(getattr(f, "_digest", None) for f in factors) - {None}
        with self._lock:
            self._digests = digests
            for key in [k for k in self._entries if k not in digests]:
                del self._entries[key]

    def covers(self, factor) -> bool:
        """Whether ``factor``'s content digest is one this store serves."""
        return getattr(factor, "_digest", None) in self._digests

    def derive(self, old: Factor, new: Factor, changes: Dict[ValueTuple, Any]) -> None:
        """Give ``new`` = ``old`` with the aligned ``changes`` applied an
        entry derived from ``old``'s, before :meth:`cover` drops that one.

        Both must be named listing factors whose tables list no zero of
        the store's semiring (:meth:`Factor.is_pruned`, a memo hit once a
        lineage is swept); otherwise nothing is derived.  The trie is
        path-copied (:meth:`FactorTrie.derive`) unless a change deletes a
        cell: a delete that empties a prefix would move keys, so that trie
        builds fresh.  While the support is unchanged — every changed key
        was listed and none is deleted — the projections are shared, and so
        are the encoding's code columns and join indexes: its value column
        is copied with the changed rows patched
        (:func:`~repro.factors.flat.patch_values`), found through a key →
        row map built on the first such update of a lineage.  An encoding
        whose new values fail the encoder's exactness rules, and every
        dense array, build lazily, as for any new content.
        """
        if not (
            isinstance(old, Factor) and isinstance(new, Factor)
            and new._digest is not None
            and old.is_pruned(self.semiring) and new.is_pruned(self.semiring)
        ):
            return
        with self._lock:
            entry = self._entries.get(old._digest)
            if entry is None or new._digest in self._entries:
                return
            trie, projections = entry.trie, dict(entry.projections)
            flat, positions = entry.flat, entry.positions
        derived = _FactorIndex(new)
        if all(map(new.table.__contains__, changes)):  # no change deleted a cell
            if trie is not None and old.scope:
                derived.trie = trie.derive(new, changes)
            if all(map(old.table.__contains__, changes)):
                derived.projections = projections
                # rows follow the table's order: no zero row was dropped
                if isinstance(flat, FlatFactor) and len(flat) == len(old.table):
                    if positions is None:
                        positions = dict(zip(old.table, range(len(flat))))
                    rows = [positions[key] for key in changes]
                    derived.flat = patch_values(flat, rows, list(changes.values()), self._flat_ctx)
                    derived.positions = positions
        with self._lock:
            self._entries.setdefault(new._digest, derived)

    def _key(self, factor):
        return factor._digest

    def _encode(self, factor, ctx):
        flat = super()._encode(factor, ctx)
        return flat if flat is False else flat.freeze()

    def flat_context(self, domains):
        """The store's encoding context, if ``domains`` are the ones it lays out.

        Built from the first run's ``domains``; ``None`` for a run whose
        domains differ (its codes would mean other values) or a semiring
        without ufuncs.
        """
        if self._layout(domains) != domains:
            return None
        return super().flat_context(domains)

    def discard(self, factor) -> None:
        """Keep the entry (see the class docstring)."""
