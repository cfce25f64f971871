"""Structural query signatures for plan caching.

The :class:`~repro.planner.cache.PlanCache` must recognise a query it has
planned before even when the *data* changed (repeated query traffic over
drifting relations) or the *variable names* changed (isomorphic queries).
This module computes a canonical labelling of the query's structure:

* each variable's seed colour is ``(tag, aggregate block, |Dom|)`` — the
  aggregate *block* is the index of the maximal run of identical aggregate
  tags in the written bound order, which is exactly the granularity at which
  reordering is always semantics-preserving (adjacent identical aggregates
  commute; distinct blocks do not);
* colours are refined Weisfeiler–Leman style against the multiset of
  incident factor-edge signatures (member colours plus a log-bucketed factor
  size, so data drift within one log2 bucket still hits the cache);
* the final signature serialises the *entire* structure under the canonical
  labelling.  Two queries with equal signatures are therefore certifiably
  isomorphic via their canonical labellings — colour-refinement
  incompleteness can only cause a missed cache hit, never a wrong one —
  so a cached variable ordering can be transferred index-by-index and
  remains a member of ``EVO`` of the new query.
"""

from __future__ import annotations

import hashlib
import weakref
import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.query import FAQQuery

_REFINEMENT_ROUNDS = 3

SIGNATURE_VERSION = 5
"""Format version of :func:`query_signature` tuples and cached-plan payloads.

Bump whenever the signature layout — or the :class:`~repro.planner.cache.CachedPlan`
payload stored under it — changes: warm plan-cache sections
(:func:`repro.planner.cache.warm_sections`, in replica arguments or on
disk) are tagged with this version and adopt nothing on mismatch, so
stale plans can never be read against a new signature scheme.  Version 2: ``CachedPlan``
gained ``step_sizes`` (per-step size estimates).  Version 3: the
signature lost its indicator-join field (joins are no strategy of their
own, so no cached plan depends on the factor values).  Version 4: the
strategy left ``CachedPlan`` and the cache key (InsideOut is the only one).
Version 5: ``CachedPlan`` lost ``buckets`` (the cache is exact-key only).
"""


def size_bucket(size: int) -> int:
    """Log2 bucket of a factor size (0 → 0, 1 → 1, 2-3 → 2, 4-7 → 3, ...)."""
    return int(size).bit_length()


def _aggregate_blocks(query: FAQQuery) -> Dict[str, int]:
    """Map each variable to its aggregate block index (free variables: 0).

    Bound variables are grouped into maximal runs of identical aggregate
    tags along the written order; block boundaries are the only ordering
    constraints the signature must preserve exactly.
    """
    blocks: Dict[str, int] = {v: 0 for v in query.free}
    index = 0
    previous_tag = None
    for variable in query.bound:
        tag = query.tag(variable)
        if tag != previous_tag:
            index += 1
            previous_tag = tag
        blocks[variable] = index
    return blocks


def _ranks(values: Sequence) -> List[int]:
    """Each value's rank among the distinct values (dense, from 0)."""
    rank = {value: r for r, value in enumerate(sorted(set(values)))}
    return [rank[value] for value in values]


def canonical_order(query: FAQQuery) -> List[str]:
    """The query's variables in canonical (colour-refined) order.

    Each round's colours are relabelled to dense integer ranks, so a round
    compares small tuples of ints instead of colours nested one level deeper
    per round.  A rank relabelling preserves the order of colours, hence of
    the sorted incidence tuples built from them, so the canonical order is
    the one the nested colours give.

    Ties that survive refinement break on the written position, which keeps
    the labelling deterministic; a tie between genuinely asymmetric
    variables merely yields a different serialisation (a cache miss), never
    an unsound match.
    """
    order = query.order
    position = {v: i for i, v in enumerate(order)}
    blocks = _aggregate_blocks(query)
    colors = _ranks([(query.tag(v), blocks[v], query.domain_size(v)) for v in order])
    edges = [
        (tuple(position[v] for v in f.scope), size_bucket(len(f))) for f in query.factors
    ]
    incidence: List[List[int]] = [[] for _ in order]
    for e, (scope, _) in enumerate(edges):
        for i in set(scope):
            incidence[i].append(e)

    classes = len(set(colors))
    for _ in range(min(_REFINEMENT_ROUNDS, len(order))):
        edge_colors = _ranks([
            (tuple(sorted(colors[i] for i in scope)), bucket) for scope, bucket in edges
        ])
        colors = _ranks([
            (colors[i], tuple(sorted(edge_colors[e] for e in incident)))
            for i, incident in enumerate(incidence)
        ])
        refined = max(colors, default=-1) + 1
        if refined == classes:
            break
        classes = refined

    return sorted(order, key=lambda v: (colors[position[v]], position[v]))


class _QueryKeys:
    """What the per-query memo keeps: the signature, the canonical order,
    and the content key once something asks for it."""

    __slots__ = ("signature", "canon", "content_key")

    def __init__(self, signature: tuple, canon: List[str]) -> None:
        self.signature = signature
        self.canon = canon
        self.content_key: Optional[str] = None


_QUERY_MEMO: "weakref.WeakKeyDictionary[FAQQuery, _QueryKeys]" = weakref.WeakKeyDictionary()


def _keys_of(query: FAQQuery) -> _QueryKeys:
    """The query's memo entry, its signature computed on first use."""
    memo = _QUERY_MEMO.get(query)
    if memo is None:
        memo = _QUERY_MEMO[query] = _QueryKeys(*_compute_signature(query))
    return memo


def query_signature(query: FAQQuery) -> Tuple[tuple, List[str]]:
    """The cache signature of a query plus its canonical variable order.

    Returns ``(signature, canon)`` where ``signature`` is a hashable full
    serialisation of the query structure under the canonical labelling and
    ``canon`` lists the variables in canonical order (``canon[i]`` is the
    variable behind canonical index ``i``).

    Computed once per query instance and kept in the same per-query memo as
    :func:`query_content_key`, which reads the signature from there.
    """
    memo = _keys_of(query)
    return memo.signature, memo.canon


def _compute_signature(query: FAQQuery) -> Tuple[tuple, List[str]]:
    canon = canonical_order(query)
    index = {v: i for i, v in enumerate(canon)}
    blocks = _aggregate_blocks(query)
    variables = tuple(
        (query.tag(v), blocks[v], query.domain_size(v)) for v in canon
    )
    factors = tuple(
        sorted(
            (tuple(sorted(index[v] for v in f.scope)), size_bucket(len(f)))
            for f in query.factors
        )
    )
    signature = (query.semiring.name, query.num_free, variables, factors)
    return signature, canon


# ---------------------------------------------------------------------- #
# stable cross-process content hashes
# ---------------------------------------------------------------------- #
# The in-process plan cache keys on hashable signature *tuples*; the
# replicated serving tier (:mod:`repro.serve`) keys on hex *digests* that
# must agree between processes.  Python's builtin ``hash`` is salted per
# process (PYTHONHASHSEED), so the digests below are built from an explicit
# canonical byte encoding instead.

CONTENT_KEY_VERSION = 2
"""Format version folded into every content digest.

Bump whenever the canonical byte encoding (or what it covers) changes, so
digests computed by an old process can never alias digests of a new one
across a rolling restart; every store that spills digest-keyed state seals
with :func:`sealed_version`, so the bump also invalidates their spills.
Version 2: a sparse factor's rows are digested in hash buckets
(:func:`factor_digest`).
"""


def sealed_version(store_version: int) -> Tuple[int, int]:
    """The seal tag of a store that spills digest-keyed state.

    Pairs the store's own layout version with :data:`CONTENT_KEY_VERSION`:
    a spill names factors and steps by content digest, and a factor in it
    carries its digest memo, so a spill written under another content-key
    version must be adopted by nothing.
    """
    return (store_version, CONTENT_KEY_VERSION)


def canonical_bytes(value: Any) -> bytes:
    """A deterministic, process-independent byte encoding of plain data.

    Supports the value shapes that occur in signatures, factor tables and
    variable domains: ``None``, bools, ints, floats, complex, strings,
    bytes, and (frozen)sets/sequences thereof.  The encoding is injective
    per type (every atom is length-prefixed and type-tagged) and
    canonicalises sets by sorting their encoded elements, so equal values
    encode equally in every process.  Unsupported types raise ``TypeError``
    — callers (the serving tier) degrade gracefully.
    """
    # This runs once per key (a tuple) and value of every digested row.
    # Exact tuples, ints and floats, the shapes of nearly every row, go
    # first on one type lookup; subclasses (``bool``, ``IntEnum``, named
    # tuples) and the rarer shapes take the isinstance chain, ordered by
    # how often each occurs.
    kind = type(value)
    if kind is tuple:
        return b"(" + b",".join(map(canonical_bytes, value)) + b")"
    if kind is int:
        raw = b"%d" % value
        return b"i%d:%s" % (len(raw), raw)
    if kind is float:
        raw = repr(value).encode("ascii")  # repr is shortest-roundtrip, stable
        return b"f%d:%s" % (len(raw), raw)
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join([canonical_bytes(v) for v in value]) + b")"
    if isinstance(value, bool):  # before int: bool subclasses int
        return b"T" if value else b"F"
    if isinstance(value, int):
        raw = str(value).encode("ascii")
        return b"i%d:%s" % (len(raw), raw)
    if isinstance(value, float):
        raw = repr(value).encode("ascii")  # repr is shortest-roundtrip, stable
        return b"f%d:%s" % (len(raw), raw)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s%d:%s" % (len(raw), raw)
    if value is None:
        return b"N"
    if isinstance(value, complex):
        raw = repr(value).encode("ascii")
        return b"c%d:%s" % (len(raw), raw)
    if isinstance(value, (bytes, bytearray)):
        return b"b%d:%s" % (len(value), bytes(value))
    if isinstance(value, (frozenset, set)):
        parts = sorted(canonical_bytes(v) for v in value)
        return b"S(" + b",".join(parts) + b")"
    raise TypeError(f"no canonical byte encoding for {type(value).__name__!r}")


def canonical_sequence(parts: Iterable[bytes]) -> bytes:
    """:func:`canonical_bytes` of a tuple, from its elements' encodings.

    For callers that encode one element once and reuse it in many tuples.
    """
    return b"(" + b",".join(parts) + b")"


def _hasher(*chunks: bytes) -> "hashlib._Hash":
    """The hash :func:`_digest` finalises, left open for more bytes.

    A caller that hashes many payloads sharing a prefix feeds the prefix
    once and ``copy()``s the hash; bytes it ``update``s afterwards continue
    the last chunk (no ``|`` is inserted).
    """
    h = hashlib.sha256()
    h.update(b"repro-content-v%d" % CONTENT_KEY_VERSION)
    for chunk in chunks:
        h.update(b"|")
        h.update(chunk)
    return h


def _digest(*chunks: bytes) -> str:
    return _hasher(*chunks).hexdigest()


def signature_digest(signature: tuple) -> str:
    """A stable hex digest of a :func:`query_signature` tuple.

    Unlike ``hash(signature)`` this agrees across processes and interpreter
    restarts, so it can key cross-process caches and wire protocols.
    """
    return _digest(b"sig", canonical_bytes(signature))


def factor_digest(factor: Any) -> str:
    """A stable content digest of one factor (scope, name excluded).

    Keyed on the scope *names* plus the non-default table entries, so two
    value-equal factors — distinct objects, different processes — digest
    identically, and any changed cell changes the digest.  Dense ndarray
    factors digest their domains and raw cells without a listing round
    trip.  Memoised on the factor, so the hash is paid once per factor
    object.

    **Bucketed layout (sparse factors).**  The n rows fall into B buckets,
    B a power of two within √2 of √n and fixed by n alone (one bucket below
    :data:`BUCKET_MIN_ROWS` rows); a row's bucket is the CRC-32 of its key's
    :func:`canonical_bytes` — never the salted builtin ``hash``.  A bucket's
    digest is the SHA-256 of its sorted ``key=value`` encodings, and the
    factor digest is the SHA-256 of (scope, B, the bucket digests in bucket
    order).  It certifies what a single hash over all rows did: it is a
    function of content alone, independent of insertion order, and two
    tables with equal digests are equal short of a SHA-256 collision.

    **Derived digests.**  A factor that :meth:`Factor.apply_delta
    <repro.factors.factor.Factor.apply_delta>` built from a digested parent
    with the same B carries the parent's :class:`BucketTable` and the keys
    the delta changed (with their encodings), not the parent.  A lineage's
    bucket tables keep each row's encoding — its key from the lineage's
    first child on, one pass as sorting the keys into buckets was, and its
    value from the first child that touches its bucket — so a digest
    encodes only the changed rows, O(|delta|) encodings instead of n, and
    re-hashes each bucket they fall in from its stored rows (≈ √n rows of
    bytes, hashed in C).  It is byte-identical to a fresh digest of the
    same table.  A delta that writes a key equal to a stored one of another
    encoding (``True`` for ``1``) gets no derivation, and its child is
    digested in full.

    Digesting **freezes** the factor: every digest-keyed cache (step
    results, shared tries, completed serve results) relies on the digest
    certifying the table content forever, so in-place mutation after this
    point raises instead of silently serving stale answers.  Pickling thaws
    a table but keeps the memo, which still certifies it: a memo hit on a
    thawed factor freezes it again.  The supported update path is
    ``Factor.apply_delta``, which returns a new factor with a new digest.
    """
    cached = getattr(factor, "_digest", None)
    if cached is not None:
        if not getattr(factor, "frozen", True):
            factor.freeze()
        return cached
    digest = _compute_factor_digest(factor)
    try:
        factor._digest = digest
    except AttributeError:  # foreign factor-like object without the slot
        pass
    freeze = getattr(factor, "freeze", None)
    if callable(freeze):
        freeze()
    return digest


def _compute_factor_digest(factor: Any) -> str:
    """The digest :func:`factor_digest` memoises.

    A sparse factor's :class:`BucketTable` is recorded on it on the way
    (``None`` for a one-bucket factor, which keeps no bucket state).
    """
    from repro.factors.dense import DenseFactor

    if isinstance(factor, DenseFactor):
        domains = tuple(factor.domains[v] for v in factor.scope)
        return _digest(
            b"dense",
            canonical_bytes(tuple(factor.scope)),
            canonical_bytes(domains),
            str(factor.array.dtype).encode("ascii"),
            factor.array.tobytes(),
        )
    table = factor.table
    count = bucket_count(len(table))
    derivation = getattr(factor, "_buckets", None)
    if isinstance(derivation, BucketDelta) and derivation.parent.count == count:
        buckets = derivation.apply(table)
    else:
        buckets = BucketTable(_bucket_digests(table, count))
    try:
        factor._buckets = buckets if count > 1 else None
    except AttributeError:  # foreign factor-like object without the slot
        pass
    return _digest(
        b"sparse",
        canonical_bytes(tuple(factor.scope)),
        b"%d" % count,
        buckets.digests,
    )


# ---------------------------------------------------------------------- #
# the bucketed sparse-factor digest
# ---------------------------------------------------------------------- #
BUCKET_MIN_ROWS = 256
"""Below this many rows a sparse factor is one bucket and keeps no bucket
state: re-hashing it whole on an update costs less than holding the state
on every small factor would."""


def bucket_count(rows: int) -> int:
    """B for a factor of ``rows`` rows: the power of two within √2 of
    √rows (1 below :data:`BUCKET_MIN_ROWS`)."""
    if rows < BUCKET_MIN_ROWS:
        return 1
    return 1 << (rows.bit_length() // 2)


def _bucket_digest(rows: Iterable[bytes]) -> bytes:
    return hashlib.sha256(b";".join(sorted(rows))).digest()


def _bucket_digests(table: Dict[Any, Any], count: int) -> bytes:
    """The ``count`` bucket digests of ``table``, concatenated in bucket order."""
    if count == 1:
        return _bucket_digest(
            canonical_bytes(key) + b"=" + canonical_bytes(value)
            for key, value in table.items()
        )
    rows: List[List[bytes]] = [[] for _ in range(count)]
    mask = count - 1
    crc32 = zlib.crc32
    for key, value in table.items():
        raw = canonical_bytes(key)
        rows[crc32(raw) & mask].append(raw + b"=" + canonical_bytes(value))
    return b"".join(map(_bucket_digest, rows))


class BucketTable:
    """What a digested sparse factor keeps of its bucketed digest.

    ``digests`` holds the B bucket digests, 32 bytes each in bucket order:
    all a fresh digest keeps, and all that crosses a process boundary.
    ``rows`` holds one dict per bucket, from each row key to the bytes
    :func:`_bucket_digest` hashes for it: its ``key=value`` encoding once
    ``encoded`` flags the bucket, its ``key=`` prefix before.  Both stay
    ``None`` until the first :meth:`child` of a lineage builds them from
    the table in one pass that encodes the keys alone — no more than
    sorting them into buckets costs — and a child appends the values of a
    bucket it is the first to touch.  A derived table shares the dicts of
    the buckets it did not touch with its parent (copy-on-write), so a
    chain of updates holds one encoding per row plus the touched buckets'
    copies still alive, and re-hashing an encoded bucket encodes nothing.
    """

    __slots__ = ("digests", "rows", "encoded")

    def __init__(self, digests: bytes, rows: Optional[List[Dict[Any, bytes]]] = None,
                 encoded: Optional[bytes] = None) -> None:
        self.digests = digests
        self.rows = rows
        self.encoded = encoded

    @property
    def count(self) -> int:
        return len(self.digests) // 32

    def portable(self) -> "BucketTable":
        """This table without its rows (they are this process's cache)."""
        return self if self.rows is None else BucketTable(self.digests)

    def child(self, table: Dict[Any, Any], changed: Iterable[Any], rows: int
              ) -> Optional["BucketDelta"]:
        """What a child of ``table`` — the content this bucket table
        digests — needs to derive its own digest: ``None`` unless the
        child's ``rows`` keep B.  Builds the keys' encodings on first use.

        Also ``None`` when a changed key equals a stored key that encodes
        differently (``True`` and ``1``, ``1.0`` and ``1``, ``-0.0`` and
        ``0.0``): the child's table keeps the stored key object, whose row
        — in this bucket or another — is the one to rewrite.  Encodings are
        prefix-free, so a stored row starts with ``raw=`` exactly when its
        key encodes as ``raw``.
        """
        count = self.count
        if bucket_count(rows) != count:
            return None
        mask = count - 1
        crc32 = zlib.crc32
        stored = self.rows
        if stored is None:
            stored = [{} for _ in range(count)]
            for key in table:
                raw = canonical_bytes(key)
                stored[crc32(raw) & mask][key] = raw + b"="
            self.encoded = bytes(count)  # before ``rows``: a reader of ``rows`` finds it
            self.rows = stored
        located = []
        for key in changed:
            raw = canonical_bytes(key)
            index = crc32(raw) & mask
            prefix = raw + b"="
            if key in table and not stored[index].get(key, b"").startswith(prefix):
                return None
            located.append((key, index, prefix))
        return BucketDelta(self, tuple(located))


class BucketDelta:
    """A parent's :class:`BucketTable` and the keys its child changed,
    each paired with its bucket index and its ``key=`` encoding.

    Held by a factor from :meth:`Factor.apply_delta
    <repro.factors.factor.Factor.apply_delta>` until it is digested; it
    references the parent's bucket table, never the parent factor.
    """

    __slots__ = ("parent", "changed")

    def __init__(self, parent: BucketTable, changed: Tuple[Tuple[Any, int, bytes], ...]) -> None:
        self.parent = parent
        self.changed = changed

    def portable(self) -> None:
        """Nothing: a derivation does not cross a process boundary."""
        return None

    def apply(self, table: Dict[Any, Any]) -> BucketTable:
        """The child's bucket table: the parent's, with each changed key's
        row encoded from ``table`` (or dropped) and every bucket one falls
        in re-hashed from its stored rows — whose values are encoded first
        if no earlier child touched that bucket."""
        parent = self.parent
        rows = list(parent.rows)
        encoded = bytearray(parent.encoded)
        digests = bytearray(parent.digests)
        touched: Dict[int, Dict[Any, bytes]] = {}
        for key, index, prefix in self.changed:
            bucket = touched.get(index)
            if bucket is None:
                if encoded[index]:
                    bucket = dict(rows[index])
                else:
                    bucket = {k: p + canonical_bytes(table[k])
                              for k, p in rows[index].items() if k in table}
                    encoded[index] = 1
                touched[index] = bucket
            if key in table:
                bucket[key] = prefix + canonical_bytes(table[key])
            else:
                bucket.pop(key, None)
        for index, bucket in touched.items():
            rows[index] = bucket
            digests[32 * index:32 * (index + 1)] = _bucket_digest(bucket.values())
        return BucketTable(bytes(digests), rows, bytes(encoded))


def query_content_key(query: FAQQuery) -> str:
    """The stable content digest of a query — equal iff queries are value-equal.

    Combines the canonical WL signature (structure) with the exact
    variable/domain/aggregate spelling and a :func:`factor_digest` per
    factor, so *value-equal* queries from different clients or processes
    share one key while isomorphic-but-renamed queries (whose outputs name
    different variables) do not.  This is the coalescing key of the serving
    tier: two requests with equal keys are certifiably answerable by one
    execution.

    Memoised per query instance (queries are immutable after construction),
    beside the signature :func:`query_signature` keeps, so a query's WL pass
    runs once whichever of the two asks first; raises ``TypeError`` for
    queries whose domains or factor values have no canonical encoding —
    callers fall back to not coalescing.
    """
    memo = _keys_of(query)
    if memo.content_key is not None:
        return memo.content_key
    # canonical_bytes of (semiring, order, free, tags, ((v, Dom(v)) ...)),
    # the domains spliced from each variable's memoised encoding
    spelling = canonical_sequence([
        canonical_bytes(query.semiring.name),
        canonical_bytes(tuple(query.order)),
        canonical_bytes(tuple(query.free)),
        canonical_bytes(tuple((v, query.tag(v)) for v in query.bound)),
        canonical_sequence(query.variables[v].content_bytes() for v in query.order),
    ])
    factor_part = ";".join(sorted(factor_digest(f) for f in query.factors))
    memo.content_key = _digest(
        b"query",
        signature_digest(memo.signature).encode("ascii"),
        spelling,
        factor_part.encode("ascii"),
    )
    return memo.content_key


_SHARING_KEY_MEMO: "weakref.WeakKeyDictionary[FAQQuery, str]" = weakref.WeakKeyDictionary()


def query_sharing_key(query: FAQQuery) -> str:
    """A digest of the query's semiring plus factor *set* (order-insensitive).

    Two queries with equal sharing keys evaluate over the same factor
    content under the same algebra, which is the precondition for their
    elimination steps to collide in the content-addressed step IR.  The
    serving tier routes on this key so overlapping queries land on the
    replica whose step cache already holds their shared prefixes.  Raises
    ``TypeError`` for factors without a canonical encoding.
    """
    cached = _SHARING_KEY_MEMO.get(query)
    if cached is not None:
        return cached
    factor_part = ";".join(sorted(factor_digest(f) for f in query.factors))
    key = _digest(
        b"sharing",
        canonical_bytes(query.semiring.name),
        factor_part.encode("ascii"),
    )
    _SHARING_KEY_MEMO[query] = key
    return key


def ordering_to_indices(ordering: Sequence[str], canon: Sequence[str]) -> Tuple[int, ...]:
    """Translate a variable ordering into canonical indices for storage."""
    index = {v: i for i, v in enumerate(canon)}
    return tuple(index[v] for v in ordering)


def ordering_from_indices(indices: Sequence[int], canon: Sequence[str]) -> Tuple[str, ...]:
    """Translate stored canonical indices back into this query's variables."""
    return tuple(canon[i] for i in indices)
