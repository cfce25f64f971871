"""Content digests: cross-process stability, value equality, injectivity.

These are the keys the serving tier coalesces and routes on, so the tests
pin the two properties everything else relies on:

* **stability** — the same query content digests identically in other
  interpreter processes (builtin ``hash`` is ``PYTHONHASHSEED``-salted and
  would not);
* **value discrimination** — value-equal queries built as distinct objects
  share a key, while any change to a factor cell, a domain, or a variable
  *name* (renamed isomorphic queries produce differently-named outputs)
  produces a different key.
"""

import collections
import enum
import os
import pickle
import random
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import FAQQuery, Variable
from repro.factors.delta import FactorDelta
from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.planner import factor_digest, query_content_key, signature_digest
from repro.planner.signature import (
    BUCKET_MIN_ROWS,
    BucketDelta,
    bucket_count,
    canonical_bytes,
    query_signature,
)
from repro.semiring.aggregates import (
    ProductAggregate,
    SemiringAggregate,
    semiring_aggregate,
)
from repro.semiring.standard import COUNTING, STANDARD_SEMIRINGS

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fixed_query(value=1.5, domain=(0, 1, 2), rename=None, name="digest-fixture"):
    """A deterministic query; tweakable knobs for the discrimination tests."""
    a, b, c = ("A", "B", "C") if rename is None else rename
    variables = [Variable(a, domain), Variable(b, domain), Variable(c, (0, 1))]
    f1 = Factor((a, b), {(i, j): value + i * len(domain) + j
                         for i in range(len(domain)) for j in range(len(domain))})
    f2 = Factor((b, c), {(i, j): 0.25 + i + j for i in range(len(domain)) for j in range(2)})
    return FAQQuery(
        variables=variables,
        free=[a],
        aggregates={b: SemiringAggregate.sum(), c: SemiringAggregate.sum()},
        factors=[f1, f2],
        semiring=STANDARD_SEMIRINGS["sum-product"],
        name=name,
    )


def _derived_lineage():
    """A bucketed factor updated three times through ``apply_delta``; the
    last digest is derived from its parent's bucket table."""
    rng = random.Random(600)
    factor = Factor(("A", "B"), {
        (rng.randrange(100), f"v{rng.randrange(100)}"): rng.randint(1, 9)
        for _ in range(700)
    })
    factor_digest(factor)
    for changes in ({(0, "v0"): 5}, {(1, "v1"): 0, (2, "v9"): 3}, {(3, "v3"): 7}):
        factor = factor.apply_delta(FactorDelta(("A", "B"), changes), COUNTING)
        assert isinstance(factor._buckets, BucketDelta)
        factor_digest(factor)
    return factor


# ---------------------------------------------------------------------- #
# cross-process stability
# ---------------------------------------------------------------------- #
def _key_in_subprocess(hash_seed):
    """Compute the fixture's content key and a derived factor digest in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_REPO, "src"), os.path.join(_REPO, "tests")]
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    script = (
        "from test_signature_digest import _derived_lineage, _fixed_query\n"
        "from repro.planner import query_content_key, factor_digest\n"
        "q = _fixed_query()\n"
        "print(query_content_key(q))\n"
        "for f in q.factors:\n"
        "    print(factor_digest(f))\n"
        "print(factor_digest(_derived_lineage()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=_REPO, check=True,
    )
    return out.stdout.split()


@pytest.mark.slow
def test_digests_stable_across_processes():
    """The coalescing keys agree between this process and fresh interpreters
    started under *different* hash seeds — the property builtin ``hash``
    lacks and the cross-process serving tier requires.  A digest *derived*
    through ``apply_delta`` there equals a fresh digest of the same table
    here: row buckets come from CRC-32, never the salted ``hash``."""
    query = _fixed_query()
    derived = _derived_lineage()
    fresh = factor_digest(Factor(derived.scope, dict(derived.table)))
    here = [query_content_key(query)] + [factor_digest(f) for f in query.factors]
    assert _key_in_subprocess(0) == here + [fresh]
    assert _key_in_subprocess(12345) == here + [fresh]


# ---------------------------------------------------------------------- #
# value equality and discrimination
# ---------------------------------------------------------------------- #
def test_value_equal_distinct_objects_share_key():
    q1, q2 = _fixed_query(), _fixed_query()
    assert q1 is not q2
    assert all(x is not y for x, y in zip(q1.factors, q2.factors))
    assert query_content_key(q1) == query_content_key(q2)


def test_query_name_does_not_enter_the_key():
    # The query name is presentation, not content: results are identical.
    assert query_content_key(_fixed_query(name="a")) == query_content_key(_fixed_query(name="b"))


def test_changed_factor_cell_changes_key():
    assert query_content_key(_fixed_query(value=1.5)) != query_content_key(_fixed_query(value=1.5000001))


def test_changed_domain_changes_key():
    assert query_content_key(_fixed_query(domain=(0, 1, 2))) != query_content_key(
        _fixed_query(domain=(0, 1, 3))
    )


def test_renamed_isomorphic_query_gets_a_different_key():
    """Isomorphic renames share a *signature* (the plan cache wants that)
    but must not share a *content key* (their outputs name different
    variables, so one execution cannot answer both)."""
    original, renamed = _fixed_query(), _fixed_query(rename=("X", "Y", "Z"))
    assert query_signature(original)[0] == query_signature(renamed)[0]
    assert query_content_key(original) != query_content_key(renamed)


def test_semiring_choice_enters_the_key():
    q_sum = _fixed_query()
    q_max = FAQQuery(
        variables=[q_sum.variables[v] for v in q_sum.order],
        free=q_sum.free,
        aggregates={v: SemiringAggregate.max() for v in q_sum.bound},
        factors=q_sum.factors,
        semiring=STANDARD_SEMIRINGS["max-product"],
        name=q_sum.name,
    )
    assert query_content_key(q_sum) != query_content_key(q_max)


# ---------------------------------------------------------------------- #
# factor digests
# ---------------------------------------------------------------------- #
def test_factor_digest_ignores_name_but_not_values():
    f1 = Factor(("A", "B"), {(0, 1): 2.0, (1, 0): 3.0}, name="one")
    f2 = Factor(("A", "B"), {(1, 0): 3.0, (0, 1): 2.0}, name="two")
    assert factor_digest(f1) == factor_digest(f2)
    f3 = Factor(("A", "B"), {(0, 1): 2.0, (1, 0): 3.5})
    assert factor_digest(f1) != factor_digest(f3)


def test_dense_factor_digest_tracks_cells():
    np = pytest.importorskip("numpy")
    domains = {"A": (0, 1), "B": (0, 1)}
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    d1 = DenseFactor(("A", "B"), domains, arr.copy())
    d2 = DenseFactor(("A", "B"), domains, arr.copy(), name="other")
    assert factor_digest(d1) == factor_digest(d2)
    arr2 = arr.copy()
    arr2[1, 1] = 4.5
    assert factor_digest(d1) != factor_digest(DenseFactor(("A", "B"), domains, arr2))


# ---------------------------------------------------------------------- #
# bucketed factor digests: derived == fresh, order-free, O(|delta|·√n)
# ---------------------------------------------------------------------- #
_KEY_KINDS = ("int", "float", "str", "tuple")


def _random_key(rng, kind):
    if kind == "int":
        return (rng.randrange(400), rng.randrange(400))
    if kind == "float":
        return (rng.randrange(400) / 8, rng.random())
    if kind == "str":
        return (f"s{rng.randrange(4000)}", rng.choice("abcé"))
    return ((rng.randrange(20), rng.randrange(20)), rng.randrange(400))


def _random_factor(rng, rows, kind):
    table = {}
    while len(table) < rows:
        table[_random_key(rng, kind)] = rng.randint(1, 9)
    return Factor(("A", "B"), table)


@pytest.mark.parametrize("kind", _KEY_KINDS)
def test_bucketed_digest_is_order_free_and_cell_sensitive(kind):
    rng = random.Random(kind)
    for rows in (0, 1, BUCKET_MIN_ROWS - 1, BUCKET_MIN_ROWS, 1500, 5000):
        factor = _random_factor(rng, rows, kind)
        items = list(factor.table.items())
        rng.shuffle(items)
        digest = factor_digest(factor)
        assert digest == factor_digest(Factor(factor.scope, items)) == factor_digest(factor.copy())
        if rows < BUCKET_MIN_ROWS:
            assert factor._buckets is None  # one bucket, no bucket state
        else:
            assert factor._buckets.count == bucket_count(rows) > 1
            assert factor._buckets.rows is None  # built by the first child only
        if not rows:
            continue
        key, value = items[0]
        fresh = _random_key(rng, kind)
        while fresh in factor.table:
            fresh = _random_key(rng, kind)
        for changed in (
            dict(factor.table) | {key: value + 1},               # overwrite
            {k: v for k, v in factor.table.items() if k != key},  # delete
            dict(factor.table) | {fresh: 1},                     # insert
        ):
            assert factor_digest(Factor(factor.scope, changed)) != digest


@pytest.mark.parametrize("kind", _KEY_KINDS)
def test_derived_digest_equals_a_fresh_digest_along_a_delta_stream(kind):
    """Overwrites, inserts and deletes-to-zero, up to 50 cells a step, on a
    factor that grows past two bucket-count thresholds and shrinks back
    below them: after every step the derived digest is the fresh one."""
    rng = random.Random(f"stream-{kind}")
    factor = _random_factor(rng, 200, kind)
    factor_digest(factor)
    counts, derived, growing = [], 0, True
    for _ in range(120):
        if len(factor) > 700:
            growing = False
        elif len(factor) < 150:
            growing = True
        keys = list(factor.table)
        changes = {}
        for _ in range(rng.randint(1, 50)):
            roll = rng.random()
            if roll < (0.7 if growing else 0.15):
                changes[_random_key(rng, kind)] = rng.randint(1, 9)  # insert
            elif roll < 0.85:
                changes[rng.choice(keys)] = 0  # delete: zero under COUNTING
            else:
                changes[rng.choice(keys)] = rng.randint(10, 20)  # overwrite
        child = factor.apply_delta(FactorDelta(factor.scope, changes), COUNTING)
        derived += isinstance(child._buckets, BucketDelta)
        assert factor_digest(child) == factor_digest(child.copy())
        counts.append(bucket_count(len(child)))
        factor = child
    steps = list(zip(counts, counts[1:]))
    assert {1, 16, 32} <= set(counts)
    assert any(a < b for a, b in steps) and any(a > b for a, b in steps)
    assert derived >= len(counts) // 2


@pytest.mark.parametrize("stored, written", [
    (1, True), (True, 1), (1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0),
])
@pytest.mark.parametrize("value", [7, 0], ids=["overwrite", "delete"])
def test_derived_digest_of_an_equal_key_with_another_encoding(stored, written, value):
    """A delta key equal to a stored key but encoded differently: the
    child's table keeps the stored key object, whose bucket may not be the
    one the delta key's encoding picks.  Across every bucket count from
    2⁴ to 2⁷ the derived digest stays the fresh one, and a later update
    of the same cell neither raises nor drifts."""
    moved = 0
    for rows in (300, 1100, 4200, 16500):
        table = {(i,): 2 for i in range(2, rows)}
        table[(stored,)] = 5
        parent = Factor(("A",), table)
        digest = factor_digest(parent)
        count = parent._buckets.count
        moved += (zlib.crc32(canonical_bytes((stored,))) ^
                  zlib.crc32(canonical_bytes((written,)))) & (count - 1) != 0
        child = parent.apply_delta(FactorDelta(("A",), {(written,): value}), COUNTING)
        assert factor_digest(child) == factor_digest(child.copy())
        assert factor_digest(child) != digest
        grandchild = child.apply_delta(FactorDelta(("A",), {(stored,): 9}), COUNTING)
        assert factor_digest(grandchild) == factor_digest(grandchild.copy())
    assert moved  # some bucket count puts the two encodings apart


@pytest.mark.parametrize("stored, written", [
    (1, True), (True, 1), (1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0),
])
def test_derived_digest_of_an_equal_key_with_another_encoding_in_its_bucket(stored, written):
    """The same, when both encodings fall in one bucket: the bucket holds
    the stored key's row, which the delta key's encoding must not replace."""
    count = bucket_count(300)
    # CRC-32 is affine, so the two keys' bucket offset depends on what
    # precedes the differing element: vary the first one
    first = next(
        x for x in range(100, 10_000)
        if not (zlib.crc32(canonical_bytes((x, stored))) ^
                zlib.crc32(canonical_bytes((x, written)))) & (count - 1)
    )
    table = {(i, j): 2 for i in range(15) for j in range(2, 22)}
    table[(first, stored)] = 5
    parent = Factor(("A", "B"), table)
    factor_digest(parent)
    assert parent._buckets.count == count
    child = parent.apply_delta(FactorDelta(("A", "B"), {(first, written): 7}), COUNTING)
    assert factor_digest(child) == factor_digest(child.copy())


def _spy_on_encodings(monkeypatch):
    """The values :func:`canonical_bytes` is asked to encode from now on,
    top-level calls only (a tuple's elements are not listed)."""
    from repro.planner import signature

    encoded, depth = [], [0]
    original = signature.canonical_bytes

    def counting(value):
        if not depth[0]:
            encoded.append(value)
        depth[0] += 1
        try:
            return original(value)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(signature, "canonical_bytes", counting)
    return encoded


def _encodings_naming_an_update(monkeypatch, cells):
    """What is encoded while a ``cells``-cell value update of a 4 096-row
    factor is built and named, once its buckets' rows are stored: the
    lineage's first child wrote the same cells.  Returns that, and the
    changed keys, their values and the scope."""
    rng = random.Random(4096)
    factor = _random_factor(rng, 4096, "int")
    factor_digest(factor)
    cells = rng.sample(list(factor.table), cells)
    factor = factor.apply_delta(FactorDelta(factor.scope, dict.fromkeys(cells, 99)), COUNTING)
    factor_digest(factor)
    changes = {cell: 42 + i for i, cell in enumerate(cells)}
    encoded = _spy_on_encodings(monkeypatch)
    child = factor.apply_delta(FactorDelta(factor.scope, changes), COUNTING)
    digest = factor_digest(child)
    monkeypatch.undo()
    assert digest == factor_digest(child.copy())
    return encoded, list(changes) + list(changes.values()) + [child.scope]


def test_one_cell_update_rehashes_a_bucket_not_the_factor(monkeypatch):
    """O(|delta|) pinned with a count, not a clock: naming a one-cell update
    of a 4 096-row factor encodes the changed row's key and value and the
    scope, and re-hashes its bucket from the stored rows."""
    encoded, row_and_scope = _encodings_naming_an_update(monkeypatch, 1)
    assert encoded == row_and_scope


def test_fifty_cell_update_encodes_fifty_rows(monkeypatch):
    encoded, rows_and_scope = _encodings_naming_an_update(monkeypatch, 50)
    assert len(rows_and_scope) == 2 * 50 + 1 and encoded == rows_and_scope


def test_a_lineage_first_child_encodes_each_key_once(monkeypatch):
    """The first child of a lineage encodes every parent key once (to sort
    it into its bucket) and the values of the one bucket its change falls
    in — not every row."""
    rng = random.Random(1024)
    parent = _random_factor(rng, 4096, "int")
    factor_digest(parent)
    cell = next(iter(parent.table))
    encoded = _spy_on_encodings(monkeypatch)
    child = parent.apply_delta(FactorDelta(parent.scope, {cell: 42}), COUNTING)
    factor_digest(child)
    monkeypatch.undo()
    keys = [value for value in encoded if type(value) is tuple]
    index = zlib.crc32(canonical_bytes(cell)) & (child._buckets.count - 1)
    assert keys == list(parent.table) + [cell, child.scope]
    assert len(encoded) - len(keys) == len(child._buckets.rows[index]) + 1
    assert child._buckets.encoded.count(1) == 1


def test_pickled_factor_carries_bucket_digests_not_key_sets():
    rng = random.Random(2000)
    parent = _random_factor(rng, 2000, "int")
    factor_digest(parent)
    child = parent.apply_delta(FactorDelta(parent.scope, {next(iter(parent.table)): 0}), COUNTING)
    digest = factor_digest(child)
    assert child._buckets.rows is not None
    count = child._buckets.count
    fresh = Factor(child.scope, dict(child.table), name=child.name)
    factor_digest(fresh)
    plain = Factor(child.scope, dict(child.table), name=child.name)
    size = len(pickle.dumps(child))
    assert size <= len(pickle.dumps(fresh))
    # what travels beyond the table: B×32 bytes of bucket digests, the
    # 64-character digest memo and a little framing
    assert size - len(pickle.dumps(plain)) <= count * 32 + 256
    revived = pickle.loads(pickle.dumps(child))
    assert revived._digest == digest and revived._buckets.rows is None
    assert revived._buckets.digests == child._buckets.digests
    # a pending derivation does not travel at all
    pending = child.apply_delta(FactorDelta(child.scope, {next(iter(child.table)): 7}), COUNTING)
    assert isinstance(pending._buckets, BucketDelta)
    assert pickle.loads(pickle.dumps(pending))._buckets is None


# ---------------------------------------------------------------------- #
# canonical_bytes + the digest-addressed cache
# ---------------------------------------------------------------------- #
def test_canonical_bytes_discriminates_types_and_shapes():
    pairs = [
        (1, "1"), (1, 1.0), (True, 1), (False, 0), (None, 0), (b"x", "x"),
        ((1, 2), (12,)), ((1, (2,)), ((1, 2),)), ("ab", ("a", "b")),
    ]
    for left, right in pairs:
        assert canonical_bytes(left) != canonical_bytes(right), (left, right)
    assert canonical_bytes({3, 1, 2}) == canonical_bytes(frozenset((1, 2, 3)))
    assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))  # sequences unify


def test_canonical_bytes_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonical_bytes(object())
    with pytest.raises(TypeError):
        canonical_bytes({"a": 1})  # mappings have no canonical order defined


class _Opaque:
    """Orderable so Variable/table construction works, but unencodable."""

    def __init__(self, n):
        self.n = n

    def __lt__(self, other):
        return self.n < other.n

    def __eq__(self, other):
        return isinstance(other, _Opaque) and self.n == other.n

    def __hash__(self):
        return hash(("opaque", self.n))


def _unencodable_query():
    """A valid query whose domain values have no canonical byte encoding."""
    domain = (_Opaque(0), _Opaque(1))
    return FAQQuery(
        variables=[Variable("A", domain), Variable("B", (0, 1))],
        free=["A"],
        aggregates={"B": SemiringAggregate.sum()},
        factors=[Factor(("A", "B"), {(domain[0], 0): 1.0, (domain[1], 1): 2.0})],
        semiring=STANDARD_SEMIRINGS["sum-product"],
    )


def test_unencodable_query_raises_and_request_degrades():
    from repro.serve import ServeRequest

    query = _unencodable_query()
    with pytest.raises(TypeError):
        query_content_key(query)
    # The serving request degrades to "never coalesced" instead of failing.
    assert ServeRequest(query=query).content_key is None


def test_signature_digest_is_deterministic_hex():
    signature, _ = query_signature(_fixed_query())
    digest = signature_digest(signature)
    assert digest == signature_digest(signature)
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


# ---------------------------------------------------------------------- #
# step digests: the payload encoding is pinned
# ---------------------------------------------------------------------- #
def _step_digest_query():
    """Free, sum and product variables, so every node kind is lowered."""
    from repro.semiring.aggregates import ProductAggregate
    from repro.semiring.standard import COUNTING

    domain = (0, 1, 2)
    pair = {(i, j): 1 + i + 2 * j for i in domain for j in domain if (i + j) % 3}
    return FAQQuery(
        variables=[Variable(v, domain) for v in "ABCD"],
        free=["A"],
        aggregates={
            "B": SemiringAggregate.sum(),
            "C": ProductAggregate.product(),
            "D": SemiringAggregate.sum(),
        },
        factors=[Factor(("A", "B"), pair), Factor(("B", "C"), pair), Factor(("C", "D"), pair)],
        semiring=COUNTING,
    )


class _WholeBox:
    """Stands, in a reference payload, for a read the step leaves out."""


_WHOLE_BOX = _WholeBox()


def _payload_bytes(value):
    """``canonical_bytes``, except that :data:`_WHOLE_BOX` encodes as ``W``."""
    if value is _WHOLE_BOX:
        return b"W"
    if type(value) is tuple:
        return b"(" + b",".join(map(_payload_bytes, value)) + b")"
    return canonical_bytes(value)


def _lists_its_box(factor, query):
    """Counted cell by cell: every cell of the factor's box listed non-zero."""
    box = 1
    for v in factor.scope:
        box *= len(query.domain(v))
    table = factor.to_factor(query.semiring).table if isinstance(factor, DenseFactor) \
        else factor.table
    is_zero = query.semiring.is_zero
    return len(table) == box and not any(is_zero(value) for value in table.values())


def _reference_step_digests(dag, query, order, uip):
    """Node digests recomputed the plain way: every payload, domains
    included, goes through ``canonical_bytes`` whole.  Content without an
    encoding gives ``None``, and so does everything that consumes it.  A
    read of a base factor that lists its whole box is the marker ``W``
    (with its scope), whatever the factor's content, encodable or not."""
    from repro.planner.signature import _digest

    sem, scopes, digests = query.semiring.name, dag.slot_scope, []
    slots = [None] * dag.num_slots
    if not query.factors:
        slots[0] = _digest(b"unit", canonical_bytes(sem))
    for i, factor in enumerate(query.factors):
        try:
            slots[i] = factor_digest(factor)
        except TypeError:
            pass
    read_as = {
        i: _WHOLE_BOX for i, factor in enumerate(query.factors)
        if _lists_its_box(factor, query)
    }

    def domain_spec(variables):
        return tuple((v, tuple(query.domain(v))) for v in sorted(variables))

    def step(payload):
        try:
            return _digest(b"step", _payload_bytes(payload))
        except TypeError:
            return None

    for node in dag.nodes:
        inputs = tuple(slots[s] for s in node.incident)
        digest = None
        if None in inputs:
            pass
        elif node.kind == "semiring":
            induced = frozenset().union(*(scopes[s] for s in node.incident)) \
                if node.incident else frozenset({node.variable})
            reads = tuple(
                (read_as.get(s, slots[s]), tuple(sorted(scopes[s] & induced)))
                for s in node.reads
            )
            if None not in (d for d, _ in reads):
                digest = step((
                    "semiring", sem, node.variable,
                    query.tag(node.variable), bool(uip),
                    tuple(v for v in order if v in induced),
                    tuple(v for v in query.order if v in induced),
                    domain_spec(induced), inputs, reads,
                ))
            slots[node.outputs[0]] = digest
        elif node.kind == "product":
            head = canonical_bytes(
                ("product", sem, node.variable, query.domain_size(node.variable))
            )
            for slot, out, source in zip(node.incident, node.outputs, inputs):
                slots[out] = _digest(
                    b"step", head, canonical_bytes((node.variable in scopes[slot],)),
                    source.encode("ascii"),
                )
            digest = _digest(b"step", head, canonical_bytes(inputs))
        else:
            free = set(query.free)
            digest = step((
                "output", sem, tuple(query.free),
                tuple(v for v in order if v in free),
                tuple(v for v in query.order if v in free),
                domain_spec(query.free), inputs,
            ))
            slots[node.outputs[0]] = digest
        digests.append(digest)
    return digests, slots


@pytest.mark.parametrize(
    "uip", [True, False], ids=["insideout", "variable-elimination"]
)
def test_step_digests_are_the_canonical_bytes_of_their_payload(uip):
    """``annotate_digests`` encodes each domain once per run and splices the
    bytes in; the digests must be what encoding every payload whole gives —
    a spilled view's step-cache entries are keyed by them.  Indicator
    projections off is textbook variable elimination's run."""
    from repro.exec import lower_insideout

    query = _step_digest_query()
    order = list(query.order)
    dag = lower_insideout(
        query, order, use_indicator_projections=uip, content_digests=True,
    )
    assert {node.kind for node in dag.nodes} == {"semiring", "product", "output"}
    digests, slots = _reference_step_digests(dag, query, order, uip)
    assert [node.digest for node in dag.nodes] == digests
    assert dag.slot_digests == slots
    assert None not in digests


def test_step_digest_of_a_fixed_query_is_pinned():
    """The literal: computed at CONTENT_KEY_VERSION 2 (bucketed factor
    digests; these factors are one bucket each).  Version 1 gave
    ``041b1a24…``; the per-variable domain memo changed no step bytes."""
    from repro.exec import lower_insideout
    from repro.planner.signature import CONTENT_KEY_VERSION

    assert CONTENT_KEY_VERSION == 2
    query = _step_digest_query()
    dag = lower_insideout(query, list(query.order), content_digests=True)
    assert dag.nodes[-1].digest == (
        "71f693503f6d441e8ba9ae2ae3b5f52b66bdc9dc7edcc63ed36bc83b7eac1908"
    )


def test_step_digest_of_a_whole_box_read_is_pinned():
    """The literals of a query whose ``(B, C)`` factor lists its whole box:
    the step eliminating ``D`` reads it as ``W`` plus the scope ``(B,)``,
    and every later digest folds that in."""
    from repro.exec import lower_insideout

    full = Factor(("B", "C"), {(i, j): 1 + i + 2 * j for i in range(3) for j in range(3)})
    query = _with_factor(_step_digest_query(), 1, full)
    dag = lower_insideout(query, list(query.order), content_digests=True)
    assert dag.nodes[0].variable == "D" and dag.nodes[0].reads == (1,)
    assert [dag.nodes[0].digest, dag.nodes[-1].digest] == [
        "1448029bc232c7fcaf76fc7bf6ad02c6562d1add1249cf9bfaf4a792ff63f39e",
        "fb468d32c53b9aad483f9be3407055dc22b267c2bf9ba09fb28023c8e87ce96b",
    ]


# ---------------------------------------------------------------------- #
# step templates: spliced digests are the from-scratch reference's
# ---------------------------------------------------------------------- #
_SHAPE_DOMAIN = (0, 1, 2)


def _shape_query(
    written="ABCD", free=("A",), aggregates=None,
    scopes=(("A", "B"), ("B", "C"), ("C", "D")),
    semiring=COUNTING, domains=None, values=None,
):
    """``_step_digest_query`` with every part of its shape a knob.

    ``values`` maps a factor position to a ``{key: value}`` patch of its
    table, to vary content within one shape.
    """
    if aggregates is None:
        aggregates = {
            "B": SemiringAggregate.sum(),
            "C": ProductAggregate.product(),
            "D": SemiringAggregate.sum(),
        }
    domains, values = domains or {}, values or {}
    factors = []
    for k, scope in enumerate(scopes):
        table = {
            (i, j): 1 + i + 2 * j + k
            for i in _SHAPE_DOMAIN for j in _SHAPE_DOMAIN if (i + j + k) % 3
        }
        table.update(values.get(k, {}))
        factors.append(Factor(scope, table))
    return FAQQuery(
        variables=[Variable(v, domains.get(v, _SHAPE_DOMAIN)) for v in written],
        free=list(free),
        aggregates=aggregates,
        factors=factors,
        semiring=semiring,
    )


def _structure(dag):
    return (
        [
            (n.index, n.kind, n.variable, n.incident, n.reads, n.outputs, n.depends_on)
            for n in dag.nodes
        ],
        dag.num_slots, dag.num_base, dag.slot_scope, dag.final_live,
    )


def _plain(query, order, uip, output_mode):
    """A fresh lowering, no digests."""
    from repro.exec import lower_insideout

    return lower_insideout(query, order, uip, output_mode)


def _check_against_reference(query, order, uip=True, output_mode="listing"):
    """Lower with digests (spliced into the shape's template), check the
    skeleton against a fresh lowering and every digest against the
    reference; then annotate that fresh lowering, which finds the template
    by its key, and check it too.  Returns the node digests."""
    from repro.exec import annotate_digests, lower_insideout

    dag = lower_insideout(query, order, uip, output_mode, content_digests=True)
    plain = _plain(query, order, uip, output_mode)
    assert _structure(dag) == _structure(plain)
    digests, slots = _reference_step_digests(dag, query, order, uip)
    assert [node.digest for node in dag.nodes] == digests
    assert dag.slot_digests == slots
    annotate_digests(plain, query, order, uip)
    assert [node.digest for node in plain.nodes] == digests
    assert plain.slot_digests == slots
    return digests


@pytest.fixture
def template_store(monkeypatch):
    """A fresh, private step-template store."""
    import repro.exec.dag as dag_module
    from repro.caching import LruCache

    store = LruCache(maxsize=64)
    monkeypatch.setattr(dag_module, "_STEP_TEMPLATES", store)
    return store


def _opaque_value_query():
    """The first factor holds a value without a canonical encoding; the
    step eliminating ``D`` never reads it."""
    return _shape_query(values={0: {(0, 1): _Opaque(7)}})


def _opaque_domain_query():
    """Free ``A``'s domain has no canonical encoding (and no factor mentions
    ``A``, so every factor has one); only the output step induces ``A``."""
    return FAQQuery(
        variables=[
            Variable("A", (_Opaque(0), _Opaque(1))), Variable("B", (0, 1)),
            Variable("C", (0, 1)),
        ],
        free=["A"],
        aggregates={"B": SemiringAggregate.sum(), "C": SemiringAggregate.sum()},
        factors=[Factor(("B", "C"), {(0, 1): 3.0, (1, 1): 4.0})],
        semiring=STANDARD_SEMIRINGS["sum-product"],
    )


def _no_factor_query():
    """An empty product: the run's one base slot is the unit factor."""
    return FAQQuery(
        variables=[Variable("A", _SHAPE_DOMAIN), Variable("B", (0, 1))],
        free=["A"],
        aggregates={"B": SemiringAggregate.sum()},
        factors=[],
        semiring=COUNTING,
    )


def _full_table(k, **cells):
    """Factor ``k``'s table in ``_shape_query`` with no cell left out,
    ``cells`` (``"ij"`` → value) overriding some."""
    table = {(i, j): 1 + i + 2 * j + k for i in _SHAPE_DOMAIN for j in _SHAPE_DOMAIN}
    table.update({(int(key[0]), int(key[1])): value for key, value in cells.items()})
    return table


def _with_factor(query, k, factor):
    """``query`` with its factor ``k`` replaced."""
    factors = list(query.factors)
    factors[k] = factor
    return FAQQuery(
        variables=[query.variables[v] for v in query.order], free=list(query.free),
        aggregates=dict(query.aggregates), factors=factors, semiring=query.semiring,
    )


def _whole_box_query(**cells):
    """Factor 1, ``(B, C)`` — the one the step eliminating ``D`` reads —
    lists its whole box."""
    return _shape_query(values={1: _full_table(1, **cells)})


def _dense_whole_box_query(**cells):
    """The same, factor 1 held dense."""
    query = _whole_box_query(**cells)
    dense = DenseFactor.from_factor(query.factors[1], query.domains(), query.semiring)
    return _with_factor(query, 1, dense)


def _opaque_whole_box_query():
    """Factor 1 lists its whole box, one value without a canonical
    encoding: nothing can name the factor, but the step that only reads it
    is named all the same."""
    return _whole_box_query(**{"00": _Opaque(7)})


_MATRIX = {
    "all-kinds": _shape_query,
    "free-variables": lambda: _shape_query(
        free=("A", "B"),
        aggregates={"C": SemiringAggregate.sum(), "D": ProductAggregate.product()},
    ),
    "no-factors": _no_factor_query,
    "unencodable-factor": _opaque_value_query,
    "unencodable-domain": _opaque_domain_query,
    "whole-box-sparse": _whole_box_query,
    "whole-box-dense": _dense_whole_box_query,
    "whole-box-unencodable": _opaque_whole_box_query,
}


@pytest.mark.parametrize("output_mode", ["listing", "factorized"])
@pytest.mark.parametrize("uip", [True, False], ids=["insideout", "variable-elimination"])
@pytest.mark.parametrize("case", sorted(_MATRIX))
def test_template_digests_match_the_reference(case, uip, output_mode, template_store):
    """Byte identity across node kinds, both lowerings, both output modes,
    free variables, the unit slot and ``None`` propagation — on the run
    that builds the template and on the one that reuses it."""
    query = _MATRIX[case]()
    order = list(query.order)
    first = _check_against_reference(query, order, uip, output_mode)
    again = _check_against_reference(query, order, uip, output_mode)
    assert again == first
    if case == "all-kinds":
        assert {"semiring", "product"} <= {
            node.kind for node in _plain(query, order, uip, output_mode).nodes
        }
    if case == "unencodable-factor":
        # Only what the unencodable content reaches goes unnamed.
        assert None in first and any(d is not None for d in first)
        assert len(template_store) == 1
    elif case == "whole-box-unencodable":
        # The product step consumes the factor and goes unnamed; the step
        # eliminating D only reads it, and is named.
        assert None in first and first[0] is not None
        assert len(template_store) == 1
    elif case == "unencodable-domain":
        # Only the output step induces the domain; a factorized run has
        # none.  The shape has no key, so its template is never stored.
        assert (None in first) == (output_mode == "listing")
        assert first[0] is not None
        assert len(template_store) == 0
    else:
        assert None not in first
        assert len(template_store) == 1


@pytest.mark.parametrize("uip", [True, False], ids=["insideout", "variable-elimination"])
def test_one_shape_two_contents_differ_downstream_of_the_change(uip, template_store):
    """Two contents of one shape share a template; their digests differ at
    exactly the nodes that consume the changed factor, directly or not."""
    base, changed = _shape_query(), _shape_query(values={0: {(0, 1): 99}})
    order = list(base.order)
    left = _check_against_reference(base, order, uip)
    right = _check_against_reference(changed, order, uip)
    assert len(template_store) == 1 and template_store.hits >= 1

    dag = _plain(base, order, uip, "listing")
    tainted = {0}
    downstream = []
    for node in dag.nodes:
        sources = node.incident + node.reads
        downstream.append(any(s in tainted for s in sources))
        if node.kind == "product":  # each output slot follows its own input
            tainted |= {o for s, o in zip(node.incident, node.outputs) if s in tainted}
        elif downstream[-1]:
            tainted |= set(node.outputs)
    assert [a != b for a, b in zip(left, right)] == downstream
    assert any(downstream) and not all(downstream)


@pytest.mark.parametrize("build", [_whole_box_query, _dense_whole_box_query],
                         ids=["sparse", "dense"])
def test_a_whole_box_read_is_named_by_its_scope_alone(build, template_store):
    """Contents that differ only in a factor the step eliminating ``D``
    reads whole-box, sparse or dense, name that step alike, and differ
    downstream of where the factor is consumed.  A factor missing one cell,
    or dense with one zero cell, is named by its content."""
    order = list(_shape_query().order)
    whole = _check_against_reference(build(), order)
    other = _check_against_reference(build(**{"11": 50}), order)
    assert whole[0] == other[0]
    assert whole[1:] != other[1:]
    if build is _whole_box_query:
        gap = _shape_query(values={1: {
            key: value for key, value in _full_table(1).items() if key != (1, 1)
        }})
    else:
        gap = _dense_whole_box_query(**{"11": 0})
        assert not gap.factors[1].lists_every_cell(gap.semiring)
    named = _check_against_reference(gap, order)
    assert len({whole[0], named[0]}) == 2
    # Without indicator projections nothing is read: the step never
    # depended on the factor.
    plain = _check_against_reference(build(), order, uip=False)
    assert plain[0] == _check_against_reference(gap, order, uip=False)[0]


def test_every_key_component_names_its_own_template(template_store):
    """Perturb one component of the template key at a time, after the base
    shape's template is stored: each perturbation must get its own
    template, and its digests the reference's — a key missing a dependency
    would hand it the base's."""
    base = _shape_query()
    order = list(base.order)
    _check_against_reference(base, order)
    sum_, product = SemiringAggregate.sum(), ProductAggregate.product()
    variants = {
        "factor scopes": (_shape_query(scopes=(("A", "C"), ("B", "C"), ("C", "D"))), order),
        "elimination order": (base, ["A", "B", "D", "C"]),
        "written order": (_shape_query(written="ABDC"), order),
        "free variables": (_shape_query(
            free=("A", "B"), aggregates={"C": product, "D": sum_}), order),
        "aggregate tag": (_shape_query(
            aggregates={"B": SemiringAggregate.max(), "C": product, "D": sum_}), order),
        "aggregate kind": (_shape_query(aggregates={
            "B": sum_, "C": semiring_aggregate("product", max), "D": sum_}), order),
        "semiring": (_shape_query(semiring=STANDARD_SEMIRINGS["sum-product"]), order),
        "domain": (_shape_query(domains={"D": (0, 1, 2, 3)}), order),
    }
    for query, variant_order in variants.values():
        _check_against_reference(query, variant_order)
    _check_against_reference(base, order, uip=False)
    _check_against_reference(base, order, output_mode="factorized")
    assert len(template_store) == 1 + len(variants) + 2
    assert template_store.misses == len(template_store)


# --------------------------------------------------------------------- #
# canonical_bytes: the exact-type fast path writes the general path's bytes
# --------------------------------------------------------------------- #
class _Level(enum.IntEnum):
    LOW = 1


class _Int(int):
    pass


class _Float(float):
    pass


@pytest.mark.parametrize(
    "value, encoded",
    [
        (True, b"T"), (False, b"F"), (1, b"i1:1"), (0, b"i1:0"), (-1, b"i2:-1"),
        (2 ** 80, b"i25:1208925819614629174706176"),
        (-(2 ** 70), b"i23:-1180591620717411303424"),
        (0.0, b"f3:0.0"), (-0.0, b"f4:-0.0"), (1.5, b"f3:1.5"),
        (-2.25e-300, b"f10:-2.25e-300"), (float("nan"), b"f3:nan"),
        (float("inf"), b"f3:inf"), (float("-inf"), b"f4:-inf"),
        ("", b"s0:"), ("x", b"s1:x"), ("ünï", b"s5:\xc3\xbcn\xc3\xaf"), (None, b"N"),
        ((), b"()"), ((True, 1), b"(T,i1:1)"),
        ((1, (2.5, None), "s"), b"(i1:1,(f3:2.5,N),s1:s)"), ([1, 2.5], b"(i1:1,f3:2.5)"),
    ],
)
def test_canonical_bytes_literals(value, encoded):
    """CONTENT_KEY_VERSION 2's bytes, of each value alone and in a row key:
    ``True`` is not ``1``, ``-0.0`` is not ``0.0``."""
    assert canonical_bytes(value) == encoded
    assert canonical_bytes((value, 7)) == b"(" + encoded + b",i1:7)"


def test_canonical_bytes_of_subclasses_take_the_general_path():
    raw = str(_Level.LOW).encode("ascii")  # an int subclass encodes its own str
    assert canonical_bytes(_Level.LOW) == b"i%d:%s" % (len(raw), raw)
    point = collections.namedtuple("Point", "x y")(1, True)
    assert canonical_bytes(point) == b"(i1:1,T)"


def _general(value):
    """``value`` with every exact tuple, int and float swapped for a list or
    a subclass of equal value, so it misses the fast path at every level."""
    kind = type(value)
    if kind is tuple:
        return [_general(v) for v in value]
    if kind is int:
        return _Int(value)
    if kind is float:
        return _Float(value)
    return value


_atoms = st.one_of(
    st.integers(), st.integers(min_value=2 ** 64), st.floats(), st.booleans(),
    st.none(), st.text(max_size=4), st.sampled_from([-0.0, float("nan"), _Level.LOW]),
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_atoms, lambda inner: st.tuples(inner, inner) | st.tuples(inner), max_leaves=6))
def test_fast_path_matches_the_general_path(value):
    assert canonical_bytes(value) == canonical_bytes(_general(value))


@pytest.mark.parametrize("bad", [object(), {"a": 1}, [object()], (1, object()), ((2, {"a": 1}),)])
def test_canonical_bytes_refuses_unsupported_inside_rows(bad):
    with pytest.raises(TypeError):
        canonical_bytes(bad)
    with pytest.raises(TypeError):
        canonical_bytes((1, bad))


@pytest.mark.parametrize("rows", [40, 600])
def test_mixed_type_rows_digest_alike_fresh_and_derived(rows):
    """Rows of every atom shape, bucketed (600) or not (40): a derived
    digest (``BucketTable.child``, ``BucketDelta.apply``) equals a fresh one."""
    rng = random.Random(rows)
    atoms = [0, -3, 2 ** 65, 1.25, -0.0, "s", None, True, _Level.LOW, (1, 2.5)]
    table = {}
    while len(table) < rows:
        table[(rng.choice(atoms), rng.randrange(1000))] = rng.choice(atoms)
    parent = Factor(("x", "y"), table)
    factor_digest(parent)
    cell = next(iter(table))
    child = parent.apply_delta(FactorDelta(("x", "y"), {cell: 7, ("new", 1): 2.5}), COUNTING)
    assert factor_digest(child) == factor_digest(child.copy())
