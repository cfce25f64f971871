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

import os
import subprocess
import sys

import pytest

from repro.core.query import FAQQuery, Variable
from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.planner import PlanCache, factor_digest, query_content_key, signature_digest
from repro.planner.cache import DigestPlan
from repro.planner.signature import canonical_bytes, query_signature
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import STANDARD_SEMIRINGS

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


# ---------------------------------------------------------------------- #
# cross-process stability
# ---------------------------------------------------------------------- #
def _key_in_subprocess(hash_seed):
    """Compute the fixture's content key in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_REPO, "src"), os.path.join(_REPO, "tests")]
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    script = (
        "from test_signature_digest import _fixed_query\n"
        "from repro.planner import query_content_key, factor_digest\n"
        "q = _fixed_query()\n"
        "print(query_content_key(q))\n"
        "for f in q.factors:\n"
        "    print(factor_digest(f))\n"
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
    lacks and the cross-process serving tier requires."""
    query = _fixed_query()
    here = [query_content_key(query)] + [factor_digest(f) for f in query.factors]
    assert _key_in_subprocess(0) == here
    assert _key_in_subprocess(12345) == here


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


def test_plan_cache_digest_entries_are_isolated_and_counted():
    cache = PlanCache(maxsize=8)
    stored = DigestPlan(
        strategy="insideout", backend="sparse", ordering=("A", "B"),
        estimated_cost=1.0, faq_width=1.0,
    )
    assert cache.lookup_digest("k1") is None  # miss
    cache.store_digest("k1", stored)
    assert cache.lookup_digest("k1") == stored  # hit
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 0  # digest entries do not occupy signature slots
    cache.clear()
    assert cache.lookup_digest("k1") is None


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


def _reference_step_digests(dag, query, order, uip):
    """Node digests recomputed the plain way: every payload, domains
    included, goes through ``canonical_bytes`` whole."""
    from repro.planner.signature import _digest

    slots = [None] * dag.num_slots
    slots[: dag.num_base] = [factor_digest(f) for f in query.factors]
    sem, scopes, digests = query.semiring.name, dag.slot_scope, []

    def domain_spec(variables):
        return tuple((v, tuple(query.domain(v))) for v in sorted(variables))

    for node in dag.nodes:
        inputs = tuple(slots[s] for s in node.incident)
        if node.kind == "semiring":
            induced = frozenset().union(*(scopes[s] for s in node.incident))
            reads = tuple(
                (slots[s], tuple(sorted(scopes[s] & induced))) for s in node.reads
            )
            digest = _digest(b"step", canonical_bytes((
                "pairwise" if node.pairwise else "semiring", sem, node.variable,
                query.tag(node.variable), bool(uip),
                tuple(v for v in order if v in induced),
                tuple(v for v in query.order if v in induced),
                domain_spec(induced), inputs, reads,
            )))
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
            digest = _digest(b"step", canonical_bytes((
                "output", sem, tuple(query.free),
                tuple(v for v in order if v in free),
                tuple(v for v in query.order if v in free),
                domain_spec(query.free), inputs,
            )))
            slots[node.outputs[0]] = digest
        digests.append(digest)
    return digests, slots


@pytest.mark.parametrize("strategy", ["insideout", "variable-elimination"])
def test_step_digests_are_the_canonical_bytes_of_their_payload(strategy):
    """``annotate_digests`` encodes each domain once per run and splices the
    bytes in; the digests must be what encoding every payload whole gives —
    persisted ``RunSnapshot`` entries are keyed by them."""
    from repro.exec import lower_insideout

    query = _step_digest_query()
    order = list(query.order)
    uip = strategy == "insideout"
    dag = lower_insideout(
        query, order, use_indicator_projections=uip,
        content_digests=True, strategy=strategy,
    )
    assert {node.kind for node in dag.nodes} == {"semiring", "product", "output"}
    digests, slots = _reference_step_digests(dag, query, order, uip)
    assert [node.digest for node in dag.nodes] == digests
    assert dag.slot_digests == slots
    assert None not in digests


def test_step_digest_of_a_fixed_query_is_pinned():
    """The literal: computed at CONTENT_KEY_VERSION 1, before the domain memo."""
    from repro.exec import lower_insideout

    query = _step_digest_query()
    dag = lower_insideout(query, list(query.order), content_digests=True)
    assert dag.nodes[-1].digest == (
        "041b1a247bcb62215431764c520ba9483225256b9f27bfe1e60fa47a63139a31"
    )
