"""LRU caches, the one warm-cache bundle (on disk and in a replica
fleet's process arguments), and exact plan-cache keys across size buckets."""

import pickle

import pytest

import repro.planner.cache as cache_module
from repro.caching import LruCache, seal, unseal
from repro.core.query import FAQQuery, Variable
from repro.factors.factor import Factor
from repro.hypergraph import covers
from repro.hypergraph.covers import (
    clear_rho_star_cache,
    fractional_edge_cover_number,
    rho_star_cache_info,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.planner import PlanCache, plan
from repro.planner.cache import (
    _PLAN_CACHE_KIND,
    CachedPlan,
    adopt_warm_sections,
    load_planner_caches,
    save_planner_caches,
    warm_sections,
)
from repro.planner.signature import SIGNATURE_VERSION, query_signature
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import COUNTING

from test_exec_parallel import _multi_block
from test_planner_differential import _random_query


# ---------------------------------------------------------------------- #
# the generic LRU
# ---------------------------------------------------------------------- #
def test_lru_cache_eviction_is_lru_not_wholesale():
    cache = LruCache(maxsize=3)
    for key in "abc":
        cache.put(key, key.upper())
    assert cache.get("a") == "A"          # refreshes 'a'
    evicted = cache.put("d", "D")          # evicts 'b', the oldest untouched
    assert evicted == [("b", "B")]
    assert cache.get("b") is None
    assert cache.get("a") == "A" and cache.get("d") == "D"
    assert len(cache) == 3


def test_lru_cache_counters_and_clear():
    cache = LruCache(maxsize=2)
    cache.put("x", 1)
    assert cache.get("x") == 1
    assert cache.get("y") is None
    assert (cache.hits, cache.misses) == (1, 1)
    cache.clear()
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def _saved_bundle(directory):
    """The sections the file of :func:`save_planner_caches` holds."""
    with open(directory / cache_module._WARM_CACHES_FILE, "rb") as handle:
        return unseal(handle.read(), **cache_module._WARM_CACHES_TAGS)


def test_load_planner_caches_is_best_effort(tmp_path):
    """A torn, foreign, missing or stale-format file adopts nothing and
    leaves the caches as they were; a sound one adopts everything."""
    cache = PlanCache()
    plan(_chain_query(), cache=cache)
    good = tmp_path / "good"
    counts = save_planner_caches(good, plan_cache=cache)
    assert counts["plans"] == 1 and counts["rho_star"] == len(_saved_bundle(good)["rho_star"]["entries"])
    raw = (good / cache_module._WARM_CACHES_FILE).read_bytes()
    sections = _saved_bundle(good)

    def write(name, data):
        directory = tmp_path / name
        directory.mkdir()
        (directory / cache_module._WARM_CACHES_FILE).write_bytes(data)
        return directory

    cases = {
        "torn": write("torn", raw[: len(raw) // 2]),
        "bit-rot": write("bit-rot", raw[:-1] + bytes([raw[-1] ^ 0xFF])),
        "foreign": write("foreign", seal(sections, kind="repro-serve-snapshot", version=1)),
        # the envelope's own version moves only with the bundle's layout
        "stale": write("stale", seal(sections, kind="repro-planner-caches", version=0)),
        # entries inline, no SHA-256: nothing certifies the file is whole
        "legacy": write("legacy", pickle.dumps(sections)),
        "missing": tmp_path / "never-saved",
    }
    for name, directory in cases.items():
        fresh = PlanCache()
        fresh.store(("mine",), "kept")
        assert load_planner_caches(directory, plan_cache=fresh) == {"plans": 0, "rho_star": 0}, name
        assert len(fresh) == 1 and fresh.lookup(("mine",)) == "kept", name
    fresh = PlanCache()
    assert load_planner_caches(good, plan_cache=fresh) == counts
    assert plan(_chain_query(), cache=fresh).cache_hit


# ---------------------------------------------------------------------- #
# the ρ* memo is a real LRU and persists
# ---------------------------------------------------------------------- #
def test_rho_star_memo_is_lru_and_persists(tmp_path):
    clear_rho_star_cache()
    hypergraph = Hypergraph("abc", [frozenset("ab"), frozenset("bc"), frozenset("ac")])
    value = fractional_edge_cover_number(hypergraph)
    assert value == pytest.approx(1.5)
    info = rho_star_cache_info()
    assert info["size"] >= 1 and info["misses"] >= 1
    # Warm call hits the memo.
    assert fractional_edge_cover_number(hypergraph) == pytest.approx(1.5)
    assert rho_star_cache_info()["hits"] >= 1

    written = save_planner_caches(tmp_path, plan_cache=PlanCache())["rho_star"]
    assert written == rho_star_cache_info()["size"]
    clear_rho_star_cache()
    assert rho_star_cache_info()["size"] == 0
    assert load_planner_caches(tmp_path, plan_cache=PlanCache())["rho_star"] == written
    before = rho_star_cache_info()["misses"]
    assert fractional_edge_cover_number(hypergraph) == pytest.approx(1.5)
    assert rho_star_cache_info()["misses"] == before  # served from the memo


def test_rho_star_spill_of_version_1_adopts_nothing(tmp_path):
    """Version 1 keyed the memo by frozensets of named edges; version 2 keys
    it by relabelled int masks, so a version-1 section — whose keys no
    lookup could hit — is adopted by nothing, from a file or in memory."""
    assert covers._RHO_STAR_VERSION == 2
    clear_rho_star_cache()
    covers._RHO_STAR_CACHE.put(frozenset({frozenset("ab"), frozenset("bc"), frozenset("ac")}), 1.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covers, "_RHO_STAR_VERSION", 1)
        section = warm_sections(None)
        assert save_planner_caches(tmp_path, plan_cache=PlanCache())["rho_star"] == 1

    clear_rho_star_cache()
    assert load_planner_caches(tmp_path, plan_cache=PlanCache())["rho_star"] == 0
    assert adopt_warm_sections(section, PlanCache())["rho_star"] == 0
    assert rho_star_cache_info()["size"] == 0


# ---------------------------------------------------------------------- #
# plan-cache persistence
# ---------------------------------------------------------------------- #
def _chain_query(size=4, name="chain"):
    domain = (0, 1, 2)
    table = {(i, j): 1 for i in domain for j in domain}
    entries = dict(list(table.items())[:size])
    names = ["x0", "x1", "x2"]
    return FAQQuery(
        variables=[Variable(v, domain) for v in names],
        free=[],
        aggregates={v: SemiringAggregate.sum() for v in names},
        factors=[
            Factor(("x0", "x1"), dict(entries), name="f01"),
            Factor(("x1", "x2"), dict(entries), name="f12"),
        ],
        semiring=COUNTING,
        name=name,
    )


def test_plan_cache_save_load_roundtrip(tmp_path):
    cache = PlanCache()
    query = _chain_query()
    cold = plan(query, cache=cache)
    assert not cold.cache_hit

    directory = tmp_path / "caches"
    counts = save_planner_caches(directory, plan_cache=cache)
    assert counts["plans"] >= 1

    fresh = PlanCache()
    loaded = load_planner_caches(directory, plan_cache=fresh)
    assert loaded["plans"] == counts["plans"]
    warm = plan(query, cache=fresh)
    assert warm.cache_hit
    assert warm.strategy == cold.strategy
    assert warm.ordering == cold.ordering


# ---------------------------------------------------------------------- #
# size buckets: one exact key per signature
# ---------------------------------------------------------------------- #
def test_plan_does_not_transfer_beyond_one_bucket_of_drift():
    cache = PlanCache()
    plan(_chain_query(size=2), cache=cache)       # bucket 2
    # Size 9 is bucket 4 — two steps away: no transfer, a fresh search.
    far = plan(_chain_query(size=9), cache=cache)
    assert not far.cache_hit
    # Both signatures now hold their own exact entries: excessive drift
    # must never evict the other workload's valid plan (alternating
    # same-shape traffic would otherwise thrash the cache forever).
    assert len(cache) == 2
    assert plan(_chain_query(size=2), cache=cache).cache_hit
    assert plan(_chain_query(size=9), cache=cache).cache_hit


def test_alternating_far_drift_workloads_do_not_thrash():
    """Regression: two same-shape workloads >1 bucket apart both stay cached."""
    cache = PlanCache()
    small, large = _chain_query(size=2), _chain_query(size=9)
    hits = 0
    for round_index in range(4):
        for query in (small, large):
            if plan(query, cache=cache).cache_hit:
                hits += 1
    # Only the two cold plans miss; every later occurrence is an exact hit.
    assert hits == 4 * 2 - 2


def test_persisted_plans_invalidate_on_version_mismatch(tmp_path, monkeypatch):
    cache = PlanCache()
    plan(_chain_query(), cache=cache)
    assert save_planner_caches(tmp_path, plan_cache=cache)["plans"] >= 1

    monkeypatch.setattr(cache_module, "SIGNATURE_VERSION", 999)
    fresh = PlanCache()
    assert load_planner_caches(tmp_path, plan_cache=fresh)["plans"] == 0
    assert len(fresh) == 0


def test_version_3_plan_spill_adopts_nothing(tmp_path):
    """A spill from before the strategy left the plan-cache key (version 3)
    can hold variable-elimination plans: neither its file nor its warm-cache
    section is adopted, while the same entries at the current version are."""
    assert SIGNATURE_VERSION == 5
    signature, _ = query_signature(_chain_query())
    stale = PlanCache()
    stale.store((signature, "search", "variable-elimination", None), "variable-elimination")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "SIGNATURE_VERSION", 3)
        section = warm_sections(stale)
        save_planner_caches(tmp_path, plan_cache=stale)
    fresh = PlanCache()
    assert load_planner_caches(tmp_path, plan_cache=fresh)["plans"] == 0
    assert adopt_warm_sections(section, fresh)["plans"] == 0
    assert len(fresh) == 0
    assert adopt_warm_sections(warm_sections(stale), fresh)["plans"] == 1


def test_version_4_plan_spill_adopts_nothing(tmp_path):
    """A version-4 ``CachedPlan`` carried its size buckets for the drift
    lookup; neither a version-4 file nor its warm-cache section is adopted,
    so the query it planned is searched again."""
    query = _chain_query()
    signature, canon = query_signature(query)
    stale = LruCache(maxsize=4)
    stale.put((signature, "search", None), CachedPlan(
        backend="sparse",
        ordering_indices=tuple(range(len(canon))),
        estimated_cost=1.0, faq_width=1.0,
    ))
    section = {"plans": stale.dump_entries(kind=_PLAN_CACHE_KIND, version=4)}
    fresh = PlanCache()
    assert adopt_warm_sections(section, fresh)["plans"] == 0
    assert len(fresh) == 0
    assert not plan(query, cache=fresh).cache_hit


# ---------------------------------------------------------------------- #
# a replica fleet's warm start
# ---------------------------------------------------------------------- #
def test_cache_section_dump_and_adopt():
    query = _random_query("max-product", 9)
    cache = PlanCache()
    plan(query, cache=cache)  # warms both the plan cache and the rho* memo
    sections = warm_sections(cache)
    plans, rho = len(sections["plans"]["entries"]), len(sections["rho_star"]["entries"])
    assert plans, "planning should have cached a plan"
    other = PlanCache()
    assert adopt_warm_sections(sections, other) == {"plans": plans, "rho_star": rho}
    wrong = {"plans": {"kind": "wrong", "version": 0, "entries": []}}
    assert adopt_warm_sections(wrong, other) == {"plans": 0, "rho_star": 0}
    assert adopt_warm_sections(None, other) == {"plans": 0, "rho_star": 0}
    assert "plans" not in warm_sections(None)


def test_replica_arguments_and_saved_file_hold_one_bundle(tmp_path):
    """The bytes a Frontend hands its replicas and the file
    save_planner_caches writes are the same bundle, and a stale section — a
    SIGNATURE_VERSION-4 plan section, a version-1 ρ* section — adopts
    nothing from either while its sound sibling still does."""
    from repro.serve.frontend import _warm_caches
    from repro.serve.replica import ReplicaHandle

    cache = PlanCache()
    plan(_random_query("max-product", 9), cache=cache)

    def bundles(name):
        directory = tmp_path / name
        save_planner_caches(directory, plan_cache=cache)
        arguments = _warm_caches(cache)
        assert repr(pickle.loads(arguments)) == repr(_saved_bundle(directory))
        return directory, arguments

    current = bundles("current")
    counts = {name: len(section["entries"]) for name, section in _saved_bundle(current[0]).items()}
    assert counts["plans"] and counts["rho_star"]
    stale = {}
    for name, owner, attribute, version in (
        ("plans", cache_module, "SIGNATURE_VERSION", 4),
        ("rho_star", covers, "_RHO_STAR_VERSION", 1),
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, attribute, version)
            stale[name] = bundles(name)

    replica = ReplicaHandle(0, warm_caches=current[1])
    try:
        assert replica.ping()["shared_cache_adopted"] == sum(counts.values())
        for name, (directory, arguments) in stale.items():
            expected = dict(counts, **{name: 0})
            assert load_planner_caches(directory, plan_cache=PlanCache()) == expected
            replica.warm_caches = arguments
            replica.restart()
            assert replica.ping()["shared_cache_adopted"] == sum(expected.values())
    finally:
        replica.close()


def test_cold_replica_adopts_fleet_warm_caches():
    """The satellite-6 contract: a cold replica starts fleet-warm."""
    from repro.engine import Engine

    query = _multi_block("max-product", 6)
    engine = Engine()
    warm = engine.query(query)  # warms the engine plan cache + rho* memo
    with engine.serve(replicas=1, health_interval=None) as tier:
        results = tier.serve_batch([query])
        assert results[0].factor.table == warm.factor.table
        stats = tier._set.replicas[0].ping()
        assert stats is not None
        assert stats["shared_cache_adopted"] > 0, (
            "cold replica failed to adopt the published fleet caches"
        )
    engine.close()


def test_restarted_replica_adopts_the_warm_caches_again():
    """The handle re-passes the parent's warm caches to every process it
    starts, so a replacement replica is as warm as the first."""
    from repro.engine import Engine

    engine = Engine()
    engine.query(_multi_block("max-product", 6))
    with engine.serve(replicas=1, health_interval=None) as tier:
        replica = tier._set.replicas[0]
        first = replica.ping()["shared_cache_adopted"]
        replica.restart()
        assert replica.ping()["shared_cache_adopted"] == first > 0
    engine.close()


def test_unpicklable_warm_caches_leave_the_fleet_cold_not_down(monkeypatch):
    import repro.hypergraph.covers as covers
    from repro.serve import Frontend

    monkeypatch.setattr(
        covers, "dump_rho_star_section",
        lambda: {"kind": "k", "version": 1, "entries": [(1, lambda: 0)]},
    )
    query = _chain_query()
    with Frontend(replicas=1, health_interval=None) as tier:
        [result] = tier.serve_batch([query])
        assert query.evaluate_brute_force().equals(result.factor, COUNTING)
        assert tier.ping()[0]["shared_cache_adopted"] == 0
