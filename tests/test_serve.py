"""The in-process serving loop: typed API, content coalescing, trie reuse.

The serving surface is :class:`~repro.serve.ServeRequest` in /
:class:`~repro.serve.ServeResult` out; the PR 5 bare-query form is gone and
is refused with a typed error (bottom of the file).
"""

import threading

import pytest

from repro.core.insideout import inside_out
from repro.core.query import QueryError
from repro.factors.backend import BACKEND_FLAT, BackendPolicy
from repro.planner import PlanCache, STRATEGY_INSIDEOUT, plan
from repro.serve import PlanServer, ServeRequest, ServeResult

from _helpers import on_threads
from test_flat_kernel import _chain_query, _check_answer, _filtering_chain_query
from test_planner import _path_query, _reference_join
from test_planner_differential import _random_query
from test_signature_digest import _unencodable_query


def _reference(query):
    return plan(query, cache=PlanCache()).execute().factor


def _traffic(num_unique=4, repeats=6, name="counting"):
    unique = [_random_query(name, seed) for seed in range(num_unique)]
    return unique, [unique[i % num_unique] for i in range(num_unique * repeats)]


def _requests(queries, **kwargs):
    return [ServeRequest(query=q, **kwargs) for q in queries]


def test_execute_batch_preserves_input_order():
    unique, traffic = _traffic()
    expected = {id(q): _reference(q) for q in unique}
    with PlanServer(pool_size=3) as server:
        results = server.execute_batch(_requests(traffic))
    assert len(results) == len(traffic)
    for query, result in zip(traffic, results):
        assert isinstance(result, ServeResult)
        want = expected[id(query)]
        assert result.factor.scope == want.scope
        assert result.factor.table == want.table


def test_join_requests_merge_with_the_rest_of_a_batch():
    """A natural join is an ordinary plan: it runs in the batch's merged
    step DAG beside an elimination query, not on a route of its own."""
    join = _path_query(20, dangling=False)
    chain = _chain_query(domain=4)
    with PlanServer(pool_size=2) as server:
        joined, chained = server.execute_batch(_requests([join, chain]))
        stats = server.stats()
    assert stats["merged_queries"] == 2
    assert joined.factor.equals(_reference_join(join), join.semiring)
    assert chained.factor.equals(chain.evaluate_brute_force(), chain.semiring)


def test_shipped_factors_are_held_by_reference():
    """A factor crosses the wire thawed but with its digest memo: the
    replica-side query freezes it again and holds it instead of a copy."""
    import pickle

    from repro.planner import query_content_key
    from repro.serve.protocol import decode_query, encode_query
    from test_signature_digest import _fixed_query

    wire, tables = encode_query(_fixed_query())
    shipped = pickle.loads(pickle.dumps(tables))
    assert not any(factor.frozen for factor in shipped.values())
    rebuilt = decode_query(pickle.loads(pickle.dumps(wire)), shipped)
    for factor, digest in zip(rebuilt.factors, wire.factor_digests):
        assert factor is shipped[digest] and factor.frozen
    assert query_content_key(rebuilt) == wire.query_key


def test_content_coalescing_across_distinct_objects():
    """Value-equal queries built as *distinct objects* (different clients)
    coalesce onto in-flight executions — the content-hash upgrade over the
    PR 5 id()-based coalescing, which treated them as unrelated."""
    traffic = [_random_query("counting", seed % 3) for seed in range(15)]
    assert len({id(q) for q in traffic}) == 15
    with PlanServer(pool_size=2) as server:
        results = server.execute_batch(_requests(traffic))
        stats = server.stats()
    assert stats["submitted"] == 15
    # Every request past the first of each of the 3 content classes finds a
    # value-equal execution in flight (enqueueing is far faster than
    # executing; allow a few primaries to complete mid-enqueue).
    assert stats["coalesced"] >= 15 - 2 * 3
    by_key = {}
    for query, result in zip(traffic, results):
        key = result.content_key
        assert key is not None
        by_key.setdefault(key, result.factor.table)
        assert result.factor.table == by_key[key]
    assert len(by_key) == 3


def test_coalesced_futures_resolve_with_flag():
    """White-box determinism: a request whose content key is already in
    flight chains onto the primary and resolves flagged ``coalesced``."""
    query = _random_query("counting", 2)
    duplicate = _random_query("counting", 2)
    request = ServeRequest(query=query)
    with PlanServer(pool_size=1) as server:
        primary = server.submit(request)
        primary.result()  # settle
        # Re-insert an unresolved primary under the duplicate's key.
        from concurrent.futures import Future

        pinned: Future = Future()
        dup_request = ServeRequest(query=duplicate)
        server._inflight[dup_request.content_key] = pinned
        chained = server.submit(dup_request)
        assert not chained.done()
        pinned.set_result(primary.result())
        final = chained.result(timeout=5)
        assert final.coalesced is True
        assert final.factor.table == primary.result().factor.table
    assert primary.result().coalesced is False


def test_no_coalescing_still_correct_and_reuses_plans():
    unique, traffic = _traffic(num_unique=3, repeats=4)
    expected = {id(q): _reference(q) for q in unique}
    with PlanServer(pool_size=2) as server:
        results = server.execute_batch(_requests(traffic), coalesce=False)
        stats = server.stats()
    assert stats["submitted"] == len(traffic)
    assert stats["coalesced"] == 0
    # Each execution consults the digest-addressed cache; only a class's
    # first occurrence falls through to a signature lookup + search.  Two
    # pool workers can race a class's first two occurrences into concurrent
    # cold paths, hence the slack.
    total = stats["plan_cache_hits"] + stats["plan_cache_misses"]
    assert total >= len(traffic)
    assert stats["plan_cache_hits"] >= len(traffic) - 2 * len(unique)
    for query, result in zip(traffic, results):
        assert result.factor.table == expected[id(query)].table


def test_value_equal_repeat_is_a_plan_cache_hit_with_no_new_scoring():
    """A value-equal repeat, rebuilt as a fresh object, plans from the one
    signature-keyed entry: one lookup, a hit, and no candidate scored."""
    from repro.planner import DEFAULT_COST_MODEL

    cache = PlanCache()
    with PlanServer(cache=cache) as server:
        server.execute_request(ServeRequest(query=_random_query("counting", 1)))
        hits, misses = cache.hits, cache.misses
        scored = DEFAULT_COST_MODEL.invocations
        server.execute_request(ServeRequest(query=_random_query("counting", 1)))
        assert (cache.hits, cache.misses) == (hits + 1, misses)
        assert DEFAULT_COST_MODEL.invocations == scored


def test_shared_tries_reused_across_value_equal_objects():
    """Trie stores index factors by content digest: a *fresh* value-equal
    query object in a later batch reuses the tries built for the first one,
    with no query object pinned anywhere."""
    def fresh_batch():
        return _requests(
            [_random_query("counting", seed % 2) for seed in range(6)],
            options={"strategy": STRATEGY_INSIDEOUT, "backend": "sparse"},
        )

    with PlanServer(pool_size=2) as server:
        server.execute_batch(fresh_batch(), coalesce=False)
        first = server.stats()
        batch = fresh_batch()
        results = server.execute_batch(batch, coalesce=False)
        second = server.stats()
    assert first["shared_trie_stores"] >= 1
    assert second["shared_trie_hits"] > first["shared_trie_hits"]
    assert second["shared_trie_misses"] == first["shared_trie_misses"]
    for request, result in zip(batch, results):
        want = request.query.evaluate_brute_force()
        assert want.equals(result.factor, request.query.semiring)


def test_shared_trie_store_covers_by_digest_only():
    """``covers`` is "this factor's digest is one I was built for": false
    without a digest memo, false for other content, true for a value-equal
    factor held by a different object."""
    from repro.factors.factor import Factor
    from repro.factors.index import SharedTrieCache
    from repro.planner.signature import factor_digest
    from repro.semiring.standard import COUNTING

    def pair(cell, digest=True):
        factor = Factor(("a", "b"), {(0, 0): 1, (0, 1): cell})
        if digest:
            factor_digest(factor)  # leaves the memo the store keys by
        return factor

    base, twin = pair(2), pair(2)
    store = SharedTrieCache(("a", "b"), COUNTING, [base])
    assert store.covers(base)
    assert twin is not base and store.covers(twin)
    assert store.trie(twin) is store.trie(base)
    assert (store.hits, store.misses) == (1, 1)
    assert not store.covers(pair(2, digest=False))
    assert not store.covers(pair(3))
    # A store built from undigested factors covers nothing.
    assert not SharedTrieCache(("a", "b"), COUNTING, [pair(2, digest=False)]).covers(base)


def _flat_request(query):
    """A private InsideOut run whose big sparse steps pick the flat kernel."""
    return ServeRequest(
        query, coalesce=False,
        options={"strategy": STRATEGY_INSIDEOUT, "backend": "sparse"},
    )


def test_warm_engine_query_encodes_nothing(encode_counts):
    """The flat kernel's encodings are per content: the second run of a
    value-equal query, rebuilt from fresh objects, encodes no table, builds
    no code map, and still runs on the flat kernel."""
    from repro.engine import Engine

    with Engine() as engine:
        first = engine.query(_flat_request(_filtering_chain_query()))
        cold = dict(encode_counts)
        assert cold == {"encodes": 3, "contexts": 1}
        twin = _filtering_chain_query()
        second = engine.query(_flat_request(twin))
    assert encode_counts == cold
    _check_answer(twin, second)
    assert second.factor.table == first.factor.table


def test_update_factor_leaves_old_content_warm(encode_counts):
    """An update evicts nothing: the old content's encodings still answer
    it, and the new content gets (and then reuses) its own."""
    from repro.factors.delta import FactorDelta

    old = _chain_query(seed=3)
    cell = next(iter(old.factors[1].table))
    delta = FactorDelta(("x1", "x2"), {cell: 1.9})
    new = _chain_query(
        tables=[old.factors[0].table, old.factors[1].apply_delta(delta, old.semiring).table]
    )
    with PlanServer(pool_size=1) as server:
        server.execute_request(_flat_request(old))
        updated = server.update_factor(_flat_request(old), 1, delta)
        assert updated.factor.equals(new.evaluate_brute_force(), new.semiring)
        warm = dict(encode_counts)
        again = server.execute_request(_flat_request(_chain_query(seed=3)))
        assert encode_counts == warm
        _check_answer(old, again)
        fresh = server.execute_request(_flat_request(new))
        _check_answer(new, fresh)
        stored = dict(encode_counts)
        twin = _chain_query(tables=[f.table for f in new.factors])
        repeat = server.execute_request(_flat_request(twin))
        assert encode_counts == stored
        assert repeat.factor.table == fresh.factor.table == updated.factor.table


def test_ineligible_table_is_probed_once_per_content(encode_counts):
    """A NaN-valued table has no flat encoding; the store remembers that, so
    a later run of the same content goes to the trie kernel unprobed."""
    import math

    def poisoned():
        query = _filtering_chain_query(seed=6)
        table = dict(query.factors[1].table)
        table[next(iter(table))] = math.nan
        return _chain_query(tables=[query.factors[0].table, table])

    with PlanServer(pool_size=1) as server:
        first = server.execute_request(_flat_request(poisoned()))
        # The projection onto x1, the NaN table (refused), then for x1's
        # step the other base table and the trie kernel's result over x1.
        assert encode_counts["encodes"] == 4
        second = server.execute_request(_flat_request(poisoned()))
    # Only that result is the run's own; the refusal was remembered.
    assert encode_counts["encodes"] == 5
    for result in (first, second):
        # x2's step holds the NaN table and must stay off the flat kernel.
        assert result.stats.steps[0].backend != BACKEND_FLAT
    # NaN != NaN, so compare the tables as printed.
    reference = inside_out(
        poisoned(), ordering=second.ordering, backend="sparse",
        backend_policy=BackendPolicy(flat_enabled=False),
    )
    assert repr(sorted(second.factor.table.items())) == repr(
        sorted(reference.factor.table.items())
    )


def test_content_key_is_encoded_once_per_request(monkeypatch):
    """Serving reads a request's key several times (coalescing, the result
    cache, the finished result): the options are encoded once.  The memo is
    no field, so ``==``, ``hash`` and ``replace()`` do not see it."""
    from dataclasses import replace

    import repro.serve.api as api
    from repro.planner import query_content_key

    query = _chain_query(seed=3)
    query_content_key(query)  # the query's own memo, out of the count
    request = ServeRequest(query=query, options={"strategy": STRATEGY_INSIDEOUT})
    twin = ServeRequest(query=query, options={"strategy": STRATEGY_INSIDEOUT})
    calls = []
    real = api.canonical_bytes
    monkeypatch.setattr(
        api, "canonical_bytes", lambda value: (calls.append(value), real(value))[1]
    )
    keys = [request.content_key for _ in range(3)]
    assert len(calls) == 1 and keys[0] is not None and len(set(keys)) == 1
    assert request == twin and hash(request) == hash(twin)
    factorized = replace(request, output_mode="factorized")
    assert factorized.content_key != keys[0] and len(calls) == 2
    assert replace(factorized, output_mode="listing").content_key == keys[0]


def test_query_without_content_key_answers_without_warm_tries():
    """No content key: no coalescing, no digest plan, no step sharing — and
    no trie store either; the answer is still right."""
    query = _unencodable_query()
    request = ServeRequest(
        query=query, options={"strategy": STRATEGY_INSIDEOUT, "backend": "sparse"}
    )
    assert request.content_key is None
    with PlanServer(pool_size=1) as server:
        results = [server.execute_request(request) for _ in range(2)]
        stats = server.stats()
    assert stats["shared_trie_stores"] == 0
    assert stats["shared_trie_hits"] == stats["shared_trie_misses"] == 0
    want = query.evaluate_brute_force()
    for result in results:
        assert result.strategy == STRATEGY_INSIDEOUT
        assert want.equals(result.factor, query.semiring)


def test_submit_returns_typed_futures():
    unique, traffic = _traffic(num_unique=2, repeats=2)
    expected = {id(q): _reference(q) for q in unique}
    with PlanServer(pool_size=2) as server:
        futures = [server.submit(request) for request in _requests(traffic)]
        for query, future in zip(traffic, futures):
            result = future.result()
            assert isinstance(result, ServeResult)
            assert result.factor.table == expected[id(query)].table
    with pytest.raises(RuntimeError):
        server.submit(_requests(traffic[:1])[0])


def test_request_validation_is_typed():
    query = _random_query("counting", 0)
    with pytest.raises(QueryError):
        ServeRequest(query="not a query")
    with pytest.raises(QueryError):
        ServeRequest(query=query, output_mode="nope")
    with pytest.raises(QueryError):
        ServeRequest(query=query, deadline=0.0)
    with pytest.raises(QueryError):
        ServeRequest(query=query, options={"dag_workers": 2})
    normalized = ServeRequest(query=query, options={"backend": "sparse"})
    assert normalized.options == (("backend", "sparse"),)
    assert normalized.plan_kwargs() == {"backend": "sparse"}


def test_server_workers_validation_matches_engines():
    """``pool_size`` is a positive integer or ``None`` (the CPU count)."""
    for bad in (0, -1, True, "auto", 1.5):
        with pytest.raises(QueryError):
            PlanServer(pool_size=bad)
    with PlanServer(pool_size=None) as server:
        assert server.pool_size >= 1


def test_trie_counters_survive_lru_eviction(monkeypatch):
    """stats() trie counters are cumulative — eviction must not shrink them."""
    from repro.serve import server as server_module

    monkeypatch.setattr(server_module, "_MAX_SHARED_QUERIES", 1)

    def fresh_batch():
        return _requests(
            [_random_query("counting", seed % 3) for seed in range(6)],
            options={"strategy": STRATEGY_INSIDEOUT, "backend": "sparse"},
        )

    with PlanServer(pool_size=1) as server:
        server.execute_batch(fresh_batch(), coalesce=False)
        first = server.stats()
        batch = fresh_batch()
        results = server.execute_batch(batch, coalesce=False)
        second = server.stats()
    for request, result in zip(batch, results):
        want = request.query.evaluate_brute_force()
        assert want.equals(result.factor, request.query.semiring)
    assert first["shared_trie_stores"] == 1  # the LRU kept only one store
    total_first = first["shared_trie_hits"] + first["shared_trie_misses"]
    total_second = second["shared_trie_hits"] + second["shared_trie_misses"]
    assert second["shared_trie_hits"] >= first["shared_trie_hits"]
    assert total_second >= total_first


def test_a_two_thread_pool_serves_a_batch():
    unique, traffic = _traffic(num_unique=2, repeats=2)
    expected = {id(q): _reference(q) for q in unique}
    with PlanServer(pool_size=2) as server:
        results = server.execute_batch(_requests(traffic))
    for query, result in zip(traffic, results):
        assert result.factor.table == expected[id(query)].table


def test_batch_with_factorized_output_mode():
    unique, _ = _traffic(num_unique=3, repeats=1)
    requests = _requests(
        unique, output_mode="factorized", options={"strategy": STRATEGY_INSIDEOUT}
    )
    with PlanServer(pool_size=2) as server:
        results = server.execute_batch(requests)
    for result in results:
        assert result.factor is None
        assert result.factorized is not None


def test_cost_model_invocations_exact_under_concurrency():
    """``CostModel.invocations`` lands exactly on the true call count.

    Plain ``+= 1`` increments tear under a pool (read-modify-write races
    lose updates); the model's lock keeps the counter exact, which is what
    lets plan-cache tests keep proving "a hit skips the search" even with
    serving-layer concurrency.
    """
    from repro.planner import CostModel, QueryStatistics

    model = CostModel()
    query = _random_query("counting", 1)
    stats = QueryStatistics.from_query(query)
    hypergraph = query.hypergraph()
    ordering = tuple(query.order)
    threads_n, per_thread = 4, 50
    barrier = threading.Barrier(threads_n)
    errors = []

    def worker():
        try:
            barrier.wait(timeout=10)
            for _ in range(per_thread):
                model.estimate(query, stats, ordering, hypergraph=hypergraph)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert model.invocations == threads_n * per_thread


@pytest.mark.parametrize("holder", ["per-run", "shared"])
def test_trie_cache_counters_exact_under_concurrency(holder):
    """Concurrent requests read one shared store — directly, or each through
    its own per-run holder — and every holder's hit/miss counters stay exact."""
    from repro.factors.index import SharedTrieCache, TrieCache
    from repro.planner.signature import query_content_key

    query = _random_query("counting", 2)
    query_content_key(query)  # leaves the digest memos the store keys by
    store = SharedTrieCache(tuple(query.order), query.semiring, query.factors)
    factors = list(query.factors)
    threads_n, per_thread = 4, 40

    def request(_):
        tries = store
        if holder == "per-run":
            tries = TrieCache(tuple(query.order), query.semiring)
            tries.adopt_parent(store)
        for _ in range(per_thread):
            for factor in factors:
                tries.trie(factor)
        return tries.counters()

    runs = on_threads(threads_n, request, switch_interval=1e-5)
    counters = store.counters()
    if holder == "per-run":
        # One local miss per factor, served by the store; the rest hit.
        for run in runs:
            assert run == {"hits": (per_thread - 1) * len(factors), "misses": len(factors)}
        assert counters["hits"] + counters["misses"] == threads_n * len(factors)
    else:
        assert counters["hits"] + counters["misses"] == threads_n * per_thread * len(factors)
        assert counters["hits"] >= (threads_n * per_thread - threads_n) * len(factors)
    # Each factor misses at least once (first build) but the store-once
    # discipline keeps the miss count tiny relative to the traffic.
    assert counters["misses"] >= len(factors)


def test_shared_trie_store_lookup_waits_for_the_lock():
    """A lookup on the shared store must wait while another thread holds
    the store's lock — deterministically, where the counter test above
    only fails if a race happens to interleave badly."""
    from repro.factors.index import SharedTrieCache, build_trie
    from repro.planner.signature import query_content_key

    query = _random_query("counting", 2)
    query_content_key(query)
    store = SharedTrieCache(tuple(query.order), query.semiring, query.factors)
    factor = query.factors[0]
    found = []
    thread = threading.Thread(target=lambda: found.append(store.trie(factor)))
    with store._lock:
        thread.start()
        thread.join(timeout=0.05)
        assert thread.is_alive() and not found, "the lookup ran past a held lock"
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert found[0].root == build_trie(factor, store.order, store.semiring).root
    assert store.counters() == {"hits": 0, "misses": 1}


# ---------------------------------------------------------------------- #
# the removed PR 5 surface
# ---------------------------------------------------------------------- #
def test_bare_query_is_refused_with_typed_error():
    query = _random_query("counting", 0)
    with PlanServer() as server:
        with pytest.raises(QueryError, match="ServeRequest"):
            server.submit(query)
        with pytest.raises(QueryError, match="ServeRequest"):
            server.execute_batch([query, query])
        assert server.stats()["submitted"] == 0
