"""Cold planning does each thing once, and still picks the same plans.

Three rewrites of the cold planning path are held to the code they replaced,
kept here as oracles:

* ``canonical_order`` relabels each refinement round's colours to integer
  ranks; :func:`_nested_canonical_order` is the nested-tuple refinement it
  replaced, and both must give the same canonical order;
* ``best_ordering_search`` visits children best first, on vertex bitmasks;
  :func:`_lexicographic_search` is the frozenset search that visited them in
  repr order, and both must return the same (ordering, width);
* ``candidate_orderings`` accepts a linear extension of the precedence poset
  without the recursive EVO membership test (Theorems 6.8 / 6.23 make it a
  member); the property test below checks that the test agrees.

The counter test pins "once": a cold ``Engine.query`` of a fresh single-block
query runs one WL pass and no EVO membership test.
"""

import itertools
import random

import pytest

from repro.core.evo import is_equivalent_ordering, linear_extensions
from repro.core.expression_tree import build_expression_tree
from repro.core.query import FAQQuery, Variable
from repro.factors.factor import Factor
from repro.hypergraph.covers import fractional_edge_cover_number
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.orderings import _quantized, best_ordering_search
from repro.planner import candidate_orderings
from repro.planner.planner import _is_linear_extension
from repro.planner.signature import _aggregate_blocks, canonical_order, size_bucket
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate
from repro.semiring.standard import COUNTING

from _helpers import random_factor, small_random_query
from test_plan_fixture import _fixture_module
from test_planner_differential import SEMIRINGS, _random_query


# --------------------------------------------------------------------- #
# oracles: the code the rewrites replaced
# --------------------------------------------------------------------- #
def _nested_canonical_order(query):
    """WL refinement over nested colour tuples, one level deeper a round."""
    blocks = _aggregate_blocks(query)
    colors = {v: (query.tag(v), blocks[v], query.domain_size(v)) for v in query.order}
    edges = [(tuple(f.scope), size_bucket(len(f))) for f in query.factors]
    for _ in range(min(3, len(query.order))):
        edge_colors = [
            (tuple(sorted(colors[v] for v in scope)), bucket) for scope, bucket in edges
        ]
        new_colors = {}
        for variable in query.order:
            incident = sorted(
                color for (scope, _), color in zip(edges, edge_colors) if variable in scope
            )
            new_colors[variable] = (colors[variable], tuple(incident))
        if len(set(new_colors.values())) == len(set(colors.values())):
            colors = new_colors
            break
        colors = new_colors
    position = {v: i for i, v in enumerate(query.order)}
    return sorted(query.order, key=lambda v: (colors[v], position[v]))


def _lexicographic_search(hypergraph, width_fn, free=()):
    """Branch and bound over frozensets, children in repr order."""
    vertices = sorted(hypergraph.vertices, key=repr)
    n = len(vertices)
    if n == 0:
        return [], 0.0
    free_set = frozenset(free) & frozenset(vertices)
    bound_count = n - len(free_set)
    adjacency = {v: set() for v in vertices}
    for edge in hypergraph.edges:
        for v in edge:
            adjacency[v] |= edge - {v}

    def union_after(vertex, eliminated):
        seen, stack, union = {vertex}, [vertex], {vertex}
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if neighbor in eliminated:
                    stack.append(neighbor)
                else:
                    union.add(neighbor)
        return frozenset(union)

    step_memo = {}

    def step_width(eliminated, vertex):
        key = (eliminated, vertex)
        if key not in step_memo:
            step_memo[key] = _quantized(width_fn(union_after(vertex, eliminated)))
        return step_memo[key]

    best = [float("inf")]
    visited = {}

    def search(eliminated, running):
        if running >= best[0]:
            return
        previous = visited.get(eliminated)
        if previous is not None and previous <= running:
            return
        visited[eliminated] = running
        if len(eliminated) == n:
            best[0] = running
            return
        bound_done = len(eliminated) >= bound_count
        for vertex in vertices:
            if vertex in eliminated or (vertex in free_set and not bound_done):
                continue
            search(eliminated | {vertex}, max(running, step_width(eliminated, vertex)))

    search(frozenset(), float("-inf"))
    best_width = best[0]
    feasible_memo = {frozenset(): True}

    def front(remaining):
        return (remaining & free_set) or remaining

    def feasible(remaining):
        if remaining not in feasible_memo:
            feasible_memo[remaining] = any(
                step_width(remaining - {v}, v) <= best_width and feasible(remaining - {v})
                for v in front(remaining)
            )
        return feasible_memo[remaining]

    ordering, remaining = [], frozenset(vertices)
    while remaining:
        for vertex in vertices:
            if vertex not in front(remaining):
                continue
            rest = remaining - {vertex}
            if step_width(rest, vertex) <= best_width and feasible(rest):
                ordering.append(vertex)
                remaining = rest
                break
    return ordering, best_width


# --------------------------------------------------------------------- #
# query generators
# --------------------------------------------------------------------- #
def _fixture_queries():
    return [query for _, query in _fixture_module().fixture_queries()]


def _symmetric_query(seed):
    """Cycles, cliques and stars with equal-size factors under shuffled
    names: the structures where refinement leaves ties to the position."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    names = [f"v{i}" for i in range(n)]
    shuffled = names[:]
    rng.shuffle(shuffled)
    shape = seed % 3
    if shape == 0:
        scopes = [(shuffled[i], shuffled[(i + 1) % n]) for i in range(n)]
    elif shape == 1:
        scopes = list(itertools.combinations(shuffled[: min(n, 5)], 2))
    else:
        scopes = [(shuffled[0], leaf) for leaf in shuffled[1:]]
    table = {(0, 0): 1, (1, 1): 1}
    factors = [Factor(scope, dict(table)) for scope in scopes]
    free = names[: rng.randint(0, 1)]
    aggregates = {v: SemiringAggregate.sum() for v in names if v not in free}
    return FAQQuery([Variable(v, (0, 1)) for v in names], free, aggregates, factors,
                    COUNTING, name=f"sym-{seed}")


def _multi_block_query(seed):
    """Up to seven variables, free ones, sum / max / product blocks."""
    rng = random.Random(7_000_003 + seed)
    n = rng.randint(3, 7)
    names = [f"x{i}" for i in range(n)]
    domains = {v: tuple(range(2)) for v in names}
    free = names[: rng.randint(0, 2)]
    makers = (SemiringAggregate.sum, SemiringAggregate.max, ProductAggregate.product)
    aggregates = {v: rng.choice(makers)() for v in names if v not in free}
    factors = [
        random_factor(tuple(rng.sample(names, rng.randint(1, min(3, n)))), domains, rng,
                      zero_one=rng.random() < 0.5)
        for _ in range(rng.randint(2, 6))
    ]
    return FAQQuery([Variable(v, domains[v]) for v in names], free, aggregates, factors,
                    COUNTING, name=f"multi-block-{seed}")


def _canon_queries():
    queries = [_random_query(name, seed) for name in sorted(SEMIRINGS) for seed in range(50)]
    queries += _fixture_queries()
    queries += [small_random_query(seed, max_variables=6) for seed in range(500)]
    queries += [_symmetric_query(seed) for seed in range(300)]
    queries += [_multi_block_query(seed) for seed in range(300)]
    return queries


# --------------------------------------------------------------------- #
# one canonical pass
# --------------------------------------------------------------------- #
def test_rank_relabelled_canon_matches_the_nested_tuple_oracle():
    queries = _canon_queries()
    assert len(queries) >= 1700
    mismatched = [q.name for q in queries if canonical_order(q) != _nested_canonical_order(q)]
    assert not mismatched, mismatched[:10]


def test_cold_engine_query_runs_one_wl_pass_and_no_evo_test(monkeypatch):
    import repro.core.evo as evo
    import repro.planner.planner as planner
    import repro.planner.signature as signature
    from repro.engine import Engine

    calls = {"canonical_order": 0, "is_equivalent_ordering": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(signature, "canonical_order",
                        counting("canonical_order", signature.canonical_order))
    tested = counting("is_equivalent_ordering", evo.is_equivalent_ordering)
    monkeypatch.setattr(evo, "is_equivalent_ordering", tested)
    monkeypatch.setattr(planner, "is_equivalent_ordering", tested)

    query = _fixture_queries()[7]  # a #SAT count: one sum block
    with Engine() as engine:
        result = engine.query(query)
    assert result.factor.equals(query.evaluate_brute_force(), query.semiring)
    assert calls == {"canonical_order": 1, "is_equivalent_ordering": 0}


# --------------------------------------------------------------------- #
# best-first branch and bound
# --------------------------------------------------------------------- #
def _random_hypergraph(seed):
    rng = random.Random(31_337 + seed)
    n = rng.randint(1, 7)
    vertices = [f"v{i}" for i in range(n)]
    edges = [rng.sample(vertices, rng.randint(1, min(4, n))) for _ in range(rng.randint(0, 8))]
    free = rng.sample(vertices, rng.randint(0, min(2, n))) if seed % 2 else ()
    return Hypergraph(vertices, edges), free


@pytest.mark.parametrize("block", range(8))
def test_best_first_search_matches_the_lexicographic_oracle(block):
    """800 hypergraphs (100 a block), half with free vertices, under ρ* and
    under treewidth: the same ordering and the same width."""
    for seed in range(100 * block, 100 * (block + 1)):
        hypergraph, free = _random_hypergraph(seed)
        width_fns = (
            lambda bag: fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True),
            lambda bag: len(bag) - 1,
        )
        for width_fn in width_fns:
            expected = _lexicographic_search(hypergraph, width_fn, free)
            assert best_ordering_search(hypergraph, width_fn, free) == expected, seed


def test_best_first_search_asks_for_fewer_widths():
    asked = {"oracle": 0, "best-first": 0}
    for seed in range(200):
        hypergraph, free = _random_hypergraph(seed)
        for name, search in (("oracle", _lexicographic_search),
                             ("best-first", best_ordering_search)):
            def width_fn(bag, name=name):
                asked[name] += 1
                return fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True)
            search(hypergraph, width_fn, free)
    assert asked["best-first"] < asked["oracle"]


# --------------------------------------------------------------------- #
# EVO by construction
# --------------------------------------------------------------------- #
def _orderings_to_try(query, rng):
    """Linear extensions, the planner's candidates, and free-prefix shuffles."""
    tree = build_expression_tree(query)
    tried = list(itertools.islice(linear_extensions(tree), 6))
    tried += candidate_orderings(query)
    free, bound = list(query.free), list(query.bound)
    for _ in range(12):
        rng.shuffle(free)
        rng.shuffle(bound)
        tried.append(tuple(free + bound))
    return tree, tried


@pytest.mark.parametrize("seed", range(64))
def test_linear_extension_check_accepts_only_evo_members(seed):
    """Every ordering the planner's O(n·|pred|) check accepts passes the
    recursive EVO membership test, on multi-aggregate and product queries."""
    rng = random.Random(seed)
    queries = [small_random_query(seed, max_variables=6), _multi_block_query(seed),
               _symmetric_query(seed)]
    for query in queries:
        tree, tried = _orderings_to_try(query, rng)
        predecessors = tree.precedence_predecessors()
        accepted = [o for o in tried if _is_linear_extension(o, predecessors)]
        assert accepted, query.name  # linear extensions are always accepted
        for ordering in accepted:
            assert is_equivalent_ordering(query, ordering), (query.name, ordering)


def test_linear_extension_check_rejects_malformed_orderings():
    query = small_random_query(3, max_variables=6)
    predecessors = build_expression_tree(query).precedence_predecessors()
    order = tuple(query.order)
    assert _is_linear_extension(order[:1] + order[:-1], predecessors) is (len(order) == 1)
    assert not _is_linear_extension(order[:-1], predecessors)
    assert not _is_linear_extension(order[:-1] + ("nope",), predecessors)
