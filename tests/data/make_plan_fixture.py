"""Record what the planner chooses for a fixed set of queries.

The plan-identity test (``tests/test_plan_fixture.py``) re-plans every query
listed here and compares the choice with the recorded one exactly: the
ordering, the backend, ``faq_width`` and ``estimated_cost``, floats bit for
bit.  A change that means to leave every plan alone (a faster search, a
cheaper signature) keeps the fixture as it is; a change that means to move
plans re-records it and says which moved and why.

Run it by hand against a named commit, with that commit's ``src`` first on
the path, from the root of the checkout whose ``tests/`` you want to use::

    git archive <commit> | tar -x -C /tmp/base
    PYTHONPATH=/tmp/base/src python tests/data/make_plan_fixture.py \\
        --commit <commit> --out tests/data/plan_fixture.json

The queries are:

* ``sat:<seed>`` — random 3-CNF #SAT counts over 5-7 variables, the
  single-block shape a cold ``plan-cold`` op mostly sees;
* ``mrf:<seed>`` — sparse sum-product MRFs over 5-6 ternary variables;
* ``diff:<semiring>:<seed>`` — the differential harness's generator
  (``tests/test_planner_differential.py``) over every semiring;
* ``multi:<seed>`` — ``_helpers.small_random_query`` with up to six
  variables: free variables, several aggregate blocks and product
  aggregates, the shapes whose candidates are not all linear extensions.

Each is planned with a fresh :class:`~repro.planner.cost.CostModel` (so
nothing is read from a plan cache) after one :func:`~repro.hypergraph.covers.clear_rho_star_cache`.  The
fixture also records how many ρ* LPs a whole pass solves: the fewest over
``PYTHONHASHSEED`` 0-4, since the count moves with set iteration order
(which memoised ρ* values a search happens to ask for) while the plans do
not.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from typing import Iterator, Tuple

_TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

from _helpers import small_random_query  # noqa: E402
from test_planner_differential import SEMIRINGS, _random_query  # noqa: E402

from repro.core.query import FAQQuery, Variable  # noqa: E402
from repro.factors.factor import Factor  # noqa: E402
from repro.semiring.aggregates import SemiringAggregate  # noqa: E402
from repro.semiring.standard import COUNTING, SUM_PRODUCT  # noqa: E402

SAT_SEEDS = range(120)
MRF_SEEDS = range(60)
DIFF_SEEDS = range(40)
MULTI_SEEDS = range(60)


def sat_query(seed: int) -> FAQQuery:
    """A random 3-CNF #SAT count: clauses are all-but-one-cell indicators."""
    rng = random.Random(1_000_003 + seed)
    n = rng.randint(5, 7)
    names = [f"x{i}" for i in range(n)]
    factors = []
    for _ in range(n + 4 + rng.randint(0, 2)):
        scope = tuple(sorted(rng.sample(names, 3)))
        falsified = tuple(rng.randint(0, 1) for _ in scope)
        table = {(a, b, c): 1 for a in (0, 1) for b in (0, 1) for c in (0, 1)
                 if (a, b, c) != falsified}
        factors.append(Factor(scope, table))
    return FAQQuery(
        [Variable(v, (0, 1)) for v in names], [],
        {v: SemiringAggregate.sum() for v in names}, factors, COUNTING,
        name=f"sat-{seed}",
    )


def mrf_query(seed: int) -> FAQQuery:
    """A sparse sum-product MRF: pair and triple factors, half their cells zero."""
    rng = random.Random(2_000_003 + seed)
    n = rng.randint(5, 6)
    names = [f"X{i}" for i in range(n)]
    factors = []
    for _ in range(n - 1 + rng.randint(0, 1)):
        arity = rng.randint(2, 3)
        scope = tuple(sorted(rng.sample(names, arity)))
        table = {}
        for index in range(3 ** arity):
            cell = tuple((index // 3 ** k) % 3 for k in range(arity))
            if cell == (0,) * arity or rng.random() < 0.5:
                table[cell] = round(rng.uniform(0.1, 2.0), 3)
        factors.append(Factor(scope, table))
    return FAQQuery(
        [Variable(v, (0, 1, 2)) for v in names], [],
        {v: SemiringAggregate.sum() for v in names}, factors, SUM_PRODUCT,
        name=f"mrf-{seed}",
    )


def fixture_queries() -> Iterator[Tuple[str, FAQQuery]]:
    """Every fixture query with its id, in recording order."""
    for seed in SAT_SEEDS:
        yield f"sat:{seed}", sat_query(seed)
    for seed in MRF_SEEDS:
        yield f"mrf:{seed}", mrf_query(seed)
    for name in sorted(SEMIRINGS):
        for seed in DIFF_SEEDS:
            yield f"diff:{name}:{seed}", _random_query(name, seed)
    for seed in MULTI_SEEDS:
        yield f"multi:{seed}", small_random_query(seed, max_variables=6)


def plan_choice(query: FAQQuery) -> dict:
    """What the fixture records of one plan."""
    from repro.planner import CostModel, plan

    chosen = plan(query, cost_model=CostModel())
    return {
        "ordering": list(chosen.ordering),
        "backend": chosen.backend,
        "faq_width": chosen.faq_width,
        "estimated_cost": chosen.estimated_cost,
    }


def record() -> dict:
    """Plan every fixture query from a cold ρ* memo."""
    from repro.hypergraph.covers import clear_rho_star_cache, rho_star_cache_info

    clear_rho_star_cache()
    plans = {qid: plan_choice(query) for qid, query in fixture_queries()}
    return {"rho_star_misses": rho_star_cache_info()["misses"], "plans": plans}


def fewest_misses(hash_seeds=range(5)) -> int:
    """The fewest ρ* LPs a pass solves over the given ``PYTHONHASHSEED``s."""
    counts = []
    for seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--count-misses"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        counts.append(int(out.split()[-1]))
    return min(counts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", help="the commit being recorded")
    parser.add_argument("--out", default=os.path.join(_TESTS, "data", "plan_fixture.json"))
    parser.add_argument("--count-misses", action="store_true",
                        help="only print the ρ* LPs one pass solves")
    args = parser.parse_args()
    if args.count_misses:
        print(record()["rho_star_misses"])
        return
    if args.commit is None:
        parser.error("--commit is required")
    plans = record()["plans"]
    misses = fewest_misses()
    # One plan a line, so a re-recording diffs plan by plan.
    lines = [f"{json.dumps(qid)}: {json.dumps(plans[qid], sort_keys=True)}" for qid in plans]
    with open(args.out, "w") as handle:
        handle.write(f'{{"commit": {json.dumps(args.commit)},\n')
        handle.write(f'"rho_star_misses": {misses},\n')
        handle.write('"plans": {\n' + ",\n".join(lines) + "}}\n")
    print(f"{len(plans)} plans, {misses} rho* LPs -> {args.out}")


if __name__ == "__main__":
    main()
