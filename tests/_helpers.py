"""Shared test helpers (factor and query generators).

This module deliberately has a unique basename: test modules import it with
``from _helpers import ...``.  Importing helpers from ``conftest`` is
unreliable when several directories (``tests/``, ``benchmarks/``) each carry
a ``conftest.py`` — whichever is imported first wins the ``conftest`` slot in
``sys.modules`` and shadows the other.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading

from repro.core.query import FAQQuery, Variable
from repro.factors.factor import Factor
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate
from repro.semiring.standard import COUNTING


def make_factor(scope, entries):
    """Shorthand factor constructor used across the tests."""
    return Factor(tuple(scope), dict(entries))


def random_factor(scope, domains, rng, density=0.7, integer=True, zero_one=False):
    """A random sparse factor over the given scope and domains."""
    table = {}
    for values in itertools.product(*(domains[v] for v in scope)):
        if rng.random() < density:
            if zero_one:
                table[values] = 1
            elif integer:
                table[values] = rng.randint(1, 4)
            else:
                table[values] = round(rng.uniform(0.1, 2.0), 3)
    return Factor(tuple(scope), table)


def small_random_query(
    seed,
    *,
    allow_products=True,
    allow_free=True,
    semiring=COUNTING,
    zero_one=False,
    max_variables=5,
):
    """A small random FAQ query for brute-force cross-checking."""
    rng = random.Random(seed)
    n = rng.randint(2, max_variables)
    names = [f"x{i}" for i in range(n)]
    domains = {v: tuple(range(rng.randint(2, 3))) for v in names}
    num_free = min(rng.randint(0, 2) if allow_free else 0, n - 1)
    free = names[:num_free]
    aggregates = {}
    for name in names[num_free:]:
        roll = rng.random()
        if allow_products and roll < 0.3:
            aggregates[name] = ProductAggregate.product()
        elif roll < 0.65:
            aggregates[name] = SemiringAggregate.sum()
        else:
            aggregates[name] = SemiringAggregate.max()
    factors = []
    for _ in range(rng.randint(1, 4)):
        arity = rng.randint(1, min(3, n))
        scope = tuple(rng.sample(names, arity))
        factors.append(
            random_factor(scope, domains, rng, density=0.7, zero_one=zero_one)
        )
    return FAQQuery(
        variables=[Variable(v, domains[v]) for v in names],
        free=free,
        aggregates=aggregates,
        factors=factors,
        semiring=semiring,
        name=f"rand{seed}",
    )


def on_threads(count, target, switch_interval=None):
    """Run ``target(i)`` for ``i`` in ``range(count)``, each on its own plain
    thread, and return the results in that order.

    The threads start ``target`` together, behind a barrier.  The first
    exception a thread raised is re-raised here.  A ``switch_interval``
    (seconds) shortens the interpreter's thread switch interval while the
    threads run, to provoke races.
    """
    results, errors = [None] * count, []
    start = threading.Barrier(count)

    def run(slot):
        try:
            start.wait(timeout=60)
            results[slot] = target(slot)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    previous = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads), "a thread never finished"
    if errors:
        raise errors[0]
    return results
