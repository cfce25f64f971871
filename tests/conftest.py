"""Shared fixtures for the faq-engine test-suite.

Plain helper *functions* live in :mod:`_helpers` (a uniquely-named module)
so that test files can import them without relying on ``conftest`` being
importable — pytest may have already bound the ``conftest`` module name to
``benchmarks/conftest.py`` when both directories are collected together.
The names are re-exported here for backwards compatibility.
"""

from __future__ import annotations

import random

import pytest

from repro.core.query import FAQQuery, Variable
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT, SUM_PRODUCT

from _helpers import make_factor, random_factor, small_random_query

__all__ = ["make_factor", "random_factor", "small_random_query"]


@pytest.fixture
def counting():
    return COUNTING


@pytest.fixture
def boolean():
    return BOOLEAN


@pytest.fixture
def sum_product():
    return SUM_PRODUCT


@pytest.fixture
def max_product():
    return MAX_PRODUCT


@pytest.fixture
def triangle_query():
    """A fixed 3-variable triangle query over the counting semiring."""
    rng = random.Random(7)
    names = ["A", "B", "C"]
    domains = {v: tuple(range(4)) for v in names}
    factors = [
        random_factor(("A", "B"), domains, rng, zero_one=True),
        random_factor(("B", "C"), domains, rng, zero_one=True),
        random_factor(("A", "C"), domains, rng, zero_one=True),
    ]
    aggregates = {v: SemiringAggregate.sum() for v in names}
    return FAQQuery(
        variables=[Variable(v, domains[v]) for v in names],
        free=[],
        aggregates=aggregates,
        factors=factors,
        semiring=COUNTING,
        name="triangle",
    )


@pytest.fixture
def encode_counts(monkeypatch):
    """Counts of every flat encode and code-map build, whoever asks for them."""
    from repro.factors import flat as flat_module

    counts = {"encodes": 0, "contexts": 0}

    def counting(name, key):
        original = getattr(flat_module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(flat_module, name, wrapper)

    counting("_encode_listing", "encodes")
    counting("_encode_dense", "encodes")
    counting("FlatContext", "contexts")
    return counts
