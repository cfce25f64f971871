"""Unit tests for the factor trie index (:mod:`repro.factors.index`)."""

import pytest

from repro.factors.factor import Factor
from repro.factors.index import FactorTrie, build_tries
from repro.semiring.base import Semiring
from repro.semiring.standard import COUNTING, MIN_PLUS


@pytest.fixture
def psi():
    return Factor(
        ("A", "B", "C"),
        {(0, 0, 0): 1, (0, 1, 0): 2, (1, 0, 1): 3, (1, 1, 1): 4},
    )


class TestTrieConstruction:
    def test_levels_follow_global_order(self, psi):
        trie = FactorTrie(psi, ["C", "A", "B"], COUNTING)
        assert trie.variables == ("C", "A", "B")
        assert trie.depth == 3

    def test_missing_order_variable_raises(self, psi):
        with pytest.raises(ValueError):
            FactorTrie(psi, ["A", "B"], COUNTING)

    def test_zero_entries_are_skipped(self):
        factor = Factor(("A",), {(0,): 0, (1,): 2})
        trie = FactorTrie(factor, ["A"], COUNTING)
        assert trie.level(()) == {1: 2}

    def test_empty_scope_factor(self):
        constant = Factor((), {(): 5})
        trie = FactorTrie(constant, ["A"], COUNTING)
        assert trie.depth == 0
        assert trie.root == 5 and trie.level(()) is None

    def test_a_falsy_constant_is_not_an_empty_trie(self):
        # min-plus' one is 0.0: falsy, and as far from its zero (inf) as can be.
        trie = FactorTrie(Factor((), {(): 0.0}), ["A"], MIN_PLUS)
        assert not trie.empty and trie.root == 0.0
        assert FactorTrie(Factor((), {(): float("inf")}), ["A"], MIN_PLUS).empty
        assert FactorTrie(Factor((), {}), ["A"], MIN_PLUS).empty
        assert FactorTrie(Factor(("A",), {(0,): 0}), ["A"], COUNTING).empty

    def test_values_sit_at_the_last_level(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert trie.root == {0: {0: {0: 1}, 1: {0: 2}}, 1: {0: {1: 3}, 1: {1: 4}}}
        assert trie.level((1, 1)) == {1: 4}
        assert trie.level((1, 1, 1)) is None and trie.level((5,)) is None
        assert 1 in trie.level((1, 1)) and 0 not in trie.level((1, 1))

    def test_no_domain_value_is_reserved(self):
        factor = Factor(("A", "B"), {("__leaf__", "__leaf__"): 2, ("x", "__leaf__"): 3})
        trie = FactorTrie(factor, ["A", "B"], COUNTING)
        assert set(trie.level(())) == {"__leaf__", "x"}
        assert set(trie.level(("__leaf__",))) == {"__leaf__"}
        assert trie.level(("__leaf__",))["__leaf__"] == 2

    def test_a_table_known_zero_free_is_not_swept(self, monkeypatch):
        asked = []
        bind = Semiring.zero_test
        monkeypatch.setattr(Semiring, "zero_test", lambda self: asked.append(self) or bind(self))
        factor = Factor(("A",), {(0,): 1, (1,): 2}).freeze()
        FactorTrie(factor, ["A"], COUNTING)
        assert asked == [COUNTING]
        assert factor.is_pruned(COUNTING)  # sweeps once, and remembers
        del asked[:]
        assert FactorTrie(factor, ["A"], COUNTING).root == {0: 1, 1: 2}
        assert asked == []
        FactorTrie(factor, ["A"], MIN_PLUS)  # zero-free under another semiring only
        assert asked == [MIN_PLUS]


class TestTrieNavigation:
    """A level's keys are the candidate values of the next variable."""

    def test_candidate_values_at_root(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert set(trie.level(())) == {0, 1}

    def test_candidate_values_after_prefix(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert set(trie.level((0,))) == {0, 1}
        assert set(trie.level((0, 1))) == {0}

    def test_candidate_values_for_absent_prefix(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert trie.level((7,)) is None
        assert FactorTrie(Factor(("A",), {}), ["A"], COUNTING).level(()) is None

    def test_has_prefix(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert 1 in trie.level((1,))
        assert 2 not in trie.level((1,))

    def test_full_tuple_value(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert trie.level((1, 1))[1] == 4
        assert trie.level((1, 1)).get(0, 0) == 0

    def test_value_respects_reordered_levels(self, psi):
        trie = FactorTrie(psi, ["C", "B", "A"], COUNTING)
        # levels are (C, B, A): tuple (1, 0, 1) corresponds to A=1,B=0,C=1.
        assert trie.level((1, 0))[1] == 3

    def test_children_returns_subtrie_nodes(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        children = trie.level((0,))
        assert children == {0: {0: 1}, 1: {0: 2}}
        # The trie's own node, not a copy.
        assert children is trie.root[0] and children[1] is trie.level((0, 1))


class TestBuildTries:
    def test_build_tries_indexes_every_factor(self, psi):
        other = Factor(("B",), {(0,): 1})
        tries = build_tries([psi, other], ["A", "B", "C"], COUNTING)
        assert len(tries) == 2
        assert tries[1].variables == ("B",)
