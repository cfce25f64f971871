"""Plan identity: the planner still picks what the recorded commit picked.

``tests/data/plan_fixture.json`` holds, for 440 queries, the ordering,
backend, ``faq_width`` and ``estimated_cost`` the planner chose at the
commit it names (``tests/data/make_plan_fixture.py`` records it; its
docstring lists the queries and says how to re-record).  Every value is
compared exactly, floats included.  The fixture also holds the fewest ρ*
LPs one pass solved there; a pass here may solve no more.
"""

import importlib.util
import json
import os

import pytest

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _fixture_module():
    spec = importlib.util.spec_from_file_location(
        "make_plan_fixture", os.path.join(_DATA, "make_plan_fixture.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replanned():
    with open(os.path.join(_DATA, "plan_fixture.json")) as handle:
        recorded = json.load(handle)
    return recorded, _fixture_module().record()


def test_every_recorded_plan_is_chosen_again(replanned):
    recorded, now = replanned
    assert now["plans"].keys() == recorded["plans"].keys()
    moved = {
        qid: (choice, now["plans"][qid])
        for qid, choice in recorded["plans"].items()
        if now["plans"][qid] != choice
    }
    assert not moved, f"{len(moved)} plans moved, e.g. {next(iter(moved.items()))}"


def test_no_more_rho_star_lps_than_the_recorded_commit(replanned):
    recorded, now = replanned
    assert now["rho_star_misses"] <= recorded["rho_star_misses"]
