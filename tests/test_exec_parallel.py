"""Correctness of the step-DAG executor and the shape of its lowering.

:class:`~repro.exec.DagExecutor` is the one elimination driver
(:func:`~repro.core.insideout.inside_out` and
:func:`~repro.core.variable_elimination.variable_elimination` are thin calls
into it), so there is no second implementation to compare it with.  The contract is checked
against two references instead:

* **values** against the brute-force oracle
  (:meth:`FAQQuery.evaluate_brute_force`), and
* **determinism** against a direct :meth:`DagExecutor.run_many` call: every
  entry point's output factor (values included, not just up to semiring
  equality) *and* :class:`~repro.core.insideout.InsideOutStats` totals
  must be identical to it.

The seeded property test below checks both across semirings, both
elimination lowerings and factor backends, on the same randomized query
family the planner differential harness uses.  The module's name predates
the removal of per-query step parallelism; every run here is serial.
"""

import itertools
import random

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.core.variable_elimination import variable_elimination
from repro.exec import (
    KIND_OUTPUT,
    KIND_SEMIRING,
    DagExecutor,
    RunSpec,
    lower_insideout,
)
from repro.factors.factor import Factor
from repro.planner import plan
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT, MIN_PLUS

from test_planner_differential import SEMIRINGS, _random_query

BACKENDS = ("sparse", "dense", "auto")
# indicator projections on / off -> the public entry point that is a thin
# call into that run
ENTRY_POINTS = {True: inside_out, False: variable_elimination}


def _assert_correct(query, result, context):
    """The output agrees with the brute-force oracle."""
    expected = query.evaluate_brute_force()
    assert expected.equals(result.factor, query.semiring), (
        f"{context}: disagreement with brute force\n"
        f"  expected: {sorted(expected.table.items(), key=repr)}\n"
        f"  got     : {sorted(result.factor.table.items(), key=repr)}"
    )


def _assert_identical(serial, other, context):
    """Outputs and stats totals must match the direct executor run exactly."""
    assert other.ordering == serial.ordering, context
    assert other.factor.scope == serial.factor.scope, context
    assert other.factor.table == serial.factor.table, (
        f"{context}: table diverged\n"
        f"  executor: {sorted(serial.factor.table.items(), key=repr)}\n"
        f"  other   : {sorted(other.factor.table.items(), key=repr)}"
    )
    s, p = serial.stats, other.stats
    assert len(p.steps) == len(s.steps), context
    for a, b in zip(s.steps, p.steps):
        assert (
            a.variable, a.kind, a.induced_set, a.incident_count,
            a.projection_count, a.result_size, a.backend,
        ) == (
            b.variable, b.kind, b.induced_set, b.incident_count,
            b.projection_count, b.result_size, b.backend,
        ), f"{context}: step record diverged for {a.variable}"
    assert (
        p.join_stats.search_steps,
        p.join_stats.emitted_tuples,
        p.join_stats.intersections,
    ) == (
        s.join_stats.search_steps,
        s.join_stats.emitted_tuples,
        s.join_stats.intersections,
    ), context
    assert p.max_intermediate_size == s.max_intermediate_size, context
    assert p.output_size == s.output_size, context


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("seed", range(6))
def test_dag_executor_is_correct_and_worker_invariant(name, seed):
    """Right against brute force; identical across entry points.

    Every query of the family has one semiring aggregate tag (plus product
    aggregates), so variable elimination applies to all of them.
    """
    query = _random_query(name, seed)
    for (uip, entry_point), backend in itertools.product(ENTRY_POINTS.items(), BACKENDS):
        context = f"{name}/seed={seed}/projections={uip}/backend={backend}"
        spec = RunSpec(query, backend=backend, use_indicator_projections=uip)
        [serial] = DagExecutor().run_many([spec])
        _assert_correct(query, serial, context)
        run = entry_point(query, ordering=None, backend=backend)
        _assert_identical(serial, run, f"{context}/{entry_point.__name__}")


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_dag_executor_matches_planned_ordering(name):
    """The planner's chosen ordering runs identically on the executor."""
    query = _random_query(name, 7)
    chosen = plan(query)
    planned = chosen.execute()
    _assert_correct(query, planned, f"{name}/planned")
    direct = DagExecutor().run(query, ordering=list(chosen.ordering), backend=chosen.backend)
    _assert_identical(direct, planned.raw, f"{name}/planned")


def test_dag_executor_factorized_mode():
    query = _random_query("counting", 2)
    serial = inside_out(query, output_mode="factorized")
    direct = DagExecutor().run(query, output_mode="factorized")
    assert serial.factor is None and direct.factor is None
    assert query.evaluate_brute_force().equals(
        serial.factorized.to_factor(), query.semiring
    )
    assert len(direct.factorized.factors) == len(serial.factorized.factors)
    for a, b in zip(serial.factorized.factors, direct.factorized.factors):
        assert a.scope == b.scope and a.table == b.table


def _multi_block_query(blocks=3, chain=3, domain=3):
    """Disjoint chain blocks: steps with no DAG edge between them."""
    variables, aggregates, factors = [], {}, []
    for block in range(blocks):
        names = [f"b{block}v{i}" for i in range(chain)]
        for name in names:
            variables.append(Variable(name, tuple(range(domain))))
            aggregates[name] = SemiringAggregate.sum()
        for left, right in zip(names, names[1:]):
            table = {(i, j): 1 for i in range(domain) for j in range(domain)}
            factors.append(Factor((left, right), table, name=f"{left}{right}"))
    return FAQQuery(variables, [], aggregates, factors, COUNTING, name="blocks")


ELIGIBLE = {
    "max-product": (MAX_PRODUCT, lambda rng: round(rng.uniform(0.1, 2.0), 3),
                    SemiringAggregate.max),
    "min-plus": (MIN_PLUS, lambda rng: round(rng.uniform(-1.0, 3.0), 3),
                 SemiringAggregate.min),
    "boolean": (BOOLEAN, lambda rng: True, SemiringAggregate.logical_or),
}


def _multi_block(name, seed, blocks=3, chain=3, domain=6, density=0.5):
    """Disjoint sparse chain blocks: a wide step DAG."""
    semiring, value_of, aggregate_factory = ELIGIBLE[name]
    rng = random.Random(104_729 * seed + sum(ord(c) for c in name))
    variables, factors, aggregates = [], [], {}
    for block in range(blocks):
        names = [f"b{block}v{i}" for i in range(chain)]
        for v in names:
            variables.append(Variable(v, tuple(range(domain))))
            aggregates[v] = aggregate_factory()
        for left, right in zip(names, names[1:]):
            table = {
                values: value_of(rng)
                for values in itertools.product(range(domain), range(domain))
                if rng.random() < density
            }
            factors.append(Factor((left, right), table, name=f"{left}{right}"))
    return FAQQuery(
        variables=variables, free=[], aggregates=aggregates,
        factors=factors, semiring=semiring,
    )


def _brute_force_by_block(query):
    """The oracle for a disjoint-block scalar query: the ⊗ of each block's
    brute-force value (the joint assignment box is out of brute force's reach)."""
    semiring = query.semiring
    value = semiring.one
    for block in sorted({v.split("v")[0] for v in query.order}):
        names = [v for v in query.order if v.split("v")[0] == block]
        part = FAQQuery(
            variables=[query.variables[v] for v in names], free=[],
            aggregates={v: query.aggregates[v] for v in names},
            factors=[f for f in query.factors if set(f.scope) <= set(names)],
            semiring=semiring,
        ).evaluate_brute_force()
        value = semiring.mul(value, part.table.get((), semiring.zero))
    return value


def test_disjoint_blocks_expose_parallelism():
    """Steps over disjoint factor groups get no DAG edge."""
    query = _multi_block_query(blocks=4)
    dag = lower_insideout(query, list(query.order))
    assert dag.max_parallelism >= 4
    # Only the final output node joins the blocks together.
    output_nodes = [n for n in dag.nodes if n.kind == KIND_OUTPUT]
    assert len(output_nodes) == 1
    _assert_correct(query, inside_out(query), "blocks")


def test_single_chain_is_sequential():
    """A single chain's steps all depend on each other — the DAG shows it."""
    query = _multi_block_query(blocks=1, chain=4)
    dag = lower_insideout(query, list(query.order))
    semiring_nodes = [n for n in dag.nodes if n.kind == KIND_SEMIRING]
    assert dag.max_parallelism == 1
    assert dag.critical_path_length == len(semiring_nodes) + 1  # + output


def test_dag_explain_mentions_structure():
    query = _multi_block_query(blocks=2)
    dag = lower_insideout(query, list(query.order))
    report = dag.explain()
    assert "max parallelism" in report
    assert "output" in report


def test_lowering_exposes_projection_reads():
    """Indicator-projection reads appear as DAG read edges, not consume edges."""
    # A triangle-ish query where eliminating one variable projects another
    # factor: psi(a,b), psi(b,c), psi(a,c) — eliminating c induces {a,b,c}
    # and reads psi(a,b) as an indicator projection.
    domain = (0, 1)
    table = {(i, j): 1 for i in domain for j in domain}
    query = FAQQuery(
        variables=[Variable(v, domain) for v in "abc"],
        free=[],
        aggregates={v: SemiringAggregate.sum() for v in "abc"},
        factors=[
            Factor(("a", "b"), dict(table), name="ab"),
            Factor(("b", "c"), dict(table), name="bc"),
            Factor(("a", "c"), dict(table), name="ac"),
        ],
        semiring=COUNTING,
        name="triangle",
    )
    dag = lower_insideout(query, list(query.order))
    first = dag.nodes[0]
    assert first.kind == KIND_SEMIRING and first.variable == "c"
    assert set(first.incident) == {1, 2}  # bc, ac
    assert set(first.reads) == {0}        # ab participates as a projection
    _assert_correct(query, inside_out(query), "triangle")


def test_empty_query_and_isolated_variables():
    query = FAQQuery(
        [Variable("x", (0, 1, 2))], [], {"x": SemiringAggregate.sum()}, [], COUNTING,
        name="no-factors",
    )
    assert inside_out(query).factor.table == {(): 3}
