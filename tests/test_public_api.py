"""Snapshot of the public API surface.

The exported names of ``repro``, ``repro.serve`` and ``repro.exec`` are a
compatibility contract: removing or renaming one is a breaking change that
must be made deliberately (deprecate first, then update this snapshot in
the same change).  Adding names is fine — add them here too.

The *options* of the serving and planner entry points are snapshotted the
same way: every independently settable value multiplies the configurations
tests and benchmarks must cover, so a new knob has to show up as a
one-line diff here.
"""

import ast
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
import repro.planner
import repro.serve

REPRO_EXPORTS = {
    # core model
    "FAQQuery",
    "QueryError",
    "Variable",
    "Factor",
    "FactorDelta",
    "Hypergraph",
    "Semiring",
    "Aggregate",
    "SemiringAggregate",
    "ProductAggregate",
    # engines
    "inside_out",
    "InsideOutResult",
    "InsideOutStats",
    "variable_elimination",
    # incremental maintenance
    "IncrementalView",
    "IncrementalStats",
    # planner
    "plan_query",
    "execute_query",
    "Plan",
    "PlanResult",
    "PlanCache",
    # FAQ-width theory
    "ExpressionTree",
    "build_expression_tree",
    "is_equivalent_ordering",
    "linear_extensions",
    "approximate_faqw_ordering",
    "faq_width_of_ordering",
    "faq_width_of_query",
    # the stable facade + serving contract
    "Engine",
    "EngineConfig",
    "ServeRequest",
    "ServeResult",
    "ServeError",
    "Overloaded",
    "PlanFailure",
    "__version__",
}

SERVE_EXPORTS = {
    "ServeRequest",
    "ServeResult",
    "ServeError",
    "Overloaded",
    "PlanFailure",
    "ReplicaCrashed",
    "ReplicaTimeout",
    "RetryPolicy",
    "SnapshotStore",
    "PlanServer",
    "execute_batch",
    "Frontend",
    "ReplicaSet",
    "ReplicaHandle",
}

EXEC_EXPORTS = {
    "DagExecutor",
    "StepResultCache",
    "RunSpec",
    "RunInfo",
    "StepDag",
    "StepNode",
    "lower_insideout",
    "annotate_digests",
    "KIND_SEMIRING",
    "KIND_PRODUCT",
    "KIND_OUTPUT",
}

# Every option (parameter or config field) of the serving entry points.
OPTIONS = {
    "PlanServer": (
        "pool_size", "cache", "coalesce", "cache_results", "snapshot_store",
    ),
    "Frontend": (
        "replicas", "start_method", "max_pending", "tenant_limit",
        "health_interval", "coalesce", "plan_cache", "retry",
        "snapshot_dir", "fault_plan",
    ),
    "execute_batch": ("pool_size", "cache", "coalesce"),
    "EngineConfig": (
        "pool_size", "replicas", "coalesce", "plan_cache_size",
        "start_method", "max_pending", "tenant_limit", "health_interval",
    ),
    "PlanCache": ("maxsize",),
    "record_plan_feedback": ("cache",),
}


def _parameters(function, *skip):
    return tuple(p for p in inspect.signature(function).parameters if p not in skip)


def test_options_census_matches_snapshot():
    assert _parameters(repro.serve.PlanServer.__init__, "self") == OPTIONS["PlanServer"]
    assert _parameters(repro.serve.Frontend.__init__, "self") == OPTIONS["Frontend"]
    assert _parameters(repro.serve.execute_batch, "requests") == OPTIONS["execute_batch"]
    assert (
        tuple(f.name for f in dataclasses.fields(repro.EngineConfig))
        == OPTIONS["EngineConfig"]
    )
    assert _parameters(repro.PlanCache.__init__, "self") == OPTIONS["PlanCache"]
    assert (
        _parameters(repro.planner.record_plan_feedback, "executed_plan", "stats")
        == OPTIONS["record_plan_feedback"]
    )


# Upper bound on ``^class .*(Cache|Store|Snapshot)`` under src/repro/
# (ROADMAP 2(d)).  Lowering it is the only allowed edit.
CACHE_CLASS_CEILING = 7

# The lookups of the two trie holders; each is written once between them.
HOLDER_LOOKUPS = ("trie", "projection", "projection_factor", "flat", "projection_flat", "dense")


def _source_lines(pattern):
    """``relative path: line`` for every src/repro line matching ``pattern``."""
    root = pathlib.Path(repro.__file__).parent
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(root)}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for line in path.read_text().splitlines()
        if regex.search(line)
    ]


def test_cache_class_census_stays_under_ceiling():
    found = _source_lines(r"^class .*(Cache|Store|Snapshot)")
    assert len(found) <= CACHE_CLASS_CEILING, found


def test_trie_holders_define_each_lookup_once():
    from repro.factors.index import SharedTrieCache, TrieCache

    for name in HOLDER_LOOKUPS:
        owners = [cls for cls in (TrieCache, SharedTrieCache) if name in vars(cls)]
        assert len(owners) == 1, (name, owners)


def test_one_scheduler_one_claim_protocol():
    """One execution site: the step-source claim protocol has one caller, a
    step's fault site is drawn in one function, and only the replica fleet
    touches multiprocessing."""
    callers = {
        line.split(":")[0]
        for line in _source_lines(r"lookup_or_claim\(")
        if "def " not in line
    }
    assert callers == {"exec/executor.py"}, callers
    draws = _source_lines(r"\(SITE_STEP_KERNEL")
    assert len(draws) == 1 and draws[0].startswith("exec/executor.py"), draws
    importers = {
        line.split(":")[0]
        for line in _source_lines(r"^\s*(import|from) multiprocessing")
    }
    assert importers == {"serve/replica.py"}, importers


def test_a_request_is_a_batch_of_one():
    """One execute path per serving layer: one server function runs
    requests, the front-end calls a replica's execute from one line, and
    the replica loop answers exactly four message kinds."""
    root = pathlib.Path(repro.__file__).parent / "serve"
    server = ast.parse((root / "server.py").read_text())
    runners = {
        node.name
        for node in ast.walk(server)
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in ("run_many", "execute")
    }
    assert runners == {"_serve"}, runners
    calls = _source_lines(r"replica\.execute\b")
    assert [line.split(":")[0] for line in calls] == ["serve/frontend.py"], calls
    replica = ast.parse((root / "replica.py").read_text())
    [main] = [n for n in ast.walk(replica) if isinstance(n, ast.FunctionDef) and n.name == "_replica_main"]
    kinds = {
        name.id
        for compare in ast.walk(main)
        if isinstance(compare, ast.Compare)
        and isinstance(compare.left, ast.Name)
        and compare.left.id == "kind"
        for name in ast.walk(compare)
        if isinstance(name, ast.Name) and name.id.startswith("MSG_")
    }
    assert kinds == {"MSG_EXEC", "MSG_UPDATE", "MSG_PING", "MSG_SHUTDOWN"}, kinds


def test_workers_mode_is_gone_not_shimmed():
    """Process mode (``workers_mode=``) and per-query step threads
    (``workers=``) were removed without a deprecation path: either option
    is Python's own ``TypeError`` at every entry point.  The executor keeps
    ``workers=1`` alone, for the benchmark's executor probe."""
    from repro import db
    from repro.exec import DagExecutor
    from repro.planner import execute
    from repro.semiring.standard import COUNTING
    from repro.serve import Frontend, PlanServer, execute_batch
    from repro.serve.replica import ReplicaHandle, ReplicaSet, _replica_main
    from repro.solvers import counting, csp, joins, logic, matrix, pgm, sat

    query = repro.FAQQuery(
        [repro.Variable("a", (0, 1))], [], {"a": repro.SemiringAggregate.sum()},
        [repro.Factor("a", {(0,): 1, (1,): 1})], COUNTING,
    )
    with pytest.raises(TypeError):
        repro.inside_out(query, workers=2, workers_mode="process")
    with pytest.raises(TypeError):
        DagExecutor(workers_mode="process")
    with pytest.raises(TypeError):
        repro.EngineConfig(workers_mode="process")

    view = repro.IncrementalView(query)
    entry_points = [
        lambda: repro.inside_out(query, workers=2),
        lambda: repro.plan_query(query).execute(workers=2),
        lambda: execute(query, workers=2),
        lambda: repro.IncrementalView(query, workers=2),
        lambda: repro.IncrementalView.restore(view.dump_state(), workers=2),
        lambda: PlanServer(workers=2),
        lambda: execute_batch([], workers=2),
        lambda: Frontend(replicas=1, workers=2),
        lambda: ReplicaSet(1, workers=2),
        lambda: ReplicaHandle(0, workers=2),
        lambda: _replica_main(None, 0, workers=2),
        lambda: repro.EngineConfig(workers=2),
        lambda: repro.Engine(workers=2),
        lambda: db.join([], workers=2),
        lambda: pgm.marginal_insideout(None, [], workers=2),
        lambda: pgm.map_insideout(None, [], workers=2),
        lambda: pgm.partition_function_insideout(None, workers=2),
        lambda: sat.count_models(None, workers=2),
        lambda: logic.QuantifiedConjunctiveQuery.solve(None, workers=2),
        lambda: logic.QuantifiedConjunctiveQuery.count(None, workers=2),
        lambda: csp.CSP.is_satisfiable(None, workers=2),
        lambda: csp.CSP.count_solutions(None, workers=2),
        lambda: csp.CSP.solutions(None, workers=2),
        lambda: counting.permanent(None, workers=2),
        lambda: counting.count_weighted_homomorphisms(None, None, workers=2),
        lambda: matrix.matrix_chain_insideout([], workers=2),
        lambda: matrix.dft_insideout([], workers=2),
        lambda: joins.natural_join_insideout([], workers=2),
        lambda: joins.count_join_results([], workers=2),
        lambda: joins.count_homomorphisms(None, None, workers=2),
    ]
    for index, call in enumerate(entry_points):
        with pytest.raises(TypeError, match="workers"):
            call()
            pytest.fail(f"entry point #{index} accepted workers=")
    assert DagExecutor(workers=1).run(query).factor.table == {(): 2}
    for bad in (2, 0, None, "auto", True):
        with pytest.raises(repro.QueryError):
            DagExecutor(workers=bad)


def test_idle_planner_state_is_gone_not_shimmed():
    """The cache–model pairing, the cost model's calibration and the
    digest-addressed plan store were removed without a deprecation path."""
    with pytest.raises(TypeError):
        repro.PlanCache(cost_model=repro.planner.CostModel())
    assert not hasattr(repro.planner.CostModel, "observe")
    assert not hasattr(repro.planner.CostModel, "calibration")
    assert "DigestPlan" not in repro.planner.__all__
    assert not hasattr(repro.planner, "DigestPlan")


def test_one_elimination_loop():
    """Variable elimination is a lowering on the one driver, not a second
    one: the per-step fault site is drawn in the executor only, the dense
    kernel is called from the one step-kernel module only, and the second
    driver's result / stats classes are gone."""
    site = {line.split(":")[0] for line in _source_lines(r"SITE_STEP_KERNEL")}
    assert site == {"faults.py", "exec/executor.py"}, site
    callers = {
        line.split(":")[0]
        for line in _source_lines(r"dense_join_reduce\(")
        if "def " not in line
    }
    assert callers == {"core/insideout.py"}, callers
    assert not _source_lines(r"^class VariableElimination")


def test_one_sealed_envelope():
    """One spill format (ROADMAP 2(d)): the magic and the temp-file +
    ``os.replace`` write live in ``caching.py`` only."""
    assert len(_source_lines(r"^_MAGIC = ")) == 1
    temp_files = {line.split(":")[0] for line in _source_lines(r"tempfile\.mkstemp")}
    assert temp_files == {"caching.py"}, temp_files


def test_planning_and_executing_never_imports_scipy_optimize():
    """The cover LPs this package meets are solved by its own tableau kernel;
    ``scipy.optimize`` (half of the import time, ~30 MB resident) is imported
    only by the path for LPs above ``covers._TABLEAU_CELLS``."""
    script = (
        "import sys, repro\n"
        "from repro.semiring.standard import COUNTING\n"
        "pair = {(0, 1): 1, (1, 0): 1, (1, 1): 1}\n"
        "query = repro.FAQQuery(\n"
        "    [repro.Variable(v, (0, 1)) for v in 'abc'], [],\n"
        "    {v: repro.SemiringAggregate.sum() for v in 'abc'},\n"
        "    [repro.Factor(s, pair) for s in ('ab', 'bc', 'ac')], COUNTING)\n"
        "plan = repro.plan_query(query)\n"
        "assert plan.faq_width == 1.5, plan.faq_width\n"
        "assert plan.execute().factor.table == query.evaluate_brute_force().table\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])),
    )
    assert out.stdout.split() == ["False"], out.stdout


def test_repro_all_matches_snapshot():
    assert set(repro.__all__) == REPRO_EXPORTS


def test_repro_serve_all_matches_snapshot():
    assert set(repro.serve.__all__) == SERVE_EXPORTS


def test_repro_exec_all_matches_snapshot():
    import repro.exec

    assert set(repro.exec.__all__) == EXEC_EXPORTS


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    for name in repro.serve.__all__:
        assert getattr(repro.serve, name, None) is not None, name


def test_error_hierarchy_contract():
    assert issubclass(repro.Overloaded, repro.ServeError)
    assert issubclass(repro.PlanFailure, repro.ServeError)
    assert issubclass(repro.serve.ReplicaCrashed, repro.ServeError)
    assert issubclass(repro.ServeError, Exception)
    # Overloaded is the retryable signal; it must stay distinguishable.
    assert not issubclass(repro.Overloaded, repro.PlanFailure)


def test_serve_value_types_are_frozen():
    assert dataclasses.is_dataclass(repro.ServeRequest)
    assert dataclasses.is_dataclass(repro.ServeResult)
    assert repro.ServeRequest.__dataclass_params__.frozen
    assert repro.ServeResult.__dataclass_params__.frozen
