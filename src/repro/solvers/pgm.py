"""Marginal and MAP inference: InsideOut vs the classic PGM baselines.

Table 1 rows 5-6 state that InsideOut computes marginals and MAP estimates
in ``O~(N^faqw + output)`` whereas the prior PGM algorithms are bounded by
the (integral cover / treewidth style) width of the model.  The functions
here run both sides on the same
:class:`~repro.pgm.model.DiscreteGraphicalModel` so the benchmarks and the
integration tests can compare results and costs directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.core.insideout import InsideOutResult, inside_out
from repro.core.variable_elimination import variable_elimination
from repro.pgm.junction_tree import JunctionTree
from repro.pgm.model import DiscreteGraphicalModel
from repro.planner import STRATEGY_INSIDEOUT, execute


def marginal_insideout(
    model: DiscreteGraphicalModel,
    variables: Sequence[str],
    ordering: Sequence[str] | str | None = "plan",
    backend: str | None = None,
) -> Dict[Tuple[Any, ...], float]:
    """Unnormalised marginal over ``variables`` via the planner + InsideOut.

    The cost-based planner picks the elimination ordering and the factor
    backend (PGM potentials are usually dense over small domains, so the
    vectorized ndarray representation typically wins); pass explicit
    ``ordering`` / ``backend`` values to override it.
    """
    query = model.marginal_query(list(variables))
    result = execute(
        query, ordering=ordering, backend=backend, strategy=STRATEGY_INSIDEOUT
    )
    return dict(result.factor.table)


def map_insideout(
    model: DiscreteGraphicalModel,
    variables: Sequence[str],
    ordering: Sequence[str] | str | None = "plan",
    backend: str | None = None,
) -> Dict[Tuple[Any, ...], float]:
    """Unnormalised max-marginals over ``variables`` via the planner."""
    query = model.map_query(list(variables))
    result = execute(
        query, ordering=ordering, backend=backend, strategy=STRATEGY_INSIDEOUT
    )
    return dict(result.factor.table)


def partition_function_insideout(
    model: DiscreteGraphicalModel,
    ordering: Sequence[str] | str | None = "plan",
    backend: str | None = None,
) -> float:
    """The partition function ``Z`` via the planner + InsideOut."""
    query = model.partition_function_query()
    result = execute(
        query, ordering=ordering, backend=backend, strategy=STRATEGY_INSIDEOUT
    )
    return float(result.scalar_or_zero(query.semiring))


def marginal_variable_elimination(
    model: DiscreteGraphicalModel,
    variables: Sequence[str],
    ordering: Sequence[str] | str | None = None,
    backend: str = "sparse",
) -> Dict[Tuple[Any, ...], float]:
    """Marginals via textbook (projection-free) variable elimination.

    The baseline keeps the written ordering and the listing representation
    by default so that its cost profile stays comparable with the paper's
    prior-work bounds; pass ``ordering="plan"`` to let the planner search,
    or ``backend="auto"`` / ``"dense"`` to vectorize it as well.  It runs
    on the same step-DAG driver as the InsideOut wrappers above (InsideOut
    without indicator projections), serially.
    """
    query = model.marginal_query(list(variables))
    result = variable_elimination(query, ordering=ordering, backend=backend)
    return dict(result.factor.table)


def marginal_junction_tree(
    model: DiscreteGraphicalModel, variable: str
) -> Dict[Any, float]:
    """Single-variable marginal via the dense junction-tree baseline."""
    return JunctionTree(model, mode="sum").marginal(variable)


def map_junction_tree(model: DiscreteGraphicalModel, variable: str) -> Dict[Any, float]:
    """Single-variable max-marginal via the dense junction-tree baseline."""
    return JunctionTree(model, mode="max").marginal(variable)


@dataclass
class InferenceComparison:
    """Side-by-side costs of InsideOut and the junction-tree baseline."""

    insideout_result: InsideOutResult
    insideout_max_intermediate: int
    junction_tree_max_bag: int
    junction_tree_dense_cells: int

    @property
    def speedup_proxy(self) -> float:
        """Dense-cell count divided by InsideOut's largest intermediate."""
        denominator = max(self.insideout_max_intermediate, 1)
        return self.junction_tree_dense_cells / denominator


def compare_marginal_inference(
    model: DiscreteGraphicalModel, variables: Sequence[str]
) -> InferenceComparison:
    """Run InsideOut and the junction tree on the same marginal query."""
    query = model.marginal_query(list(variables))
    io_result = inside_out(query, ordering="auto")
    tree = JunctionTree(model, mode="sum")
    return InferenceComparison(
        insideout_result=io_result,
        insideout_max_intermediate=io_result.stats.max_intermediate_size,
        junction_tree_max_bag=tree.max_bag_size,
        junction_tree_dense_cells=tree.largest_potential_cells,
    )
