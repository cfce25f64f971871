"""Execution of elimination runs as explicit step DAGs — the one driver.

InsideOut and textbook variable elimination are one lowering of the same
loop, with the indicator projections on or off, so both run here.
The planner's chosen ordering fixes *what* each elimination step computes;
this package makes the dependency structure between those steps explicit
(:func:`lower_insideout` → :class:`StepDag`) and executes them
(:class:`DagExecutor`) inline on the calling thread, in elimination order.
Entry points stay where they are: :func:`repro.core.insideout.inside_out`,
:meth:`repro.planner.Plan.execute`, :func:`repro.planner.execute`, every
solver wrapper, ``db.join`` and the serving layer (:mod:`repro.serve`) all
run here.  Concurrency is across requests, in the serving layer's pool; a
query's own steps never leave the thread that called it.
"""

from repro.exec.dag import (
    KIND_OUTPUT,
    KIND_PRODUCT,
    KIND_SEMIRING,
    StepDag,
    StepNode,
    annotate_digests,
    lower_insideout,
)
from repro.exec.executor import (
    DagExecutor,
    RunInfo,
    RunSpec,
    StepResultCache,
)

__all__ = [
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
]
