"""Execution of elimination runs as explicit step DAGs — the one driver.

InsideOut and textbook variable elimination are one lowering of the same
loop, with the indicator projections on or off, so both run here.
The planner's chosen ordering fixes *what* each elimination step computes;
this package makes the dependency structure between those steps explicit
(:func:`lower_insideout` → :class:`StepDag`) and executes them
(:class:`DagExecutor`): inline on the calling thread for a serial run,
or with independent steps on a worker pool.  Entry points stay where they
are: pass ``workers=`` to :func:`repro.core.insideout.inside_out`,
:meth:`repro.planner.Plan.execute`, :func:`repro.planner.execute`, any
solver wrapper, ``db.join`` or the serving layer (:mod:`repro.serve`) —
``workers=`` means the *same thing everywhere*: per-query step-DAG
parallelism (``None``/1 = serial, ``"auto"`` = CPU count capped at
:data:`AUTO_WORKERS_CAP`).  A scheduled step computes on the scheduler
thread that was handed it; ``workers=`` is the only parallelism option.
"""

from repro.core.insideout import AUTO_WORKERS_CAP
from repro.core.insideout import _validated_workers as validate_workers
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
    "validate_workers",
    "AUTO_WORKERS_CAP",
]
