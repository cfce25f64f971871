"""Delta maintenance of FAQ answers over a kept step DAG.

See :mod:`repro.incremental.view` for the regime taxonomy (delta
propagation, monotone append, dirty-cone re-execution) and the
:class:`IncrementalView` entry point.
"""

from repro.incremental.view import (
    ADDITIVE_TAGS,
    REGIME_APPEND,
    REGIME_DELTA,
    REGIME_DIRTY,
    SUBTRACTABLE,
    IncrementalStats,
    IncrementalView,
    additive_tag,
    is_flat_query,
)

__all__ = [
    "IncrementalView",
    "IncrementalStats",
    "REGIME_DELTA",
    "REGIME_APPEND",
    "REGIME_DIRTY",
    "ADDITIVE_TAGS",
    "SUBTRACTABLE",
    "additive_tag",
    "is_flat_query",
]
