"""Sparse factors in the listing representation (Definition 4.1 of the paper).

A *factor* ``ψ_S`` is a function from the product of the domains of the
variables in its scope ``S`` to the semiring domain ``D``.  Under the listing
representation only the tuples with non-zero value are stored, which is the
standard encoding in relational databases, CSP and sparse matrix computation.

The package contains:

* :class:`~repro.factors.factor.Factor` — the core sparse table with
  conditioning, marginalisation, indicator projections and products,
* :class:`~repro.factors.dense.DenseFactor` — the dense ndarray-backed
  representation with vectorized (ufunc) products and aggregations,
* :mod:`~repro.factors.backend` — the pluggable backend layer: the
  :class:`~repro.factors.backend.FactorBackend` protocol, sparse/dense
  conversions and the per-step cost heuristic used by the core algorithms,
* :class:`~repro.factors.index.FactorTrie` — a hash-trie index used by the
  OutsideIn worst-case-optimal join,
* :mod:`~repro.factors.builders` — constructors from python functions,
  relations, numpy matrices/vectors,
* :mod:`~repro.factors.compact` — compact (non-listing) representations:
  box factors and CNF clauses (Section 8 of the paper).
"""

from repro.factors.factor import Factor, FactorError
from repro.factors.delta import FactorDelta
from repro.factors.dense import (
    AGGREGATE_UFUNCS,
    DENSE_SEMIRING_OPS,
    DenseFactor,
    DenseOps,
    register_dense_ops,
)
from repro.factors.backend import (
    BackendPolicy,
    FactorBackend,
    as_dense,
    as_sparse,
    choose_dense,
    dense_join_reduce,
    prefer_dense,
    supports_dense,
)
from repro.factors.index import FactorTrie
from repro.factors.builders import (
    factor_from_function,
    factor_from_matrix,
    factor_from_relation,
    factor_from_vector,
    indicator_factor,
    uniform_factor,
)
from repro.factors.compact import BoxFactor, Clause, Literal

__all__ = [
    "Factor",
    "FactorError",
    "FactorDelta",
    "DenseFactor",
    "DenseOps",
    "DENSE_SEMIRING_OPS",
    "AGGREGATE_UFUNCS",
    "register_dense_ops",
    "FactorBackend",
    "BackendPolicy",
    "as_dense",
    "as_sparse",
    "choose_dense",
    "dense_join_reduce",
    "prefer_dense",
    "supports_dense",
    "FactorTrie",
    "factor_from_function",
    "factor_from_matrix",
    "factor_from_relation",
    "factor_from_vector",
    "indicator_factor",
    "uniform_factor",
    "BoxFactor",
    "Clause",
    "Literal",
]
