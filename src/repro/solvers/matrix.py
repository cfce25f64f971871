"""Matrix chain multiplication and the DFT as FAQ queries (Table 1, rows 7-8).

* **MCM** (Example 1.1): the product ``A_1 ... A_n`` is the FAQ-SS query
  ``ϕ(x_1, x_{n+1}) = Σ_{x_2..x_n} ∏_i ψ_{i,i+1}(x_i, x_{i+1})`` over the
  sum-product semiring.  Every ordering of the bound variables is
  equivalent, and the cost of an ordering is exactly the cost of the
  corresponding parenthesisation — the classic dynamic program is an
  ordering-selection algorithm in disguise (Appendix E of the paper).
* **DFT** (Aji–McEliece, re-derived in the paper): for a vector of length
  ``N = p^m`` indexed by base-``p`` digits ``y_0..y_{m-1}``, the transform
  ``ϕ(x_0..x_{m-1}) = Σ_y b_y ∏_{j+k<m} exp(2πi x_j y_k / p^{m-j-k})`` is an
  FAQ-SS query whose InsideOut evaluation along the natural ordering does
  ``O(N log N)`` work — the FFT — versus the naive ``O(N²)`` summation.
"""

from __future__ import annotations

import cmath
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.query import FAQQuery, QueryError, Variable
from repro.factors.builders import factor_from_matrix
from repro.factors.factor import Factor
from repro.planner import STRATEGY_INSIDEOUT, execute
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.base import Semiring
from repro.semiring.standard import SUM_PRODUCT

COMPLEX_SUM_PRODUCT = Semiring(
    name="complex-sum-product",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    zero=0j,
    one=1 + 0j,
)
"""The sum-product semiring over the complex numbers (used by the DFT)."""


# ---------------------------------------------------------------------- #
# matrix chain multiplication
# ---------------------------------------------------------------------- #
def matrix_chain_query(matrices: Sequence[np.ndarray]) -> FAQQuery:
    """The FAQ-SS query of Example 1.1 for a chain of matrices."""
    if not matrices:
        raise QueryError("matrix chain must contain at least one matrix")
    arrays = [np.asarray(m) for m in matrices]
    for left, right in zip(arrays, arrays[1:]):
        if left.shape[1] != right.shape[0]:
            raise QueryError(
                f"dimension mismatch in matrix chain: {left.shape} x {right.shape}"
            )
    n = len(arrays)
    names = [f"x{i}" for i in range(1, n + 2)]
    dims = [arrays[0].shape[0]] + [a.shape[1] for a in arrays]
    variables = [Variable(name, tuple(range(dim))) for name, dim in zip(names, dims)]
    factors = [
        factor_from_matrix(names[i], names[i + 1], arrays[i], SUM_PRODUCT, name=f"A{i + 1}")
        for i in range(n)
    ]
    free = [names[0], names[-1]]
    ordered_variables = [variables[0], variables[-1]] + variables[1:-1]
    aggregates = {name: SemiringAggregate.sum() for name in names[1:-1]}
    return FAQQuery(
        variables=ordered_variables,
        free=free,
        aggregates=aggregates,
        factors=factors,
        semiring=SUM_PRODUCT,
        name="mcm",
    )


def matrix_chain_insideout(
    matrices: Sequence[np.ndarray],
    ordering: Sequence[str] | str | None = None,
    backend: str = "auto",
) -> np.ndarray:
    """Multiply a matrix chain through the FAQ encoding and InsideOut.

    ``ordering`` defaults to the ordering derived from the classic dynamic
    program (see :func:`mcm_dp_ordering`), which is optimal and is pinned
    through the planner as an explicit override; pass ``"plan"`` to let the
    cost-based planner search instead.  The workload is naturally dense, so
    the factor ``backend`` defaults to ``"auto"`` (which the cost heuristic
    resolves to the ndarray representation for dense input matrices); pass
    ``"sparse"`` for the pure listing path.
    """
    arrays = [np.asarray(m, dtype=float) for m in matrices]
    if len(arrays) == 1:
        return arrays[0].copy()
    query = matrix_chain_query(arrays)
    if ordering is None:
        dims = [arrays[0].shape[0]] + [a.shape[1] for a in arrays]
        ordering = mcm_dp_ordering(dims)
    result = execute(
        query, ordering=ordering, backend=backend, strategy=STRATEGY_INSIDEOUT
    )
    rows, cols = arrays[0].shape[0], arrays[-1].shape[1]
    output = np.zeros((rows, cols), dtype=float)
    for (i, j), value in result.factor.table.items():
        output[i, j] = value
    return output


def mcm_dp_cost(dims: Sequence[int]) -> Tuple[int, List[List[int]]]:
    """The classic MCM dynamic program: optimal scalar-multiplication count.

    ``dims`` is the dimension vector ``p_1, ..., p_{n+1}`` (matrix ``A_i`` is
    ``p_i × p_{i+1}``).  Returns the optimal cost and the split table used to
    reconstruct the parenthesisation.
    """
    n = len(dims) - 1
    if n <= 0:
        raise QueryError("need at least one matrix")
    cost = [[0] * (n + 1) for _ in range(n + 1)]
    split = [[0] * (n + 1) for _ in range(n + 1)]
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            cost[i][j] = None
            for k in range(i, j):
                candidate = cost[i][k] + cost[k + 1][j] + dims[i - 1] * dims[k] * dims[j]
                if cost[i][j] is None or candidate < cost[i][j]:
                    cost[i][j] = candidate
                    split[i][j] = k
    return cost[1][n], split


def mcm_dp_ordering(dims: Sequence[int]) -> List[str]:
    """Translate the optimal parenthesisation into a variable ordering.

    Parenthesising ``(A_i..A_k)(A_{k+1}..A_j)`` corresponds to eliminating the
    shared index ``x_{k+1}`` *last* among the indices internal to ``i..j``;
    recursing on the split table therefore yields the ordering (innermost
    eliminations at the back) that lets InsideOut reproduce the DP cost.
    """
    n = len(dims) - 1
    names = [f"x{i}" for i in range(1, n + 2)]
    if n == 1:
        return [names[0], names[-1]]
    _, split = mcm_dp_cost(dims)

    elimination: List[str] = []  # eliminated first .. eliminated last

    def recurse(i: int, j: int) -> None:
        if i >= j:
            return
        k = split[i][j]
        recurse(i, k)
        recurse(k + 1, j)
        elimination.append(f"x{k + 1}")

    recurse(1, n)
    # The variable ordering lists free variables first and then bound
    # variables such that elimination proceeds from the back.
    bound_in_order = list(reversed(elimination))
    return [names[0], names[-1]] + bound_in_order


def mcm_naive_cost(dims: Sequence[int]) -> int:
    """Cost of the left-to-right parenthesisation (the naive baseline)."""
    total = 0
    rows = dims[0]
    for i in range(1, len(dims) - 1):
        total += rows * dims[i] * dims[i + 1]
    return total


# ---------------------------------------------------------------------- #
# discrete Fourier transform
# ---------------------------------------------------------------------- #
def _digits(value: int, base: int, length: int) -> Tuple[int, ...]:
    """Base-``base`` digits of ``value``, least-significant first."""
    digits = []
    for _ in range(length):
        digits.append(value % base)
        value //= base
    return tuple(digits)


def dft_query(vector: Sequence[complex], base: int) -> FAQQuery:
    """The FAQ-SS query computing the DFT of a length-``p^m`` vector.

    Following the paper's Table 1 row: output index digits ``x_0..x_{m-1}``
    are free, input index digits ``y_0..y_{m-1}`` are summed, one factor
    holds the input vector ``b_y`` and one twiddle factor
    ``exp(2πi x_j y_k / p^{m-j-k})`` exists for every pair with ``j+k < m``.
    """
    values = list(vector)
    size = len(values)
    if size == 0:
        raise QueryError("cannot transform an empty vector")
    m = 0
    power = 1
    while power < size:
        power *= base
        m += 1
    if power != size or m == 0:
        raise QueryError(f"vector length {size} is not a positive power of base {base}")

    x_names = [f"x{j}" for j in range(m)]
    y_names = [f"y{k}" for k in range(m)]
    digits = tuple(range(base))
    variables = [Variable(name, digits) for name in x_names + y_names]

    input_table: Dict[Tuple[int, ...], complex] = {}
    for index, value in enumerate(values):
        if value != 0:
            input_table[_digits(index, base, m)] = complex(value)
    factors = [Factor(tuple(y_names), input_table, name="b")]

    for j in range(m):
        for k in range(m):
            if j + k >= m:
                continue
            modulus = base ** (m - j - k)
            table = {
                (a, b): cmath.exp(2j * cmath.pi * a * b / modulus)
                for a in range(base)
                for b in range(base)
            }
            factors.append(Factor((f"x{j}", f"y{k}"), table, name=f"w_{j}{k}"))

    aggregates = {name: SemiringAggregate.sum() for name in y_names}
    return FAQQuery(
        variables=variables,
        free=x_names,
        aggregates=aggregates,
        factors=factors,
        semiring=COMPLEX_SUM_PRODUCT,
        name="dft",
    )


def dft_insideout(
    vector: Sequence[complex], base: int = 2, backend: str = "auto",
) -> np.ndarray:
    """Compute the DFT through the FAQ encoding (an FFT in disguise).

    The written digit ordering *is* the FFT ordering, so it is pinned
    through the planner as an explicit override.  The input vector and the
    twiddle factors are dense, so the factor ``backend`` defaults to
    ``"auto"`` (resolved to the vectorized ndarray representation); pass
    ``"sparse"`` for the pure listing path.
    """
    values = list(vector)
    size = len(values)
    query = dft_query(values, base)
    result = execute(
        query, ordering=list(query.order), backend=backend, strategy=STRATEGY_INSIDEOUT,
    )
    output = np.zeros(size, dtype=complex)
    for key, value in result.factor.table.items():
        index = sum(digit * (base ** position) for position, digit in enumerate(key))
        output[index] = value
    return output


def dft_naive(vector: Sequence[complex]) -> np.ndarray:
    """The textbook ``O(N²)`` DFT summation (the baseline of Table 1)."""
    values = list(vector)
    size = len(values)
    output = np.zeros(size, dtype=complex)
    for x in range(size):
        acc = 0j
        for y in range(size):
            acc += values[y] * cmath.exp(2j * cmath.pi * x * y / size)
        output[x] = acc
    return output
