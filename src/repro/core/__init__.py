"""The FAQ core: queries, InsideOut/OutsideIn, expression trees and FAQ-width.

This package implements the paper's primary contribution:

* :class:`~repro.core.query.FAQQuery` — the Functional Aggregate Query of
  Section 1.2, together with a brute-force reference evaluator,
* :mod:`~repro.core.outsidein` — the OutsideIn worst-case-optimal
  backtracking join (Section 5.1.1),
* :mod:`~repro.core.insideout` — the InsideOut variable-elimination
  algorithm (Algorithm 1),
* :mod:`~repro.core.variable_elimination` — textbook variable elimination
  (the PGM baseline without indicator projections / multiway joins: a
  lowering run by the same driver as InsideOut, not a second loop),
* :mod:`~repro.core.expression_tree` — expression trees and precedence
  posets (Section 6),
* :mod:`~repro.core.evo` — equivalent variable orderings, component-wise
  equivalence, EVO membership (Section 6),
* :mod:`~repro.core.faqw` — FAQ-width of orderings and queries, and the
  approximation algorithm of Section 7,
* :mod:`~repro.core.output` — output representations (Section 8.4).
"""

from repro.core.query import FAQQuery, QueryError, Variable
from repro.core.outsidein import enumerate_join, join_factors, OutsideInStats
from repro.core.insideout import InsideOutResult, InsideOutStats, inside_out
from repro.core.variable_elimination import variable_elimination
from repro.core.expression_tree import ExpressionTree, ExpressionNode, build_expression_tree
from repro.core.evo import (
    cw_equivalent,
    is_equivalent_ordering,
    linear_extensions,
    precedence_poset,
)
from repro.core.faqw import (
    approximate_faqw_ordering,
    faq_width_of_ordering,
    faq_width_of_query,
)
from repro.core.output import FactorizedOutput

__all__ = [
    "FAQQuery",
    "QueryError",
    "Variable",
    "enumerate_join",
    "join_factors",
    "OutsideInStats",
    "InsideOutResult",
    "InsideOutStats",
    "inside_out",
    "variable_elimination",
    "ExpressionTree",
    "ExpressionNode",
    "build_expression_tree",
    "cw_equivalent",
    "is_equivalent_ordering",
    "linear_extensions",
    "precedence_poset",
    "approximate_faqw_ordering",
    "faq_width_of_ordering",
    "faq_width_of_query",
    "FactorizedOutput",
]
