"""The cost-based query planner (ordering × backend + caching).

Public surface::

    from repro.planner import plan, execute

    result = plan(query).execute()          # or execute(query)
    print(result.plan.explain())            # why this plan was chosen

``plan()`` scores candidate variable orderings with a FAQ-width/AGM cost
model for InsideOut (the one strategy), picks a factor backend (sparse
listing vs dense ndarray), and caches the winning plan under a structural
query signature so repeated or isomorphic queries skip planning entirely.
"""

from repro.planner.cache import (
    DEFAULT_PLAN_CACHE,
    CachedPlan,
    PlanCache,
)
from repro.planner.cost import (
    CostModel,
    OrderingEstimate,
    QueryStatistics,
    STRATEGIES,
    STRATEGY_INSIDEOUT,
    StepEstimate,
    observed_step_errors,
)
from repro.planner.plan import Plan, PlanResult
from repro.planner.planner import (
    DEFAULT_COST_MODEL,
    candidate_orderings,
    execute,
    plan,
)
from repro.planner.signature import (
    factor_digest,
    query_content_key,
    query_signature,
    signature_digest,
)

__all__ = [
    "plan",
    "execute",
    "Plan",
    "PlanResult",
    "PlanCache",
    "CachedPlan",
    "DEFAULT_PLAN_CACHE",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "QueryStatistics",
    "OrderingEstimate",
    "StepEstimate",
    "STRATEGIES",
    "STRATEGY_INSIDEOUT",
    "observed_step_errors",
    "candidate_orderings",
    "query_signature",
    "signature_digest",
    "factor_digest",
    "query_content_key",
]
