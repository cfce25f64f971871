"""Lowering an elimination run to an explicit step DAG.

Every elimination run lowers here — InsideOut (Algorithm 1), and textbook
variable elimination (Section 5.1.2), which is the same loop with the
indicator projections off — and runs on the one driver
(:mod:`repro.exec.executor`).

Algorithm 1's loop over the elimination order hides a dependency structure:
every factor's scope is known *statically* (an elimination step over induced set ``U_k``
always produces a factor on ``U_k \\ {X_k}``), so the dataflow between
elimination steps can be computed before anything executes.  Steps touching
disjoint factor groups share no slots and get no edge.

``lower_insideout`` simulates the elimination over scopes only and emits a
:class:`StepDag`:

* **slots** hold factors.  Slots ``0 .. num_base-1`` are the query's input
  factors (available before any step runs); every step writes its outputs
  into fresh slots.
* **nodes** are the elimination steps, in elimination order — the order
  Algorithm 1 runs them in (``node.index`` is that position).  A semiring node
  *consumes* its incident slots and *reads* the slots it takes indicator
  projections from; a product node maps every live slot to a fresh output
  slot; the final output node reads all surviving slots.
* **edges** (``depends_on``) connect a node to the producers of every slot
  it consumes or reads.

Executing the nodes in any topological order reproduces the in-order run
exactly — a merged batch relies on it — because each
step kernel (:func:`repro.core.insideout.eliminate_semiring_step` etc.) is a
pure function of its input factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.query import FAQQuery

KIND_SEMIRING = "semiring"
KIND_PRODUCT = "product"
KIND_OUTPUT = "output"


@dataclass
class StepNode:
    """One step of the lowered run (a node of the step DAG)."""

    index: int                      # elimination-order position (execution tie-break)
    kind: str                       # "semiring" | "product" | "output"
    variable: Optional[str]         # eliminated variable (None for output)
    incident: Tuple[int, ...]       # slots consumed by the step
    reads: Tuple[int, ...] = ()     # slots read for indicator projections
    outputs: Tuple[int, ...] = ()   # slots produced
    depends_on: Tuple[int, ...] = ()  # indices of producer nodes
    digest: Optional[str] = None    # content address (see annotate_digests)


@dataclass
class StepDag:
    """The lowered step DAG of one elimination run."""

    nodes: List[StepNode]
    num_slots: int
    num_base: int                   # slots [0, num_base) hold the input factors
    slot_scope: List[FrozenSet[str]] = field(default_factory=list)
    final_live: List[int] = field(default_factory=list)  # slots alive at the end
    slot_digests: List[Optional[str]] = field(default_factory=list)  # per-slot content address

    def dependents(self) -> Dict[int, List[int]]:
        """Node index → indices of the nodes that depend on it."""
        result: Dict[int, List[int]] = {node.index: [] for node in self.nodes}
        for node in self.nodes:
            for producer in node.depends_on:
                result[producer].append(node.index)
        return result

    # ------------------------------------------------------------------ #
    # introspection (benchmarks / explain)
    # ------------------------------------------------------------------ #
    def levels(self) -> List[List[int]]:
        """Topological levels: nodes in one level have no mutual edges.

        Level ``k`` holds the nodes whose longest dependency chain has
        length ``k`` — the width of a level counts the mutually independent
        steps at that depth of the run.
        """
        depth: Dict[int, int] = {}
        for node in self.nodes:  # nodes are already topologically sorted
            depth[node.index] = 1 + max(
                (depth[d] for d in node.depends_on), default=-1
            )
        levels: List[List[int]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
        for index, level in depth.items():
            levels[level].append(index)
        return levels

    @property
    def max_parallelism(self) -> int:
        """The widest topological level: how many steps are mutually independent."""
        return max((len(level) for level in self.levels()), default=0)

    @property
    def critical_path_length(self) -> int:
        """Number of nodes on the longest dependency chain."""
        return len(self.levels())

    def explain(self) -> str:
        """A human-readable rendering of the step DAG."""
        lines = [
            f"step DAG: {len(self.nodes)} nodes, {self.num_slots} slots "
            f"({self.num_base} base), max parallelism {self.max_parallelism}, "
            f"critical path {self.critical_path_length}",
        ]
        for node in self.nodes:
            target = node.variable if node.variable is not None else "<output>"
            deps = ",".join(map(str, node.depends_on)) or "-"
            lines.append(
                f"  [{node.index:>3}] {node.kind:<8} {target:<12} "
                f"in={list(node.incident)} reads={list(node.reads)} "
                f"out={list(node.outputs)} deps={deps}"
            )
        return "\n".join(lines)


def lower_insideout(
    query: FAQQuery,
    order: Sequence[str],
    use_indicator_projections: bool = True,
    output_mode: str = "listing",
    content_digests: bool = False,
) -> StepDag:
    """Lower one elimination run over ``order`` to a :class:`StepDag`.

    ``order`` must already be a validated free-prefix ordering (the caller
    — :class:`repro.exec.DagExecutor` — resolves ``"plan"``/``"auto"``
    forms first).  The simulation walks Algorithm 1's loop over scopes
    only: the live list evolves as ``others + [new]``, which fixes node
    input orders (and therefore factor orders inside each step) — they are
    part of a step's content digest.  With ``use_indicator_projections``
    off — textbook variable elimination — a semiring node reads nothing.

    With ``content_digests=True`` every node (and slot) additionally gets a
    content address via :func:`annotate_digests`, turning the DAG into the
    content-addressed step IR: structurally identical steps from different
    queries over the same factor content collide by construction.
    """
    scopes: List[FrozenSet[str]] = [frozenset(f.scope) for f in query.factors]
    if not scopes:
        scopes = [frozenset()]  # the synthetic unit factor of an empty product
    num_base = len(scopes)
    producer: Dict[int, Optional[int]] = {i: None for i in range(num_base)}
    live: List[int] = list(range(num_base))
    nodes: List[StepNode] = []

    def new_slot(scope: FrozenSet[str], node_index: int) -> int:
        slot = len(scopes)
        scopes.append(scope)
        producer[slot] = node_index
        return slot

    def deps_of(slots: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sorted({
            producer[s] for s in slots if producer[s] is not None
        }))

    for position in range(len(order) - 1, query.num_free - 1, -1):
        variable = order[position]
        aggregate = query.aggregates[variable]
        index = len(nodes)
        if aggregate.is_product:
            incident = tuple(live)
            outputs = []
            new_live = []
            for slot in incident:
                out = new_slot(scopes[slot] - {variable}, index)
                outputs.append(out)
                new_live.append(out)
            nodes.append(StepNode(
                index=index,
                kind=KIND_PRODUCT,
                variable=variable,
                incident=incident,
                outputs=tuple(outputs),
                depends_on=deps_of(incident),
            ))
            live = new_live
            continue

        incident = [s for s in live if variable in scopes[s]]
        others = [s for s in live if variable not in scopes[s]]
        induced: FrozenSet[str] = frozenset().union(*(scopes[s] for s in incident)) \
            if incident else frozenset({variable})
        reads: Tuple[int, ...] = ()
        if incident and use_indicator_projections:
            reads = tuple(s for s in others if scopes[s] & induced)
        result_scope = induced - {variable}
        out = new_slot(result_scope if incident else frozenset(), index)
        nodes.append(StepNode(
            index=index,
            kind=KIND_SEMIRING,
            variable=variable,
            incident=tuple(incident),
            reads=reads,
            outputs=(out,),
            depends_on=deps_of(tuple(incident) + reads),
        ))
        live = others + [out]

    if output_mode == "listing":
        index = len(nodes)
        incident = tuple(live)
        out = new_slot(frozenset(query.free), index)
        nodes.append(StepNode(
            index=index,
            kind=KIND_OUTPUT,
            variable=None,
            incident=incident,
            outputs=(out,),
            depends_on=deps_of(incident),
        ))
        live = [out]

    dag = StepDag(
        nodes=nodes,
        num_slots=len(scopes),
        num_base=num_base,
        slot_scope=scopes,
        final_live=list(live),
    )
    if content_digests:
        annotate_digests(dag, query, order, use_indicator_projections)
    return dag


# ---------------------------------------------------------------------- #
# content addressing — the step IR
# ---------------------------------------------------------------------- #
def annotate_digests(
    dag: StepDag,
    query: FAQQuery,
    order: Sequence[str],
    use_indicator_projections: bool = True,
) -> None:
    """Assign a content address to every slot and node of ``dag``.

    A node's digest is a stable hash of *everything its result depends on*:
    the op kind, the semiring, the eliminated variable's aggregate, the
    relevant domain values, the elimination/written-order restrictions that
    fix enumeration and scope order inside the step kernels, and — ordered,
    because semiring combines need not be associative in float arithmetic —
    the digests of its input slots (leaves reuse
    :func:`repro.planner.signature.factor_digest`).  Equal digests therefore
    certify bit-identical step results *under the same backend selection*,
    which is why executor-side caches key on ``(digest, backend)`` and only
    engage under the default backend policy.

    Factor names are deliberately excluded (they never influence values);
    unencodable content (exotic domain or table values) yields ``None``
    digests, which propagate and simply disable sharing for the affected
    subgraph.
    """
    from repro.planner.signature import (
        _digest, canonical_bytes, canonical_sequence, factor_digest,
    )

    variables = query.variables

    def encode(head: tuple, domains=None, tail: tuple = ()) -> Optional[bytes]:
        """``canonical_bytes`` of the tuple ``head + (domain spec,) + tail``.

        The domain spec is ``((v, Dom(v)) for v in sorted(domains))``,
        spliced from each variable's memoised encoding
        (:meth:`~repro.core.query.Variable.content_bytes`); a payload
        without one passes ``head`` alone.
        """
        try:
            parts = [canonical_bytes(v) for v in head]
            if domains is not None:
                parts.append(canonical_sequence(
                    variables[v].content_bytes() for v in sorted(domains)
                ))
            parts.extend(canonical_bytes(v) for v in tail)
        except TypeError:
            return None
        return canonical_sequence(parts)

    slot_digests: List[Optional[str]] = [None] * dag.num_slots
    if query.factors:
        for i, factor in enumerate(query.factors):
            try:
                slot_digests[i] = factor_digest(factor)
            except TypeError:
                slot_digests[i] = None
    else:
        # the synthetic unit factor of an empty product
        slot_digests[0] = _digest(b"unit", canonical_bytes(query.semiring.name))

    sem = query.semiring.name
    scopes = dag.slot_scope

    for node in dag.nodes:
        inputs = tuple(slot_digests[s] for s in node.incident)
        if any(d is None for d in inputs):
            continue
        if node.kind == KIND_SEMIRING:
            variable = node.variable
            induced = (
                frozenset().union(*(scopes[s] for s in node.incident))
                if node.incident
                else frozenset({variable})
            )
            reads = tuple(
                (slot_digests[s], tuple(sorted(scopes[s] & induced)))
                for s in node.reads
            )
            if any(d is None for d, _ in reads):
                continue
            payload = encode(
                (
                    "semiring",
                    sem,
                    variable,
                    query.tag(variable),
                    bool(use_indicator_projections),
                    tuple(v for v in order if v in induced),
                    tuple(v for v in query.order if v in induced),
                ),
                induced,
                (inputs, reads),
            )
            if payload is None:
                continue
            node.digest = _digest(b"step", payload)
            slot_digests[node.outputs[0]] = node.digest
        elif node.kind == KIND_PRODUCT:
            variable = node.variable
            size = query.domain_size(variable)
            head = encode(("product", sem, variable, size))
            if head is None:
                continue
            for slot, out, digest in zip(node.incident, node.outputs, inputs):
                out_payload = encode((variable in scopes[slot],))
                slot_digests[out] = _digest(
                    b"step", head, out_payload, digest.encode("ascii")
                )
            node.digest = _digest(
                b"step", head, canonical_bytes(inputs)
            )
        else:  # KIND_OUTPUT
            free = set(query.free)
            payload = encode(
                (
                    "output",
                    sem,
                    tuple(query.free),
                    tuple(v for v in order if v in free),
                    tuple(v for v in query.order if v in free),
                ),
                query.free,
                (inputs,),
            )
            if payload is None:
                continue
            node.digest = _digest(b"step", payload)
            slot_digests[node.outputs[0]] = node.digest

    dag.slot_digests = slot_digests
