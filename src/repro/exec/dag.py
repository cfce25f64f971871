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

**Step templates.**  The DAG and, per node, the structural half of its
content digest depend only on the query's *shape*, so a run that names
its steps (``content_digests=True``) lowers nothing once its shape has
run: it copies the shape's *step template* — the lowered skeleton plus
one ``sha256`` per node already fed ``repro-content-v2|step|(``, the
encoded head and domain spec (a product node: its head, and per output
slot its out-payload) — and finishes a ``copy()`` of each header with the
node's input and read digests.  One hash per node, no recursive encode.

* *Key* (:func:`_template_key`): the factor scopes in factor order, the
  elimination order, ``query.order`` and ``query.free``, each aggregate's
  tag and kind, the semiring name, ``use_indicator_projections``, the
  output mode and every variable's memoised ``content_bytes()`` — never
  the ``Variable`` objects, whose hash re-hashes the domain.
* *Scope*: only runs with ``content_digests=True`` build a key or touch
  the store (one :class:`~repro.caching.LruCache`, ``_STEP_TEMPLATES``).
  A lone unnamed run lowers afresh.  A shape whose domains have no
  canonical encoding has no key: its template is built and not stored.
* *Byte identity, except whole-box reads*: a spliced digest is ``sha256``
  of exactly the bytes :func:`annotate_digests` has always hashed, so
  step-cache keys, spilled views and ``CONTENT_KEY_VERSION`` are
  unchanged — except at a semiring node that reads a base factor listing
  its whole box.  The step leaves that indicator projection out (it is 1
  everywhere), so the read is named by the marker ``W`` and its scope, not
  by the factor's digest: requests that differ only in such a factor share
  the step.  ``W`` starts no canonical encoding, so no marked payload
  equals an unmarked one.  Runs never write into a template; they get
  node copies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.caching import LruCache
from repro.core.insideout import _lists_whole_box
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
    queries over the same factor content collide by construction.  Such a
    run does not simulate anything: it copies its shape's step template
    (lowered on the shape's first run) and splices its content in.  A run
    without digests lowers afresh and never touches the template store.
    """
    if content_digests:
        dag = _template(query, order, use_indicator_projections, output_mode).instantiate()
        annotate_digests(dag, query, order, use_indicator_projections)
        return dag

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

    return StepDag(
        nodes=nodes,
        num_slots=len(scopes),
        num_base=num_base,
        slot_scope=scopes,
        final_live=list(live),
    )


# ---------------------------------------------------------------------- #
# content addressing — the step IR
# ---------------------------------------------------------------------- #
# What a step digest holds in place of a read's slot digest when the read's
# base factor lists its whole box: the step leaves that projection out, so
# its result does not depend on the factor's content.  No canonical_bytes
# encoding starts with ``W``, so a marked payload is no unmarked one's.
_WHOLE_BOX = b"W"

# Step templates of the query shapes seen lately (see _template).  Bounded
# like the process-wide rho* memo; a template holds about 1 KB a node
# (12 KB for an 11-node chain), so a full store is a few MB.
_STEP_TEMPLATES = LruCache(maxsize=256)


def _template_key(
    query: FAQQuery, order: Sequence[str], use_indicator_projections: bool,
    output_mode: str,
) -> tuple:
    """Everything the lowering and the step headers read — the query's *shape*.

    Domains enter as each variable's memoised
    :meth:`~repro.core.query.Variable.content_bytes` (a ``bytes`` object
    caches its hash; a ``Variable`` would re-hash its domain at every
    lookup).  Raises ``TypeError`` for a domain without a canonical encoding.
    """
    variables = query.variables
    return (
        tuple(f.scope for f in query.factors),
        tuple(order),
        query.order,
        query.free,
        tuple((a.tag, a.kind) for a in query.aggregates.values()),
        query.semiring.name,
        bool(use_indicator_projections),
        output_mode,
        tuple(variables[v].content_bytes() for v in query.order),
    )


def _template(
    query: FAQQuery, order: Sequence[str], use_indicator_projections: bool,
    output_mode: str,
) -> "_StepTemplate":
    """The step template of ``query``'s shape, built on the first run of it.

    A shape whose domains have no canonical encoding gets a template that
    is not stored: its nodes over those domains carry no digest.
    """
    try:
        key = _template_key(query, order, use_indicator_projections, output_mode)
    except TypeError:
        return _StepTemplate(query, order, use_indicator_projections, output_mode)
    template = _STEP_TEMPLATES.get(key)
    if template is None:
        template = _StepTemplate(query, order, use_indicator_projections, output_mode)
        _STEP_TEMPLATES.put(key, template)
    return template


class _StepTemplate:
    """A query shape's lowered skeleton plus one pre-hashed header per node.

    A node's digest is ``sha256`` of a payload whose structural half — op
    kind, semiring, variable, aggregate tag, ordering restrictions, domain
    spec, the scopes of its projection reads — depends on the shape alone;
    only the digests of its input and read slots vary with content.  The
    template feeds each structural half to a hash once (``headers``), and
    :meth:`splice` finishes a ``copy()`` of it with the input digests, so
    a run over a known shape pays one SHA per node.  Per node kind,
    ``extra`` holds:

    * semiring — per read, the bytes that follow its digest: ``,`` + its
      encoded scope restricted to the induced set + ``)``;
    * product — per incident slot, the header of its output slot's digest;
    * output — nothing.

    ``boxes`` pairs each base slot some semiring node reads with the number
    of cells of its factor's box (fixed by the shape: the key holds every
    domain).  :meth:`splice` names such a read by :data:`_WHOLE_BOX` when
    the factor lists that many cells.

    ``None`` headers mark nodes over a domain without a canonical encoding.
    Templates are shared between threads and never mutated after
    construction; runs get node copies (:meth:`instantiate`).
    """

    __slots__ = ("skeleton", "unit", "headers", "extra", "boxes")

    def __init__(
        self, query: FAQQuery, order: Sequence[str], use_indicator_projections: bool,
        output_mode: str,
    ) -> None:
        from repro.planner.signature import (
            _digest, _hasher, canonical_bytes, canonical_sequence,
        )

        self.skeleton = skeleton = lower_insideout(
            query, order, use_indicator_projections, output_mode
        )
        sem = query.semiring.name
        # The synthetic unit factor of an empty product.
        self.unit = None if query.factors else _digest(b"unit", canonical_bytes(sem))
        variables = query.variables
        scopes = skeleton.slot_scope

        def header(head: tuple, domains) -> Optional["hashlib._Hash"]:
            """The hash fed ``step|(`` + ``head``'s elements + the domain spec
            ``((v, Dom(v)) for v in sorted(domains))`` + ``,``."""
            try:
                spec = canonical_sequence(
                    variables[v].content_bytes() for v in sorted(domains)
                )
            except TypeError:
                return None
            parts = [canonical_bytes(v) for v in head]
            parts.append(spec)
            return _hasher(b"step", b"(" + b",".join(parts) + b",")

        headers: List[Optional["hashlib._Hash"]] = []
        extra: List[tuple] = []
        for node in skeleton.nodes:
            variable = node.variable
            if node.kind == KIND_SEMIRING:
                induced = (
                    frozenset().union(*(scopes[s] for s in node.incident))
                    if node.incident
                    else frozenset({variable})
                )
                headers.append(header(
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
                ))
                extra.append(tuple(
                    b"," + canonical_bytes(tuple(sorted(scopes[s] & induced))) + b")"
                    for s in node.reads
                ))
            elif node.kind == KIND_PRODUCT:
                head = canonical_bytes(
                    ("product", sem, variable, query.domain_size(variable))
                )
                headers.append(_hasher(b"step", head))
                extra.append(tuple(
                    _hasher(b"step", head, canonical_bytes((variable in scopes[s],)))
                    for s in node.incident
                ))
            else:  # KIND_OUTPUT
                free = set(query.free)
                headers.append(header(
                    (
                        "output",
                        sem,
                        tuple(query.free),
                        tuple(v for v in order if v in free),
                        tuple(v for v in query.order if v in free),
                    ),
                    query.free,
                ))
                extra.append(())
        self.headers = headers
        self.extra = extra
        read = sorted({
            s for node in skeleton.nodes for s in node.reads if s < skeleton.num_base
        })
        boxes = []
        for s in read:
            box = 1
            for v in scopes[s]:
                box *= query.domain_size(v)
            boxes.append((s, box))
        self.boxes = tuple(boxes)

    def instantiate(self) -> StepDag:
        """A run's own copy of the skeleton, digests unset.

        The copy's ``template`` attribute names this template, for
        :func:`annotate_digests`.  It is deliberately not a ``StepDag``
        field: a seventh field made lone unnamed runs slower although they
        never set it (``sparse-max`` p50 +9 %, slower in 10 of 11
        alternating ``perf/run.py`` pairs on a 2-core host).
        """
        skeleton = self.skeleton
        dag = StepDag(
            nodes=[
                StepNode(n.index, n.kind, n.variable, n.incident, n.reads,
                         n.outputs, n.depends_on)
                for n in skeleton.nodes
            ],
            num_slots=skeleton.num_slots,
            num_base=skeleton.num_base,
            slot_scope=list(skeleton.slot_scope),
            final_live=list(skeleton.final_live),
        )
        dag.template = self
        return dag

    def splice(self, dag: StepDag, query: FAQQuery) -> None:
        """Write the digests of ``query``'s content into ``dag``'s nodes and slots.

        ``dag`` is this shape's lowering; its nodes align with the skeleton's.
        A read of a base factor that lists its whole box is named by
        :data:`_WHOLE_BOX`, by the kernel's own test (``_lists_whole_box``).
        """
        from repro.planner.signature import factor_digest

        digests: List[Optional[str]] = [None] * dag.num_slots
        # canonical_bytes of each slot digest: a 64-character hex string.
        encoded: List[Optional[bytes]] = [None] * dag.num_slots

        def assign(slot: int, digest: str) -> None:
            digests[slot] = digest
            encoded[slot] = b"s64:" + digest.encode("ascii")

        if self.unit is not None:
            assign(0, self.unit)
        for i, factor in enumerate(query.factors):
            try:
                assign(i, factor_digest(factor))
            except TypeError:
                pass
        semiring = query.semiring
        whole = {
            slot: _WHOLE_BOX for slot, box in self.boxes
            if _lists_whole_box(query.factors[slot], box, semiring)
        }

        for node, header, extra in zip(dag.nodes, self.headers, self.extra):
            inputs = [encoded[s] for s in node.incident]
            if header is None or None in inputs:
                continue
            inputs_bytes = b"(" + b",".join(inputs) + b")"
            h = header.copy()
            if node.kind == KIND_PRODUCT:
                h.update(b"|" + inputs_bytes)
                for out, source, slot_header in zip(node.outputs, node.incident, extra):
                    slot_hash = slot_header.copy()
                    slot_hash.update(b"|" + digests[source].encode("ascii"))
                    assign(out, slot_hash.hexdigest())
                node.digest = h.hexdigest()
                continue
            if node.kind == KIND_SEMIRING:
                reads = [whole.get(s) or encoded[s] for s in node.reads]
                if None in reads:
                    continue
                h.update(inputs_bytes + b",(" + b",".join(
                    [b"(" + read + tail for read, tail in zip(reads, extra)]
                ) + b"))")
            else:  # KIND_OUTPUT
                h.update(inputs_bytes + b")")
            node.digest = h.hexdigest()
            assign(node.outputs[0], node.digest)

        dag.slot_digests = digests


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
    subgraph.  A key covers only what the step reads: a base factor that
    lists its whole box (``_lists_whole_box``, the predicate the step
    kernel applies) has indicator projections that are 1 everywhere, so the
    step leaves them out, and its digest names such a read by a fixed marker
    plus the read's scope — whatever the factor's content, encodable or not.

    Everything but the input digests is fixed by the query's shape, so the
    work is a splice into the shape's step template: the one ``dag`` was
    instantiated from, or the one its lowering arguments name.
    """
    template = getattr(dag, "template", None)
    if template is None:
        output_mode = (
            "listing" if dag.nodes and dag.nodes[-1].kind == KIND_OUTPUT else "factorized"
        )
        template = _template(query, order, use_indicator_projections, output_mode)
    template.splice(dag, query)
