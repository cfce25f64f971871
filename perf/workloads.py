"""The seven benchmark workloads, generated from the seed.

Each workload builds its inputs from ``--seed`` with NumPy generators, keeps
the raw tables it generated (so :mod:`reference` can check answers without
the engine), and exposes the same small surface to ``run.py``:

``setup(seed)``      input generation + engine start + warm-up (timed as
                     ``setup_s``); ``teardown()`` undoes it
``measure(...)``     run ops for a number of seconds, traced or not
``verify(...)``      compare every recorded answer with the reference,
                     outside the timed region
``probes(...)``      traced run only: per-layer numbers that are not spans

The program under test sees only the generated queries.  Sizes are tuned so
that one op costs 10-40 ms on the 2-core reference host: 10 measured
seconds then hold 200-350 ops, and a run goes on past its seconds until it
has ``MIN_OPS`` of them, enough for a p95 with ten samples beyond it.  Where
a workload mixes kinds of op, the weights are chosen so that the median and
the p95 each fall inside one kind and not between two.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    Engine,
    FAQQuery,
    Factor,
    FactorDelta,
    IncrementalView,
    ServeRequest,
    Variable,
    inside_out,
)
from repro.semiring import COUNTING, MAX_PRODUCT, SUM_PRODUCT, SemiringAggregate

import reference
from trace import PROBE, ROOT, Tracer

KERNEL_SPAN = {"sparse": "factors.trie", "flat": "factors.flat", "dense": "factors.dense"}

# The sparse workloads and the merged batches name the InsideOut strategy:
# left open, the planner's choice between it and variable elimination on
# these all-sum or all-max chains turns on near-tied estimates (and on what
# the process-wide cost model has been calibrated with), and the workload
# would stop measuring the kernel it is named after.  Ordering and backend
# stay the planner's.  Its free choice is measured on dense-pgm and plan-cold.
INSIDEOUT = {"strategy": "insideout"}

Guard = Callable[[str, Callable[[], Any]], None]

# A run goes on past its seconds until it has this many ops: 200 put ten
# samples beyond the p95 however slow the host is at the moment.
MIN_OPS = {"full": 200, "smoke": 8}


@dataclass
class Record:
    """One attempted op: how long it took and what came back."""

    latency: float   # seconds as clocked; negative: the op counts but is no sample
    answer: Any      # None when the op raised or was shed
    token: Any       # whatever verify() needs to find the expected answer
    traced: bool = False
    op_id: int = 0
    speed: float = 1.0  # host slowdown while the op ran (see Calibrator)
    window: int = 0     # serve-zipf: which window of the open loop it was due in


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def median0(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample."""
    return statistics.median(values) if values else 0.0


def _timed(fn: Callable[[], Any], repeat: int = 3) -> Tuple[float, Any]:
    """Median seconds of ``repeat`` calls, and the last result."""
    seconds, result = [], None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


class Calibrator:
    """A fixed piece of work that tells how slow the host is right now.

    The reference host is a shared 2-core VM whose speed changes by half
    from one second to the next, for pure-Python and NumPy work alike; ten
    runs of one workload on it had raw median latencies spread (IQR ÷
    median) by 11-34 %, more than any bound the benchmark may set.  So a
    chunk of fixed work — a Python loop and NumPy passes over 64 KB, about
    2 ms — runs before every op, and the op's latency is divided by the
    chunk's slowdown against ``REFERENCE_S``.  The chunk stays inside the
    core's own cache, so it does not evict what the program left there,
    and it does not touch the program, so a change to the program moves
    reported times exactly as it moves raw ones.  ``REFERENCE_S`` is about
    the chunk's time on that host when it is quiet; it only sets the unit,
    and cancels when two versions of the program are compared.
    """

    REFERENCE_S = 0.002
    SMOOTH = 5  # a slowdown is the median of this many neighbouring chunks

    def __init__(self) -> None:
        self.source = np.random.default_rng(0).random(1 << 13)
        self.target = np.empty_like(self.source)

    def slowdown(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(256):
            np.multiply(self.source, 1.0001, out=self.target)
            self.target.sum()
        return (time.perf_counter() - start) / self.REFERENCE_S

    def median_of(self, count: int) -> float:
        return statistics.median(self.slowdown() for _ in range(count))

    @classmethod
    def smooth(cls, slowdowns: Sequence[float]) -> List[float]:
        """Running median: one descheduled chunk must not rescale one op."""
        half = cls.SMOOTH // 2
        return [statistics.median(slowdowns[max(0, i - half): i + half + 1])
                for i in range(len(slowdowns))]


def freeze_heap() -> None:
    """Take what the benchmark has built so far out of the collector's sight.

    The harness keeps every generated input and recorded answer alive; left
    in, they make each full collection tens of milliseconds long and put
    those pauses into the latencies of whichever ops they interrupt.  The
    collector stays on for what the program allocates from here on.
    """
    gc.collect()
    gc.freeze()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ---------------------------------------------------------------------- #
# generators shared by several workloads
# ---------------------------------------------------------------------- #
PairTable = Dict[Tuple[int, int], Any]


def sparse_pair_table(
    rng: np.random.Generator, domain: int, fanout: int, ints: bool
) -> PairTable:
    """``domain × fanout`` listed tuples: every left value meets ``fanout`` rights."""
    columns = np.argpartition(rng.random((domain, domain)), fanout, axis=1)[:, :fanout]
    if ints:
        values = rng.integers(1, 4, size=(domain, fanout))
    else:
        values = rng.uniform(0.5, 1.5, size=(domain, fanout))
    return {
        (a, b): v
        for a, (row, vals) in enumerate(zip(columns.tolist(), values.tolist()))
        for b, v in zip(row, vals)
    }


def chain_blocks(
    rng: np.random.Generator, blocks: int, length: int, domain: int, fanout: int, ints: bool
) -> List[List[PairTable]]:
    return [
        [sparse_pair_table(rng, domain, fanout, ints) for _ in range(length - 1)]
        for _ in range(blocks)
    ]


def chain_query(blocks: Sequence[Sequence[PairTable]], domain: int, semiring, aggregate,
                name: str, head: Optional[Dict[tuple, Any]] = None) -> FAQQuery:
    """Disjoint chains ``c{b}x0 - c{b}x1 - ...``, every variable aggregated."""
    values = tuple(range(domain))
    variables, aggregates, factors = [], {}, []
    for b, tables in enumerate(blocks):
        names = [f"c{b}x{i}" for i in range(len(tables) + 1)]
        for var in names:
            variables.append(Variable(var, values))
            aggregates[var] = aggregate()
        for left, right, table in zip(names, names[1:], tables):
            factors.append(Factor((left, right), table, name=f"{left}{right}"))
    if head is not None:
        factors.append(Factor(("c0x0",), head, name="head"))
    return FAQQuery(variables, [], aggregates, factors, semiring, name=name)


def add_execution_spans(tracer: Tracer, parent: int, stats, seconds: float) -> None:
    """Synthetic children of ``parent``, from the timings a result carries.

    ``stats`` is the engine's own stats object; ``seconds`` stands in for
    variable elimination, which keeps no clock of its own.
    """
    _, op_id, start, _, _, _ = tracer.spans[parent]
    steps = getattr(stats, "steps", None)
    if steps is None:
        tracer.add("core.ve_execute", op_id, start, start + seconds, parent,
                   stats.max_intermediate_size)
        return
    core = tracer.add("core.execute", op_id, start, start + stats.total_seconds,
                      parent, stats.max_intermediate_size)
    tracer.fill(core, [(KERNEL_SPAN[s.backend], s.seconds, s.result_size) for s in steps])


# ---------------------------------------------------------------------- #
# base classes
# ---------------------------------------------------------------------- #
class Workload:
    """Closed loop, one client: ops run back to back on the calling thread."""

    name = ""
    sizes: Dict[str, Dict[str, Any]] = {}
    # In a traced run every seventh op runs untraced, so that the two kinds
    # of op see the same cache warmth and the same drift, and their medians
    # compare.  Seven shares no factor with the length of any closed-loop
    # workload's cycle of op kinds.
    untraced_every = 7

    def __init__(self, size: str) -> None:
        self.size = self.sizes[size]
        self.min_ops = MIN_OPS[size]
        self.seed = 0
        self.first_error: Optional[str] = None
        self.op_count = 0
        self.calibrator = Calibrator()

    # -- lifecycle ------------------------------------------------------ #
    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    # -- measurement ---------------------------------------------------- #
    def measure(self, seconds: float, tracer: Optional[Tracer]) -> List[Record]:
        """Run ops back to back until ``seconds`` have passed, and then
        until there are ``min_ops`` of them."""
        records: List[Record] = []
        slowdowns: List[float] = []
        freeze_heap()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(records) < self.min_ops:
            prepared = self.prepare()
            slowdowns.append(self.calibrator.slowdown())
            use = tracer if len(records) % self.untraced_every else None
            op_id = self.next_op_id()
            start = time.perf_counter()
            try:
                answer = self.op(prepared, use, op_id)
            except Exception:  # the op failed; it counts, the run goes on
                answer = None
                self.note_error()
            records.append(Record(time.perf_counter() - start, answer, self.token(prepared),
                                  use is not None, op_id))
        for record, speed in zip(records, Calibrator.smooth(slowdowns)):
            record.speed = speed
        return records

    def slowdown(self) -> float:
        """The host's slowdown now, by which a time just clocked is divided."""
        return self.calibrator.median_of(15)

    def next_op_id(self) -> int:
        self.op_count += 1
        return self.op_count

    def note_error(self) -> None:
        if self.first_error is None:
            self.first_error = traceback.format_exc()

    def prepare(self) -> Any:
        """Build the next op's input (not timed)."""
        raise NotImplementedError

    def op(self, prepared: Any, tracer: Optional[Tracer], op_id: int) -> Any:
        """Run one op and return its answer as listing tables."""
        raise NotImplementedError

    def token(self, prepared: Any) -> Any:
        return prepared

    def latencies(self, records: List[Record]) -> List[float]:
        """Latency samples in quiet-host seconds."""
        return [r.latency / r.speed for r in records if r.latency >= 0]

    def latency_quantile(self, records: List[Record], fraction: float) -> float:
        return percentile(self.latencies(records), fraction)

    def throughput(self, records: List[Record]) -> float:
        """Ops per second of timed clock.  One client, so the clock runs
        while an op does, and counts the quiet-host seconds latencies do."""
        latencies = self.latencies(records)
        return len(latencies) / sum(latencies)

    # -- verification --------------------------------------------------- #
    def verify(self, records: List[Record], perturb: bool) -> int:
        """How many records failed or disagree with the reference."""
        failed = 0
        for record in records:
            want = self.expected(record.token)
            if perturb:
                want = reference.perturbed(want)
            if record.answer is None or not reference.tables_match(record.answer, want):
                failed += 1
        return failed

    def expected(self, token: Any) -> Dict[tuple, Any]:
        raise NotImplementedError

    # -- per-layer numbers that are not spans --------------------------- #
    def probes(self, metrics: Dict[str, float], guard: Guard, tracer: Tracer) -> None:
        """Fill per-layer metrics measured outside the ops (traced run only)."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Case:
    """One query with its lazily computed reference answer."""

    request: ServeRequest
    reference: Callable[[], Dict[tuple, Any]]
    want: Optional[Dict[tuple, Any]] = None


class QueryWorkload(Workload):
    """``Engine.query`` over a list of cases, cycled."""

    def setup(self, seed: int) -> None:
        from repro.hypergraph.covers import clear_rho_star_cache

        clear_rho_star_cache()
        self.seed = seed
        self.engine = Engine()
        self.cases = self.generate(seed)
        self.position = 0
        self.faqw: Dict[int, float] = {}
        self.est_error_max = 0.0
        self.warm_up()

    def warm_up(self) -> None:
        for case in self.cases:
            self.engine.query(case.request)

    def teardown(self) -> None:
        self.engine.close()

    def generate(self, seed: int) -> List[Case]:
        raise NotImplementedError

    def prepare(self) -> int:
        index = self.position % len(self.cases)
        self.position += 1
        return index

    def op(self, index: int, tracer: Optional[Tracer], op_id: int) -> Any:
        request = self.cases[index].request
        if tracer is None:
            return self.engine.query(request).factor.table
        # The content key and, for a query not seen before, the plan are
        # asked for first, by hand: both are memoised, so the real call
        # below finds them ready and the op does the same work as an
        # untraced one, with its parts timed.  (A query seen before is
        # planned by a digest lookup inside the real call; asking again by
        # hand would add a signature computation the untraced op skips.)
        chosen = None
        with tracer.span(ROOT, op_id, None) as root:
            with tracer.span("serve.content_key", op_id, root):
                request.content_key
            if id(request.query) not in self.faqw:
                with tracer.span("planner.plan_cold", op_id, root) as planning:
                    chosen = self.engine.plan(request.query, **request.plan_kwargs())
                if chosen.cache_hit:
                    tracer.rename(planning, "planner.plan_warm")
            with tracer.span("serve.execute", op_id, root) as serving:
                result = self.engine.query(request)
        add_execution_spans(tracer, serving, result.stats, result.seconds)
        if chosen is not None:
            self.note_plan(chosen, result)
        return result.factor.table

    def note_plan(self, chosen, result) -> None:
        from repro.planner import observed_step_errors

        self.faqw[id(chosen.query)] = chosen.faq_width
        errors = observed_step_errors(chosen.step_sizes, result.stats)
        if errors:
            self.est_error_max = max(self.est_error_max, max(abs(e) for e in errors))

    def expected(self, index: int) -> Dict[tuple, Any]:
        case = self.cases[index]
        if case.want is None:
            case.want = case.reference()
        return case.want

    # ------------------------------------------------------------------ #
    def probe_cases(self) -> List[Case]:
        """A few distinct cases for the out-of-op probes."""
        return self.cases[: self.size["probe_cases"]]

    def probes(self, metrics: Dict[str, float], guard: Guard, tracer: Tracer) -> None:
        metrics["planner.est_error_max"] = self.est_error_max
        metrics["hypergraph.faqw_chosen"] = sum(self.faqw.values())
        metrics["planner.cache_hit_rate"] = plan_cache_hit_rate(self.engine)
        cases = self.probe_cases()
        guard("planner.signature_us", lambda: 1e6 * median0(
            [_timed(lambda q=c.request.query: _signature(q))[0] for c in cases]))
        guard("hypergraph.ordering_search_ms", lambda: 1e3 * median0(
            [_timed(lambda q=c.request.query: _ordering_search(q))[0] for c in cases]))
        guard("engine.query_overhead_us", lambda: 1e6 * median0(
            [self._query_overhead(c) for c in cases]))
        guard("exec", lambda: self._probe_exec(metrics, cases, tracer))

    def _probe_exec(self, metrics: Dict[str, float], cases: List[Case], tracer: Tracer) -> None:
        """Lowering cost, DAG shape, and the DAG executor against the serial loop."""
        from repro.exec import DagExecutor, annotate_digests, lower_insideout

        lower, steps, width, overhead = [], [], [], []
        for number, case in enumerate(cases):
            query = case.request.query
            chosen = self.engine.plan(query, **case.request.plan_kwargs())
            order = list(chosen.ordering)

            def lowered():
                dag = lower_insideout(query, order)
                annotate_digests(dag, query, order)
                return dag

            seconds, dag = _timed(lowered)
            lower.append(seconds)
            steps.append(len(dag.nodes))
            width.append(dag.max_parallelism)
            with tracer.span(PROBE, -1 - number, None) as root:
                serial, run = _timed(
                    lambda: inside_out(query, ordering=order, backend=chosen.backend))
            add_execution_spans(tracer, root, run.stats, 0.0)
            as_dag, _ = _timed(lambda: DagExecutor(workers=1).run(
                query, ordering=order, backend=chosen.backend))
            overhead.append(as_dag / serial)
        metrics["exec.lower_ms"] = 1e3 * median0(lower)
        metrics["exec.dag_steps"] = median0(steps)
        metrics["exec.dag_max_parallelism"] = median0(width)
        metrics["exec.dag_overhead_x"] = median0(overhead)

    def _query_overhead(self, case: Case) -> float:
        """``Engine.query`` minus ``Plan.execute``, warm, same query."""
        from repro.factors.index import SharedTrieCache

        query = case.request.query
        chosen = self.engine.plan(query, **case.request.plan_kwargs())
        tries = SharedTrieCache(chosen.ordering, query.semiring, query.factors)
        chosen.execute(shared_tries=tries)
        gaps = []
        for _ in range(5):  # in turn, so that drift hits both alike
            bare, _ = _timed(lambda: chosen.execute(shared_tries=tries), repeat=1)
            served, _ = _timed(lambda: self.engine.query(case.request), repeat=1)
            gaps.append(served - bare)
        return median0(gaps)


def plan_cache_hit_rate(engine: Engine) -> float:
    """Plan-cache hits per lookup over the engine's life, warm-up included."""
    stats = engine.stats()
    lookups = stats["plan_cache_hits"] + stats["plan_cache_misses"]
    return stats["plan_cache_hits"] / lookups if lookups else 0.0


def _signature(query: FAQQuery) -> None:
    from repro.planner import query_content_key, query_signature

    query_signature(query)
    query_content_key(query)


def _ordering_search(query: FAQQuery) -> None:
    from repro.core.faqw import approximate_faqw_ordering

    approximate_faqw_ordering(query)


# ---------------------------------------------------------------------- #
# 1. dense-pgm
# ---------------------------------------------------------------------- #
class DensePgm(QueryWorkload):
    """Marginal / MAP / partition function on a grid MRF, plans warm.

    Control for every sparse-kernel, planner-search and serve change: the
    planner picks variable elimination on dense arrays, and the ufunc
    kernel does nearly all the work.
    """

    name = "dense-pgm"
    sizes = {
        "full": dict(rows=5, cols=8, domain=8, variants=4, probe_cases=1),
        "smoke": dict(rows=3, cols=4, domain=4, variants=2, probe_cases=1),
    }

    def generate(self, seed: int) -> List[Case]:
        rows, cols, domain = self.size["rows"], self.size["cols"], self.size["domain"]
        values = tuple(range(domain))
        names = [f"X{r}_{c}" for r in range(rows) for c in range(cols)]
        last = names[-1]
        cases: List[Case] = []
        for variant in range(self.size["variants"]):
            rng = _rng(seed, 1, variant)
            horizontal = {(r, c): rng.uniform(0.1, 2.0, size=(domain, domain))
                          for r in range(rows) for c in range(cols - 1)}
            vertical = {(r, c): rng.uniform(0.1, 2.0, size=(domain, domain))
                        for r in range(rows - 1) for c in range(cols)}
            listed = [
                ((f"X{r}_{c}", f"X{r + dr}_{c + dc}"),
                 {(a, b): v for a, row in enumerate(array.tolist()) for b, v in enumerate(row)})
                for arrays, dr, dc in ((horizontal, 0, 1), (vertical, 1, 0))
                for (r, c), array in arrays.items()
            ]

            def build(free, semiring, aggregate, name):
                order = list(free) + [v for v in names if v not in free]
                return FAQQuery(
                    [Variable(v, values) for v in order], list(free),
                    {v: aggregate() for v in order[len(free):]},
                    [Factor(scope, table) for scope, table in listed],
                    semiring, name=name,
                )

            vectors: Dict[bool, np.ndarray] = {}

            def last_cell(use_max, h=horizontal, v=vertical, memo=vectors):
                if use_max not in memo:
                    memo[use_max] = reference.grid_last_cell(rows, cols, h, v, use_max)
                return memo[use_max]

            for query, want in (
                (build([last], SUM_PRODUCT, SemiringAggregate.sum, "marginal"),
                 lambda f=last_cell: reference.vector_table(f(False))),
                (build([last], MAX_PRODUCT, SemiringAggregate.max, "map"),
                 lambda f=last_cell: reference.vector_table(f(True))),
                (build([], SUM_PRODUCT, SemiringAggregate.sum, "partition"),
                 lambda f=last_cell: reference.scalar_table(float(f(False).sum()), 0.0)),
            ):
                cases.append(Case(ServeRequest(query, coalesce=False), want))
        return cases


# ---------------------------------------------------------------------- #
# 2. sparse-count   3. sparse-max
# ---------------------------------------------------------------------- #
class SparseCount(QueryWorkload):
    """Counting / sum-product over sparse chains, and a triangle count.

    Sum aggregates are refused by the vectorized flat kernel, so the Python
    trie kernel carries these — the paper's lead workloads (#CQ, counting).
    """

    name = "sparse-count"
    sizes = {
        "full": dict(blocks=2, length=4, domain=500, fanout=6,
                     vertices=150, edges=1000, probe_cases=3),
        "smoke": dict(blocks=2, length=3, domain=40, fanout=4,
                      vertices=30, edges=90, probe_cases=3),
    }

    def generate(self, seed: int) -> List[Case]:
        s = self.size
        counting = chain_blocks(_rng(seed, 2, 0), s["blocks"], s["length"],
                                s["domain"], s["fanout"], ints=True)
        weighted = chain_blocks(_rng(seed, 2, 1), s["blocks"], s["length"],
                                s["domain"], s["fanout"], ints=False)
        edges = self._edges(_rng(seed, 2, 2), s["vertices"], s["edges"])
        queries = [
            (chain_query(counting, s["domain"], COUNTING, SemiringAggregate.sum, "count-chains"),
             lambda: reference.scalar_table(
                 reference.chain_scalar(counting, reference.SUM, 0), 0)),
            (chain_query(weighted, s["domain"], SUM_PRODUCT, SemiringAggregate.sum, "sum-chains"),
             lambda: reference.scalar_table(
                 reference.chain_scalar(weighted, reference.SUM, 0.0), 0.0)),
            (self._triangle_query(s["vertices"], edges),
             lambda: reference.scalar_table(
                 reference.triangle_homomorphisms(s["vertices"], edges), 0)),
        ]
        return [Case(ServeRequest(q, coalesce=False, options=INSIDEOUT), want)
                for q, want in queries]

    @staticmethod
    def _edges(rng: np.random.Generator, vertices: int, count: int) -> List[Tuple[int, int]]:
        pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
        return [pairs[i] for i in rng.choice(len(pairs), size=count, replace=False).tolist()]

    @staticmethod
    def _triangle_query(vertices: int, edges: List[Tuple[int, int]]) -> FAQQuery:
        table = {}
        for u, v in edges:
            table[(u, v)] = 1
            table[(v, u)] = 1
        names = ["a", "b", "c"]
        return FAQQuery(
            [Variable(v, tuple(range(vertices))) for v in names], [],
            {v: SemiringAggregate.sum() for v in names},
            [Factor(scope, table) for scope in (("a", "b"), ("b", "c"), ("a", "c"))],
            COUNTING, name="triangles",
        )


class SparseMax(QueryWorkload):
    """The sparse-count chains under max-product: the flat kernel's workload."""

    name = "sparse-max"
    sizes = {
        "full": dict(blocks=2, length=4, domain=640, fanout=10, variants=3, probe_cases=2),
        "smoke": dict(blocks=2, length=3, domain=40, fanout=8, variants=2, probe_cases=2),
    }

    def generate(self, seed: int) -> List[Case]:
        s = self.size
        cases = []
        for variant in range(s["variants"]):
            blocks = chain_blocks(_rng(seed, 3, variant), s["blocks"], s["length"],
                                  s["domain"], s["fanout"], ints=False)
            query = chain_query(blocks, s["domain"], MAX_PRODUCT, SemiringAggregate.max,
                                f"max-chains-{variant}")
            cases.append(Case(
                ServeRequest(query, coalesce=False, options=INSIDEOUT),
                lambda b=blocks: reference.scalar_table(
                    reference.chain_scalar(b, reference.MAX, 0.0), 0.0),
            ))
        return cases


# ---------------------------------------------------------------------- #
# 4. plan-cold
# ---------------------------------------------------------------------- #
class PlanCold(QueryWorkload):
    """Structurally distinct small queries, each seen once, caches cold.

    Data is tiny, so ordering search, ρ* LPs and cost scoring are the
    latency: the first-time-query cost every warm workload hides in
    ``setup_s``.  Two in three are random 3-CNF #SAT instances, whose
    planning cost varies little from one to the next, so the median and the
    p95 both fall among them; the third is a sparse MRF.
    """

    name = "plan-cold"
    sizes = {
        "full": dict(pool=320, sat_vars=6, sat_clauses=10, mrf_vars=5, probe_cases=3),
        "smoke": dict(pool=24, sat_vars=5, sat_clauses=7, mrf_vars=4, probe_cases=2),
    }
    def generate(self, seed: int) -> List[Case]:
        return [self.make_case(seed, index) for index in range(self.size["pool"])]

    def warm_up(self) -> None:
        """Pay lazy imports on a query no case resembles, then forget its LPs."""
        from repro.hypergraph.covers import clear_rho_star_cache

        self.engine.query(ServeRequest(
            chain_query([[{(0, 1): 1, (1, 0): 1}]], 2, COUNTING, SemiringAggregate.sum,
                        "warm-up"),
            coalesce=False))
        clear_rho_star_cache()

    def prepare(self) -> int:
        index = self.position
        self.position += 1
        if index == len(self.cases):  # a fast host outran the pool
            self.cases.append(self.make_case(self.seed, index))
        return index

    def probe_cases(self) -> List[Case]:
        return self.cases[: self.position][-self.size["probe_cases"]:]

    def latencies(self, records: List[Record]) -> List[float]:
        """Latencies of the first ``min_ops`` queries only.

        The ρ* memo and the cost model warm as queries go by, so a query's
        latency depends on how many came before it, and a run's median on
        how many the host got through.  The prefix every run reaches makes
        runs comparable.
        """
        return super().latencies(records[: self.min_ops])

    def make_case(self, seed: int, index: int) -> Case:
        rng = _rng(seed, 4, index)
        if index % 3 == 2:
            return self._sparse_mrf(rng, index, self.size["mrf_vars"])
        return self._sharp_sat(rng, index)

    def _sharp_sat(self, rng: np.random.Generator, index: int) -> Case:
        n = self.size["sat_vars"]
        names = [f"x{i}" for i in range(n)]
        factors, dense = [], []
        for _ in range(self.size["sat_clauses"] + int(rng.integers(0, 3))):
            scope = sorted(rng.choice(n, size=3, replace=False).tolist())
            falsified = tuple(rng.integers(0, 2, size=3).tolist())
            array = np.ones((2, 2, 2), dtype=np.int64)
            array[falsified] = 0
            table = {cell: 1 for cell in itertools.product((0, 1), repeat=3)
                     if cell != falsified}
            factors.append(Factor(tuple(names[i] for i in scope), table))
            dense.append((scope, array))
        query = FAQQuery(
            [Variable(v, (0, 1)) for v in names], [],
            {v: SemiringAggregate.sum() for v in names}, factors, COUNTING,
            name=f"sharp-sat-{index}",
        )
        return Case(
            ServeRequest(query, coalesce=False),
            lambda: reference.scalar_table(reference.einsum_scalar([2] * n, dense), 0),
        )

    def _sparse_mrf(self, rng: np.random.Generator, index: int, n: int) -> Case:
        domain = 3
        names = [f"X{i}" for i in range(n)]
        factors, dense = [], []
        for _ in range(n - 1 + int(rng.integers(0, 2))):
            arity = int(rng.integers(2, 4))
            scope = sorted(rng.choice(n, size=arity, replace=False).tolist())
            array = rng.uniform(0.1, 2.0, size=(domain,) * arity)
            array[rng.random(array.shape) < 0.5] = 0.0
            array[(0,) * arity] = 1.0  # never an all-zero factor
            table = {cell: float(array[cell]) for cell in np.ndindex(array.shape)
                     if array[cell] != 0.0}
            factors.append(Factor(tuple(names[i] for i in scope), table))
            dense.append((scope, array))
        query = FAQQuery(
            [Variable(v, tuple(range(domain))) for v in names], [],
            {v: SemiringAggregate.sum() for v in names}, factors, SUM_PRODUCT,
            name=f"sparse-mrf-{index}",
        )
        return Case(
            ServeRequest(query, coalesce=False),
            lambda: reference.scalar_table(
                float(reference.einsum_scalar([domain] * n, dense)), 0.0),
        )


# ---------------------------------------------------------------------- #
# 5. batch-shared
# ---------------------------------------------------------------------- #
class BatchShared(Workload):
    """One op = ``Engine.batch`` of queries sharing pair factors.

    The queries differ in a fresh unary head each; the pair factors are
    regenerated every ``regenerate`` batches, so the step and trie caches
    miss as well as hit.  Query objects are new every batch, as a client
    building requests over one database would make them — and like that
    client, ``prepare`` names each request's content (``content_key``,
    memoised on the request and its factors) before sending the batch.
    ``FAQQuery`` copies its factors, so the digests cost eight times what
    the data would, more than the merged run they make possible; inside
    the op they would leave the sharing path a minority of it.  Their cost
    is reported by the traced run as ``serve.content_key_us`` per batch.
    """

    name = "batch-shared"
    sizes = {
        "full": dict(queries=8, length=10, domain=20, fanout=4, regenerate=10),
        "smoke": dict(queries=4, length=4, domain=12, fanout=3, regenerate=3),
    }

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.engine = Engine()
        self.batches = 0
        self.datasets: List[List[PairTable]] = []
        self.engine.batch(self.prepare()[0])

    def teardown(self) -> None:
        self.engine.close()

    def prepare(self) -> Tuple[List[ServeRequest], int, np.ndarray, float]:
        s = self.size
        if self.batches % s["regenerate"] == 0:
            rng = _rng(self.seed, 5, 0, len(self.datasets))
            self.datasets.append(
                [sparse_pair_table(rng, s["domain"], s["fanout"], ints=False)
                 for _ in range(s["length"] - 1)])
        dataset = len(self.datasets) - 1
        heads = _rng(self.seed, 5, 1, self.batches).uniform(
            0.5, 1.5, size=(s["queries"], s["domain"]))
        self.batches += 1
        requests = [
            ServeRequest(
                chain_query([self.datasets[dataset]], s["domain"], SUM_PRODUCT,
                            SemiringAggregate.sum, f"shared-{j}",
                            head={(a,): v for a, v in enumerate(head)}),
                options=INSIDEOUT)
            for j, head in enumerate(heads.tolist())
        ]
        start = time.perf_counter()
        for request in requests:
            request.content_key
        return requests, dataset, heads, time.perf_counter() - start

    def op(self, prepared, tracer: Optional[Tracer], op_id: int) -> Any:
        requests, _, _, key_seconds = prepared
        if tracer is None:
            return [r.factor.table for r in self.engine.batch(requests)]
        naming = tracer.add(PROBE, -op_id, 0.0, key_seconds, None)  # outside the op
        tracer.add("serve.content_key", -op_id, 0.0, key_seconds, naming)
        with tracer.span(ROOT, op_id, None) as root:
            with tracer.span("serve.execute", op_id, root) as serving:
                results = self.engine.batch(requests)
        # Every result's clock started with the merged run, so the longest
        # is the run.  Its steps are not laid out: a replayed step carries
        # the seconds of the run that first computed it.
        tracer.fill(serving, [("exec.run_many",
                               max(r.stats.total_seconds for r in results),
                               max(r.stats.max_intermediate_size for r in results))])
        return [r.factor.table for r in results]

    def token(self, prepared) -> Any:
        return prepared[1], prepared[2]

    def verify(self, records: List[Record], perturb: bool) -> int:
        messages: Dict[int, Dict[int, float]] = {}
        failed = 0
        for record in records:
            dataset, heads = record.token
            if dataset not in messages:
                messages[dataset] = reference.chain_messages(self.datasets[dataset], reference.SUM)
            ok = record.answer is not None
            for table, head in zip(record.answer or (), heads):
                want = reference.scalar_table(
                    sum(head[a] * value for a, value in messages[dataset].items()), 0.0)
                if perturb:
                    want = reference.perturbed(want)
                ok = ok and reference.tables_match(table, want)
            failed += not ok
        return failed

    def probes(self, metrics: Dict[str, float], guard: Guard, tracer: Tracer) -> None:
        stats = self.engine.stats()
        executed = stats["merged_executed_steps"]
        metrics["exec.steps_executed"] = executed
        metrics["exec.steps_replayed"] = stats["merged_replayed_steps"]
        metrics["exec.step_dedup_x"] = stats["merged_total_steps"] / executed if executed else 0.0
        lookups = stats["step_cache_computed"] + stats["step_cache_replayed"]
        metrics["exec.step_cache_hit_rate"] = (
            stats["step_cache_replayed"] / lookups if lookups else 0.0)
        metrics["planner.cache_hit_rate"] = plan_cache_hit_rate(self.engine)


# ---------------------------------------------------------------------- #
# 6. incr-stream
# ---------------------------------------------------------------------- #
class IncrStream(Workload):
    """One op = ``IncrementalView.update_factor`` returning the fresh answer.

    Two standing views over sparse chains: counting (delta regime), which
    takes two updates in three so that the median falls among its updates,
    and max-product (append when a cell rises or is inserted, dirty when it
    falls), which takes the third and with it the p95.  Of ten updates
    eight change one cell, one changes ``many`` and one inserts a new cell.
    """

    name = "incr-stream"
    sizes = {
        "full": dict(blocks=2, length=4, domain=110, fanout=10, many=50),
        "smoke": dict(blocks=2, length=3, domain=20, fanout=4, many=5),
    }
    VIEWS = (
        (COUNTING, SemiringAggregate.sum, True, reference.SUM, 0),
        (MAX_PRODUCT, SemiringAggregate.max, False, reference.MAX, 0.0),
    )

    def setup(self, seed: int) -> None:
        s = self.size
        self.seed = seed
        self.rng = _rng(seed, 6, 9)
        self.views: List[IncrementalView] = []
        self.initial: List[List[PairTable]] = []  # per view, the factors' tables in order
        for index, (semiring, aggregate, ints, _, _) in enumerate(self.VIEWS):
            blocks = chain_blocks(_rng(seed, 6, index), s["blocks"], s["length"],
                                  s["domain"], s["fanout"], ints)
            view = IncrementalView(chain_query(blocks, s["domain"], semiring, aggregate,
                                               f"standing-{index}"))
            view.result()
            self.views.append(view)
            self.initial.append([table for tables in blocks for table in tables])
        self.mirror = [[dict(table) for table in tables] for tables in self.initial]
        self.updates = 0
        self.sampled: List[Tuple[int, FAQQuery]] = []

    def teardown(self) -> None:
        self.views = []

    def prepare(self) -> Tuple[int, int, PairTable]:
        """The next update: (view, factor index, cell -> new value)."""
        s = self.size
        step, self.updates = self.updates, self.updates + 1
        round_, kind = divmod(step, 10)
        view = 1 if step % 3 == 2 else 0
        factor_index = (step // 3) % len(self.mirror[view])
        table = self.mirror[view][factor_index]
        if kind == 9:  # insert a cell that is not listed yet
            while True:
                cell = tuple(self.rng.integers(0, s["domain"], size=2).tolist())
                if cell not in table:
                    break
            changes = {cell: 2 if view == 0 else 1.25}
        else:
            cells = list(table)
            picked = self.rng.choice(len(cells), size=s["many"] if kind == 8 else 1,
                                     replace=False).tolist()
            # Counts step up.  Weights rise in even rounds (append regime)
            # and fall in odd ones (dirty regime), staying within [0.25, 4].
            factor = 1.1 if round_ % 2 == 0 else 0.9
            changes = {}
            for cell in (cells[i] for i in picked):
                if view == 0:
                    changes[cell] = table[cell] + 1
                else:
                    value = table[cell] * factor
                    changes[cell] = value if 0.25 <= value <= 4 else 1.0
        table.update(changes)
        return view, factor_index, changes

    def op(self, prepared, tracer: Optional[Tracer], op_id: int) -> Any:
        view_index, factor_index, changes = prepared
        view = self.views[view_index]
        delta = FactorDelta(view.query.factors[factor_index].scope, changes)
        if tracer is None:
            return view.update_factor(factor_index, delta).table
        with tracer.span(ROOT, op_id, None) as root:
            with tracer.span("incremental.update", op_id, root):
                answer = view.update_factor(factor_index, delta).table
        if op_id % 16 == 0:
            self.sampled.append((view_index, view.query))
        return answer

    def verify(self, records: List[Record], perturb: bool) -> int:
        """Replay the updates on plain dicts and re-run the chain DP each time."""
        s = self.size
        per_block = s["length"] - 1
        tables = [[dict(table) for table in view] for view in self.initial]
        failed = 0
        for record in records:
            view, factor_index, changes = record.token
            tables[view][factor_index].update(changes)
            blocks = [tables[view][b * per_block:(b + 1) * per_block]
                      for b in range(s["blocks"])]
            _, _, _, combine, zero = self.VIEWS[view]
            want = reference.scalar_table(reference.chain_scalar(blocks, combine, zero), zero)
            if perturb:
                want = reference.perturbed(want)
            if record.answer is None or not reference.tables_match(record.answer, want):
                failed += 1
        return failed

    def probes(self, metrics: Dict[str, float], guard: Guard, tracer: Tracer) -> None:
        regimes: Dict[str, int] = {}
        reused = executed = 0
        for view in self.views:
            for regime, count in view.stats.regimes.items():
                regimes[regime] = regimes.get(regime, 0) + count
            reused += view.stats.nodes_reused
            executed += view.stats.nodes_executed
        for regime in ("delta", "append", "dirty"):
            metrics[f"incremental.regime_{regime}"] = regimes.get(regime, 0)
        metrics["incremental.nodes_reused_share"] = (
            reused / (reused + executed) if reused + executed else 0.0)
        # A full InsideOut run of the query as it stood after sampled updates.
        guard("incremental.full_recompute_ms", lambda: 1e3 * median0([
            _timed(lambda q=query, v=view: inside_out(
                q, ordering=list(self.views[v].ordering)), repeat=1)[0]
            for view, query in self.sampled[:8]
        ]))


# ---------------------------------------------------------------------- #
# 7. serve-zipf
# ---------------------------------------------------------------------- #
class ServeZipf(Workload):
    """Open-loop Poisson arrivals on a replicated ``Frontend``, then a
    closed-loop capacity phase.  One process, one event loop.

    Execution is about a millisecond, so admit -> coalesce -> route -> wire
    -> thread hand-off -> reply is the latency.  Popularity is Zipf over a
    fixed set of query classes, plus a share of never-seen content.  Every
    request is a new object, value-equal to earlier ones of its class.

    Times here are as clocked, not in quiet-host units.  The path crosses
    threads and processes on both cores and the load comes and goes, and
    the calibration chunk, one thread's arithmetic, did not track it: ten
    runs' median latencies spread by 10 % as clocked and by 18 % divided by
    the chunk.  What the shared host does to an open loop is stall it now
    and then for a few hundred milliseconds, which every request due
    meanwhile counts in full; so each loop is read in ``WINDOWS`` equal
    windows, and a latency quantile or the capacity is the median of the
    windows' values.
    """

    def slowdown(self) -> float:
        return 1.0

    name = "serve-zipf"
    sizes = {
        "full": dict(classes=64, length=5, domain=8),
        "smoke": dict(classes=6, length=3, domain=3),
    }
    untraced_every = 2  # requests are drawn at random: no cycle to fall in step with
    RATE = 100.0          # offered requests per second, open loop
    OPEN_SHARE = 0.6      # of an untraced run's seconds; the closed loop gets the rest
    WINDOWS = 6           # each loop's seconds are read in this many equal windows
    SWEEP = (50.0, 200.0, 400.0)
    FRESH_SHARE = 0.05    # requests whose content no replica has seen
    ZIPF_S = 1.1
    ARRIVALS_STREAM = 20160626
    TRACED_SHARE = 0.6    # of a traced run's seconds; the rate sweep gets the rest
    KNEE_P95_MS = 50.0    # a swept rate is sustainable below this p95 ...
    KNEE_DRAIN_S = 0.1    # ... if the backlog drains this soon after the last arrival

    def setup(self, seed: int) -> None:
        from repro.serve import Frontend

        s = self.size
        self.seed = seed
        cores = os.cpu_count() or 1
        self.clients = self.replicas = min(2, cores)
        self.tables: Dict[int, np.ndarray] = {}
        self.fresh = itertools.count(s["classes"])
        weights = np.array([1.0 / rank ** self.ZIPF_S for rank in range(1, s["classes"] + 1)])
        self.weights = weights / weights.sum()
        self.rng = _rng(seed, 7, 0)
        self.frontend = Frontend(replicas=self.replicas)
        self.frontend.serve_batch(
            [self.request(c, coalesce=False) for c in range(s["classes"])], merge=False)
        self.closed_rates: List[float] = []
        self.lags: List[float] = []
        self.replies: List[Tuple[float, bool]] = []  # (replica seconds, from a cache)
        self.sweeps: Dict[float, Tuple[float, float]] = {}

    def teardown(self) -> None:
        self.frontend.close()

    def peak_rss_kb(self) -> int:
        # Children are counted once reaped, so this is read after teardown.
        return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # -- requests ------------------------------------------------------- #
    def class_tables(self, cid: int) -> np.ndarray:
        if cid not in self.tables:
            s = self.size
            self.tables[cid] = _rng(self.seed, 7, 1, cid).uniform(
                0.1, 1.0, size=(s["length"] - 1, s["domain"], s["domain"]))
        return self.tables[cid]

    def request(self, cid: int, coalesce: bool = True) -> ServeRequest:
        """A new request object of class ``cid``."""
        s = self.size
        names = [f"v{i}" for i in range(s["length"])]
        factors = [
            Factor((left, right), {(a, b): v for a, row in enumerate(array)
                                   for b, v in enumerate(row)})
            for left, right, array in zip(names, names[1:], self.class_tables(cid).tolist())
        ]
        query = FAQQuery(
            [Variable(v, tuple(range(s["domain"]))) for v in names], [names[0]],
            {v: SemiringAggregate.sum() for v in names[1:]}, factors, SUM_PRODUCT,
            name=f"class-{cid}",
        )
        return ServeRequest(query, coalesce=coalesce)

    def draw(self) -> Tuple[int, ServeRequest]:
        if self.rng.random() < self.FRESH_SHARE:
            cid = next(self.fresh)
        else:
            cid = int(self.rng.choice(len(self.weights), p=self.weights))
        return cid, self.request(cid)

    def expected(self, cid: int) -> Dict[tuple, Any]:
        message = np.ones(self.size["domain"])
        for array in self.class_tables(cid)[::-1]:
            message = array @ message
        return reference.vector_table(message)

    # -- load generation ------------------------------------------------ #
    def measure(self, seconds: float, tracer: Optional[Tracer]) -> List[Record]:
        if tracer is None:
            records, _ = asyncio.run(
                self._open_loop(self.RATE, seconds * self.OPEN_SHARE, None))
            asyncio.run(self._closed_loop(seconds * (1 - self.OPEN_SHARE), records))
            return records
        records, _ = asyncio.run(
            self._open_loop(self.RATE, seconds * self.TRACED_SHARE, tracer))
        each = seconds * (1 - self.TRACED_SHARE) / len(self.SWEEP)
        for rate in self.SWEEP:
            swept, drain = asyncio.run(self._open_loop(rate, each, None))
            records.extend(Record(-1.0, r.answer, r.token) for r in swept)
            self.sweeps[rate] = (1e3 * percentile(self.latencies(swept), 0.95), drain)
        return records

    async def _open_loop(
        self, rate: float, seconds: float, tracer: Optional[Tracer]
    ) -> Tuple[List[Record], float]:
        """Poisson arrivals at ``rate``; latency runs from the scheduled send.

        Returns the records and how long after the window's end the last
        reply came.
        """
        # One fixed realisation of the arrival process, whatever the seed:
        # where the bursts fall decides the tail, and the tail should
        # compare from run to run.  What is asked for comes from the seed.
        arrivals = np.random.default_rng(self.ARRIVALS_STREAM)
        offsets, clock = [], float(arrivals.exponential(1.0 / rate))
        while clock < seconds:
            offsets.append(clock)
            clock += float(arrivals.exponential(1.0 / rate))
        drawn = [self.draw() for _ in offsets]
        records: List[Record] = []
        freeze_heap()
        base = time.perf_counter()

        async def one(number: int, offset: float, cid: int, request: ServeRequest) -> None:
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            use = tracer if number % self.untraced_every else None
            op_id = self.next_op_id()
            answer = await self._submit(request, use, op_id, due)
            records.append(Record(time.perf_counter() - due, answer, cid, use is not None,
                                  op_id, window=int(offset / seconds * self.WINDOWS)))

        await asyncio.gather(
            *(one(i, o, c, r) for i, (o, (c, r)) in enumerate(zip(offsets, drawn))))
        return records, max(0.0, time.perf_counter() - base - seconds)

    async def _closed_loop(self, seconds: float, records: List[Record]) -> None:
        """``clients`` callers, each sending its next request on reply, for
        ``WINDOWS`` windows one after the other."""
        freeze_heap()
        for _ in range(self.WINDOWS):
            start = time.perf_counter()
            deadline = start + seconds / self.WINDOWS
            before = len(records)

            async def client() -> None:
                while time.perf_counter() < deadline:
                    cid, request = self.draw()
                    answer = await self._submit(request, None, 0, 0.0)
                    records.append(Record(-1.0, answer, cid))  # counted, not a latency sample

            await asyncio.gather(*(client() for _ in range(self.clients)))
            self.closed_rates.append((len(records) - before) / (time.perf_counter() - start))

    async def _submit(self, request: ServeRequest, tracer: Optional[Tracer],
                      op_id: int, due: float) -> Any:
        from repro.serve import ServeError

        try:
            if tracer is None:
                result = await self.frontend.submit(request)
            else:
                result = await self._traced_submit(request, tracer, op_id, due)
        except ServeError:  # shed or lost: a failed op
            self.note_error()
            return None
        return result.factor.table

    async def _traced_submit(self, request: ServeRequest, tracer: Tracer,
                             op_id: int, due: float):
        # The wire encoding is not asked for by hand here: the tier does it
        # on a worker thread, and doing it on the event loop would hold up
        # every other request.  ``serve.encode_us`` is probed instead.
        root = tracer.add(ROOT, op_id, due, due, None)
        try:
            with tracer.span("serve.content_key", op_id, root):
                request.content_key
            with tracer.span("serve.submit", op_id, root) as submit:
                result = await self.frontend.submit(request)
        finally:
            tracer.close(root)
        tracer.fill(submit, [("serve.replica_exec", result.seconds, 0)])
        self.replies.append((result.seconds, result.coalesced))
        return result

    def latency_quantile(self, records: List[Record], fraction: float) -> float:
        windows: Dict[int, List[float]] = {}
        for record in records:
            if record.latency >= 0:
                windows.setdefault(record.window, []).append(record.latency)
        return statistics.median(percentile(w, fraction) for w in windows.values())

    def throughput(self, records: List[Record]) -> float:
        """Requests answered per second of wall clock in the closed loop."""
        return statistics.median(self.closed_rates)

    # -- per-layer ------------------------------------------------------ #
    def probes(self, metrics: Dict[str, float], guard: Guard, tracer: Tracer) -> None:
        stats = self.frontend.stats()
        if self.replies:
            metrics["serve.replica_exec_ms"] = 1e3 * median0([s for s, _ in self.replies])
            metrics["serve.result_cache_share"] = (
                sum(cached for _, cached in self.replies) / len(self.replies))
        metrics["serve.coalesced_share"] = stats["coalesced"] / stats["submitted"]
        metrics["serve.shed"] = (
            stats["shed_queue"] + stats["shed_tenant"] + stats["shed_deadline"])
        metrics["serve.retries"] = stats["retries"]
        metrics["serve.replica_crashes"] = stats["replica_crashes"]
        metrics["driver.sched_lag_p95_ms"] = 1e3 * percentile(self.lags, 0.95)
        guard("serve.wire", lambda: self._probe_wire(metrics))
        guard("serve.inproc_execute_ms", self._probe_inproc)
        knee = 0.0
        for rate, (p95_ms, drain) in sorted(self.sweeps.items()):
            metrics[f"serve.sweep_r{int(rate):03d}_p95_ms"] = p95_ms
            if p95_ms <= self.KNEE_P95_MS and drain <= self.KNEE_DRAIN_S:
                knee = rate
        metrics["serve.knee_rps"] = knee

    def _probe_wire(self, metrics: Dict[str, float]) -> None:
        import pickle

        from repro.serve.protocol import decode_query, encode_query

        encode, decode, size = [], [], []
        for cid in range(min(8, self.size["classes"])):
            query = self.request(cid).query
            start = time.perf_counter()
            wire_query, tables = encode_query(query)
            encode.append(time.perf_counter() - start)
            start = time.perf_counter()
            decode_query(wire_query, tables)
            decode.append(time.perf_counter() - start)
            size.append(len(pickle.dumps(wire_query)))
        metrics["serve.encode_us"] = 1e6 * median0(encode)
        metrics["serve.decode_us"] = 1e6 * median0(decode)
        metrics["serve.wire_bytes"] = median0(size)

    def _probe_inproc(self) -> float:
        """The same mix through an in-process engine: no replica, no wire."""
        with Engine() as engine:
            requests = [self.request(c) for c in range(min(16, self.size["classes"]))]
            for request in requests:
                engine.query(request)
            return 1e3 * median0(
                [_timed(lambda r=r: engine.query(r), repeat=1)[0] for r in requests])


WORKLOADS = {
    w.name: w
    for w in (DensePgm, SparseCount, SparseMax, PlanCold, BatchShared, IncrStream, ServeZipf)
}
