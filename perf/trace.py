"""In-memory span recorder for the traced benchmark run.

A span is ``(name, op_id, start, end, parent, rows)``, appended to a list;
nothing is written until :meth:`Tracer.write` dumps the list as JSON lines
when the run ends.  All spans of one op share its ``op_id``; ``parent`` is
the index of the enclosing span (``None`` for the op's root); ``rows`` is
the work count recorded at that boundary (result rows of a kernel step,
0 where there is none).  Spans are recorded from the benchmark's side of
each layer boundary: around calls to the program's public functions, or
synthesised from the timings the program already returns
(``EliminationRecord.seconds``, ``ServeResult.seconds``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, int, float, float, Optional[int], int]

ROOT = "op"      # root span of a measured op
PROBE = "probe"  # root span of an out-of-op probe run


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, op_id: int, start: float, end: float,
            parent: Optional[int], rows: int = 0) -> int:
        """Record a finished (or synthetic) span; returns its index."""
        self.spans.append((name, op_id, start, end, parent, rows))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op_id: int, parent: Optional[int]) -> Iterator[int]:
        """Time the enclosed block as one span; yields the span's index."""
        index = self.add(name, op_id, time.perf_counter(), 0.0, parent)
        try:
            yield index
        finally:
            self.close(index)

    def close(self, index: int) -> None:
        """End span ``index`` now."""
        name, op_id, start, _, parent, rows = self.spans[index]
        self.spans[index] = (name, op_id, start, time.perf_counter(), parent, rows)

    def rename(self, index: int, name: str) -> None:
        self.spans[index] = (name, *self.spans[index][1:])

    def fill(self, parent: int, parts: Sequence[Tuple[str, float, int]]) -> None:
        """Lay synthetic ``(name, seconds, rows)`` children end to end.

        They start where ``parent`` starts: the program reported how long
        each part took, not when it ran.
        """
        _, op_id, cursor, _, _, _ = self.spans[parent]
        for name, seconds, rows in parts:
            self.add(name, op_id, cursor, cursor + seconds, parent, rows)
            cursor += seconds

    # ------------------------------------------------------------------ #
    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is None:
                continue
            _, _, p_start, p_end, _, _ = self.spans[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
        return [
            max(0.0, (end - start) - covered[i])
            for i, (_, _, start, end, _, _) in enumerate(self.spans)
        ]

    def op_ids(self, root_name: str) -> List[int]:
        return [op_id for name, op_id, _, _, parent, _ in self.spans
                if parent is None and name == root_name]

    def per_op(self, values: Sequence[float]) -> Dict[str, Dict[int, float]]:
        """``name -> op_id -> sum of values[i]`` over the spans ``i`` of that name."""
        table: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for (name, op_id, *_), value in zip(self.spans, values):
            table[name][op_id] += value
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, op_id, start, end, parent, rows) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "op": op_id, "start": start,
                    "end": end, "parent": parent, "rows": rows,
                }) + "\n")
