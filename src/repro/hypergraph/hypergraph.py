"""The :class:`Hypergraph` class (multi-hypergraphs over named vertices)."""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Set, Tuple

import networkx as nx


class HypergraphError(ValueError):
    """Raised on malformed hypergraph operations."""


class Numbering(NamedTuple):
    """A hypergraph's vertices as bits: vertex ``order[i]`` is bit ``1 << i``.

    ``order`` is repr order, so a mask's members in bit order are in repr
    order too.  ``edges[j]`` is the mask of edge ``j``; ``neighbours[i]``
    the mask of vertex ``order[i]``'s Gaifman neighbours (itself excluded).
    """

    order: Tuple
    bit: Dict
    edges: Tuple[int, ...]
    neighbours: Tuple[int, ...]

    def mask(self, vertices: Iterable) -> int:
        """The mask of ``vertices`` (those outside the hypergraph ignored)."""
        bit = self.bit
        mask = 0
        for v in vertices:
            mask |= bit.get(v, 0)
        return mask

    def members(self, mask: int) -> FrozenSet:
        """The vertices of ``mask``."""
        order = self.order
        return frozenset(order[i] for i in bit_indices(mask))


def bit_indices(mask: int) -> List[int]:
    """The indices of ``mask``'s set bits, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


class Hypergraph:
    """A multi-hypergraph ``H = (V, E)`` over hashable vertex names.

    Edges are stored as a tuple of frozensets so that repeated hyperedges
    (multi-edges, which arise naturally from repeated factors) are preserved.
    Isolated vertices (vertices in ``V`` that belong to no edge) are allowed
    and tracked explicitly.  A hypergraph is immutable: ``vertices`` and
    ``edges`` hand out the stored frozenset and tuple themselves.

    The first caller of :meth:`numbering` fixes a bit per vertex, in repr
    order, with one int mask per edge and per vertex's Gaifman neighbourhood:
    the cover LPs and the ordering search work on those ints.
    """

    __slots__ = ("_vertices", "_edges", "_numbering", "__weakref__")

    def __init__(
        self,
        vertices: Iterable | None = None,
        edges: Iterable[Iterable] | None = None,
    ) -> None:
        self._edges: Tuple[FrozenSet, ...] = tuple(frozenset(e) for e in (edges or ()))
        vertex_set: Set = set(vertices) if vertices is not None else set()
        for edge in self._edges:
            vertex_set |= edge
        self._vertices: FrozenSet = frozenset(vertex_set)
        self._numbering: Numbering | None = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> FrozenSet:
        """The vertex set ``V``."""
        return self._vertices

    @property
    def edges(self) -> Tuple[FrozenSet, ...]:
        """The hyperedge multiset ``E`` (order preserved, duplicates kept)."""
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, vertex) -> bool:
        return vertex in self._vertices

    def __iter__(self) -> Iterator:
        return iter(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypergraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and sorted(
            map(sorted, map(list, self._edges))
        ) == sorted(map(sorted, map(list, other._edges)))

    def __hash__(self):  # pragma: no cover - rarely used
        return hash((self._vertices, frozenset(self._edges)))

    # ------------------------------------------------------------------ #
    # mutation-free derived hypergraphs
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex) -> "Hypergraph":
        """Return a copy with ``vertex`` added (as an isolated vertex)."""
        return Hypergraph(self._vertices | {vertex}, self._edges)

    def add_edge(self, edge: Iterable) -> "Hypergraph":
        """Return a copy with ``edge`` appended."""
        return Hypergraph(self._vertices, list(self._edges) + [frozenset(edge)])

    def incident_edges(self, vertex) -> List[FrozenSet]:
        """``∂(v)``: the edges containing ``vertex``."""
        return [e for e in self._edges if vertex in e]

    def neighborhood(self, vertex) -> FrozenSet:
        """``U(v) = ∪ ∂(v)``: the union of edges incident to ``vertex``."""
        result: Set = set()
        for edge in self._edges:
            if vertex in edge:
                result |= edge
        return frozenset(result)

    def induced(self, keep: Iterable) -> "Hypergraph":
        """The sub-hypergraph induced by the vertex set ``keep``.

        Each edge is intersected with ``keep``; empty intersections are
        dropped.  (This is ``H[L]`` in the notation of Section 7.)
        """
        keep_set = set(keep)
        edges = [e & keep_set for e in self._edges]
        edges = [e for e in edges if e]
        return Hypergraph(keep_set & self._vertices, edges)

    def remove_vertices(self, remove: Iterable) -> "Hypergraph":
        """The hypergraph ``H - L``: delete vertices and shrink edges."""
        remove_set = set(remove)
        return self.induced(self._vertices - remove_set)

    def restrict_edges(self, predicate) -> "Hypergraph":
        """Keep only edges satisfying ``predicate`` (vertices unchanged)."""
        return Hypergraph(self._vertices, [e for e in self._edges if predicate(e)])

    def deduplicated(self) -> "Hypergraph":
        """Drop duplicate edges and edges contained in other edges."""
        unique = set(self._edges)
        maximal = [
            e for e in unique if not any(e < other for other in unique)
        ]
        return Hypergraph(self._vertices, maximal)

    # ------------------------------------------------------------------ #
    # graph views
    # ------------------------------------------------------------------ #
    def numbering(self) -> "Numbering":
        """The vertices' bits and the edge and neighbourhood masks (cached)."""
        if self._numbering is None:
            order = tuple(sorted(self._vertices, key=repr))
            bit = {v: 1 << i for i, v in enumerate(order)}
            edge_masks = []
            neighbours = dict.fromkeys(bit, 0)
            for edge in self._edges:
                mask = 0
                for v in edge:
                    mask |= bit[v]
                edge_masks.append(mask)
                for v in edge:
                    neighbours[v] |= mask
            self._numbering = Numbering(
                order,
                bit,
                tuple(edge_masks),
                tuple(neighbours[v] & ~bit[v] for v in order),
            )
        return self._numbering

    def gaifman_graph(self) -> nx.Graph:
        """The Gaifman (primal) graph: vertices adjacent iff co-occurring.

        A fresh graph on every call, for the elimination heuristics that
        mutate one; the cover LPs and the ordering search read
        :meth:`numbering`'s neighbourhood masks instead.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self._vertices)
        for edge in self._edges:
            graph.add_edges_from(itertools.combinations(edge, 2))
        return graph

    def connected_components(self) -> List[FrozenSet]:
        """Connected components of the Gaifman graph (isolated vertices are
        singleton components).  Deterministic order: sorted by repr of the
        smallest member."""
        incident: Dict = {}
        for edge in self._edges:
            for vertex in edge:
                incident.setdefault(vertex, []).append(edge)
        remaining = set(self._vertices)
        components = []
        while remaining:
            start = remaining.pop()
            component = {start}
            stack = [start]
            while stack:
                for edge in incident.get(stack.pop(), ()):
                    new = edge - component
                    if new:
                        component |= new
                        stack.extend(new)
            remaining -= component
            components.append(frozenset(component))
        return sorted(components, key=lambda c: min(repr(v) for v in c))

    def is_connected(self) -> bool:
        """``True`` if the Gaifman graph is connected (or has ≤ 1 vertex)."""
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scopes(cls, scopes: Iterable[Iterable]) -> "Hypergraph":
        """Build a hypergraph whose edges are the given factor scopes."""
        return cls(edges=scopes)

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "Hypergraph":
        """Build the 2-uniform hypergraph of an (undirected) graph."""
        return cls(graph.nodes, [frozenset(e) for e in graph.edges])

    def edge_vertex_incidence(self) -> Dict[FrozenSet, List[int]]:
        """Map each distinct edge to the list of its positions in ``edges``."""
        positions: Dict[FrozenSet, List[int]] = {}
        for i, edge in enumerate(self._edges):
            positions.setdefault(edge, []).append(i)
        return positions
