"""Undirected multigraphs with loops, divisors on their vertices, and
(partial) edge orientations.

Vertices are opaque string identifiers with a fixed order.  Edges are
unordered endpoint pairs, stored as index pairs (u, v) with u <= v; the
position of a pair in the edge list is its stable index.  Parallel edges
and loops are allowed and distinguished by index.

A loop has two formal orientations.  Both have head = tail, so both
contribute exactly 1 to the indegree of their vertex, but they are counted
as distinct orientations: a graph with e edges always has 2^e orientations.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CapExceededError, GraphConstructionError

#: Largest edge count accepted by exhaustive enumerations (2^20 cases).
DEFAULT_MAX_EDGES = 20

_set = object.__setattr__


# A value class's constructor by its number of fields, so that it takes
# them as plain positional parameters: an __init__(self, *values) loop
# makes a construction about 80% slower.  object.__setattr__ per field
# keeps CPython's fast attribute reads, which a write through
# self.__dict__ would give up.
def _init1(self, a) -> None:
    (f,) = self._fields
    _set(self, f, a)
    self.__post_init__()


def _init2(self, a, b) -> None:
    f, g = self._fields
    _set(self, f, a)
    _set(self, g, b)
    self.__post_init__()


def _init3(self, a, b, c) -> None:
    f, g, h = self._fields
    _set(self, f, a)
    _set(self, g, b)
    _set(self, h, c)
    self.__post_init__()


def _init4(self, a, b, c, d) -> None:
    f, g, h, i = self._fields
    _set(self, f, a)
    _set(self, g, b)
    _set(self, h, c)
    _set(self, i, d)
    self.__post_init__()


class Value:
    """Base of the package's immutable value classes.

    A subclass declares its fields, one to four, as class annotations, in
    constructor order, and may check them in __post_init__.  It gets a
    positional constructor, equality (same class, equal fields), a hash of
    the fields computed on first use and then kept, a repr
    Name(field=value, ...), and no assignment or deletion of attributes.
    These are shared functions, picked by the field count: nothing is
    generated or compiled per class.  Instances keep a __dict__, so
    functools.cached_property works on them.
    """

    _fields: tuple[str, ...] = ()
    _hash = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__init__ = (_init1, _init2, _init3, _init4)[len(cls._fields) - 1]
        # the field values, as one tuple, or the value alone for one field
        cls._values = attrgetter(*cls._fields)

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through the constructor: a kept hash of strings is valid
        # only in the process that computed it
        return type(self), tuple(getattr(self, name) for name in self._fields)


def ensure_cap(n_edges: int, max_edges: int, operation: str) -> None:
    if n_edges > max_edges:
        raise CapExceededError(
            f"{operation}: {n_edges} edges exceed the enumeration cap {max_edges}"
        )


def check_edge_indices(edges: Iterable[int], n_edges: int) -> None:
    """Raise unless every index is one of n_edges edges."""
    if not all(0 <= i < n_edges for i in edges):
        raise GraphConstructionError("edge_set contains an unknown edge index")


class Multigraph(Value):
    """Immutable undirected multigraph, loops allowed.

    vertices: ordered unique identifiers.
    edges: ordered endpoint pairs as vertex indices, normalised u <= v.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphConstructionError("duplicate vertex identifier")
        n = len(self.vertices)
        for u, v in self.edges:
            if not (0 <= u <= v < n):
                raise GraphConstructionError(
                    f"edge ({u}, {v}) references an undeclared vertex"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, vertex_id: str) -> int:
        try:
            return self.vertices.index(vertex_id)
        except ValueError:
            raise GraphConstructionError(f"unknown vertex {vertex_id!r}") from None

    def is_loop(self, edge_index: int) -> bool:
        u, v = self.edges[edge_index]
        return u == v

    def degree(self, vertex: int) -> int:
        """Number of edge-endpoint incidences at the vertex; a loop counts 2."""
        return sum((u == vertex) + (v == vertex) for u, v in self.edges)

    def induced_edge_count(self, vertex_set: frozenset[int]) -> int:
        """Edges with both endpoints inside vertex_set (loops included)."""
        return sum(1 for u, v in self.edges if u in vertex_set and v in vertex_set)

    def connected_components(self) -> tuple[frozenset[int], ...]:
        """Vertex sets of connected components, each sorted by smallest member."""
        n = len(self.vertices)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, set[int]] = {}
        for x in range(n):
            groups.setdefault(find(x), set()).add(x)
        comps = [frozenset(g) for g in groups.values()]
        comps.sort(key=min)
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


class Subgraph(Value):
    """Generating subgraph: full vertex set of the parent, a subset of edges."""

    parent: Multigraph
    edge_set: frozenset[int]

    def __post_init__(self) -> None:
        check_edge_indices(self.edge_set, self.parent.n_edges)

    @cached_property
    def bitmask(self) -> int:
        return sum(1 << i for i in self.edge_set)

    @property
    def n_edges(self) -> int:
        return len(self.edge_set)

    @cached_property
    def _sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set))

    def edge_list(self) -> tuple[int, ...]:
        return self._sorted_edges

    def contains(self, other: "Subgraph") -> bool:
        return self.parent == other.parent and other.edge_set <= self.edge_set

    def as_multigraph(self) -> Multigraph:
        """Materialise the subgraph as a standalone multigraph.

        Edge indices are renumbered 0..k-1 following parent order.
        """
        edges = tuple(self.parent.edges[i] for i in self.edge_list())
        return Multigraph(self.parent.vertices, edges)


class Divisor(Value):
    """Integer-valued function on an ordered vertex set.

    Divisors attached to a graph and to any of its generating subgraphs share
    the same vertex tuple, so they can be added and compared freely.
    Negative values are permitted at this layer.
    """

    vertices: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.values):
            raise GraphConstructionError("divisor length does not match vertex list")

    @property
    def degree(self) -> int:
        return sum(self.values)

    def value(self, vertex_id: str) -> int:
        return self.values[self.vertices.index(vertex_id)]

    def total_on(self, vertex_set: Iterable[int]) -> int:
        return sum(self.values[i] for i in vertex_set)

    def pointwise_le(self, other: "Divisor") -> bool:
        self._check_compatible(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def _check_compatible(self, other: "Divisor") -> None:
        if self.vertices != other.vertices:
            raise GraphConstructionError("divisors on different vertex sets")

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check_compatible(other)
        return Divisor(self.vertices, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        self._check_compatible(other)
        return Divisor(self.vertices, tuple(a - b for a, b in zip(self.values, other.values)))

    @staticmethod
    def from_mapping(vertices: tuple[str, ...], values: Mapping[str, int]) -> "Divisor":
        unknown = set(values) - set(vertices)
        if unknown:
            raise GraphConstructionError(f"unknown vertices in divisor: {sorted(unknown)}")
        return Divisor(vertices, tuple(int(values.get(v, 0)) for v in vertices))

    def to_mapping(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.values))


class Orientation(Value):
    """A direction for every edge of a graph.

    flips[i] = False orients edge i from its stored pair (u, v) as u -> v,
    flips[i] = True as v -> u.  For a loop both choices give head = tail;
    they are still distinct formal orientations.
    """

    graph: Multigraph
    flips: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.flips) != self.graph.n_edges:
            raise GraphConstructionError("orientation does not cover every edge")

    def arc(self, edge_index: int) -> tuple[int, int]:
        """(tail, head) vertex indices of the directed edge."""
        u, v = self.graph.edges[edge_index]
        return (v, u) if self.flips[edge_index] else (u, v)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.graph.n_edges):
            yield self.arc(i)

    def reversed(self) -> "Orientation":
        return Orientation(self.graph, tuple(not f for f in self.flips))


class PartialOrientation(Value):
    """A direction for a designated subset of edges; the rest stay unoriented.

    directions maps edge index -> flip flag with the same convention as
    Orientation, stored as a sorted tuple of pairs.
    """

    graph: Multigraph
    directions: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        idx = [i for i, _ in self.directions]
        if idx != sorted(set(idx)):
            raise GraphConstructionError("duplicate or unsorted oriented edges")
        if not all(0 <= i < self.graph.n_edges for i in idx):
            raise GraphConstructionError("oriented edge index out of range")

    @staticmethod
    def from_mapping(graph: Multigraph, directions: Mapping[int, bool]) -> "PartialOrientation":
        return PartialOrientation(graph, tuple(sorted((i, bool(f)) for i, f in directions.items())))

    def arc(self, edge_index: int) -> tuple[int, int]:
        for i, f in self.directions:
            if i == edge_index:
                u, v = self.graph.edges[edge_index]
                return (v, u) if f else (u, v)
        raise GraphConstructionError(f"edge {edge_index} is not oriented")

    def arcs(self) -> Iterator[tuple[int, int]]:
        for i, f in self.directions:
            u, v = self.graph.edges[i]
            yield (v, u) if f else (u, v)


def build_graph(vertex_ids: Sequence[str], edge_pairs: Sequence[tuple[str, str]]) -> Multigraph:
    """Build a multigraph from identifier data.  Stable and idempotent:
    identical input yields an equal graph."""
    vertices = tuple(vertex_ids)
    if len(set(vertices)) != len(vertices):
        raise GraphConstructionError("duplicate vertex identifier")
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for a, b in edge_pairs:
        if a not in index:
            raise GraphConstructionError(f"unknown endpoint {a!r}")
        if b not in index:
            raise GraphConstructionError(f"unknown endpoint {b!r}")
        u, v = index[a], index[b]
        edges.append((min(u, v), max(u, v)))
    return Multigraph(vertices, tuple(edges))


def complete_graph(n: int) -> Multigraph:
    """K_n on v1..vn with edges (i, j), i < j, in lexicographic order."""
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Multigraph(tuple(f"v{i + 1}" for i in range(n)), pairs)


def indeg(o: Orientation | PartialOrientation) -> Divisor:
    """Indegree divisor of an orientation: value at v counts directed
    edges with head v.  Its degree is the number of oriented edges, all
    edges for a full orientation."""
    counts = [0] * o.graph.n_vertices
    for _, h in o.arcs():
        counts[h] += 1
    return Divisor(o.graph.vertices, tuple(counts))


indeg_partial = indeg  # a partial orientation's heads count the same way


def degree_divisor(g: Multigraph) -> Divisor:
    """Divisor of vertex degrees (a loop contributes 2 to its vertex)."""
    counts = [0] * g.n_vertices
    for u, v in g.edges:
        counts[u] += 1
        counts[v] += 1
    return Divisor(g.vertices, tuple(counts))


def generating_subgraphs(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[Subgraph]:
    """All 2^e generating subgraphs, ordered by edge-index bitmask."""
    ensure_cap(g.n_edges, max_edges, "generating_subgraphs")
    edges = range(g.n_edges)
    return [Subgraph(g, frozenset(i for i in edges if mask >> i & 1)) for mask in range(1 << g.n_edges)]


def all_orientations(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> Iterator[Orientation]:
    """All 2^e orientations in flip-bitmask order (loops count twice)."""
    ensure_cap(g.n_edges, max_edges, "all_orientations")
    e = g.n_edges
    for mask in range(1 << e):
        yield Orientation(g, tuple(bool(mask >> i & 1) for i in range(e)))


# ---------------------------------------------------------------------------
# serialisation

def graph_to_json_obj(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[g.vertices[u], g.vertices[v]] for u, v in g.edges],
    }


def graph_from_json_obj(obj: Mapping) -> Multigraph:
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphConstructionError(f"graph JSON must have 'vertices' and 'edges': {exc}")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphConstructionError("'vertices' must be a list of strings")
    if not isinstance(edges, (list, tuple)):
        raise GraphConstructionError("'edges' must be a list of pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise GraphConstructionError(f"edge entry {e!r} is not a pair")
        if not all(isinstance(x, str) for x in e):
            raise GraphConstructionError(f"edge entry {e!r} does not name two vertices")
        pairs.append((e[0], e[1]))
    return build_graph(vertices, pairs)


def graph_from_json(text: str) -> Multigraph:
    return graph_from_json_obj(json.loads(text))


def graph_to_json(g: Multigraph) -> str:
    return json.dumps(graph_to_json_obj(g))


def divisor_from_json_obj(g: Multigraph, obj: Mapping[str, int]) -> Divisor:
    if not isinstance(obj, Mapping):
        raise GraphConstructionError("divisor must be an object mapping vertices to integers")
    # bool is a subclass of int, but true/false are not divisor values
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in obj.values()):
        raise GraphConstructionError("divisor values must be integers")
    return Divisor.from_mapping(g.vertices, obj)


def to_dot(g: Multigraph, orientation: Optional[Orientation] = None, name: str = "G") -> str:
    """DOT text for the multigraph; with an orientation, arcs are directed."""
    lines = []
    if orientation is None:
        lines.append(f"graph {name} {{")
        for v in g.vertices:
            lines.append(f'  "{v}";')
        for u, v in g.edges:
            lines.append(f'  "{g.vertices[u]}" -- "{g.vertices[v]}";')
    else:
        if orientation.graph != g:
            raise GraphConstructionError("orientation belongs to a different graph")
        lines.append(f"digraph {name} {{")
        for v in g.vertices:
            lines.append(f'  "{v}";')
        for t, h in orientation.arcs():
            lines.append(f'  "{g.vertices[t]}" -> "{g.vertices[h]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
