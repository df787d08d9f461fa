"""Graphical zonotopes as lattice objects.

The zonotope of a multigraph is the Minkowski sum of its edges viewed as
segments in the space spanned by the vertices; its lattice points are
exactly the indegree divisors, its vertices are the indegree divisors of
orientations whose non-loop part is acyclic, and its interior points are
the completely reducible divisors.  Everything here is decided
combinatorially; no convex-hull machinery is involved.

An acyclic orientation is the only orientation with its indegree vector,
and an orientation with a directed cycle shares its vector with the one
that reverses the cycle.  So the vertices are read off the b-polynomial of
the loopless part, as its exponents with coefficient 1, shifted by the
loops at each vertex; no orientation is enumerated
(zonotope_vertices gives the proof).
"""

from __future__ import annotations

import io
import csv as _csv
from dataclasses import dataclass

from .errors import StrataError
from .graphs import (
    DEFAULT_MAX_EDGES,
    Divisor,
    Multigraph,
    complete_graph,
    ensure_cap,
)
from .indegree import (
    DivisorTag,
    _bpoly_terms,
    _component_tables,
    _inequalities_hold,
    _inequality_tables,
    _interior_flags,
    _key_bits,
    _key_codec,
    classify,
    enumerate_indegree,
    multiplicity,
)


@dataclass(frozen=True)
class GraphicalZonotope:
    """Lattice data of a graphical zonotope.

    lattice_points are all indegree divisors (lex order); vertex_points are
    the subset of polytope vertices.  All points lie on the hyperplane
    where the coordinates sum to the edge count.
    """

    graph: Multigraph
    lattice_points: tuple[Divisor, ...]
    vertex_points: tuple[Divisor, ...]

    @property
    def dimension_ambient(self) -> int:
        return self.graph.n_vertices


def lattice_points(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[Divisor]:
    """Lattice points of the zonotope, enumerated independently of the
    orientation sweep: integer points of the bounding box on the
    edge-count hyperplane, filtered by the subset inequalities, and then
    cross-checked against the indegree enumeration."""
    ensure_cap(g.n_edges, max_edges, "lattice_points")
    n, e = g.n_vertices, g.n_edges
    degs = [g.degree(i) for i in range(n)]
    points: list[Divisor] = []

    def extend(prefix: list[int], remaining: int) -> None:
        i = len(prefix)
        if i == n:
            if remaining == 0 and _inequalities_hold(prefix, tables):
                points.append(Divisor(g.vertices, tuple(prefix)))
            return
        tail_capacity = sum(degs[i + 1:])
        lo = max(0, remaining - tail_capacity)
        hi = min(degs[i], remaining)
        for x in range(lo, hi + 1):
            extend(prefix + [x], remaining - x)

    if n == 0:
        return [] if e else [Divisor((), ())]
    tables = _inequality_tables(g)
    extend([], e)
    expected = enumerate_indegree(g, max_edges)
    if points != expected:
        raise AssertionError("zonotope lattice points disagree with indegree enumeration")
    return points


def zonotope_vertices(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[Divisor]:
    """Vertices of the zonotope: indegree divisors of orientations with no
    directed cycles apart from loops (acyclic orientations when the graph
    is loopless), in lex order.

    They are the exponents with coefficient 1 in the b-polynomial of the
    loopless part, shifted by the loop count at each vertex.  Reversing a
    directed cycle keeps the indegrees, so an orientation with a cycle
    shares its indegree vector with another orientation.  Conversely, if
    two orientations have the same indegrees, the edges on which they
    differ have as many heads as tails at every vertex in either of them,
    so they hold a directed cycle: an acyclic orientation is the only one
    with its indegree vector.  A loop adds 1 to its vertex in both of its
    orientations, so loops only double every coefficient and shift every
    exponent.
    """
    ensure_cap(g.n_edges, max_edges, "zonotope_vertices")
    loops = [0] * g.n_vertices
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
    loopless = Multigraph(g.vertices, tuple((u, v) for u, v in g.edges if u != v))
    terms = _bpoly_terms(loopless)
    _, decode = _key_codec(g.n_vertices, _key_bits(loopless.n_edges))
    # adding the same vector to every exponent keeps their lex order
    return [
        Divisor(g.vertices, tuple(x + k for x, k in zip(decode(key), loops)))
        for key in sorted(terms)
        if terms[key] == 1
    ]


def is_interior(g: Multigraph, d: Divisor) -> bool:
    """Interior (relative to the affine hull) lattice point test: true iff
    the divisor is completely reducible.  A one-point zonotope counts as
    interior."""
    return classify(g, d).tag is DivisorTag.COMPLETELY_REDUCIBLE


def permutohedron_graph(n: int) -> Multigraph:
    """K_n, whose zonotope is the permutohedron (1 <= n <= 6)."""
    if not 1 <= n <= 6:
        raise StrataError(f"permutohedron size {n} out of range 1..6")
    return complete_graph(n)


def permutohedron(n: int) -> GraphicalZonotope:
    """Zonotope of the complete graph on n vertices (1 <= n <= 6)."""
    return graphical_zonotope(permutohedron_graph(n))


def graphical_zonotope(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> GraphicalZonotope:
    return GraphicalZonotope(
        g,
        tuple(lattice_points(g, max_edges)),
        tuple(zonotope_vertices(g, max_edges)),
    )


def halfspace_description(g: Multigraph) -> dict:
    """Redundancy-unreduced half-space data for documentation: one
    hyperplane per connected component (coordinates on the component sum
    to its edge count) and one inequality per nonempty proper subset of a
    component (sum over the subset >= edges inside it)."""
    hyperplanes = []
    facets = []
    for comp in g.connected_components():
        comp_list = sorted(comp)
        hyperplanes.append(
            {
                "vertices": [g.vertices[i] for i in comp_list],
                "sum": g.induced_edge_count(comp),
            }
        )
        k = len(comp_list)
        for mask in range(1, (1 << k) - 1):
            subset = frozenset(comp_list[i] for i in range(k) if mask >> i & 1)
            facets.append(
                {
                    "vertices": [g.vertices[i] for i in sorted(subset)],
                    "min_sum": g.induced_edge_count(subset),
                }
            )
    return {"hyperplanes": hyperplanes, "inequalities": facets}


def lattice_csv(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> str:
    """CSV table of lattice points: one coordinate column per vertex, then
    multiplicity, is_vertex, is_interior."""
    points = lattice_points(g, max_edges)
    verts = set(d.values for d in zonotope_vertices(g, max_edges))
    bits = _key_bits(g.n_edges)
    encode, _ = _key_codec(g.n_vertices, bits)
    keys = [encode(d.values) for d in points]
    interior = _interior_flags(keys, g.n_vertices, bits, _component_tables(g))
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(list(g.vertices) + ["multiplicity", "is_vertex", "is_interior"])
    for d, flag in zip(points, interior):
        writer.writerow(
            list(d.values)
            + [multiplicity(g, d), str(d.values in verts).lower(), str(flag).lower()]
        )
    return buf.getvalue()
