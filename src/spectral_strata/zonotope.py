"""Graphical zonotopes as lattice objects.

The zonotope of a multigraph is the Minkowski sum of its edges viewed as
segments in the space spanned by the vertices; its lattice points are
exactly the indegree divisors, its vertices are the indegree divisors of
orientations whose non-loop part is acyclic, and its interior points are
the completely reducible divisors.  Everything here is decided
combinatorially; no convex-hull machinery is involved.

All of it is read off one term map, the graph's b-polynomial
(indegree._bpoly_terms): the lattice points are its exponents, the
vertices are its exponents whose coefficient is 2^(number of loops), the
least a coefficient can be (zonotope_vertices gives the proof), and
lattice_csv takes each point's multiplicity and vertex flag from the same
map.  No orientation is enumerated.
"""

from __future__ import annotations

from typing import Sequence

from .errors import StrataError
from .graphs import (
    DEFAULT_MAX_EDGES,
    Divisor,
    Multigraph,
    Value,
    complete_graph,
    ensure_cap,
)
from .indegree import (
    DivisorTag,
    _bpoly_terms,
    _closure,
    _component_tables,
    _decoder,
    _interior_flags,
    _key_bits,
    _key_codec,
    classify,
    enumerate_indegree,
)


class GraphicalZonotope(Value):
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
    """Lattice points of the zonotope in lex order: the indegree divisors,
    which are the exponents of the b-polynomial."""
    ensure_cap(g.n_edges, max_edges, "lattice_points")
    return enumerate_indegree(g, max_edges)


def zonotope_vertices(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[Divisor]:
    """Vertices of the zonotope: indegree divisors of orientations with no
    directed cycles apart from loops (acyclic orientations when the graph
    is loopless), in lex order.

    They are the exponents of the b-polynomial whose coefficient is 2^L,
    with L the number of loops.  A loop at u is the factor 2 x_u, so each
    coefficient is 2^L times the number of orientations of the loopless
    part with the indegrees less the loops.  Reversing a directed cycle
    keeps the indegrees, so an orientation with a cycle shares its indegree
    vector with another orientation.  Conversely, if two orientations have
    the same indegrees, the edges on which they differ have as many heads
    as tails at every vertex in either of them, so they hold a directed
    cycle: an acyclic orientation is the only one with its indegree vector.
    So the coefficient is 2^L at the vertices and a larger multiple of 2^L
    at every other exponent.
    """
    decode = _decoder(g)
    return [Divisor(g.vertices, decode(key)) for key in _vertex_keys(g, max_edges)]


def _vertex_keys(g: Multigraph, max_edges: int) -> list[int]:
    """The exponent keys of zonotope_vertices, sorted: those of least
    coefficient, 2^L, in g's b-polynomial."""
    ensure_cap(g.n_edges, max_edges, "zonotope_vertices")
    least = 1 << sum(u == v for u, v in g.edges)
    return sorted(key for key, coeff in _bpoly_terms(g).items() if coeff == least)


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


def _has_bridge(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    """Whether an edge of the graph on n vertices with these edges is a
    bridge: a link, with no parallel twin, whose removal separates its
    ends.  A loop is no bridge."""
    for i, (u, v) in enumerate(edges):
        if u != v and edges.count((u, v)) == 1:
            adj = [0] * n
            for x, y in edges[:i] + edges[i + 1:]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
            if not _closure(adj, 1 << u) >> v & 1:
                return True
    return False


def lattice_csv(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> str:
    """CSV table of lattice points: one coordinate column per vertex, then
    multiplicity, is_vertex, is_interior.  The first two are read off the
    point's b-polynomial coefficient, the last off _interior_flags, or is
    false on every row, with no tables, when the graph has a bridge.  Let
    the bridge split its component into A and B.  Then
    D(A) + D(B) = e(A) + e(B) + 1, so D(A) > e(A) and D(B) > e(B) cannot
    both hold.  The edge at a vertex of degree one is such a bridge."""
    points = lattice_points(g, max_edges)
    terms = _bpoly_terms(g)
    least = 1 << sum(u == v for u, v in g.edges)  # a vertex's coefficient
    bits = _key_bits(g.n_edges)
    encode, _ = _key_codec(g.n_vertices, bits)
    keys = [encode(d.values) for d in points]
    if _has_bridge(g.n_vertices, g.edges):
        interior = [False] * len(keys)
    else:
        interior = _interior_flags(keys, g.n_vertices, bits, _component_tables(g.n_vertices, g.edges))
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(g.vertices) + ["multiplicity", "is_vertex", "is_interior"])
    for d, key, flag in zip(points, keys, interior):
        coeff = terms[key]
        writer.writerow(list(d.values) + [coeff, str(coeff == least).lower(), str(flag).lower()])
    return buf.getvalue()
