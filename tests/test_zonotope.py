from itertools import permutations
from math import factorial

import pytest
from hypothesis import given

from spectral_strata import (
    StrataError,
    all_orientations,
    build_graph,
    graphical_zonotope,
    halfspace_description,
    indeg,
    is_interior,
    lattice_csv,
    lattice_points,
    multiplicity,
    permutohedron,
    tau,
    zonotope_vertices,
)
from spectral_strata.zonotope import permutohedron_graph

from helpers import divisor, graph_family, make_e2, make_k3, make_k4, make_loop, multigraphs


def _loopless_part_acyclic(o):
    """Depth-first search for a directed cycle among the non-loop arcs."""
    n = o.graph.n_vertices
    adj = [[] for _ in range(n)]
    for t, h in o.arcs():
        if t != h:
            adj[t].append(h)
    colour = [0] * n

    def dfs(x):
        colour[x] = 1
        for y in adj[x]:
            if colour[y] == 1 or colour[y] == 0 and not dfs(y):
                return False
        colour[x] = 2
        return True

    return all(dfs(x) for x in range(n) if colour[x] == 0)


def sweep_vertices(g):
    """Vertex oracle that shares no code with the b-polynomial: the
    indegree vectors of all 2^e orientations whose non-loop part is
    acyclic, in lex order."""
    return sorted({indeg(o).values for o in all_orientations(g) if _loopless_part_acyclic(o)})


def box_points(g):
    """Lattice point oracle that shares no code with the b-polynomial or
    the inequality helpers of indegree: the integer points of the box
    0 <= D(v) <= #edges at v on the hyperplane |D| = e, in lex order, kept
    when D(S) >= #edges inside S for every vertex subset S (Hakimi)."""
    n, e = g.n_vertices, g.n_edges
    at = [sum(x in edge for edge in g.edges) for x in range(n)]
    inside = [sum(mask >> u & mask >> v & 1 for u, v in g.edges) for mask in range(1 << n)]
    points = []

    def extend(prefix, remaining):
        i = len(prefix)
        if i == n:
            sums = [sum(x for j, x in enumerate(prefix) if mask >> j & 1) for mask in range(1 << n)]
            if remaining == 0 and all(map(int.__ge__, sums, inside)):
                points.append(tuple(prefix))
            return
        for x in range(max(0, remaining - sum(at[i + 1:])), min(at[i], remaining) + 1):
            extend(prefix + [x], remaining - x)

    extend([], e)
    return points


class TestLatticePoints:
    def test_triangle_seven_points(self):
        g = make_k3()
        pts = {d.values for d in lattice_points(g)}
        assert pts == set(permutations((0, 1, 2))) | {(1, 1, 1)}

    def test_segment(self):
        g = make_e2()
        assert {d.values for d in lattice_points(g)} == {(0, 1), (1, 0)}

    def test_k4_count(self):
        assert len(lattice_points(make_k4())) == 38

    @given(multigraphs(max_edges=5))
    def test_matches_indegree_enumeration(self, g):
        from spectral_strata import enumerate_indegree

        assert lattice_points(g) == enumerate_indegree(g)

    def test_matches_box_oracle_on_family(self):
        family = list(graph_family())
        assert len(family) == 9023
        for g in family:
            assert [d.values for d in lattice_points(g)] == box_points(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_permutohedra_match_box_oracle(self, n):
        g = permutohedron_graph(n)
        assert [d.values for d in lattice_points(g)] == box_points(g)

    @given(multigraphs(max_vertices=6, max_edges=8))
    def test_matches_box_oracle(self, g):
        assert [d.values for d in lattice_points(g)] == box_points(g)

    def test_wide_exponents_match_box_oracle(self):
        # 300 parallel edges a-b and a loop at b: exponent 301 needs two bytes
        g = build_graph(["a", "b"], [("a", "b")] * 300 + [("b", "b")])
        points = [d.values for d in lattice_points(g, max_edges=301)]
        assert points == box_points(g)
        assert len(points) == 301

    def test_past_the_inequality_cap(self):
        # 26 vertices, past the 24 of the subset-inequality test: 12 disjoint
        # edges and 2 isolated vertices, whose zonotope is a 12-cube
        names = [f"v{i + 1}" for i in range(26)]
        g = build_graph(names, [(names[2 * i], names[2 * i + 1]) for i in range(12)])
        points = lattice_points(g)
        assert points == zonotope_vertices(g)
        assert len(points) == 4096


class TestZonotopeVertices:
    def test_triangle_six_permutations(self):
        g = make_k3()
        assert {d.values for d in zonotope_vertices(g)} == set(permutations((0, 1, 2)))

    def test_loop_graph_single_point(self):
        g = make_loop()
        assert [d.values for d in zonotope_vertices(g)] == [(1,)]

    def test_k4_has_24_vertices(self):
        # Derived by brute force: indegree divisors of acyclic orientations.
        assert len(zonotope_vertices(make_k4())) == 24

    def test_loop_plus_edge_segment(self):
        g = build_graph(["a", "b"], [("a", "a"), ("a", "b")])
        assert {d.values for d in zonotope_vertices(g)} == {(2, 0), (1, 1)}

    @given(multigraphs(max_vertices=6, max_edges=7))
    def test_matches_orientation_sweep(self, g):
        assert [d.values for d in zonotope_vertices(g)] == sweep_vertices(g)

    def test_matches_orientation_sweep_on_small_family(self):
        # every multigraph on at most 3 vertices with at most 5 edges: loops,
        # parallel edges, isolated vertices and several components all occur
        family = list(graph_family(max_vertices=3, max_edges=5))
        assert any(not g.is_connected() for g in family)
        for g in family:
            assert [d.values for d in zonotope_vertices(g)] == sweep_vertices(g)

    def test_matches_orientation_sweep_on_mixed_graph(self):
        # K3 beside a doubled edge, a looped vertex and an isolated one
        g = build_graph(
            ["a", "b", "c", "d", "e", "f", "g"],
            [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "e"), ("f", "f"), ("a", "a")],
        )
        verts = [d.values for d in zonotope_vertices(g)]
        assert verts == sweep_vertices(g)
        assert len(verts) == 6 * 2

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "a"), ("b", "b")],
            [("a", "a"), ("a", "a"), ("b", "b"), ("a", "b")],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "a"), ("c", "c"), ("c", "c"), ("a", "b"), ("a", "b"), ("b", "c")],
        ],
    )
    def test_loops_at_several_vertices_match_orientation_sweep(self, edges):
        # every coefficient carries the factor 2 of each loop
        g = build_graph(["a", "b", "c"], edges)
        verts = [d.values for d in zonotope_vertices(g)]
        assert verts and verts == sweep_vertices(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_graph_has_n_factorial_vertices(self, n):
        g = permutohedron_graph(n)
        verts = zonotope_vertices(g)
        assert len(verts) == len(set(verts)) == factorial(n)
        if n <= 5:
            assert [d.values for d in verts] == sweep_vertices(g)

    def test_edge_cap_message(self):
        with pytest.raises(StrataError, match="^zonotope_vertices: 6 edges exceed the enumeration cap 5$"):
            zonotope_vertices(make_k4(), max_edges=5)

    @given(multigraphs(max_edges=5))
    def test_vertices_have_minimal_multiplicity(self, g):
        loops = sum(1 for u, v in g.edges if u == v)
        expected = {
            d.values
            for d in lattice_points(g)
            if multiplicity(g, d) == 2 ** loops
        }
        assert {d.values for d in zonotope_vertices(g)} == expected


class TestIsInterior:
    def test_triangle_center(self):
        g = make_k3()
        assert is_interior(g, divisor(g, 1, 1, 1))

    def test_triangle_vertex_not_interior(self):
        g = make_k3()
        assert not is_interior(g, divisor(g, 0, 1, 2))

    def test_single_point_zonotope_counts_as_interior(self):
        g = build_graph(["v"], [])
        assert is_interior(g, divisor(g, 0))

    def test_non_lattice_point(self):
        g = make_k3()
        assert not is_interior(g, divisor(g, 3, 0, 0))

    @given(multigraphs(max_edges=5))
    def test_interior_matches_per_component_strict_inequalities(self, g):
        from spectral_strata import cr_condition_checks

        for d in lattice_points(g):
            checks = cr_condition_checks(g, d)
            assert is_interior(g, d) == checks["interior_point"]
            assert checks["interior_point"] == checks["totally_cyclic_witness"]


class TestPermutohedron:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 2), (3, 7), (4, 38), (5, 291)]
    )
    def test_lattice_counts(self, n, count):
        assert len(permutohedron(n).lattice_points) == count

    def test_vertex_counts_are_factorials(self):
        import math

        for n in range(1, 6):
            assert len(permutohedron(n).vertex_points) == math.factorial(n)

    def test_p3_shape(self):
        z = permutohedron(3)
        assert z.dimension_ambient == 3
        assert len(z.lattice_points) == 7 and len(z.vertex_points) == 6

    @pytest.mark.parametrize("n", [0, 7, -1])
    def test_out_of_range(self, n):
        with pytest.raises(StrataError):
            permutohedron(n)


class TestCentralSymmetry:
    @given(multigraphs(max_edges=5))
    def test_tau_preserves_lattice_and_vertices(self, g):
        pts = {d.values for d in lattice_points(g)}
        verts = {d.values for d in zonotope_vertices(g)}
        assert {tau(g, d).values for d in lattice_points(g)} == pts
        assert {tau(g, d).values for d in zonotope_vertices(g)} == verts


class TestHalfspaces:
    def test_all_points_satisfy_and_interior_is_strict(self):
        g = make_k3()
        self._check(g)

    @given(multigraphs(max_edges=5))
    def test_interior_means_off_every_face(self, g):
        # interior lattice points are exactly those on no face inequality
        self._check(g)

    @staticmethod
    def _check(g):
        desc = halfspace_description(g)
        for d in lattice_points(g):
            interior = is_interior(g, d)
            for plane in desc["hyperplanes"]:
                total = sum(d.value(v) for v in plane["vertices"])
                assert total == plane["sum"]
            on_face = False
            for ineq in desc["inequalities"]:
                total = sum(d.value(v) for v in ineq["vertices"])
                assert total >= ineq["min_sum"]
                if total == ineq["min_sum"]:
                    on_face = True
            assert interior == (not on_face)


class TestCsvExport:
    def test_e2_golden(self):
        got = lattice_csv(make_e2())
        assert got == (
            "v1,v2,multiplicity,is_vertex,is_interior\n"
            "0,1,1,true,false\n"
            "1,0,1,true,false\n"
        )

    def test_loop_golden(self):
        assert lattice_csv(make_loop()) == (
            "v,multiplicity,is_vertex,is_interior\n" "1,2,true,true\n"
        )


class TestZonotopeObject:
    def test_points_on_hyperplane(self):
        z = graphical_zonotope(make_k4())
        assert all(d.degree == 6 for d in z.lattice_points)
        assert set(z.vertex_points) <= set(z.lattice_points)


class TestLatticeCsv:
    @given(multigraphs(max_vertices=5, max_edges=6))
    def test_interior_column_matches_is_interior(self, g):
        rows = lattice_csv(g).splitlines()[1:]
        points = lattice_points(g)
        assert len(rows) == len(points)
        for row, d in zip(rows, points):
            cells = row.split(",")
            assert tuple(int(x) for x in cells[: g.n_vertices]) == d.values
            assert cells[-1] == str(is_interior(g, d)).lower()

    @given(multigraphs(max_vertices=5, max_edges=6))
    def test_multiplicity_and_vertex_columns_match_library(self, g):
        verts = {d.values for d in zonotope_vertices(g)}
        rows = lattice_csv(g).splitlines()[1:]
        for row, d in zip(rows, lattice_points(g)):
            cells = row.split(",")
            assert cells[-3:-1] == [str(multiplicity(g, d)), str(d.values in verts).lower()]


class TestCsvDegreeRule:
    @staticmethod
    def path(n):
        vertices = [f"v{i + 1}" for i in range(n)]
        return build_graph(vertices, list(zip(vertices, vertices[1:])))

    def test_leaf_needs_no_tables(self, monkeypatch):
        from spectral_strata import indegree, zonotope
        from spectral_strata.indegree import _component_tables, _interior_flags, _key_bits, _key_codec

        short = self.path(10)
        encode, _ = _key_codec(short.n_vertices, _key_bits(short.n_edges))
        keys = [encode(d.values) for d in lattice_points(short)]
        flags = _interior_flags(keys, short.n_vertices, _key_bits(short.n_edges), _component_tables(short.n_vertices, short.edges))

        def no_tables(n, edges):
            raise AssertionError("component tables built for a graph with a leaf")

        monkeypatch.setattr(indegree, "_component_tables", no_tables)
        monkeypatch.setattr(zonotope, "_component_tables", no_tables)
        rows = lattice_csv(self.path(16)).splitlines()[1:]
        assert len(rows) == 2 ** 15
        assert {row.rsplit(",", 1)[1] for row in rows} == {str(f).lower() for f in flags} == {"false"}
