from itertools import permutations

import pytest
from hypothesis import given

from spectral_strata import (
    StrataError,
    build_graph,
    graphical_zonotope,
    halfspace_description,
    is_interior,
    lattice_csv,
    lattice_points,
    multiplicity,
    permutohedron,
    tau,
    zonotope_vertices,
)

from helpers import divisor, make_e2, make_k3, make_k4, make_loop, multigraphs


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
