import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given

from spectral_strata import (
    CapExceededError,
    CurveShape,
    Divisor,
    DivisorTag,
    Multigraph,
    StrataError,
    StratumLabel,
    Subgraph,
    adjacency_multiplicity,
    build_graph,
    classify,
    cr_strata,
    enumerate_indegree,
    enumerate_strata,
    generating_subgraphs,
    hasse_diagram,
    hasse_to_dot,
    irreducible_components,
    is_indegree,
    local_model,
    multiplicity,
    path_count_multiplicity,
    relative_multiplicity,
    strata_csv,
    stratum_dimension,
    stratum_report_json_obj,
    stratum_rows,
)

from spectral_strata.graphs import complete_graph
from spectral_strata.indegree import (
    _component_tables,
    _interior_by_inequalities,
    _interior_flags,
    _key_bits,
    _key_codec,
    _totally_cyclic,
)
from spectral_strata.strata import _table_rows, _walk

from helpers import divisor, make_e2, make_k3, make_k4, make_loop, multigraphs, pair_types


def shape_lines(n):
    vertices = [f"v{i + 1}" for i in range(n)]
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    return CurveShape(build_graph(vertices, pairs), 1, n)


def label(shape, edges, values):
    g = shape.dual_graph
    return StratumLabel(Subgraph(g, frozenset(edges)), Divisor(g.vertices, values))


class TestEnumerateStrata:
    def test_two_lines_three_strata(self):
        strata = enumerate_strata(shape_lines(2))
        assert [(s.subgraph.edge_list(), s.divisor.values) for s in strata] == [
            ((), (0, 0)),
            ((0,), (0, 1)),
            ((0,), (1, 0)),
        ]

    def test_three_lines_twenty_six(self):
        assert len(enumerate_strata(shape_lines(3))) == 26

    def test_single_vertex_shape(self):
        shape = CurveShape(build_graph(["v1"], []), 1, 1)
        strata = enumerate_strata(shape)
        assert len(strata) == 1
        assert strata[0].subgraph.n_edges == 0

    def test_invalid_shape_parameters(self):
        with pytest.raises(StrataError):
            CurveShape(make_e2(), 0, 2)


class TestStratumDimension:
    def test_three_lines_profile(self):
        shape = shape_lines(3)
        profile = Counter(
            stratum_dimension(shape, s) for s in enumerate_strata(shape)
        )
        assert profile == {3: 7, 2: 12, 1: 6, 0: 1}

    def test_two_lines(self):
        shape = shape_lines(2)
        assert stratum_dimension(shape, label(shape, (0,), (0, 1))) == 1
        assert stratum_dimension(shape, label(shape, (), (0, 0))) == 0

    def test_negative_dimension_is_error(self):
        # one matrix-polynomial parameter but two nodes: invalid shape
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        shape = CurveShape(g, 1, 2)
        with pytest.raises(StrataError):
            stratum_dimension(shape, StratumLabel(Subgraph(g, frozenset()), Divisor(g.vertices, (0, 0))))

    def test_foreign_stratum_rejected(self):
        shape2, shape3 = shape_lines(2), shape_lines(3)
        with pytest.raises(StrataError):
            stratum_dimension(shape3, label(shape2, (0,), (0, 1)))


class TestAdjacency:
    def test_interior_double_point(self):
        shape = shape_lines(3)
        s1 = label(shape, (0, 1, 2), (1, 1, 1))
        s2 = label(shape, (), (0, 0, 0))
        assert adjacency_multiplicity(shape, s1, s2) == 2

    def test_vertex_strata_are_smooth_at_origin(self):
        shape = shape_lines(3)
        s2 = label(shape, (), (0, 0, 0))
        for values in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            s1 = label(shape, (0, 1, 2), values)
            assert adjacency_multiplicity(shape, s1, s2) == 1

    def test_self_adjacency(self):
        shape = shape_lines(3)
        s = label(shape, (0, 1), (0, 1, 1))
        assert adjacency_multiplicity(shape, s, s) == 1

    def test_non_nested_subgraphs_give_zero(self):
        shape = shape_lines(3)
        s1 = label(shape, (0,), (0, 1, 0))
        s2 = label(shape, (1,), (0, 0, 1))
        assert adjacency_multiplicity(shape, s1, s2) == 0

    def test_domination_is_not_sufficient(self):
        # Nested subgraphs with pointwise-dominated divisors may still be
        # non-adjacent: the K4 counterexample.
        g = make_k4()
        shape = CurveShape(g, 2, 4)
        s1 = StratumLabel(Subgraph(g, frozenset(range(6))), Divisor(g.vertices, (2, 2, 1, 1)))
        s2 = StratumLabel(Subgraph(g, frozenset({0, 1, 3})), Divisor(g.vertices, (0, 2, 1, 0)))
        assert s2.divisor.pointwise_le(s1.divisor)
        assert s1.subgraph.contains(s2.subgraph)
        assert adjacency_multiplicity(shape, s1, s2) == 0

    def test_negative_dimension_is_error(self):
        # one matrix-polynomial parameter and three nodes: the empty
        # subgraph's strata would have dimension -2
        g = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        shape = CurveShape(g, 1, 2)
        full = StratumLabel(Subgraph(g, frozenset(range(3))), Divisor(g.vertices, (1, 1, 1)))
        empty = StratumLabel(Subgraph(g, frozenset()), Divisor(g.vertices, (0, 0, 0)))
        for s1, s2 in ((full, empty), (empty, full)):
            with pytest.raises(StrataError) as info:
                adjacency_multiplicity(shape, s1, s2)
            assert str(info.value) == (
                "shape admits no such stratum: dimension -2 is negative "
                "(more nodes than the degree bound permits)"
            )
        with pytest.raises(StrataError, match="dimension -2 is negative"):
            stratum_report_json_obj(shape, full)


class TestLocalModel:
    def test_two_lines_node(self):
        shape = shape_lines(2)
        model = local_model(shape, label(shape, (), (0, 0)))
        assert (model.p, model.q) == (1, 0)
        census = {
            (s.subgraph.edge_list(), s.divisor.values): m
            for s, m in model.census.items()
        }
        assert census == {
            ((), (0, 0)): 1,
            ((0,), (0, 1)): 1,
            ((0,), (1, 0)): 1,
        }

    def test_three_lines_origin(self):
        shape = shape_lines(3)
        model = local_model(shape, label(shape, (), (0, 0, 0)))
        assert (model.p, model.q) == (3, 0)
        assert sum(model.census.values()) == 27
        top = {
            s.divisor.values: m
            for s, m in model.census.items()
            if s.subgraph.n_edges == 3
        }
        assert sum(top.values()) == 8
        assert sorted(top.values()) == [1, 1, 1, 1, 1, 1, 2]
        assert top[(1, 1, 1)] == 2

    def test_top_stratum_trivial_census(self):
        shape = shape_lines(3)
        s = label(shape, (0, 1, 2), (0, 1, 2))
        model = local_model(shape, s)
        assert (model.p, model.q) == (0, 3)
        assert model.census == {s: 1}

    def test_census_total_is_power_of_three(self):
        shape = shape_lines(3)
        for s in enumerate_strata(shape):
            model = local_model(shape, s)
            assert sum(model.census.values()) == 3 ** model.p
            assert model.census[s] == 1


class TestIrreducibleComponents:
    def test_three_lines_seven(self):
        assert len(irreducible_components(shape_lines(3))) == 7

    def test_four_lines_thirty_eight(self):
        assert len(irreducible_components(shape_lines(4))) == 38

    def test_two_lines_two(self):
        assert len(irreducible_components(shape_lines(2))) == 2


class TestHasseDiagram:
    def test_single_edge_poset(self):
        g = make_e2()
        poset = hasse_diagram(g)
        keys = [(s.subgraph.bitmask, s.divisor.values) for s in poset.elements]
        assert keys == [(0, (0, 0)), (1, (0, 1)), (1, (1, 0))]
        assert poset.cover_relations == ((0, 1), (0, 2))

    def test_triangle_element_count(self):
        # Brute-force enumeration of pairs (subgraph, indegree divisor).
        g = make_k3()
        poset = hasse_diagram(g)
        expected = sum(
            len(enumerate_indegree(Subgraph(g, frozenset(edges)).as_multigraph()))
            for edges in [
                set(),
                {0}, {1}, {2},
                {0, 1}, {0, 2}, {1, 2},
                {0, 1, 2},
            ]
        )
        assert len(poset.elements) == expected == 26

    def test_edgeless_graph(self):
        g = build_graph(["a", "b"], [])
        poset = hasse_diagram(g)
        assert len(poset.elements) == 1
        assert poset.cover_relations == ()

    def test_loops_rejected(self):
        with pytest.raises(StrataError):
            hasse_diagram(make_loop())

    def test_covers_differ_by_one_edge_and_raise_dimension(self):
        poset = hasse_diagram(make_k3())
        for a, b in poset.cover_relations:
            lower, upper = poset.elements[a], poset.elements[b]
            assert upper.subgraph.n_edges == lower.subgraph.n_edges + 1
            assert lower.subgraph.edge_set < upper.subgraph.edge_set
            diff = upper.divisor - lower.divisor
            assert diff.degree == 1 and all(x >= 0 for x in diff.values)


class TestPathCountMultiplicity:
    def test_triangle_interior_from_origin(self):
        g = make_k3()
        poset = hasse_diagram(g)
        s2 = StratumLabel(Subgraph(g, frozenset()), Divisor(g.vertices, (0, 0, 0)))
        s1 = StratumLabel(Subgraph(g, frozenset({0, 1, 2})), Divisor(g.vertices, (1, 1, 1)))
        assert path_count_multiplicity(poset, s1, s2) == 2

    def test_single_edge(self):
        g = make_e2()
        poset = hasse_diagram(g)
        s2 = StratumLabel(Subgraph(g, frozenset()), Divisor(g.vertices, (0, 0)))
        s1 = StratumLabel(Subgraph(g, frozenset({0})), Divisor(g.vertices, (0, 1)))
        assert path_count_multiplicity(poset, s1, s2) == 1

    def test_self_path(self):
        g = make_e2()
        poset = hasse_diagram(g)
        s = StratumLabel(Subgraph(g, frozenset()), Divisor(g.vertices, (0, 0)))
        assert path_count_multiplicity(poset, s, s) == 1

    def test_unrelated_pair_gives_zero(self):
        g = make_k3()
        poset = hasse_diagram(g)
        s1 = StratumLabel(Subgraph(g, frozenset({0})), Divisor(g.vertices, (0, 1, 0)))
        s2 = StratumLabel(Subgraph(g, frozenset({1})), Divisor(g.vertices, (0, 0, 1)))
        assert path_count_multiplicity(poset, s1, s2) == 0

    @given(multigraphs(max_edges=4, loops=False))
    def test_matches_relative_multiplicity(self, g):
        from spectral_strata import relative_multiplicity

        poset = hasse_diagram(g)
        for s1 in poset.elements:
            for s2 in poset.elements:
                if not s1.subgraph.contains(s2.subgraph):
                    continue
                diff = s1.divisor - s2.divisor
                if any(x < 0 for x in diff.values):
                    expected = 0
                else:
                    expected = relative_multiplicity(
                        s1.subgraph, s1.divisor, s2.subgraph, s2.divisor
                    )
                assert path_count_multiplicity(poset, s1, s2) == expected


class TestCrStrata:
    def test_three_lines(self):
        shape = shape_lines(3)
        got = [(s.subgraph.edge_list(), s.divisor.values) for s in cr_strata(shape)]
        assert got == [((), (0, 0, 0)), ((0, 1, 2), (1, 1, 1))]

    def test_two_lines(self):
        shape = shape_lines(2)
        got = [(s.subgraph.edge_list(), s.divisor.values) for s in cr_strata(shape)]
        assert got == [((), (0, 0))]

    def test_edgeless_shape(self):
        shape = CurveShape(build_graph(["v1"], []), 1, 1)
        assert len(cr_strata(shape)) == 1


class TestReports:
    def test_rows_match_table_contract(self):
        shape = shape_lines(2)
        rows = stratum_rows(shape)
        assert [r["id"] for r in rows] == [0, 1, 2]
        assert rows[1]["divisor"] == {"v1": 0, "v2": 1}
        assert rows[0]["class"] == "completely_reducible"

    def test_csv_header(self):
        out = strata_csv(shape_lines(2))
        header = out.splitlines()[0]
        assert header == "id,edge_bitmask,divisor,dimension,class,multiplicity"
        assert len(out.splitlines()) == 4

    def test_stratum_report(self):
        shape = shape_lines(3)
        report = stratum_report_json_obj(shape, label(shape, (0, 1, 2), (1, 1, 1)))
        assert report["dimension"] == 3
        assert report["class"] == "completely_reducible"
        origin_rows = [
            row for row in report["adjacency"] if row["subgraph_edges"] == []
        ]
        assert origin_rows and origin_rows[0]["multiplicity"] == 2
        json.dumps(report)

    def test_hasse_dot(self):
        out = hasse_to_dot(hasse_diagram(make_e2()))
        assert out.startswith("digraph hasse {")
        assert 'label="0|0,0"' in out
        assert "n0 -> n1;" in out


class TestPosetStructure:
    @given(multigraphs(max_edges=4, loops=False))
    def test_census_sum_over_poset(self, g):
        shape = CurveShape(g, max(g.n_edges, 1), 2)
        for s2 in enumerate_strata(shape):
            model = local_model(shape, s2)
            assert sum(model.census.values()) == 3 ** model.p


def seeded_multigraphs(count, max_vertices=5, max_edges=7, loops=True):
    """Seeded multigraphs; edges are drawn with replacement from all vertex
    pairs, loops included unless disabled, so parallel edges and loops
    both occur."""
    rng = random.Random(20150617)
    for _ in range(count):
        k = rng.randint(1 if loops else 2, max_vertices)
        types = pair_types(k, loops)
        edges = sorted(rng.choice(types) for _ in range(rng.randint(0, max_edges)))
        yield Multigraph(tuple(f"v{i + 1}" for i in range(k)), tuple(edges))


def label_by_label(shape):
    """Rows and CR strata by the route that treats every label on its own:
    enumerate_indegree per subgraph, then classify, multiplicity and
    stratum_dimension per label (two max-flow calls each)."""
    rows, cr = [], []
    for sub in generating_subgraphs(shape.dual_graph):
        g = sub.as_multigraph()
        for d in enumerate_indegree(g):
            s = StratumLabel(sub, d)
            tag = classify(g, d).tag
            rows.append(
                {
                    "id": len(rows),
                    "edge_bitmask": sub.bitmask,
                    "subgraph_edges": list(sub.edge_list()),
                    "divisor": d.to_mapping(),
                    "dimension": stratum_dimension(shape, s),
                    "class": tag.value,
                    "multiplicity": multiplicity(g, d),
                }
            )
            if tag is DivisorTag.COMPLETELY_REDUCIBLE:
                cr.append(s)
    return rows, cr


def hasse_by_labels(g):
    """Elements and covers by the route that treats every subgraph on its
    own: enumerate_indegree per generating subgraph, and covers adding one
    oriented edge, looked up by (bitmask, divisor)."""
    elements = [
        StratumLabel(sub, d)
        for sub in generating_subgraphs(g)
        for d in enumerate_indegree(sub.as_multigraph())
    ]
    index = {(s.subgraph.bitmask, s.divisor.values): i for i, s in enumerate(elements)}
    covers = []
    for i, s in enumerate(elements):
        for e in set(range(g.n_edges)) - s.subgraph.edge_set:
            for head in g.edges[e]:
                bumped = list(s.divisor.values)
                bumped[head] += 1
                covers.append((i, index[(s.subgraph.bitmask | 1 << e, tuple(bumped))]))
    return tuple(elements), tuple(sorted(covers))


def tuple_keyed_covers(g):
    """Covers by the construction that keys each stratum by the tuple
    (bitmask, exponent) and builds each target by slicing the exponent."""
    _, decode = _key_codec(g.n_vertices, _key_bits(g.n_edges))
    index = {}
    for mask, terms in enumerate(_walk(g, range(g.n_edges), 0)):
        for expo in sorted(map(decode, terms)):
            index[mask, expo] = len(index)
    covers = []
    for (mask, expo), i in index.items():
        for e, (u, v) in enumerate(g.edges):
            if mask >> e & 1:
                continue
            for head in (u, v):
                bumped = expo[:head] + (expo[head] + 1,) + expo[head + 1:]
                covers.append((i, index[mask | 1 << e, bumped]))
    covers.sort()
    return tuple(covers)


def covers_from_elements(g, elements):
    """Covers recomputed from the elements alone, by brute force: (M, D)
    is covered by (M + i, D + e_h) for each edge i outside M and each
    end h of i, looked up by (bitmask, divisor values), in the order lower
    index, then upper index."""
    index = {(s.subgraph.bitmask, s.divisor.values): j for j, s in enumerate(elements)}
    covers = set()
    for j, s in enumerate(elements):
        mask = s.subgraph.bitmask
        for i in range(g.n_edges):
            if mask >> i & 1:
                continue
            for h in g.edges[i]:
                values = list(s.divisor.values)
                values[h] += 1
                covers.add((j, index[mask | 1 << i, tuple(values)]))
    return sorted(covers)


def shuffled_complete_graph(n, seed):
    k = complete_graph(n)
    edges = list(k.edges)
    random.Random(seed).shuffle(edges)
    return Multigraph(k.vertices, tuple(edges))


def census_by_labels(shape, s2):
    """The local census at s2 as (label, relative_multiplicity) items, over
    every label on a supersubgraph whose divisor dominates that of s2."""
    out = []
    for sub in generating_subgraphs(shape.dual_graph):
        if not sub.contains(s2.subgraph):
            continue
        for d in enumerate_indegree(sub.as_multigraph()):
            if not s2.divisor.pointwise_le(d):
                continue
            mult = relative_multiplicity(sub, d, s2.subgraph, s2.divisor)
            if mult:
                out.append((StratumLabel(sub, d), mult))
    return out


class TestTableAgainstLabelByLabel:
    @pytest.mark.parametrize("lines", [1, 2, 3, 4])
    def test_lines(self, lines):
        shape = shape_lines(lines)
        rows, cr = label_by_label(shape)
        assert stratum_rows(shape) == rows
        assert cr_strata(shape) == cr
        assert enumerate_strata(shape) == [
            label(shape, r["subgraph_edges"], tuple(r["divisor"].values())) for r in rows
        ]

    def test_seeded_multigraphs(self):
        family = list(seeded_multigraphs(100))
        assert any(u == v for g in family for u, v in g.edges)
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        for g in family:
            shape = CurveShape(g, max(g.n_edges, 1), 2)
            rows, cr = label_by_label(shape)
            assert stratum_rows(shape) == rows
            assert cr_strata(shape) == cr

    def test_many_vertices_few_edges(self):
        # the interior test works per component, not over all vertex subsets
        vertices = [f"x{i}" for i in range(24)]
        g = build_graph(vertices, [("x0", "x1"), ("x2", "x3"), ("x2", "x3"), ("x4", "x4")])
        shape = CurveShape(g, g.n_edges, 2)
        rows, cr = label_by_label(shape)
        assert stratum_rows(shape) == rows
        assert cr_strata(shape) == cr

    def test_negative_dimension_message(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        with pytest.raises(StrataError) as info:
            stratum_rows(CurveShape(g, 1, 2))
        assert str(info.value) == (
            "shape admits no such stratum: dimension -1 is negative "
            "(more nodes than the degree bound permits)"
        )

    def test_cap_error_precedes_negative_dimension(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        with pytest.raises(CapExceededError):
            stratum_rows(CurveShape(g, 1, 2), max_edges=1)

    def test_no_flow_calls(self, monkeypatch):
        # the table proves its labels by construction; a max-flow call on
        # them would be repeated work
        from spectral_strata import indegree

        def no_flow(*args):
            raise AssertionError("max flow called on a label the table enumerated")

        monkeypatch.setattr(indegree, "_max_flow_orientation", no_flow)
        shape = shape_lines(4)
        assert len(stratum_rows(shape)) == len(enumerate_strata(shape)) == 624
        assert len(cr_strata(shape)) > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hasse_complete_graphs(self, n):
        g = complete_graph(n)
        poset = hasse_diagram(g)
        assert (poset.elements, poset.cover_relations) == hasse_by_labels(g)

    def test_hasse_seeded_multigraphs(self):
        family = list(seeded_multigraphs(60, loops=False))
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        for g in family:
            poset = hasse_diagram(g)
            assert (poset.elements, poset.cover_relations) == hasse_by_labels(g)

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in range(1, 5) for seed in range(3)] + [(5, 0), (5, 1)])
    def test_integer_keyed_covers_complete_graphs(self, n, seed):
        g = shuffled_complete_graph(n, seed)
        assert hasse_diagram(g).cover_relations == tuple_keyed_covers(g)

    def test_integer_keyed_covers_seeded_multigraphs(self):
        family = list(seeded_multigraphs(60, max_edges=8, loops=False))
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        for g in family:
            assert hasse_diagram(g).cover_relations == tuple_keyed_covers(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_streamed_covers_complete_graphs(self, n):
        g = complete_graph(n)
        poset = hasse_diagram(g)
        assert list(poset.cover_relations) == covers_from_elements(g, poset.elements)

    def test_streamed_covers_seeded_multigraphs(self):
        family = list(seeded_multigraphs(60, loops=False))
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        assert any(len({x for e in g.edges for x in e}) < g.n_vertices for g in family)
        for g in family:
            poset = hasse_diagram(g)
            assert list(poset.cover_relations) == covers_from_elements(g, poset.elements)

    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_local_census_lines(self, lines):
        shape = shape_lines(lines)
        for s2 in enumerate_strata(shape):
            assert list(local_model(shape, s2).census.items()) == census_by_labels(shape, s2)

    def test_local_census_seeded_multigraphs(self):
        # at most 5 edges: the reference route costs two flow calls per pair
        family = list(seeded_multigraphs(100, max_edges=5))
        assert any(u == v for g in family for u, v in g.edges)
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        for g in family:
            shape = CurveShape(g, max(g.n_edges, 1), 2)
            for s2 in enumerate_strata(shape):
                assert list(local_model(shape, s2).census.items()) == census_by_labels(shape, s2)

    def test_no_bpoly_calls(self, monkeypatch):
        # the Hasse diagram and the local census read the walk over the
        # edge subsets; a b-polynomial per subgraph would be repeated work
        from spectral_strata import indegree

        def no_bpoly(*args):
            raise AssertionError("b-polynomial rebuilt for a subgraph the walk visits")

        monkeypatch.setattr(indegree, "_bpoly_terms", no_bpoly)
        assert len(hasse_diagram(complete_graph(4)).elements) == 624
        shape = shape_lines(4)
        model = local_model(shape, label(shape, (), (0, 0, 0, 0)))
        assert sum(model.census.values()) == 3 ** 6


def cyclic_by_reachability(n, pairs, flips):
    """Every arc (t, h) has a directed path back from h to t."""
    arcs = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
    out = {x: [h for t, h in arcs if t == x] for x in range(n)}

    def reachable(a, b):
        stack, seen = [a], {a}
        while stack:
            for y in out[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return b in seen

    return all(reachable(h, t) for t, h in arcs)


def sweep_terms(g, edges, base):
    """Counter of base plus the indegree vector over every orientation of
    the given edges of g: one head per edge, drawn from its endpoints (a
    loop's two orientations have the same head)."""
    counts = Counter()
    for heads in itertools.product(*(g.edges[e] for e in edges)):
        values = list(base)
        for h in heads:
            values[h] += 1
        counts[tuple(values)] += 1
    return counts


class TestWalkAgainstOrientationSweep:
    """The term map of the edge-subset walk at every mask against the
    indegree vectors of all orientations of the masked edges."""

    def family(self):
        family = list(seeded_multigraphs(100))
        assert any(u == v for g in family for u, v in g.edges)
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        return family

    def check(self, g, edges, base):
        encode, decode = _key_codec(g.n_vertices, _key_bits(g.n_edges))
        for mask, keyed in enumerate(_walk(g, edges, encode(base))):
            terms = {decode(key): coeff for key, coeff in keyed.items()}
            masked = [e for i, e in enumerate(edges) if mask >> i & 1]
            assert terms == sweep_terms(g, masked, base), (g, edges, base, mask)

    def test_all_edges_from_zero(self):
        for g in self.family():
            self.check(g, range(g.n_edges), (0,) * g.n_vertices)

    def test_edge_subset_from_nonzero_base(self):
        # the local census walks the edges outside a stratum from its divisor
        rng = random.Random(15)
        for g in self.family():
            edges = sorted(rng.sample(range(g.n_edges), rng.randint(0, g.n_edges)))
            base = [rng.randint(0, 2) for _ in g.vertices]
            base[rng.randrange(g.n_vertices)] += 1
            self.check(g, edges, tuple(base))


class TestPerSubgraphKernels:
    """The bit-parallel interior flags and the bitmask totally-cyclic test
    against oracles that share no code with them: the frozenset subset
    count of _interior_by_inequalities and reachability by search."""

    def test_seeded_multigraphs(self):
        family = list(seeded_multigraphs(100))
        features = set()
        for g in family:
            edges = g.edges
            features |= {
                name
                for name, present in (
                    ("loop", any(u == v for u, v in edges)),
                    ("parallel", len(set(edges)) < len(edges)),
                    ("isolated", len({x for e in edges for x in e}) < g.n_vertices),
                    ("components", sum(len(c) > 1 for c in g.connected_components()) > 1),
                )
                if present
            }
            bits = _key_bits(g.n_edges)
            _, decode = _key_codec(g.n_vertices, bits)
            for sub, terms in zip(generating_subgraphs(g, g.n_edges), _walk(g, range(g.n_edges), 0)):
                graph = sub.as_multigraph()
                keys = sorted(terms)
                expos = list(map(decode, keys))
                flags = _interior_flags(keys, g.n_vertices, bits, _component_tables(graph.n_vertices, graph.edges))
                for expo, flag in zip(expos, flags):
                    interior = _interior_by_inequalities(graph, Divisor(g.vertices, expo))
                    assert flag == interior, (g, sub.edge_list(), expo)
                    flips = is_indegree(graph, Divisor(g.vertices, expo)).flips
                    cyclic = cyclic_by_reachability(g.n_vertices, graph.edges, flips)
                    assert _totally_cyclic(g.n_vertices, graph.edges, flips) == cyclic
                    # the witness of an interior divisor is totally cyclic
                    assert cyclic == interior
        assert features == {"loop", "parallel", "isolated", "components"}

    @pytest.mark.parametrize("parallel", [70, 126, 127, 200])
    def test_lanes_do_not_overflow(self, parallel):
        # parallel edges a-b plus a loop at b: e = parallel + 1, with the
        # exponents 0 and e side by side in both columns
        g = Multigraph(("a", "b", "c"), ((0, 1),) * parallel + ((1, 1),))
        e = g.n_edges
        expos = [
            (0, e, 0), (e, 0, 0), (0, e, 0), (1, e - 1, 0), (e - 1, 1, 0),
            (e, 0, 0), (e // 2, e - e // 2, 0), (0, 0, e), (1, 2, e - 3), (e - 2, 2, 0),
        ]
        bits = _key_bits(e)
        encode, _ = _key_codec(g.n_vertices, bits)
        flags = _interior_flags(list(map(encode, expos)), g.n_vertices, bits, _component_tables(g.n_vertices, g.edges))
        oracle = [_interior_by_inequalities(g, Divisor(g.vertices, x)) for x in expos]
        assert flags == oracle
        assert any(oracle) and not all(oracle)

    @pytest.mark.parametrize("n, bits", [(8, 8), (9, 8), (4, 16), (5, 16), (3, 32), (2, 64)])
    def test_keys_on_both_sides_of_a_word(self, n, bits):
        # a cycle plus one chord: keys of n digits, at most 8 bytes (one
        # struct word each) or more (converted one by one)
        cycle = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
        g = Multigraph(tuple(f"v{i}" for i in range(n)), cycle + ((0, 1),))
        encode, _ = _key_codec(n, bits)
        expos = [d.values for d in enumerate_indegree(g)]
        flags = _interior_flags(list(map(encode, expos)), n, bits, _component_tables(n, g.edges))
        oracle = [_interior_by_inequalities(g, Divisor(g.vertices, x)) for x in expos]
        assert flags == oracle
        assert any(oracle) and not all(oracle)

    def test_table_builds_no_orientation(self, monkeypatch):
        # the table reads each class off the interior flags; an
        # Orientation per stratum would be repeated work
        from spectral_strata import graphs

        shape = shape_lines(4)
        cr = cr_strata(shape)

        def no_orientation(self):
            raise AssertionError("Orientation built for a stratum of the table")

        monkeypatch.setattr(graphs.Orientation, "__post_init__", no_orientation)
        assert len(stratum_rows(shape)) == 624
        assert cr_strata(shape) == cr

    def test_cr_negative_dimension_message(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        with pytest.raises(StrataError) as info:
            cr_strata(CurveShape(g, 1, 2))
        assert str(info.value) == (
            "shape admits no such stratum: dimension -2 is negative "
            "(more nodes than the degree bound permits)"
        )


def _degree_one(g):
    return any(g.degree(v) == 1 for v in range(g.n_vertices))


def _has_bridge(g):
    count = len(g.connected_components())
    return any(
        len(Multigraph(g.vertices, g.edges[:i] + g.edges[i + 1:]).connected_components()) > count
        for i, (u, v) in enumerate(g.edges)
        if u != v
    )


def _path(n):
    return Multigraph(tuple(f"v{i + 1}" for i in range(n)), tuple((i, i + 1) for i in range(n - 1)))


class TestDegreeRule:
    """_table_rows gives every subgraph with a degree-one vertex all-False
    flags without building its tables; the flags still agree with the
    subset-inequality oracle everywhere."""

    #: two triangles joined by the edge v3-v4: a bridge with no leaf
    BRIDGED = Multigraph(
        tuple(f"v{i + 1}" for i in range(6)),
        ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)),
    )
    #: a pendant vertex v2 whose only other edge is a loop (degree 3)
    PENDANT_LOOP = Multigraph(("v1", "v2", "v3"), ((0, 1), (0, 2), (0, 2), (1, 1)))

    def test_flags_match_oracle(self):
        family = [*seeded_multigraphs(60), self.BRIDGED, self.PENDANT_LOOP]
        features = set()
        for g in family:
            decode = _key_codec(g.n_vertices, _key_bits(g.n_edges))[1]
            shape = CurveShape(g, max(g.n_edges, 1), 2)
            for mask, dim, keys, flags, terms in _table_rows(shape, g.n_edges):
                sub = Multigraph(g.vertices, tuple(g.edges[i] for i in range(g.n_edges) if mask >> i & 1))
                degrees = [sub.degree(v) for v in range(g.n_vertices)]
                features |= {
                    name
                    for name, present in (
                        ("pendant", 1 in degrees),
                        ("pendant with loop", any(
                            sum(e.count(v) == 1 for e in sub.edges) == 1 and (v, v) in sub.edges
                            for v in range(g.n_vertices)
                        )),
                        ("bridge, no leaf", 1 not in degrees and _has_bridge(sub)),
                        ("isolated", 0 in degrees and sub.edges),
                        ("parallel", len(set(sub.edges)) < len(sub.edges)),
                    )
                    if present
                }
                assert dim == shape.top_dimension - g.n_edges + mask.bit_count()
                assert keys == sorted(terms)
                oracle = [_interior_by_inequalities(sub, Divisor(g.vertices, decode(k))) for k in keys]
                assert flags == oracle, (g, mask)
                if 1 in degrees:
                    assert not any(flags)
        assert features == {"pendant", "pendant with loop", "bridge, no leaf", "isolated", "parallel"}

    def test_tables_only_without_degree_one(self, monkeypatch):
        from spectral_strata import strata

        built = []

        def counting(n, edges):
            built.append(tuple(edges))
            return _component_tables(n, edges)

        monkeypatch.setattr(strata, "_component_tables", counting)
        g = complete_graph(4)
        rows = list(_table_rows(CurveShape(g, 1, 4), g.n_edges))
        expected = [sub.as_multigraph() for sub in generating_subgraphs(g)]
        expected = [sub.edges for sub in expected if not _degree_one(sub)]
        assert len(rows) == 64 and len(expected) == 15
        assert built == expected

    @pytest.mark.parametrize(
        "g",
        [
            _path(7),
            # a tree: v1 joined to v2, v3, v4; v4 to v5 and v6; v6 to v7
            Multigraph(
                tuple(f"v{i + 1}" for i in range(7)),
                ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)),
            ),
        ],
    )
    def test_forest_builds_tables_only_when_edgeless(self, monkeypatch, g):
        # every subgraph of a forest with an edge has a leaf; only the
        # empty subgraph, whose one divisor is interior, gets tables
        from spectral_strata import indegree, strata

        def edgeless_only(n, edges):
            if edges:
                raise AssertionError("component tables built for a forest with an edge")
            return _component_tables(n, edges)

        monkeypatch.setattr(indegree, "_component_tables", edgeless_only)
        monkeypatch.setattr(strata, "_component_tables", edgeless_only)
        shape = CurveShape(g, g.n_edges, 2)
        zero = Divisor(g.vertices, (0,) * g.n_vertices)
        empty = StratumLabel(Subgraph(g, frozenset()), zero)
        assert cr_strata(shape) == [empty]
        rows = stratum_rows(shape)
        assert len(rows) == 3 ** g.n_edges
        assert [row["id"] for row in rows if row["class"] == "completely_reducible"] == [0]


class TestAdjacencyCap:
    def test_cap_applies_to_the_edges_between(self):
        shape = shape_lines(5)
        full = label(shape, range(10), (4, 3, 2, 1, 0))
        empty = label(shape, [], (0,) * 5)
        assert adjacency_multiplicity(shape, full, empty) == 1
        assert adjacency_multiplicity(shape, full, empty, max_edges=10) == 1
        with pytest.raises(CapExceededError) as info:
            adjacency_multiplicity(shape, full, empty, max_edges=3)
        assert str(info.value) == "relative_multiplicity: 10 edges exceed the enumeration cap 3"
        # two edges apart fit a cap of 3
        lower = label(shape, range(8), (4, 2, 1, 1, 0))
        assert adjacency_multiplicity(shape, full, lower, max_edges=3) == relative_multiplicity(
            full.subgraph, full.divisor, lower.subgraph, lower.divisor
        )
