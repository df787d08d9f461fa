import json

import pytest
from hypothesis import given

from spectral_strata import (
    CapExceededError,
    GraphConstructionError,
    Orientation,
    PartialOrientation,
    all_orientations,
    build_graph,
    degree_divisor,
    generating_subgraphs,
    graph_from_json,
    graph_to_json,
    indeg,
    indeg_partial,
    to_dot,
)

from helpers import (
    divisor,
    graphs_with_orientations,
    make_e2,
    make_k3,
    make_k4,
    make_loop,
    multigraphs,
)


class TestBuildGraph:
    def test_e2(self):
        g = make_e2()
        assert g.vertices == ("v1", "v2")
        assert g.edges == ((0, 1),)

    def test_k3(self):
        g = make_k3()
        assert g.n_edges == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_loop(self):
        g = make_loop()
        assert g.edges == ((0, 0),)
        assert g.is_loop(0)

    def test_idempotent(self):
        args = (["a", "b"], [("a", "b"), ("b", "a")])
        assert build_graph(*args) == build_graph(*args)

    def test_unknown_endpoint(self):
        with pytest.raises(GraphConstructionError):
            build_graph(["a"], [("a", "b")])

    def test_duplicate_vertex(self):
        with pytest.raises(GraphConstructionError):
            build_graph(["a", "a"], [])

    def test_parallel_edges_distinguished(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        assert g.n_edges == 2
        assert g.edges[0] == g.edges[1]


class TestIndeg:
    def test_k3_cyclic(self):
        g = make_k3()
        # v1->v2 (e0), v3->v1 (e1 flipped), v2->v3 (e2)
        o = Orientation(g, (False, True, False))
        assert indeg(o) == divisor(g, 1, 1, 1)

    def test_e2_single_edge(self):
        g = make_e2()
        assert indeg(Orientation(g, (False,))) == divisor(g, 0, 1)
        assert indeg(Orientation(g, (True,))) == divisor(g, 1, 0)

    def test_loop_both_orientations(self):
        g = make_loop()
        assert indeg(Orientation(g, (False,))) == divisor(g, 1)
        assert indeg(Orientation(g, (True,))) == divisor(g, 1)


class TestIndegPartial:
    def test_one_oriented_edge(self):
        g = make_k3()
        o = PartialOrientation.from_mapping(g, {0: False})
        assert indeg_partial(o) == divisor(g, 0, 1, 0)

    def test_empty(self):
        g = make_k3()
        o = PartialOrientation.from_mapping(g, {})
        assert indeg_partial(o) == divisor(g, 0, 0, 0)

    def test_k4_partial_orientations_of_five_edges(self):
        # Partial orientations of K4 minus the (v1, v2) edge: the divisor
        # (1, 0, 2, 2) is achieved by exactly two of them, while
        # (1, -1, 2, 2) has a negative entry and is never achieved.
        g = make_k4()
        target = divisor(g, 1, 0, 2, 2)
        impossible = divisor(g, 1, -1, 2, 2)
        rest = [1, 2, 3, 4, 5]  # all edges except e0 = (v1, v2)
        achieved = []
        for mask in range(1 << len(rest)):
            directions = {e: bool(mask >> k & 1) for k, e in enumerate(rest)}
            d = indeg_partial(PartialOrientation.from_mapping(g, directions))
            achieved.append(d)
        assert achieved.count(target) == 2
        assert impossible not in achieved

    def test_restriction_to_full_orientation_matches_indeg(self):
        g = make_k3()
        for o in all_orientations(g):
            partial = PartialOrientation.from_mapping(
                g, {i: o.flips[i] for i in range(g.n_edges)}
            )
            assert indeg_partial(partial) == indeg(o)

    def test_oriented_loop_counts_once(self):
        g = make_loop()
        for flip in (False, True):
            partial = PartialOrientation.from_mapping(g, {0: flip})
            assert indeg_partial(partial) == divisor(g, 1)

    @given(graphs_with_orientations())
    def test_degree_counts_oriented_edges(self, go):
        g, o = go
        if g.n_edges == 0:
            return
        chosen = {i: o.flips[i] for i in range(0, g.n_edges, 2)}
        partial = PartialOrientation.from_mapping(g, chosen)
        assert indeg_partial(partial).degree == len(chosen)


class TestDegreeDivisor:
    def test_examples(self):
        assert degree_divisor(make_k3()).values == (2, 2, 2)
        assert degree_divisor(make_e2()).values == (1, 1)
        assert degree_divisor(make_loop()).values == (2,)


class TestGeneratingSubgraphs:
    def test_counts(self):
        assert len(generating_subgraphs(make_e2())) == 2
        assert len(generating_subgraphs(make_k3())) == 8
        assert len(generating_subgraphs(make_k4())) == 64

    def test_canonical_order(self):
        subs = generating_subgraphs(make_k3())
        assert [s.bitmask for s in subs] == list(range(8))

    def test_cap(self):
        g = build_graph(["a", "b"], [("a", "b")] * 5)
        with pytest.raises(CapExceededError):
            generating_subgraphs(g, max_edges=4)

    def test_subgraph_materialisation(self):
        g = make_k3()
        sub = generating_subgraphs(g)[5]  # edges {0, 2}
        assert sub.edge_list() == (0, 2)
        assert sub.as_multigraph().edges == ((0, 1), (1, 2))
        assert sub.as_multigraph().vertices == g.vertices


class TestInvariants:
    @given(graphs_with_orientations())
    def test_indeg_degree_is_edge_count(self, go):
        g, o = go
        assert indeg(o).degree == g.n_edges

    @given(graphs_with_orientations())
    def test_reversal_complements_degree_divisor(self, go):
        g, o = go
        assert indeg(o.reversed()) == degree_divisor(g) - indeg(o)

    @given(multigraphs(max_edges=4))
    def test_orientation_count(self, g):
        assert len(list(all_orientations(g))) == 2 ** g.n_edges


class TestDivisorArithmetic:
    def test_mismatched_vertices(self):
        with pytest.raises(GraphConstructionError):
            divisor(make_e2(), 1, 0) + divisor(make_loop(), 1)

    def test_degree_and_mapping(self):
        d = divisor(make_k3(), 1, -2, 4)
        assert d.degree == 3
        assert d.to_mapping() == {"v1": 1, "v2": -2, "v3": 4}

    def test_pointwise_le(self):
        g = make_e2()
        assert divisor(g, 0, 1).pointwise_le(divisor(g, 1, 1))
        assert not divisor(g, 2, 0).pointwise_le(divisor(g, 1, 1))


class TestSerialisation:
    def test_json_round_trip(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("c", "c"), ("a", "b")])
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_format(self):
        g = make_e2()
        assert json.loads(graph_to_json(g)) == {
            "vertices": ["v1", "v2"],
            "edges": [["v1", "v2"]],
        }

    def test_dot_undirected(self):
        out = to_dot(make_e2())
        assert "graph G {" in out
        assert '"v1" -- "v2";' in out

    def test_dot_oriented(self):
        g = make_e2()
        out = to_dot(g, Orientation(g, (True,)))
        assert "digraph G {" in out
        assert '"v2" -> "v1";' in out


class TestCompleteGraph:
    def test_matches_build_graph(self):
        from spectral_strata.graphs import complete_graph

        for n in range(6):
            names = [f"v{i + 1}" for i in range(n)]
            pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
            assert complete_graph(n) == build_graph(names, pairs)
        assert complete_graph(-1) == build_graph([], [])


def _values():
    """One fresh instance of each value class, with its field names in
    constructor order; two calls give equal, distinct instances."""
    from fractions import Fraction

    from spectral_strata import (
        BivariatePolynomial,
        CurveShape,
        Divisor,
        DivisorClass,
        DivisorTag,
        EigenLineData,
        GraphicalZonotope,
        IndegPolynomial,
        LocalModel,
        MatrixPolynomial,
        Multigraph,
        StrataPoset,
        StratumLabel,
        Subgraph,
        line_arrangement,
    )

    g = Multigraph(("v1", "v2"), ((0, 1),))
    d = Divisor(g.vertices, (0, 1))
    label = StratumLabel(Subgraph(g, frozenset({0})), d)
    return [
        (g, ("vertices", "edges")),
        (Subgraph(g, frozenset({0})), ("parent", "edge_set")),
        (d, ("vertices", "values")),
        (Orientation(g, (False,)), ("graph", "flips")),
        (PartialOrientation(g, ((0, True),)), ("graph", "directions")),
        (
            DivisorClass(DivisorTag.COMPLETELY_REDUCIBLE, Orientation(g, (True,)), True, True),
            ("tag", "witness", "irreducible", "completely_reducible"),
        ),
        (IndegPolynomial(g.vertices, 1, {(1, 0): 1, (0, 1): 1}), ("vertices", "n_edges", "terms")),
        (CurveShape(g, 1, 2), ("dual_graph", "m", "n")),
        (label, ("subgraph", "divisor")),
        (LocalModel(1, 0, {label: 1}), ("p", "q", "census")),
        (StrataPoset((label,), ()), ("elements", "cover_relations")),
        (GraphicalZonotope(g, (d,), (d,)), ("graph", "lattice_points", "vertex_points")),
        (BivariatePolynomial({(0, 1): Fraction(-1), (1, 0): "2/3"}), ("terms",)),
        (MatrixPolynomial((((Fraction(1),),), ((Fraction(2),),))), ("coefficients",)),
        (line_arrangement([[0, 1], [1, 2]]), ("lines", "nodes", "dual_graph")),
        (EigenLineData(0, ((Fraction(1),),), 0), ("line_index", "eigenvector", "dual_degree")),
    ]


VALUE_CLASSES = [type(value).__name__ for value, _ in _values()]


@pytest.mark.parametrize("index", range(len(VALUE_CLASSES)), ids=VALUE_CLASSES)
class TestValueContract:
    """Every value class: positional construction, equality by class and
    fields, a hash that equal objects share, no assignment or deletion, and
    a repr Name(field=value, ...)."""

    def pair(self, index):
        (a, fields), (b, _) = _values()[index], _values()[index]
        return a, b, fields

    def test_equal_fields_give_equal_objects(self, index):
        a, b, fields = self.pair(index)
        assert a is not b and a == b and not a != b
        assert type(a)(*(getattr(a, name) for name in fields)) == a
        try:
            hash(a)
        except TypeError:
            # a dict field is unhashable, and so is the object holding it
            assert any(isinstance(getattr(a, name), dict) for name in fields)
            return
        assert hash(a) == hash(b) == hash(a)
        assert len({a, b}) == 1

    def test_another_class_is_not_equal(self, index):
        a, _, fields = self.pair(index)
        other, _ = _values()[(index + 1) % len(VALUE_CLASSES)]
        assert a != other and other != a
        assert a != tuple(getattr(a, name) for name in fields)

    def test_fields_cannot_be_assigned_or_deleted(self, index):
        a, _, fields = self.pair(index)
        for name in fields:
            value = getattr(a, name)
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_repr_names_the_class_and_its_fields(self, index):
        a, _, fields = self.pair(index)
        body = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
        assert repr(a) == f"{type(a).__name__}({body})"

    def test_pickle_round_trip(self, index):
        import pickle

        a, _, _ = self.pair(index)
        assert pickle.loads(pickle.dumps(a)) == a

    def test_wrong_arity_is_a_type_error(self, index):
        a, _, fields = self.pair(index)
        with pytest.raises(TypeError):
            type(a)(*(getattr(a, name) for name in fields[:-1]))


def test_value_cached_properties():
    from spectral_strata import Subgraph, line_arrangement

    g = make_k3()
    sub = Subgraph(g, frozenset({0, 2}))
    assert sub.bitmask == 0b101 and sub.bitmask == 0b101
    assert sub.edge_list() == (0, 2)
    assert hash(sub) == hash(Subgraph(g, frozenset({2, 0})))
    arr = line_arrangement([[0, 1], [1, 2]])
    assert arr.product is arr.product
    assert arr.product.terms == {(0, 2): 1, (1, 1): -3, (0, 1): -1, (2, 0): 2, (1, 0): 1}
    assert arr == line_arrangement([[0, 1], [1, 2]])
