import hashlib
import json
import random
from itertools import permutations, product

import pytest
from hypothesis import given

from spectral_strata import (
    Divisor,
    DivisorTag,
    Multigraph,
    StrataError,
    Subgraph,
    all_orientations,
    b_polynomial,
    build_graph,
    circuit_count_check,
    classify,
    cr_condition_checks,
    enumerate_indegree,
    indeg,
    irreducible_condition_checks,
    is_indegree,
    multiplicity,
    relative_multiplicity,
    strongly_connected,
    tau,
    totally_cyclic,
)

from helpers import (
    divisor,
    graph_family,
    graphs_with_divisors,
    graphs_with_orientations,
    make_e2,
    make_k3,
    make_k4,
    make_loop,
    multigraphs,
)

TRIANGLE_TERMS = {
    (2, 1, 0): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (1, 0, 2): 1,
    (0, 2, 1): 1,
    (0, 1, 2): 1,
    (1, 1, 1): 2,
}


class TestBPolynomial:
    def test_triangle(self):
        bp = b_polynomial(make_k3())
        assert dict(bp.terms) == TRIANGLE_TERMS

    def test_e2(self):
        assert dict(b_polynomial(make_e2()).terms) == {(1, 0): 1, (0, 1): 1}

    def test_parallel_edges_binomial(self):
        g = build_graph(["a", "b"], [("a", "b")] * 2)
        assert dict(b_polynomial(g).terms) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_loop_doubles(self):
        assert dict(b_polynomial(make_loop()).terms) == {(1,): 2}

    def test_coefficient_sum_and_exponent_degree(self):
        g = make_k4()
        bp = b_polynomial(g)
        assert bp.coefficient_sum() == 2 ** g.n_edges
        assert all(sum(expo) == g.n_edges for expo in bp.terms)

    def test_json_uses_decimal_strings(self):
        obj = b_polynomial(make_loop()).to_json_obj()
        assert obj == [{"exponents": {"v": 1}, "coeff": "2"}]
        json.dumps(obj)


class TestEnumerateIndegree:
    def test_triangle_seven(self):
        divs = enumerate_indegree(make_k3())
        expected = sorted(set(permutations((0, 1, 2))) | {(1, 1, 1)})
        assert [d.values for d in divs] == expected

    def test_e2(self):
        assert [d.values for d in enumerate_indegree(make_e2())] == [(0, 1), (1, 0)]

    def test_loop(self):
        assert [d.values for d in enumerate_indegree(make_loop())] == [(1,)]

    def test_matches_bpoly_support(self):
        g = make_k4()
        assert enumerate_indegree(g) == b_polynomial(g).support()


class TestIsIndegree:
    def test_triangle_interior_witness_is_cyclic(self):
        g = make_k3()
        for method in ("enumerate", "flow", "inequalities"):
            o = is_indegree(g, divisor(g, 1, 1, 1), method=method)
            assert o is not None
            assert indeg(o) == divisor(g, 1, 1, 1)
            assert strongly_connected(o)

    def test_degree_bound_violation(self):
        g = make_k3()
        for method in ("enumerate", "flow", "inequalities"):
            assert is_indegree(g, divisor(g, 3, 0, 0), method=method) is None

    def test_k4_minus_edge_example(self):
        # Five edges of K4 without (v1, v2); (1, 0, 2, 2) is an indegree
        # divisor there, realised by exactly two orientations.
        g = make_k4()
        sub = Subgraph(g, frozenset({1, 2, 3, 4, 5})).as_multigraph()
        d = Divisor(sub.vertices, (1, 0, 2, 2))
        for method in ("enumerate", "flow", "inequalities"):
            o = is_indegree(sub, d, method=method)
            assert o is not None and indeg(o) == d
        assert multiplicity(sub, d) == 2

    def test_negative_entry_short_circuits(self):
        g = make_e2()
        for method in ("enumerate", "flow", "inequalities"):
            assert is_indegree(g, divisor(g, -1, 2), method=method) is None

    def test_unknown_method(self):
        g = make_e2()
        with pytest.raises(StrataError):
            is_indegree(g, divisor(g, 0, 1), method="magic")

    def test_flow_witnesses_are_pinned(self):
        # the flow route's witness (or None) on every degree-feasible
        # divisor of the small family, hashed in family order
        digest = hashlib.sha256()
        count = 0
        for g in graph_family(max_vertices=3, max_edges=4):
            for values in product(range(g.n_edges + 1), repeat=g.n_vertices):
                if sum(values) == g.n_edges:
                    w = is_indegree(g, Divisor(g.vertices, values))
                    digest.update(repr(None if w is None else w.flips).encode())
                    count += 1
        assert count == 2740
        assert digest.hexdigest() == "b94101dcdd8d5f1766dd6b2c274cf5c4904f4710a652ac09abe807fe5b7fa300"

    @given(graphs_with_divisors())
    def test_methods_agree_and_witness(self, gd):
        g, d = gd
        results = {
            m: is_indegree(g, d, method=m)
            for m in ("enumerate", "flow", "inequalities")
        }
        present = {m: o is not None for m, o in results.items()}
        assert len(set(present.values())) == 1
        for o in results.values():
            if o is not None:
                assert indeg(o) == d


class TestMultiplicity:
    def test_triangle_values(self):
        g = make_k3()
        assert multiplicity(g, divisor(g, 1, 1, 1)) == 2
        assert multiplicity(g, divisor(g, 0, 1, 2)) == 1
        assert multiplicity(g, divisor(g, 3, 0, 0)) == 0

    def test_loop(self):
        g = make_loop()
        assert multiplicity(g, divisor(g, 1)) == 2

    def test_loops_scale_by_powers_of_two(self):
        g = build_graph(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")])
        for d in enumerate_indegree(g):
            assert multiplicity(g, d) % 4 == 0


class TestCircuitCountCheck:
    def test_triangle_cyclic(self):
        g = make_k3()
        from spectral_strata import Orientation

        cyclic = Orientation(g, (False, True, False))
        assert indeg(cyclic) == divisor(g, 1, 1, 1)
        assert circuit_count_check(g, cyclic) == 2

    def test_triangle_acyclic(self):
        g = make_k3()
        from spectral_strata import Orientation

        acyclic = Orientation(g, (False, False, False))
        assert indeg(acyclic) == divisor(g, 0, 1, 2)
        assert circuit_count_check(g, acyclic) == 1

    def test_single_edge(self):
        g = make_e2()
        from spectral_strata import Orientation

        assert circuit_count_check(g, Orientation(g, (False,))) == 1

    @given(graphs_with_orientations(max_edges=5))
    def test_matches_multiplicity(self, go):
        g, o = go
        assert circuit_count_check(g, o) == multiplicity(g, indeg(o))


class TestRelativeMultiplicity:
    def test_k4_value_two(self):
        g = make_k4()
        full = Subgraph(g, frozenset(range(6)))
        single = Subgraph(g, frozenset({0}))  # the (v1, v2) edge
        assert (
            relative_multiplicity(
                full, divisor(g, 1, 1, 2, 2), single, divisor(g, 0, 1, 0, 0)
            )
            == 2
        )

    def test_k4_value_zero_despite_domination(self):
        g = make_k4()
        full = Subgraph(g, frozenset(range(6)))
        # triangle on v1, v2, v3: edges (v1,v2), (v1,v3), (v2,v3)
        triangle = Subgraph(g, frozenset({0, 1, 3}))
        d, d1 = divisor(g, 2, 2, 1, 1), divisor(g, 0, 2, 1, 0)
        assert d1.pointwise_le(d)
        assert relative_multiplicity(full, d, triangle, d1) == 0

    def test_equal_subgraphs(self):
        g = make_k3()
        full = Subgraph(g, frozenset(range(3)))
        d = divisor(g, 1, 1, 1)
        assert relative_multiplicity(full, d, full, d) == 1

    def test_reduces_to_multiplicity_for_empty_lower(self):
        g = make_k3()
        full = Subgraph(g, frozenset(range(3)))
        empty = Subgraph(g, frozenset())
        zero = divisor(g, 0, 0, 0)
        for d in enumerate_indegree(g):
            assert relative_multiplicity(full, d, empty, zero) == multiplicity(g, d)

    def test_non_nested_is_error(self):
        g = make_k3()
        with pytest.raises(StrataError):
            relative_multiplicity(
                Subgraph(g, frozenset({0})),
                divisor(g, 0, 1, 0),
                Subgraph(g, frozenset({1})),
                divisor(g, 0, 0, 1),
            )

    def test_non_indegree_input_is_error(self):
        g = make_k3()
        full = Subgraph(g, frozenset(range(3)))
        empty = Subgraph(g, frozenset())
        with pytest.raises(StrataError):
            relative_multiplicity(full, divisor(g, 3, 0, 0), empty, divisor(g, 0, 0, 0))


class TestClassify:
    def test_triangle_interior(self):
        g = make_k3()
        cls = classify(g, divisor(g, 1, 1, 1), debug=True)
        assert cls.tag is DivisorTag.COMPLETELY_REDUCIBLE
        assert cls.irreducible and cls.completely_reducible
        assert totally_cyclic(cls.witness)

    def test_single_edge_reducible(self):
        # Brute force over both orientations of one edge: neither is
        # strongly connected or totally cyclic.
        g = make_e2()
        assert not any(totally_cyclic(o) for o in all_orientations(g))
        cls = classify(g, divisor(g, 0, 1), debug=True)
        assert cls.tag is DivisorTag.REDUCIBLE_NOT_CR
        assert not cls.irreducible and not cls.completely_reducible

    def test_totally_cyclic_matches_definition(self):
        # every arc (t, h) has t reachable from h, over every orientation
        # of seeded multigraphs with loops, parallel edges, isolated
        # vertices and several components
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            k = rng.randint(1, 6)
            edges = sorted(
                tuple(sorted((rng.randrange(k), rng.randrange(k))))
                for _ in range(rng.randint(0, 6))
            )
            g = Multigraph(tuple(f"v{i}" for i in range(k)), tuple(edges))
            features = {
                "loop": any(u == v for u, v in edges),
                "parallel": len(set(edges)) < len(edges),
                "isolated": len({x for e in edges for x in e}) < k,
                "components": sum(len(c) > 1 for c in g.connected_components()) > 1,
            }
            seen.update(name for name, present in features.items() if present)
            for o in all_orientations(g):
                out = {v: [] for v in range(k)}
                for t, h in o.arcs():
                    out[t].append(h)

                def reachable(a, b):
                    stack, visited = [a], {a}
                    while stack:
                        for y in out[stack.pop()]:
                            if y not in visited:
                                visited.add(y)
                                stack.append(y)
                    return b in visited

                assert totally_cyclic(o) == all(reachable(h, t) for t, h in o.arcs())
                assert strongly_connected(o) == all(
                    reachable(a, b) for a in range(k) for b in range(k)
                )
        assert seen >= {"loop", "parallel", "isolated", "components"}

    def test_edgeless_graph_zero_divisor(self):
        g = build_graph(["v1", "v2", "v3"], [])
        cls = classify(g, divisor(g, 0, 0, 0), debug=True)
        assert cls.tag is DivisorTag.COMPLETELY_REDUCIBLE
        assert not cls.irreducible  # disconnected
        assert cls.completely_reducible

    def test_not_indegree(self):
        g = make_k3()
        cls = classify(g, divisor(g, 3, 0, 0))
        assert cls.tag is DivisorTag.NOT_INDEGREE
        assert cls.witness is None

    def test_vertex_divisor_is_reducible(self):
        g = make_k3()
        cls = classify(g, divisor(g, 0, 1, 2), debug=True)
        assert cls.tag is DivisorTag.REDUCIBLE_NOT_CR

    @given(graphs_with_divisors(max_edges=4))
    def test_debug_mode_agreement(self, gd):
        g, d = gd
        classify(g, d, debug=True)


class TestClassifyFromWitness:
    """classify reads complete reducibility off its flow witness; the
    subset inequalities run only in the debug audit."""

    @staticmethod
    def feasible(g):
        for values in product(range(g.n_edges + 1), repeat=g.n_vertices):
            if sum(values) == g.n_edges:
                yield Divisor(g.vertices, values)

    def test_default_never_runs_the_inequality_oracle(self, monkeypatch):
        from spectral_strata import indegree

        def oracle(g, d):
            raise RuntimeError("subset-inequality oracle called")

        monkeypatch.setattr(indegree, "_interior_by_inequalities", oracle)
        graphs = list(graph_family(max_vertices=3, max_edges=4))
        # loops, parallel edges and several components all occur
        assert any(u == v for g in graphs for u, v in g.edges)
        assert any(len(set(g.edges)) < g.n_edges for g in graphs)
        assert any(len(g.connected_components()) > 2 for g in graphs)
        tags = {classify(g, d).tag for g in graphs for d in self.feasible(g)}
        assert tags == {DivisorTag.NOT_INDEGREE, DivisorTag.COMPLETELY_REDUCIBLE, DivisorTag.REDUCIBLE_NOT_CR}
        g = make_k3()
        with pytest.raises(RuntimeError, match="oracle called"):
            classify(g, divisor(g, 1, 1, 1), debug=True)

    def test_classes_are_pinned(self):
        # tag, flags and witness flips on every degree-feasible divisor of
        # the small family, hashed in family order
        digest = hashlib.sha256()
        count = 0
        for g in graph_family(max_vertices=3, max_edges=4):
            for d in self.feasible(g):
                c = classify(g, d)
                flips = None if c.witness is None else c.witness.flips
                digest.update(repr((c.tag.value, c.irreducible, c.completely_reducible, flips)).encode())
                count += 1
        assert count == 2740
        assert digest.hexdigest() == "b012869867452b44b90a4f6b0880880cb69d87f979ae3f933648b15af7f8237a"

    def test_matches_inequalities_beyond_the_family(self):
        from spectral_strata.indegree import _interior_by_inequalities

        rng = random.Random(14)
        seen = set()
        for _ in range(300):
            k = rng.randint(5, 8)
            pairs = [(i, j) for i in range(k) for j in range(i, k)]
            edges = tuple(sorted(rng.choice(pairs) for _ in range(rng.randint(k - 1, 2 * k))))
            g = Multigraph(tuple(f"v{i + 1}" for i in range(k)), edges)
            heads = [0] * k
            for u, v in edges:
                heads[rng.choice((u, v))] += 1
            moved = list(heads)
            a, b = rng.sample(range(k), 2)
            moved[a], moved[b] = moved[a] - 1, moved[b] + 1
            for values in (heads, moved):
                d = Divisor(g.vertices, tuple(values))
                c = classify(g, d)
                if c.witness is not None:
                    assert c.completely_reducible == _interior_by_inequalities(g, d), (g, d)
                    seen.add(c.completely_reducible)
        assert seen == {True, False}


class TestConditionChecks:
    def test_loop_graph_irreducible(self):
        g = make_loop()
        checks = irreducible_condition_checks(g, divisor(g, 1))
        assert set(checks.values()) == {True}

    def test_two_components_cr_but_not_irreducible(self):
        g = build_graph(["a", "b"], [("a", "a"), ("b", "b")])
        d = divisor(g, 1, 1)
        assert set(irreducible_condition_checks(g, d).values()) == {False}
        assert set(cr_condition_checks(g, d).values()) == {True}


class TestTau:
    def test_examples(self):
        g = make_k3()
        assert tau(g, divisor(g, 0, 1, 2)) == divisor(g, 2, 1, 0)
        assert tau(g, divisor(g, 1, 1, 1)) == divisor(g, 1, 1, 1)
        e2 = make_e2()
        assert tau(e2, divisor(e2, 0, 1)) == divisor(e2, 1, 0)

    @given(multigraphs(max_edges=5))
    def test_involution_and_bijection_on_indegree_divisors(self, g):
        divs = set(d.values for d in enumerate_indegree(g))
        for values in divs:
            d = Divisor(g.vertices, values)
            image = tau(g, d)
            assert tau(g, image) == d
            assert image.values in divs

    @given(graphs_with_orientations())
    def test_tau_of_indeg_is_indeg_of_reversal(self, go):
        g, o = go
        assert tau(g, indeg(o)) == indeg(o.reversed())


class TestSchurIdentity:
    def _vandermonde(self, n, square=False):
        terms = {}
        step = 2 if square else 1
        for sigma in permutations(range(n)):
            inversions = sum(
                1
                for x in range(n)
                for y in range(x + 1, n)
                if sigma[x] > sigma[y]
            )
            expo = tuple(step * s for s in sigma)
            terms[expo] = terms.get(expo, 0) + (-1) ** inversions
        return {k: v for k, v in terms.items() if v}

    def _poly_mul(self, a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return {k: v for k, v in out.items() if v}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_graph_schur(self, n):
        vertices = [f"v{i + 1}" for i in range(n)]
        g = build_graph(
            vertices,
            [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)],
        )
        bp = {expo: int(c) for expo, c in b_polynomial(g).terms.items()}
        lhs = self._poly_mul(bp, self._vandermonde(n))
        assert lhs == self._vandermonde(n, square=True)


class TestSubsetInequalityTables:
    """The subset-sum tables against a direct count over every subset."""

    @staticmethod
    def brute(g, values, strict):
        n = g.n_vertices
        ok_all, interior = True, True
        for mask in range(1, 1 << n):
            total = sum(values[i] for i in range(n) if mask >> i & 1)
            inside = sum(1 for u, v in g.edges if mask >> u & 1 and mask >> v & 1)
            ok_all &= total >= inside
        for comp in g.connected_components():
            members = sorted(comp)
            for mask in range(1, (1 << len(members)) - 1):
                subset = {members[i] for i in range(len(members)) if mask >> i & 1}
                total = sum(values[i] for i in subset)
                inside = sum(1 for u, v in g.edges if u in subset and v in subset)
                interior &= total > inside
        return interior if strict else ok_all

    @given(graphs_with_divisors(max_vertices=5, max_edges=6))
    def test_tables_match_direct_counts(self, case):
        from spectral_strata import indegree

        g, d = case
        tables = indegree._component_tables(g.n_vertices, g.edges)
        assert indegree._subset_inequalities_ok(g, d) == self.brute(g, d.values, False)
        bits = indegree._key_bits(max(g.n_edges, d.degree))
        encode, _ = indegree._key_codec(g.n_vertices, bits)
        flags = indegree._interior_flags([encode(d.values)], g.n_vertices, bits, tables)
        assert flags == [self.brute(g, d.values, True)]


class TestExponentKeys:
    """The packed exponent keys at digit widths past one byte."""

    @pytest.mark.parametrize("n_edges", [0, 1, 15, 255, 256, 301, 70000])
    def test_round_trip_and_order(self, n_edges):
        from spectral_strata import indegree

        rng = random.Random(n_edges)
        bits = indegree._key_bits(n_edges)
        assert n_edges < 1 << bits
        for n in (1, 2, 5):
            encode, decode = indegree._key_codec(n, bits)
            expos = [tuple(rng.choice([0, n_edges, rng.randint(0, n_edges)]) for _ in range(n)) for _ in range(60)]
            expos += [(0,) * n, (n_edges,) * n]
            keys = [encode(x) for x in expos]
            assert [decode(k) for k in keys] == expos
            assert [decode(k) for k in sorted(keys)] == sorted(expos)
            if n_edges > 255:
                assert any(x > 255 for expo in expos for x in expo)

    def test_three_hundred_parallel_edges_and_a_loop(self):
        # exponent 301 needs a digit wider than a byte
        from math import comb

        from spectral_strata import lattice_csv, zonotope_vertices
        from spectral_strata.indegree import _interior_by_inequalities

        g = Multigraph(("a", "b"), ((0, 1),) * 300 + ((1, 1),))
        e = g.n_edges
        assert b_polynomial(g, max_edges=e).terms == {(k, e - k): 2 * comb(300, k) for k in range(301)}
        for values in ((0, 301), (150, 151), (300, 1)):
            assert multiplicity(g, Divisor(g.vertices, values)) == 2 * comb(300, values[0])
        assert multiplicity(g, Divisor(g.vertices, (301, 0))) == 0
        assert [d.values for d in zonotope_vertices(g, max_edges=e)] == [(0, 301), (300, 1)]
        rows = lattice_csv(g, max_edges=e).splitlines()[1:]
        assert len(rows) == 301
        for row in rows:
            a, b, _, _, flag = row.split(",")
            interior = _interior_by_inequalities(g, Divisor(g.vertices, (int(a), int(b))))
            assert flag == str(interior).lower()
        assert {row.split(",")[-1] for row in rows} == {"true", "false"}
