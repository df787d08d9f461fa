import json
import random
import time
from fractions import Fraction as F
from itertools import combinations, cycle, product

import pytest
from hypothesis import assume, given, strategies as st

from spectral_strata import (
    ArrangementError,
    Divisor,
    Reducibility,
    SampleError,
    StrataError,
    StratumLabel,
    Subgraph,
    arrangement_from_json_obj,
    arrangement_product,
    arrangement_to_json_obj,
    char_poly,
    check_leading_condition,
    classification_to_json_obj,
    classify,
    classify_polynomial,
    divisor_of,
    eigen_line_data,
    enumerate_strata,
    gamma_of,
    interior_cubic_coefficients,
    interior_cubic_points,
    line_arrangement,
    matpoly_from_json_obj,
    matpoly_to_json_obj,
    matrix_polynomial,
    on_interior_cubic,
    reducibility,
    sample_stratum,
    tau,
)
from spectral_strata import matpoly as matpoly_module
from spectral_strata.exact import (
    det,
    nullspace,
    poly,
    poly_add,
    poly_matrix_det,
    poly_mul,
    rank,
    rational_roots,
)
from spectral_strata.strata import CurveShape

SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)

TWO_LINES = [("0", "0"), ("1", "1")]  # mu = 0 and mu = 1 + lambda
THREE_LINES = [("0", "0"), ("1", "1"), ("0", "2")]


def two_lines():
    return line_arrangement(TWO_LINES)


def three_lines():
    return line_arrangement(THREE_LINES)


def orb1(arr):
    (a1, b1), (a2, b2) = arr.lines
    return matrix_polynomial(
        [[[a1, 0], [0, a2]], [[b1, 0], [0, b2]]]
    )


def orb2(arr, z="5"):
    (a1, b1), (a2, b2) = arr.lines
    return matrix_polynomial([[[a1, z], [0, a2]], [[b1, 0], [0, b2]]])


def orb3(arr, z="5"):
    (a1, b1), (a2, b2) = arr.lines
    return matrix_polynomial([[[a1, 0], [z, a2]], [[b1, 0], [0, b2]]])


class TestCharPoly:
    def test_diagonal_two_lines(self):
        arr = two_lines()
        assert char_poly(orb1(arr)) == arrangement_product(arr)

    def test_triangular_matches_diagonal(self):
        arr = two_lines()
        assert char_poly(orb2(arr)) == arrangement_product(arr)

    def test_one_by_one_zero(self):
        p = matrix_polynomial([[["0"]]])
        q = char_poly(p)
        assert dict(q.terms) == {(0, 1): F(-1)}

    def test_top_mu_term_sign(self):
        arr = three_lines()
        q = char_poly(orb1_three(arr))
        assert q.coefficient(0, 3) == -1

    def test_size_cap(self):
        n = 7
        zero = [[0] * n for _ in range(n)]
        with pytest.raises(StrataError):
            char_poly(matrix_polynomial([zero]))

    @given(
        st.integers(0, 2).flatmap(
            lambda m: st.integers(1, 4).flatmap(
                lambda n: st.lists(
                    st.lists(st.lists(SMALL_RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n),
                    min_size=m + 1,
                    max_size=m + 1,
                )
            )
        ),
        SMALL_RATIONALS,
        SMALL_RATIONALS,
    )
    def test_matches_evaluated_determinant(self, coeffs, lam, mu):
        p = matrix_polynomial(coeffs)
        value = sum(c * lam**i * mu**j for (i, j), c in char_poly(p).terms.items())
        shifted = p.evaluate(lam)
        for i in range(p.n):
            shifted[i][i] -= mu
        assert value == det(shifted)


def orb1_three(arr):
    diag = [a for a, _ in arr.lines]
    slope = [b for _, b in arr.lines]
    n = len(diag)
    a0 = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    a1 = [[slope[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return matrix_polynomial([a0, a1])


class TestLeadingCondition:
    def test_constructed_polynomial_passes(self):
        arr = two_lines()
        q = char_poly(orb2(arr))
        assert check_leading_condition(q, arr.slopes(), 1, 2)

    def test_polygon_violation(self):
        arr = two_lines()
        q = char_poly(orb2(arr))
        bad = dict(q.terms)
        bad[(3, 0)] = F(1)  # lambda^{mn+1} breaks the triangle bound
        from spectral_strata import BivariatePolynomial

        assert not check_leading_condition(
            BivariatePolynomial(bad), arr.slopes(), 1, 2
        )

    def test_two_lines_hypotenuse_by_hand(self):
        # prod (b_k - w) for b = (0, 1) is w^2 - w, so the coefficients on
        # the hypotenuse must be: (2,0) -> 0, (1,1) -> -1, (0,2) -> 1.
        arr = two_lines()
        q = char_poly(orb1(arr))
        assert q.coefficient(2, 0) == 0
        assert q.coefficient(1, 1) == -1
        assert q.coefficient(0, 2) == 1
        assert check_leading_condition(q, ["0", "1"], 1, 2)

    def test_wrong_slopes_fail(self):
        arr = two_lines()
        q = char_poly(orb1(arr))
        assert not check_leading_condition(q, ["0", "2"], 1, 2)


class TestLineArrangement:
    def test_two_lines_node(self):
        arr = two_lines()
        assert arr.nodes == ((F(-1), F(0), 0, 1),)
        assert arr.dual_graph.edges == ((0, 1),)

    def test_three_lines_triangle(self):
        arr = three_lines()
        assert arr.dual_graph.n_vertices == 3
        assert arr.dual_graph.edges == ((0, 1), (0, 2), (1, 2))
        assert len(set((lam, mu) for lam, mu, _, _ in arr.nodes)) == 3

    def test_coincident_slopes_rejected(self):
        with pytest.raises(ArrangementError):
            line_arrangement([("0", "1"), ("5", "1")])

    def test_concurrent_lines_rejected(self):
        with pytest.raises(ArrangementError):
            line_arrangement([("0", "0"), ("0", "1"), ("0", "2")])

    def test_single_line(self):
        arr = line_arrangement([("1", "2")])
        assert arr.nodes == ()
        assert arr.dual_graph.n_edges == 0


class TestGammaOf:
    def test_orb1_removes_the_node(self):
        arr = two_lines()
        assert gamma_of(orb1(arr), arr).edge_list() == ()

    def test_orb2_keeps_the_node(self):
        arr = two_lines()
        assert gamma_of(orb2(arr), arr).edge_list() == (0,)

    def test_interior_sample_keeps_all(self):
        arr = three_lines()
        z, w = interior_cubic_points(arr, range(1, 30))[0]
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0, 1, 2})),
            Divisor(arr.dual_graph.vertices, (1, 1, 1)),
        )
        p = sample_stratum(arr, s, [z, w])
        assert gamma_of(p, arr).edge_list() == (0, 1, 2)

    def test_char_mismatch_rejected(self):
        arr = two_lines()
        other = line_arrangement([("0", "0"), ("2", "1")])
        with pytest.raises(StrataError):
            gamma_of(orb1(other), arr)


class TestDivisorOf:
    def test_orbits(self):
        arr = two_lines()
        assert divisor_of(orb1(arr), arr).values == (0, 0)
        assert divisor_of(orb2(arr), arr).values == (0, 1)
        assert divisor_of(orb3(arr), arr).values == (1, 0)

    def test_eigenvector_entries_are_coprime(self):
        from spectral_strata.exact import poly_gcd

        arr = two_lines()
        for data in eigen_line_data(orb2(arr), arr):
            g = ()
            for entry in data.eigenvector:
                g = poly_gcd(g, entry)
            assert g == (F(1),)

    def test_total_degree_law(self):
        arr = two_lines()
        for p in (orb1(arr), orb2(arr), orb3(arr)):
            assert divisor_of(p, arr).degree == gamma_of(p, arr).n_edges

    def test_eigenvector_identity(self):
        arr = two_lines()
        p = orb2(arr)
        for data in eigen_line_data(p, arr):
            a, b = arr.lines[data.line_index]
            for r in range(2):
                acc = ()
                for s in range(2):
                    entry = p.entry_poly(r, s)
                    if r == s:
                        entry = poly_add(entry, (-a, -b))
                    acc = poly_add(acc, poly_mul(entry, data.eigenvector[s]))
                assert acc == ()


class TestClassifyPolynomial:
    def test_two_lines_orbits(self):
        arr = two_lines()
        assert classification_to_json_obj(classify_polynomial(orb1(arr), arr)) == {
            "subgraph": [],
            "divisor": {"v1": 0, "v2": 0},
        }
        assert classification_to_json_obj(classify_polynomial(orb2(arr), arr)) == {
            "subgraph": [0],
            "divisor": {"v1": 0, "v2": 1},
        }
        assert classification_to_json_obj(classify_polynomial(orb3(arr), arr)) == {
            "subgraph": [0],
            "divisor": {"v1": 1, "v2": 0},
        }

    def test_borel_samples_hit_permutation_divisors(self):
        arr = three_lines()
        shape = CurveShape(arr.dual_graph, 1, 3)
        full = frozenset({0, 1, 2})
        for values in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            s = StratumLabel(
                Subgraph(arr.dual_graph, full),
                Divisor(arr.dual_graph.vertices, values),
            )
            p = sample_stratum(arr, s, ["1", "2", "3"])
            assert classify_polynomial(p, arr) == s

    def test_char_mismatch_rejected(self):
        arr = two_lines()
        other = line_arrangement([("0", "0"), ("2", "1")])
        for public in (classify_polynomial, divisor_of, eigen_line_data):
            with pytest.raises(StrataError):
                public(orb1(other), arr)
        with pytest.raises(StrataError):
            classify_polynomial(orb1(arr), three_lines())

    def test_one_char_poly_per_classification(self, monkeypatch):
        from spectral_strata import matpoly

        calls = []

        def counted(p):
            calls.append(p)
            return char_poly(p)

        monkeypatch.setattr(matpoly, "char_poly", counted)
        arr = two_lines()
        assert classify_polynomial(orb2(arr), arr).divisor.values == (0, 1)
        assert len(calls) == 1


class TestReducibility:
    def test_two_lines_orbits(self):
        arr = two_lines()
        assert reducibility(orb1(arr)) is Reducibility.COMPLETELY_REDUCIBLE
        assert reducibility(orb2(arr)) is Reducibility.REDUCIBLE_NOT_CR
        assert reducibility(orb3(arr)) is Reducibility.REDUCIBLE_NOT_CR

    def test_interior_sample_is_irreducible(self):
        arr = three_lines()
        z, w = interior_cubic_points(arr, range(1, 30))[0]
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0, 1, 2})),
            Divisor(arr.dual_graph.vertices, (1, 1, 1)),
        )
        assert reducibility(sample_stratum(arr, s, [z, w])) is Reducibility.IRREDUCIBLE

    def test_size_cap(self):
        zero = [[0] * 4 for _ in range(4)]
        with pytest.raises(StrataError):
            reducibility(matrix_polynomial([zero]))

    def test_repeated_eigenvalues_rejected(self):
        p = matrix_polynomial([[[0, 0], [0, 0]], [[1, 0], [0, 1]]])
        with pytest.raises(StrataError):
            reducibility(p)

    @pytest.mark.parametrize(
        "slopes", [(1000000007, 1000000009), (100003, 100019, 100043)]
    )
    def test_large_prime_slopes_within_budget(self, slopes):
        n = len(slopes)
        diag = [[b if i == j else 0 for j in range(n)] for i, b in enumerate(slopes)]
        a0 = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
        start = time.perf_counter()
        got = reducibility(matrix_polynomial([a0, diag]))
        elapsed = time.perf_counter() - start
        assert got is Reducibility.COMPLETELY_REDUCIBLE
        assert elapsed < 1.0, f"reducibility took {elapsed:.2f}s"


class TestInteriorCubic:
    def test_coefficients(self):
        # b = (0, 1, 2): cross product of (1, 1, 1) with b is (1, -2, 1),
        # and with a = (0, 1, 0) the mixed term is -2.
        arr = three_lines()
        assert interior_cubic_coefficients(arr) == (F(1), F(-2), F(1), F(-2))

    def test_points_lie_on_cubic(self):
        arr = three_lines()
        pts = interior_cubic_points(arr, [F(n, d) for n in range(-6, 7) for d in (1, 2)])
        assert pts
        for z, w in pts:
            assert z != 0 and w != 0
            assert on_interior_cubic(arr, z, w)

    def test_needs_three_lines(self):
        with pytest.raises(SampleError):
            interior_cubic_coefficients(two_lines())


class TestSampleStratum:
    def test_all_two_line_strata_round_trip(self):
        arr = two_lines()
        shape = CurveShape(arr.dual_graph, 1, 2)
        for s in enumerate_strata(shape):
            p = sample_stratum(arr, s, ["7"] * s.subgraph.n_edges)
            assert classify_polynomial(p, arr) == s

    def test_all_three_line_strata_round_trip(self):
        arr = three_lines()
        shape = CurveShape(arr.dual_graph, 1, 3)
        interior_divisor = (1, 1, 1)
        pts = interior_cubic_points(arr, range(1, 30))
        for s in enumerate_strata(shape):
            if s.subgraph.n_edges == 3 and s.divisor.values == interior_divisor:
                params = list(pts[0])
            else:
                params = ["2"] * s.subgraph.n_edges
            p = sample_stratum(arr, s, params)
            assert classify_polynomial(p, arr) == s

    def test_zero_parameter_rejected(self):
        arr = two_lines()
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0})),
            Divisor(arr.dual_graph.vertices, (0, 1)),
        )
        with pytest.raises(SampleError):
            sample_stratum(arr, s, ["0"])

    def test_point_off_cubic_rejected(self):
        arr = three_lines()
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0, 1, 2})),
            Divisor(arr.dual_graph.vertices, (1, 1, 1)),
        )
        with pytest.raises(SampleError):
            sample_stratum(arr, s, ["1", "1"])

    def test_wrong_parameter_count(self):
        arr = two_lines()
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0})),
            Divisor(arr.dual_graph.vertices, (0, 1)),
        )
        with pytest.raises(SampleError):
            sample_stratum(arr, s, ["1", "2"])

    def test_invalid_divisor_rejected(self):
        arr = two_lines()
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0})),
            Divisor(arr.dual_graph.vertices, (-1, 2)),
        )
        with pytest.raises(SampleError):
            sample_stratum(arr, s, ["1"])

    def test_degenerate_borel_parameters_detected(self):
        # For the full-triangle vertex strata a special relation between
        # the three star values collapses the kernel at one node; the
        # sampler must reject rather than mislabel.
        arr = three_lines()
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0, 1, 2})),
            Divisor(arr.dual_graph.vertices, (0, 1, 2)),
        )
        witness_arcs = [(0, 1), (0, 2), (1, 2)]  # stars at (1,2), (1,3), (2,3)
        # node of lines 1 and 3 sits at lambda = 0, where nu2 - mu = 1;
        # stars with s1*s3 = s2 * 1 are degenerate there.
        with pytest.raises(SampleError):
            sample_stratum(arr, s, ["2", "6", "3"])
        # generic stars are fine
        sample_stratum(arr, s, ["2", "5", "3"])


class TestTransposeLaw:
    def test_two_lines(self):
        arr = two_lines()
        for p in (orb1(arr), orb2(arr), orb3(arr)):
            label = classify_polynomial(p, arr)
            flipped = classify_polynomial(p.transpose(), arr)
            assert flipped.subgraph == label.subgraph
            sub = label.subgraph.as_multigraph()
            assert flipped.divisor == tau(sub, label.divisor)

    def test_three_lines_borel(self):
        arr = three_lines()
        s = StratumLabel(
            Subgraph(arr.dual_graph, frozenset({0, 1, 2})),
            Divisor(arr.dual_graph.vertices, (0, 1, 2)),
        )
        p = sample_stratum(arr, s, ["1", "2", "3"])
        flipped = classify_polynomial(p.transpose(), arr)
        assert flipped.divisor.values == (2, 1, 0)


class TestBeyondDegreeOne:
    def test_padded_degree_two_classifies(self):
        # classification accepts any declared degree; pad with a zero
        # leading block so the spectral curve stays the two-line product
        arr = two_lines()
        p = orb2(arr)
        zero = tuple((F(0), F(0)) for _ in range(2))
        padded = type(p)(p.coefficients + (zero,))
        assert padded.m == 2
        assert classify_polynomial(padded, arr) == classify_polynomial(p, arr)

    def test_divisor_off_the_subgraph_is_rejected(self):
        # char poly (mu - lambda)(mu - 1 - 2 lambda), yet divisor (0, 2) on
        # a one-edge subgraph, which no orientation gives
        arr = line_arrangement([("0", "1"), ("1", "2")])
        p = matrix_polynomial([[["0", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]], [["0", "1"], ["0", "0"]]])
        assert char_poly(p) == arrangement_product(arr)
        with pytest.raises(StrataError, match="violates the spectral-curve assumptions$"):
            classify_polynomial(p, arr)


class TestSingleLine:
    def test_one_line_pipeline(self):
        arr = line_arrangement([("3", "2")])
        p = matrix_polynomial([[["3"]], [["2"]]])
        label = classify_polynomial(p, arr)
        assert label.subgraph.edge_list() == ()
        assert label.divisor.values == (0,)
        assert reducibility(p) is Reducibility.IRREDUCIBLE


class TestRandomisedRoundTrips:
    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    def test_two_line_samples_round_trip(self, a2, b2_nonzero, z_seed):
        # any two non-parallel lines; slope of the first is 0
        arr = line_arrangement([(F(0), F(0)), (a2, b2_nonzero)])
        shape = CurveShape(arr.dual_graph, 1, 2)
        z = z_seed if z_seed != 0 else F(1)
        for s in enumerate_strata(shape):
            p = sample_stratum(arr, s, [z] * s.subgraph.n_edges)
            assert classify_polynomial(p, arr) == s
            assert check_leading_condition(char_poly(p), arr.slopes(), 1, 2)


class TestSerialisation:
    def test_matpoly_round_trip(self):
        arr = two_lines()
        p = orb2(arr, z="1/3")
        obj = matpoly_to_json_obj(p)
        assert obj["m"] == 1 and obj["n"] == 2
        assert obj["coeffs"][0][0][1] == "1/3"
        assert matpoly_from_json_obj(json.loads(json.dumps(obj))) == p

    def test_matpoly_declared_shape_checked(self):
        obj = {"m": 2, "n": 2, "coeffs": [[["0", "0"], ["0", "0"]]]}
        with pytest.raises(StrataError):
            matpoly_from_json_obj(obj)

    def test_arrangement_round_trip(self):
        arr = three_lines()
        obj = arrangement_to_json_obj(arr)
        assert arrangement_from_json_obj(json.loads(json.dumps(obj))) == arr

    def test_bivariate_json(self):
        arr = two_lines()
        rows = char_poly(orb1(arr)).to_json_obj()
        assert {"lambda": 0, "mu": 2, "coeff": "1"} in rows


ROW_DENOMINATORS = (1, 7, 10**10 + 19, 2**61 - 1)


def _unequal_rows_coeffs(rng, m, n):
    """m + 1 coefficient matrices whose row i draws its denominators from
    its own range, with numerators beyond 2^64."""
    out = []
    for _ in range(m + 1):
        mat = []
        for i in range(n):
            base = ROW_DENOMINATORS[i % len(ROW_DENOMINATORS)]
            mat.append(
                [
                    F(rng.choice([0, rng.randint(-(2**66), 2**66), rng.randint(-4, 4)]),
                      base * rng.randint(1, 9))
                    for _ in range(n)
                ]
            )
        out.append(mat)
    return out


class TestUnequalRowDenominators:
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_char_poly_at_rational_points(self, m, n):
        import random

        rng = random.Random(10 * m + n)
        for _ in range(3):
            p = matrix_polynomial(_unequal_rows_coeffs(rng, m, n))
            q = char_poly(p)
            assert all(isinstance(c, F) for c in q.terms.values())
            for lam, mu in ((F(0), F(0)), (F(-3, 7), F(5, 2)), (F(10**12 + 1, 13), F(-1, 10**9))):
                value = sum(c * lam**i * mu**j for (i, j), c in q.terms.items())
                shifted = p.evaluate(lam)
                for i in range(n):
                    shifted[i][i] -= mu
                assert value == det(shifted)

    def test_conjugated_samples_keep_label_and_identity(self):
        arr = three_lines()
        full = frozenset({0, 1, 2})
        # unipotent S = I + N with N^3 = 0, so S^-1 = I - N + N^2
        nil = [[F(0), F(1, 7), F(3, 10**10 + 19)], [F(0), F(0), F(-5, 2**61 - 1)], [F(0)] * 3]
        ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

        s = [[ident[i][j] + nil[i][j] for j in range(3)] for i in range(3)]
        nil2 = mul(nil, nil)
        s_inv = [[ident[i][j] - nil[i][j] + nil2[i][j] for j in range(3)] for i in range(3)]
        assert mul(s, s_inv) == ident
        for values in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            label = StratumLabel(
                Subgraph(arr.dual_graph, full), Divisor(arr.dual_graph.vertices, values)
            )
            p = sample_stratum(arr, label, ["1/3", "2", "-3/11"])
            conj = matrix_polynomial([mul(mul(s, a), s_inv) for a in p.coefficients])
            assert char_poly(conj) == arrangement_product(arr)
            assert classify_polynomial(conj, arr) == label
            for data in eigen_line_data(conj, arr):
                a, b = arr.lines[data.line_index]
                assert all(c.denominator == 1 for q in data.eigenvector for c in q)
                for r in range(3):
                    acc = ()
                    for col in range(3):
                        entry = conj.entry_poly(r, col)
                        if r == col:
                            entry = poly_add(entry, (-a, -b))
                        acc = poly_add(acc, poly_mul(entry, data.eigenvector[col]))
                    assert acc == ()


# ---------------------------------------------------------------------------
# integer node ranks and the eigenbasis reducibility test

FRACTIONAL_TWO = [("1/3", "-2/7"), ("-5/2", "3/4")]
FRACTIONAL_THREE = FRACTIONAL_TWO + [("2/9999999967", "5/3")]
MIXED_DENOMINATORS = (1, 2, 7, 9999999967, 10**10 + 19)
SAMPLE_PARAMS = (["2"], ["-3/5"], ["7/9999999967"], ["5"], ["-1/3"])


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _inverse(a):
    """Gauss-Jordan inverse over the Fractions."""
    n = len(a)
    m = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def _conjugate(p, s):
    s_inv = _inverse(s)
    return matrix_polynomial([_mat_mul(_mat_mul(s, a), s_inv) for a in p.coefficients])


def _unipotent(n):
    """I + N with N strictly upper triangular, mixed denominators (the six
    entries repeat from n = 5 on)."""
    entries = [F(1, 7), F(-3, 10**10 + 19), F(5, 2), F(-2, 9999999967), F(4, 3), F(1)]
    it = cycle(entries)
    return [[F(int(i == j)) if i >= j else next(it) for j in range(n)] for i in range(n)]


def _general(n):
    """A rational matrix with mixed denominators that is neither triangular
    nor diagonal: a lower unipotent times an upper unipotent whose column j
    is scaled by (j + 2) / (2 j + 3)."""
    lower = [list(row) for row in zip(*_unipotent(n))]
    upper = [[x * F(j + 2, 2 * j + 3) for j, x in enumerate(row)] for row in _unipotent(n)]
    return _mat_mul(lower, upper)


def _node_rank_oracle(p, lam, mu):
    shifted = p.evaluate(lam)
    for i in range(p.n):
        shifted[i][i] -= mu
    return p.n - len(nullspace(shifted))


def _node_ranks(p, c):
    rows, scales = matpoly_module._cleared_rows(p)
    return [matpoly_module._node_rank(rows, scales, p.m, lam, mu) for lam, mu, _, _ in c.nodes]


def _interior_label(arr):
    return StratumLabel(
        Subgraph(arr.dual_graph, frozenset({0, 1, 2})),
        Divisor(arr.dual_graph.vertices, (1, 1, 1)),
    )


def _cubic_point(arr, t):
    """(z, w) = (t (k - t) / (c1 c2 c3), t z) lies on the interior cubic."""
    c1, c2, c3, k = interior_cubic_coefficients(arr)
    z = t * (k - t) / (c1 * c2 * c3)
    return [z, t * z]


def _stratum_samples(arr):
    """One sample per stratum of a 2- or 3-line arrangement, from the first
    non-degenerate parameters in a fixed list; every stratum is reached."""
    shape = CurveShape(arr.dual_graph, 1, arr.n)
    out = []
    for s in enumerate_strata(shape):
        if arr.n == 3 and s == _interior_label(arr):
            candidates = [_cubic_point(arr, F(t)) for t in (2, -3, 5)]
        else:
            candidates = [vals * s.subgraph.n_edges for vals in SAMPLE_PARAMS]
        for params in candidates:
            try:
                out.append((s, sample_stratum(arr, s, params)))
                break
            except SampleError:
                continue
        else:
            raise AssertionError(f"no sample for {s}")
    return out


def _span_rank_invariant_subsets(p):
    """The Fraction span-and-rank route: for each subset of the leading
    coefficient's eigenvectors, stack the span and each image A_k v and
    compare ranks."""
    n = p.n
    lead = p.leading
    shifted = [[poly([lead[i][j], -int(i == j)]) for j in range(n)] for i in range(n)]
    roots = rational_roots(poly_matrix_det(shifted))
    eigvecs = [
        nullspace([[lead[i][j] - (b if i == j else 0) for j in range(n)] for i in range(n)])[0]
        for b in roots
    ]

    def invariant(subset):
        span = [eigvecs[k] for k in subset]
        for mat in p.coefficients:
            for k in subset:
                image = [sum(mat[i][j] * eigvecs[k][j] for j in range(n)) for i in range(n)]
                stacked = [[row[i] for row in span] + [image[i]] for i in range(n)]
                if rank(stacked) != len(span):
                    return False
        return True

    return {
        frozenset(subset)
        for size in range(1, n)
        for subset in combinations(range(n), size)
        if invariant(subset)
    }


def _class_of(inv, n):
    if not inv:
        return Reducibility.IRREDUCIBLE
    everything = frozenset(range(n))
    if all(everything - s in inv for s in inv):
        return Reducibility.COMPLETELY_REDUCIBLE
    return Reducibility.REDUCIBLE_NOT_CR


def _assert_reducibility_matches(p):
    want = _span_rank_invariant_subsets(p)
    assert matpoly_module._invariant_subsets(p) == want
    assert reducibility(p) is _class_of(want, p.n)


ENTRIES = st.one_of(
    st.just(F(0)),
    st.builds(
        F,
        st.integers(-(10**12), 10**12),
        st.sampled_from(MIXED_DENOMINATORS),
    ),
    SMALL_RATIONALS,
)
LINE_DATA = st.fractions(min_value=-6, max_value=6, max_denominator=12)


class TestIntegerNodeRanks:
    @given(
        st.lists(st.tuples(LINE_DATA, LINE_DATA), min_size=2, max_size=4),
        st.integers(0, 2),
        st.data(),
    )
    def test_random_polynomials_match_nullspace(self, lines, m, data):
        try:
            arr = line_arrangement(lines)
        except ArrangementError:
            assume(False)
        n = data.draw(st.integers(1, 4))
        coeffs = data.draw(
            st.lists(
                st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
                min_size=m + 1,
                max_size=m + 1,
            )
        )
        node = data.draw(st.sampled_from([None, *range(len(arr.nodes))]))
        if node is not None:
            # column 0 of P(lam) - mu Id vanishes at that node, so its rank drops
            lam, mu = arr.nodes[node][:2]
            for i in range(n):
                higher = sum(coeffs[k][i][0] * lam**k for k in range(1, m + 1))
                coeffs[0][i][0] = (mu if i == 0 else 0) - higher
        p = matrix_polynomial(coeffs)
        assert _node_ranks(p, arr) == [
            _node_rank_oracle(p, lam, mu) for lam, mu, _, _ in arr.nodes
        ]

    @pytest.mark.parametrize("lines", [FRACTIONAL_TWO, FRACTIONAL_THREE])
    def test_unipotent_conjugates_of_samples(self, lines):
        arr = line_arrangement(lines)
        assert any(lam.denominator > 1 and mu.denominator > 1 for lam, mu, _, _ in arr.nodes)
        dims = set()
        for label, p in _stratum_samples(arr):
            conj = _conjugate(p, _unipotent(arr.n))
            for q in (p, conj):
                got = _node_ranks(q, arr)
                assert got == [_node_rank_oracle(q, lam, mu) for lam, mu, _, _ in arr.nodes]
                dims.update(arr.n - r for r in got)
            assert classify_polynomial(conj, arr) == label
        assert dims == {1, 2}

    def test_degree_two_node_ranks(self):
        # lambda^2 terms with fractional lambda exercise q^m with m = 2
        arr = line_arrangement(FRACTIONAL_THREE)
        for _, p in _stratum_samples(arr):
            a0, a1 = p.coefficients
            quad = [[F(x) * F(3, 7) for x in row] for row in a1]
            padded = matrix_polynomial([a0, a1, quad])
            assert _node_ranks(padded, arr) == [
                _node_rank_oracle(padded, lam, mu) for lam, mu, _, _ in arr.nodes
            ]


class TestEigenbasisReducibility:
    @pytest.mark.parametrize(
        "lines", [TWO_LINES, THREE_LINES, FRACTIONAL_TWO, FRACTIONAL_THREE]
    )
    def test_conjugated_stratum_samples(self, lines):
        arr = line_arrangement(lines)
        samples = _stratum_samples(arr)
        if arr.n == 3:
            assert any(label == _interior_label(arr) for label, _ in samples)
        for s in (_general(arr.n), _unipotent(arr.n)):
            for _, p in samples:
                conj = _conjugate(p, s)
                assert any(conj.leading[i][j] for i in range(arr.n) for j in range(arr.n) if i != j)
                _assert_reducibility_matches(p)
                _assert_reducibility_matches(conj)
                _assert_reducibility_matches(conj.transpose())

    def test_triangular_links_are_directed(self):
        # upper triangular: span{v_0} is invariant, span{v_1} is not
        arr = two_lines()
        assert matpoly_module._invariant_subsets(orb2(arr)) == {frozenset({0})}
        assert matpoly_module._invariant_subsets(orb3(arr)) == {frozenset({1})}

    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from([F(0)] * 3 + [F(1), F(-2), F(1, 3), F(5, 9999999967)]),
                         min_size=n * n, max_size=n * n),
                st.lists(SMALL_RATIONALS, min_size=n * n, max_size=n * n),
                st.lists(st.integers(-9, 9), min_size=n, max_size=n, unique=True),
            )
        )
    )
    def test_drawn_constant_terms(self, drawn):
        pattern, s_entries, slopes = drawn
        n = len(slopes)
        s = [s_entries[i * n:(i + 1) * n] for i in range(n)]
        assume(det(s) != 0)
        b = [[F(slopes[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
        a0 = [pattern[i * n:(i + 1) * n] for i in range(n)]
        _assert_reducibility_matches(_conjugate(matrix_polynomial([a0, b]), s))


# ---------------------------------------------------------------------------
# reducibility beyond three lines

BLOCKS_TWO = (
    [("0", "-1"), ("2", "-2")],
    [("1", "-3"), ("0", "4")],
    [("5", "-5"), ("1", "-6")],
)
BLOCKS_THREE = ([("0", "2"), ("1", "3"), ("4", "5")], [("0", "-4"), ("1", "6"), ("3", "7")])


def _block_sum(*polys):
    """The direct sum of matrix polynomials of one degree."""
    n = sum(p.n for p in polys)
    coeffs = []
    for k in range(polys[0].m + 1):
        mat = [[F(0)] * n for _ in range(n)]
        offset = 0
        for p in polys:
            for i, row in enumerate(p.coefficients[k]):
                mat[offset + i][offset:offset + p.n] = row
            offset += p.n
        coeffs.append(mat)
    return matrix_polynomial(coeffs)


def _pattern_polynomial(n, arcs, rng):
    """A_0 + lambda diag(b) with distinct integer slopes b, and A_0 with a
    random diagonal and random nonzero entries at the given arcs."""
    slopes = rng.sample(range(-9, 10), n)
    a0 = [[F(rng.randint(-5, 5)) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i, j in arcs:
        a0[i][j] = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
    b = [[F(slopes[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
    return matrix_polynomial([a0, b])


class TestReducibilityBeyondThree:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_triangular_and_conjugated(self, n):
        # span{e_0} is invariant under an upper triangular pattern
        rng = random.Random(n)
        for _ in range(3):
            arcs = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5]
            p = _pattern_polynomial(n, arcs, rng)
            assert reducibility(p) is not Reducibility.IRREDUCIBLE
            _assert_reducibility_matches(p)
            _assert_reducibility_matches(_conjugate(p, _general(n)))
            _assert_reducibility_matches(_conjugate(p, _unipotent(n)).transpose())

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cyclic_is_irreducible(self, n):
        # a directed n-cycle in A_0 leaves no coordinate span invariant
        rng = random.Random(10 + n)
        for _ in range(2):
            arcs = [(i, (i + 1) % n) for i in range(n)]
            arcs += [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.2]
            p = _pattern_polynomial(n, arcs, rng)
            for q in (p, _conjugate(p, _general(n))):
                assert reducibility(q) is Reducibility.IRREDUCIBLE
                _assert_reducibility_matches(q)

    def test_block_sums_of_samples(self):
        # direct sums of 2- and 3-line stratum samples, over the union of
        # their arrangements: the oracle, and the class of the label
        two = [[p for _, p in _stratum_samples(line_arrangement(x))] for x in BLOCKS_TWO]
        three = [[p for _, p in _stratum_samples(line_arrangement(x))] for x in BLOCKS_THREE]
        cases = [
            (BLOCKS_TWO[:2], list(product(*two[:2]))),
            ([BLOCKS_TWO[0], BLOCKS_THREE[0]], list(product(two[0], three[0]))),
            (BLOCKS_TWO, list(product(*two))),
            (BLOCKS_THREE, list(product(*three))[::9]),
        ]
        seen = set()
        for blocks, parts in cases:
            arr = line_arrangement([line for block in blocks for line in block])
            for k, pieces in enumerate(parts):
                p = _block_sum(*pieces)
                red = reducibility(p)
                seen.add((p.n, red))
                _assert_reducibility_matches(p)
                if k % 8 == 0:
                    _assert_reducibility_matches(_conjugate(p, _general(p.n)))
                label = classify_polynomial(p, arr)
                divisor_class = classify(label.subgraph.as_multigraph(), label.divisor)
                assert (red is Reducibility.IRREDUCIBLE) == divisor_class.irreducible
                assert (red is not Reducibility.REDUCIBLE_NOT_CR) == (
                    divisor_class.completely_reducible
                )
        assert {red for _, red in seen} == {
            Reducibility.COMPLETELY_REDUCIBLE,
            Reducibility.REDUCIBLE_NOT_CR,
        }
        assert {n for n, _ in seen} == {4, 5, 6}

    def test_seven_lines_exceed_the_cap(self):
        slopes = range(1, 8)
        diag = [[F(b) if i == j else F(0) for j in range(7)] for i, b in enumerate(slopes)]
        with pytest.raises(StrataError, match="exceeds the char_poly cap"):
            reducibility(matrix_polynomial([diag, diag]))

    def test_no_fraction_linear_algebra_or_orientation_sweep(self, monkeypatch):
        import sys

        from spectral_strata import exact, graphs

        def boom(*args, **kwargs):
            raise AssertionError("Fraction route or orientation sweep taken")

        patched = {
            "nullspace": exact.nullspace,
            "poly_matrix_det": exact.poly_matrix_det,
            "all_orientations": graphs.all_orientations,
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spectral_strata":
                for attr, original in patched.items():
                    if getattr(module, attr, None) is original:
                        monkeypatch.setattr(module, attr, boom)
        for lines in (TWO_LINES, THREE_LINES, BLOCKS_THREE[1]):
            for _, p in _stratum_samples(line_arrangement(lines)):
                reducibility(p)
                reducibility(_conjugate(p, _general(p.n)))
        p = _block_sum(*(orb1(line_arrangement(x)) for x in BLOCKS_TWO))
        assert reducibility(p) is Reducibility.COMPLETELY_REDUCIBLE


class TestIntegerRoutesCounted:
    def test_no_rank_call(self, monkeypatch):
        from spectral_strata import exact

        def boom(matrix):
            raise AssertionError("rank called")

        for module in (exact, matpoly_module):
            monkeypatch.setattr(module, "rank", boom, raising=False)
        arr = line_arrangement(FRACTIONAL_THREE)
        for label, p in _stratum_samples(arr):
            conj = _conjugate(p, _general(3))
            assert classify_polynomial(conj, arr) == label
            reducibility(conj)

    def test_line_kernels_take_the_cleared_rows(self, monkeypatch):
        # P's rows are cleared once for char_poly and once for the node
        # ranks and line matrices; the line kernels run on integers
        from spectral_strata import exact

        def no_clearing(matrix):
            raise AssertionError("rational kernel route taken")

        cleared = []
        clear = matpoly_module.clear_row_denominators

        def counted(matrix):
            cleared.append(matrix)
            return clear(matrix)

        monkeypatch.setattr(exact, "clear_row_denominators", no_clearing)
        monkeypatch.setattr(matpoly_module, "clear_row_denominators", counted)
        arr = line_arrangement(FRACTIONAL_THREE)
        samples = _stratum_samples(arr)
        cleared.clear()  # the sampler classifies its own samples
        for label, p in samples:
            assert classify_polynomial(_conjugate(p, _general(3)), arr) == label
        assert len(cleared) == 2 * len(samples)

    def test_simple_eigenvalue_has_one_eigenvector(self, monkeypatch):
        # unreachable once the roots are distinct; the check stays as an assert
        def two_dimensional(rows):
            raise StrataError("adjugate vanishes: kernel dimension is at least two")

        monkeypatch.setattr(matpoly_module, "int_poly_matrix_kernel_vector", two_dimensional)
        arr = two_lines()
        with pytest.raises(AssertionError, match="must have a one-dimensional eigenspace"):
            reducibility(orb2(arr))

    def test_one_product_per_arrangement(self, monkeypatch):
        from spectral_strata.matpoly import SpectralLineArrangement

        prop = SpectralLineArrangement.__dict__["product"]
        calls = []

        def counted(self):
            calls.append(self)
            return original(self)

        original = prop.func
        monkeypatch.setattr(prop, "func", counted)
        arr = two_lines()
        for p in (orb1(arr), orb2(arr)):
            classify_polynomial(p, arr)
        assert len(calls) == 1
        assert arrangement_product(arr) is arrangement_product(arr)
        assert arrangement_product(two_lines()) == arrangement_product(arr)
        assert len(calls) == 2
