import gc
import random
from fractions import Fraction as F
from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from reference import (
    cofactor_expansion,
    int_poly_mul,
    int_poly_neg,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_neg,
)
from spectral_strata import exact
from spectral_strata.errors import StrataError
from spectral_strata.exact import (
    det,
    nullspace,
    parse_rational,
    poly,
    poly_content_free,
    poly_degree,
    poly_eval,
    poly_matrix_det,
    poly_matrix_kernel_vector,
    poly_mul,
    rank,
    rational_roots,
    sqrt_rational,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def small_polys(max_degree=3):
    return st.lists(rationals, max_size=max_degree + 1).map(poly)


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-2") == F(-2)
        assert parse_rational(5) == F(5)
        assert parse_rational(F(1, 3)) == F(1, 3)

    def test_invalid(self):
        with pytest.raises(StrataError):
            parse_rational("x+1")
        with pytest.raises(StrataError):
            parse_rational("1/0")

    @pytest.mark.parametrize(
        "text", ["1_0", " 2 ", "1e4300", "0.5", "+1", "1/-2", "1 / 2", "", "\u0661", 0.5, None]
    )
    def test_outside_the_grammar(self, text):
        # a JSON integer or a string -?[0-9]+(/[0-9]+)?, nothing else
        with pytest.raises(StrataError, match="cannot parse rational"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text", ["7" * 5001, "x" * 5001, ["1"] * 5001], ids=["digits", "letters", "list"]
    )
    def test_long_input_is_quoted_in_part(self, text):
        with pytest.raises(StrataError, match="cannot parse rational") as info:
            parse_rational(text)
        assert len(str(info.value)) < 300
        assert "characters)" in str(info.value)

    def test_short_input_is_quoted_whole(self):
        with pytest.raises(StrataError) as info:
            parse_rational("1_0")
        assert str(info.value) == "cannot parse rational '1_0': not an integer or a 'p/q' string"


class TestPolyArithmetic:
    def test_trailing_zeros_trimmed(self):
        assert poly([1, 2, 0, 0]) == (F(1), F(2))
        assert poly([0, 0]) == ()
        assert poly_degree(()) == -1

    def test_mul_example(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert poly_mul(poly([1, 1]), poly([1, -1])) == poly([1, 0, -1])

    @given(small_polys(), small_polys())
    def test_divmod_reconstructs(self, a, b):
        if not b:
            return
        q, r = poly_divmod(a, b)
        assert poly_add(poly_mul(q, b), r) == a
        assert poly_degree(r) < poly_degree(b)

    @given(small_polys(), small_polys())
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        if not g:
            assert not a and not b
            return
        for p in (a, b):
            if p:
                assert poly_divmod(p, g)[1] == ()

    def test_eval(self):
        assert poly_eval(poly([1, 2, 3]), F(2)) == 1 + 4 + 12


class TestContentFree:
    def test_common_factor_removed(self):
        x_plus_1 = poly([1, 1])
        vec = (poly_mul(x_plus_1, poly([2])), poly_mul(x_plus_1, poly([0, 4])))
        reduced = poly_content_free(vec)
        assert reduced == (poly([1]), poly([0, 2]))

    def test_sign_normalisation(self):
        reduced = poly_content_free((poly([-2]), poly([0, -4])))
        assert reduced == (poly([1]), poly([0, 2]))

    def test_zero_vector_rejected(self):
        with pytest.raises(StrataError):
            poly_content_free(((), ()))

    def test_zero_entries_preserved(self):
        reduced = poly_content_free(((), poly([3])))
        assert reduced == ((), poly([1]))


class TestRationalRoots:
    def test_quadratic(self):
        # (2x - 1)(x + 3) = 2x^2 + 5x - 3
        assert rational_roots(poly([-3, 5, 2])) == [F(-3), F(1, 2)]

    def test_zero_root(self):
        assert rational_roots(poly([0, 0, 1])) == [F(0)]

    def test_irrational(self):
        assert rational_roots(poly([-2, 0, 1])) == []


@st.composite
def polys_with_known_roots(draw):
    """(p, roots): p is a product of factors whose rational roots are known
    from their construction, so the oracle shares no code with
    rational_roots."""
    scalar = draw(st.sampled_from((-1, 1))) * F(
        draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
    )
    p, roots = poly([scalar]), set()
    linear = draw(
        st.lists(
            st.tuples(st.integers(-10**12, 10**12), st.integers(1, 10**6)), max_size=4
        )
    )
    for a, b in linear:  # b x + a
        p = poly_mul(p, poly([a, b]))
        roots.add(F(-a, b))
    quadratics = draw(
        st.lists(
            # small coefficients, so that square discriminants are common
            st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 6)),
            max_size=2,
        )
    )
    for c, b, a in quadratics:  # a x^2 + b x + c
        p = poly_mul(p, poly([c, b, a]))
        root = sqrt_rational(F(b * b - 4 * a * c))
        if root is not None:
            roots |= {(-b + root) / (2 * a), (-b - root) / (2 * a)}
    if linear and draw(st.booleans()):
        a, b = draw(st.sampled_from(linear))
        p = poly_mul(p, poly([a, b]))
    if draw(st.booleans()):
        p = poly_mul(p, poly([0, 1]))
        roots.add(F(0))
    return p, sorted(roots)


class TestRationalRootsOracle:
    @given(polys_with_known_roots())
    def test_matches_known_factors(self, case):
        p, roots = case
        assert rational_roots(p) == roots

    def test_large_and_repeated_roots(self):
        # (3x - 7)(5x + 2) and (x - 10^9)^2 (x + 1/2) through the same oracle
        assert rational_roots(poly_mul(poly([-7, 3]), poly([2, 5]))) == [F(-2, 5), F(7, 3)]
        sq = poly_mul(poly([-(10**9), 1]), poly([-(10**9), 1]))
        assert rational_roots(poly_mul(sq, poly([F(1, 2), 1]))) == [F(-1, 2), F(10**9)]

    def test_double_roots_at_bisection_points(self):
        # small integers are dyadic, so the bisection lands on the double root
        for r1 in range(-9, 10):
            for r2 in range(-9, 10):
                double = poly_mul(poly([-r1, 1]), poly([-r1, 1]))
                p = poly_mul(double, poly([-r2, 1]))
                assert rational_roots(p) == sorted({F(r1), F(r2)})


class TestSqrtRational:
    def test_square(self):
        assert sqrt_rational(F(9, 4)) == F(3, 2)

    def test_non_square(self):
        assert sqrt_rational(F(2)) is None
        assert sqrt_rational(F(-4)) is None


class TestLinearAlgebra:
    def test_rank_examples(self):
        assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert rank([[F(0), F(0)]]) == 0

    def test_rank_with_fractions(self):
        assert rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1)]]) == 2
        assert rank([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]) == 1

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=3))
    def test_nullspace_vectors_annihilate(self, rows):
        for vec in nullspace(rows):
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    def test_rank_nullity(self, rows):
        assert rank(rows) + len(nullspace(rows)) == 3

    def test_det(self):
        assert det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
        assert det([[F(1), F(2)], [F(2), F(4)]]) == 0


def square_poly_matrices():
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(small_polys(max_degree=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def random_poly(rng):
    """Degree at most 2, possibly zero."""
    return poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])


def random_rows(rng, count, n):
    return [[random_poly(rng) for _ in range(n)] for _ in range(count)]


def combination(rng, rows):
    """A random combination of the rows with nonzero polynomial
    coefficients."""
    n = len(rows[0])
    out = [()] * n
    for row in rows:
        c = poly([rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])])
        out = [poly_add(a, poly_mul(c, b)) for a, b in zip(out, row)]
    return out


def leibniz_det(matrix):
    """Determinant as the signed sum over permutations."""
    n = len(matrix)
    total = ()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = poly([-1 if inversions % 2 else 1])
        for r, c in enumerate(perm):
            term = poly_mul(term, matrix[r][c])
        total = poly_add(total, term)
    return total


def leibniz_adjugate_column(matrix, col):
    """Column col of adj(M): entry j is (-1)^(col+j) det(M without row col
    and column j)."""
    n = len(matrix)
    out = []
    for j in range(n):
        sub = [[matrix[r][c] for c in range(n) if c != j] for r in range(n) if r != col]
        minor = leibniz_det(sub)
        out.append(poly_mul(poly([-1]), minor) if (col + j) % 2 else minor)
    return out


def rank_deficient(rng, n, drop):
    """An n x n matrix with n - drop random rows; the others are random
    combinations of them."""
    rows = random_rows(rng, n - drop, n)
    return rows + [combination(rng, rows) for _ in range(drop)]


class TestPolyMatrices:
    @given(square_poly_matrices(), rationals)
    def test_det_commutes_with_evaluation(self, entries, x):
        symbolic = poly_matrix_det(entries)
        numeric = det([[poly_eval(e, x) for e in row] for row in entries])
        assert poly_eval(symbolic, x) == numeric

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_expansion_gives_leibniz_det_and_adjugate_column(self, n):
        mat = random_rows(random.Random(n), n, n)
        for row in range(n):
            total, column = cofactor_expansion(
                mat, row, (), poly([1]), poly_mul, poly_add, poly_neg
            )
            assert total == leibniz_det(mat)
            assert column == leibniz_adjugate_column(mat, row)

    def test_expansion_leaves_no_reference_cycle(self):
        mat = random_rows(random.Random(3), 3, 3)
        gc.disable()
        try:
            gc.collect()
            cofactor_expansion(mat, 0, (), poly([1]), poly_mul, poly_add, poly_neg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fallback", [False, True])
    def test_kernel_matches_leibniz_adjugate(self, n, seed, fallback):
        rng = random.Random(1000 * n + seed)
        if fallback:
            # rows n-2 and n-1 are equal, so every cofactor of rows
            # 0 .. n-3 vanishes and the kernel comes from row n-2
            rows = random_rows(rng, n - 1, n)
            mat, first = rows + [rows[-1]], n - 2
        else:
            mat, first = rank_deficient(rng, n, 1), 0
        columns = [leibniz_adjugate_column(mat, c) for c in range(n)]
        assert leibniz_det(mat) == ()
        assert next(c for c in range(n) if any(columns[c])) == first
        vec = poly_matrix_kernel_vector(mat)
        assert vec == poly_content_free(columns[first])
        for row in mat:
            acc = ()
            for a, b in zip(row, vec):
                acc = poly_add(acc, poly_mul(a, b))
            assert acc == ()

    @pytest.mark.parametrize("n", [3, 4])
    def test_kernel_rejects_full_rank_and_rank_n_minus_2(self, n):
        rng = random.Random(n)
        full = random_rows(rng, n, n)
        assert leibniz_det(full) != ()
        with pytest.raises(StrataError, match="^matrix has nonzero determinant; kernel is trivial$"):
            poly_matrix_kernel_vector(full)
        low = rank_deficient(rng, n, 2)
        assert not any(any(leibniz_adjugate_column(low, c)) for c in range(n))
        with pytest.raises(StrataError, match="^adjugate vanishes: kernel dimension is at least two$"):
            poly_matrix_kernel_vector(low)

    def test_kernel_runs_one_expansion(self, monkeypatch):
        calls = {"elimination": 0, "det": 0}
        eliminate, full_det = exact.bareiss, exact.poly_matrix_det

        def counted_elimination(rows):
            calls["elimination"] += 1
            return eliminate(rows)

        def counted_det(matrix):
            calls["det"] += 1
            return full_det(matrix)

        monkeypatch.setattr(exact, "bareiss", counted_elimination)
        monkeypatch.setattr(exact, "poly_matrix_det", counted_det)
        mat = rank_deficient(random.Random(4), 4, 1)
        assert any(leibniz_adjugate_column(mat, 0))
        poly_matrix_kernel_vector(mat)
        assert calls == {"elimination": 1, "det": 0}

    def test_kernel_of_singular_matrix(self):
        # rows are proportional: (x, x^2), (1, x)
        mat = [[poly([0, 1]), poly([0, 0, 1])], [poly([1]), poly([0, 1])]]
        vec = poly_matrix_kernel_vector(mat)
        for row in mat:
            acc = poly_add(poly_mul(row[0], vec[0]), poly_mul(row[1], vec[1]))
            assert acc == ()
        assert vec == (poly([0, -1]), poly([1])) or vec == (poly([0, 1]), poly([-1]))

    def test_nonsingular_rejected(self):
        mat = [[poly([1]), ()], [(), poly([1])]]
        with pytest.raises(StrataError):
            poly_matrix_kernel_vector(mat)

    def test_rank_deficiency_two_rejected(self):
        zero = [[(), ()], [(), ()]]
        with pytest.raises(StrataError):
            poly_matrix_kernel_vector(zero)

    def test_one_by_one(self):
        assert poly_matrix_kernel_vector([[()]]) == (poly([1]),)


def reference_content_free(vector):
    """The Fraction-only normalisation the integer one replaced: divide by
    the monic gcd, clear denominators, divide by the content, make the
    first nonzero entry's leading coefficient positive."""
    g = ()
    for p in vector:
        g = poly_gcd(g, p)
    reduced = [poly_divmod(p, g)[0] if p else () for p in vector]
    denom = 1
    for p in reduced:
        for c in p:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    cleared = [tuple(c * denom for c in p) for p in reduced]
    content = 0
    for p in cleared:
        for c in p:
            content = gcd(content, c.numerator)
    cleared = [tuple(c / content for c in p) for p in cleared]
    if next(p for p in cleared if p)[-1] < 0:
        cleared = [tuple(-c for c in p) for p in cleared]
    return tuple(cleared)


BIG_DENOMINATORS = (1, 7, 10**10 + 19, 2**61 - 1, 3**25, 999_999_999_989)


def big_rational(rng):
    """Numerators up to 2^70, denominators from BIG_DENOMINATORS or small."""
    num = rng.choice([rng.randint(-(2**70), 2**70), rng.randint(-9, 9)])
    return F(num, rng.choice(BIG_DENOMINATORS + (rng.randint(1, 50),)))


def big_poly(rng):
    return poly([big_rational(rng) for _ in range(rng.randint(0, 3))])


def big_rows(rng, count, n):
    return [[big_poly(rng) for _ in range(n)] for _ in range(count)]


class TestIntegerKernels:
    """The integer expansions against Fraction oracles that share no code
    with the integer ring."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_cleared_expansion_matches_leibniz(self, n, seed):
        mat = big_rows(random.Random(100 * n + seed), n, n)
        rows, scales = exact.clear_row_denominators(mat)
        assert all(isinstance(c, int) for row in rows for p in row for c in p)
        product = prod(scales)
        for row in range(n):
            total, column = cofactor_expansion(
                rows, row, (), (1,), int_poly_mul, exact.int_poly_add, int_poly_neg
            )
            assert poly([F(c, product) for c in total]) == leibniz_det(mat)
            others = F(product, scales[row])
            want = leibniz_adjugate_column(mat, row)
            assert [poly([F(c) / others for c in p]) for p in column] == want
        assert poly_matrix_det(mat) == leibniz_det(mat)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_with_large_denominators(self, n, seed):
        rng = random.Random(10 * n + seed)
        rows = big_rows(rng, n - 1, n)
        # the last row is a combination with rational polynomial coefficients
        last = [()] * n
        for row in rows:
            c = poly([big_rational(rng), F(rng.choice([-3, 1, 2]), rng.choice(BIG_DENOMINATORS))])
            last = [poly_add(a, poly_mul(c, b)) for a, b in zip(last, row)]
        mat = rows + [last]
        assert leibniz_det(mat) == ()
        columns = [leibniz_adjugate_column(mat, c) for c in range(n)]
        first = next(c for c in range(n) if any(columns[c]))
        vec = poly_matrix_kernel_vector(mat)
        assert vec == reference_content_free(columns[first])
        assert all(isinstance(c, F) for p in vec for c in p)
        for row in mat:
            acc = ()
            for a, b in zip(row, vec):
                acc = poly_add(acc, poly_mul(a, b))
            assert acc == ()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_integer_kernel_is_the_rational_one(self, n, seed):
        # the rational entry clears the rows and calls the integer core
        rng = random.Random(50 * n + seed)
        rows = big_rows(rng, n - 1, n)
        mat = rows + [[poly_add(a, b) for a, b in zip(rows[0], rows[-1])]]
        cleared, _ = exact.clear_row_denominators(mat)
        ints = exact.int_poly_matrix_kernel_vector(cleared)
        assert all(isinstance(c, int) for p in ints for c in p)
        assert poly_matrix_kernel_vector(mat) == tuple(poly([F(c) for c in p]) for p in ints)
        full = big_rows(rng, n, n)
        assert leibniz_det(full) != ()
        with pytest.raises(StrataError, match="^matrix has nonzero determinant; kernel is trivial$"):
            exact.int_poly_matrix_kernel_vector(exact.clear_row_denominators(full)[0])
        with pytest.raises(StrataError, match="^adjugate vanishes: kernel dimension is at least two$"):
            exact.int_poly_matrix_kernel_vector([[()] * n for _ in range(n)])

    @pytest.mark.parametrize("seed", range(60))
    def test_content_free_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        common = poly([big_rational(rng) or 1 for _ in range(rng.randint(1, 3))])
        vector = []
        for _ in range(n):
            if rng.random() < 0.3:
                vector.append(())  # zero entries
            else:
                entry = poly_mul(big_poly(rng) or poly([F(-1, 3)]), common)
                vector.append(entry if rng.random() < 0.5 else tuple(-c for c in entry))
        if not any(vector):
            vector[-1] = poly([F(-5, 7), F(-2, 11)])  # negative lead
        got = poly_content_free(vector)
        assert got == reference_content_free(vector)
        assert all(isinstance(c, F) for p in got for c in p)

    def test_content_free_sign_and_gcd(self):
        # negative leads and a shared factor (x + 1/3)
        factor = poly([F(1, 3), 1])
        vector = ((), poly_mul(factor, poly([F(-2, 5), F(-4, 7)])), poly_mul(factor, poly([F(6, 35)])))
        assert poly_content_free(vector) == reference_content_free(vector) == (
            (), poly([7, 10]), poly([-3])
        )

    def test_rank_parses_each_entry_once(self, monkeypatch):
        calls = []
        parse = exact.parse_rational

        def counted(x):
            calls.append(x)
            return parse(x)

        monkeypatch.setattr(exact, "parse_rational", counted)
        matrix = [["1/2", "1/3", F(2, 7)], [1, "3/10", "5"]]
        assert rank(matrix) == 2
        assert len(calls) == 6


def long_int_poly(rng, digits=100, degree=2):
    """Integer coefficients of `digits` digits and both signs, some zero,
    degree at most `degree`, possibly the zero polynomial."""
    out = [
        rng.choice((-1, 1, 0, 1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)
        for _ in range(rng.randint(0, degree + 1))
    ]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def int_rows_times(c, row):
    return [int_poly_mul(c, e) for e in row]


class TestPackedBareiss:
    """exact.bareiss on packed matrices against the cofactor expansion and
    the Leibniz sum, which share no code with it."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(2))
    def test_det_matches_expansion_and_leibniz(self, n, seed):
        rows = [[long_int_poly(random.Random(f"{n}-{seed}-{i}-{j}")) for j in range(n)] for i in range(n)]
        bits, ints = exact.packed(rows)
        rank, total, kernel = exact.bareiss(ints)
        want, _ = cofactor_expansion(rows, 0, (), (1,), int_poly_mul, exact.int_poly_add, int_poly_neg)
        assert exact.unpacked(total, bits) == want
        assert all(abs(c) < 1 << bits - 1 for c in want)
        if want:
            assert (rank, kernel) == (n, None)
        assert poly(want) == leibniz_det([[poly(e) for e in row] for row in rows])
        rational = [[poly([F(c, 7) for c in e]) for e in row] for row in rows]
        assert poly_matrix_det(rational) == poly([F(c, 7**n) for c in want])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(2))
    def test_kernel_matches_the_adjugate(self, n, seed):
        rng = random.Random(100 * n + seed)
        rows = [[long_int_poly(rng) for _ in range(n)] for _ in range(n - 1)]
        last = [()] * n
        for row in rows:
            c = (rng.randint(-9, 9), rng.choice((-2, 1, 3)))
            last = [exact.int_poly_add(a, b) for a, b in zip(last, int_rows_times(c, row))]
        mat = rows + [last]
        rng.shuffle(mat)
        bits, ints = exact.packed(mat)
        rank, total, kernel = exact.bareiss(ints)
        assert (rank, total) == (n - 1, 0)
        vector = [exact.unpacked(x, bits) for x in kernel]
        for row in mat:
            acc = ()
            for a, b in zip(row, vector):
                acc = exact.int_poly_add(acc, int_poly_mul(a, b))
            assert acc == ()
        columns = [
            cofactor_expansion(mat, r, (), (1,), int_poly_mul, exact.int_poly_add, int_poly_neg)[1]
            for r in range(n)
        ]
        column = next(c for c in columns if any(c))
        got = exact.int_poly_matrix_kernel_vector(mat)
        assert got == exact._content_free_ints(column) == exact._content_free_ints(vector)
        rational = [[poly(e) for e in row] for row in mat]
        assert poly_matrix_kernel_vector(rational) == reference_content_free(
            leibniz_adjugate_column(rational, columns.index(column))
        )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_corank_two_keeps_the_message(self, n):
        rng = random.Random(n)
        rows = [[long_int_poly(rng) or (1,) for _ in range(n)] for _ in range(n - 2)]
        mat = rows + [[()] * n, [()] * n]
        for row in rows:
            for k in (-2, -1):
                c = (rng.randint(-9, 9), rng.choice((-2, 1, 3)))
                mat[k] = [exact.int_poly_add(a, b) for a, b in zip(mat[k], int_rows_times(c, row))]
        rng.shuffle(mat)
        columns = [
            cofactor_expansion(mat, r, (), (1,), int_poly_mul, exact.int_poly_add, int_poly_neg)[1]
            for r in range(n)
        ]
        assert not any(any(c) for c in columns)
        assert exact.bareiss(exact.packed(mat)[1])[:2] == (n - 2, 0)
        with pytest.raises(StrataError, match="^adjugate vanishes: kernel dimension is at least two$"):
            exact.int_poly_matrix_kernel_vector(mat)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", [1, 2])
    def test_char_poly_matches_bivariate_expansion(self, n, m):
        from reference import biv_neg
        from spectral_strata.matpoly import char_poly, matrix_polynomial

        rng = random.Random(10 * n + m)

        def entry():
            num = rng.choice((-1, 1, 0)) * rng.randrange(10**99, 10**100)
            return F(num, rng.choice((1, 3, 10**100 + 267)))

        p = matrix_polynomial([[[entry() for _ in range(n)] for _ in range(n)] for _ in range(m + 1)])
        entries = [
            [{(k, 0): c for k, c in enumerate(p.entry_poly(i, j))} for j in range(n)] for i in range(n)
        ]
        for i in range(n):
            entries[i][i][(0, 1)] = F(-1)
        want, _ = cofactor_expansion(entries, 0, {}, {(0, 0): F(1)}, exact.biv_mul, exact.biv_add, biv_neg)
        assert char_poly(p).terms == want

    @pytest.mark.parametrize("degree", range(4))
    def test_pack_round_trip_at_the_bound(self, degree):
        rows = [[long_int_poly(random.Random(degree), digits=30)] * 2] * 2
        bits, _ = exact.packed(rows)
        top = (1 << bits - 1) - 1
        for signs in product((-1, 0, 1), repeat=degree + 1):
            coeffs = tuple(s * top for s in signs)
            while coeffs and not coeffs[-1]:
                coeffs = coeffs[:-1]
            value = sum(c << bits * k for k, c in enumerate(coeffs))
            assert exact.unpacked(value, bits) == coeffs
            own_bits, [[own]] = exact.packed([[coeffs]])
            assert exact.unpacked(own, own_bits) == coeffs
