"""Exact matrix polynomials over the rationals and their spectral data.

Supported spectral curves are unions of distinct non-parallel affine lines
mu = a_i + b_i*lambda with pairwise intersections (nodes) and no three
lines concurrent.  All components are rational, so the divisor attached to
a matrix polynomial reduces to polynomial degree counts: for each line the
eigenvector over the rational function field is normalised to a coprime
polynomial vector, and the divisor value is its maximal entry degree.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from .errors import ArrangementError, SampleError, StrataError
from .exact import (
    BivarTerms,
    IPoly,
    QPoly,
    _rational_vector,
    biv_add,
    biv_mul,
    biv_neg,
    clear_row_denominators,
    cofactor_expansion,
    int_poly_add,
    int_poly_matrix_kernel_vector,
    int_rank,
    parse_rational,
    poly,
    poly_const,
    poly_degree,
    poly_mul,
    rational_roots,
    sqrt_rational,
)
from .graphs import Divisor, Multigraph, Subgraph, Value, complete_graph
from .indegree import Reducibility, is_indegree, multiplicity
# classification_to_json_obj is strata's, re-exported for matpoly's callers
from .strata import StratumLabel, classification_to_json_obj

MAX_MATRIX_SIZE = 6

RationalMatrix = tuple[tuple[Fraction, ...], ...]


class BivariatePolynomial(Value):
    """Finitely supported polynomial in (lambda, mu) with rational
    coefficients; zero coefficients are dropped on construction."""

    terms: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        cleaned = {}
        for (i, j), c in self.terms.items():
            c = parse_rational(c)
            if c:
                cleaned[(int(i), int(j))] = c
        object.__setattr__(self, "terms", cleaned)

    def coefficient(self, lam_exp: int, mu_exp: int) -> Fraction:
        return self.terms.get((lam_exp, mu_exp), Fraction(0))

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return BivariatePolynomial(biv_add(dict(self.terms), dict(other.terms)))

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return BivariatePolynomial(biv_mul(dict(self.terms), dict(other.terms)))

    def to_json_obj(self) -> list[dict]:
        return [
            {"lambda": i, "mu": j, "coeff": str(self.terms[(i, j)])}
            for (i, j) in sorted(self.terms)
        ]


class MatrixPolynomial(Value):
    """A_0 + A_1 lambda + ... + A_m lambda^m with exact rational n x n
    coefficient matrices."""

    coefficients: tuple[RationalMatrix, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise StrataError("a matrix polynomial needs at least one coefficient")
        n = len(self.coefficients[0])
        if n == 0:
            raise StrataError("coefficient matrices must be at least 1x1")
        for mat in self.coefficients:
            if len(mat) != n or any(len(row) != n for row in mat):
                raise StrataError("coefficient matrices must be square of equal size")

    @property
    def m(self) -> int:
        return len(self.coefficients) - 1

    @property
    def n(self) -> int:
        return len(self.coefficients[0])

    @property
    def leading(self) -> RationalMatrix:
        return self.coefficients[-1]

    def evaluate(self, lam: Fraction) -> list[list[Fraction]]:
        n = self.n
        out = [[Fraction(0)] * n for _ in range(n)]
        power = Fraction(1)
        for mat in self.coefficients:
            for i in range(n):
                for j in range(n):
                    out[i][j] += mat[i][j] * power
            power *= lam
        return out

    def entry_poly(self, i: int, j: int) -> QPoly:
        return poly([mat[i][j] for mat in self.coefficients])

    def transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial(
            tuple(tuple(tuple(row) for row in zip(*mat)) for mat in self.coefficients)
        )


def matrix_polynomial(coefficients: Sequence[Sequence[Sequence]]) -> MatrixPolynomial:
    """Build a MatrixPolynomial from nested lists of rationals ('p/q'
    strings, ints, or Fractions)."""
    return MatrixPolynomial(
        tuple(
            tuple(tuple(parse_rational(x) for x in row) for row in mat)
            for mat in coefficients
        )
    )


# ---------------------------------------------------------------------------
# characteristic curve

def char_poly(p: MatrixPolynomial) -> BivariatePolynomial:
    """det(P(lambda) - mu Id) as an exact bivariate polynomial; the top
    mu-term is (-1)^n mu^n.  Each row, its -mu entry included, is
    multiplied by the lcm of its denominators, the determinant is expanded
    over the integers, and its coefficients are divided by the product of
    the row scales."""
    n = p.n
    if n > MAX_MATRIX_SIZE:
        raise StrataError(f"matrix size {n} exceeds the char_poly cap {MAX_MATRIX_SIZE}")
    rows, scales = _cleared_rows(p)
    entries = [[{(k, 0): c for k, c in enumerate(e) if c} for e in row] for row in rows]
    for i in range(n):
        entries[i][i][(0, 1)] = -scales[i]
    total, _ = cofactor_expansion(entries, 0, {}, {(0, 0): 1}, biv_mul, biv_add, biv_neg)
    scale = math.prod(scales)
    return BivariatePolynomial({k: Fraction(c, scale) for k, c in total.items()})


def _cleared_rows(p: MatrixPolynomial) -> tuple[list[list[IPoly]], list[int]]:
    """P's entries as polynomials in lambda, each row multiplied by the lcm
    of its denominators: the integer rows and the row scales."""
    n = p.n
    return clear_row_denominators(
        [[[mat[i][j] for mat in p.coefficients] for j in range(n)] for i in range(n)]
    )


def check_leading_condition(
    q: BivariatePolynomial, b_eigs: Sequence, m: int, n: int
) -> bool:
    """Boundary condition at infinity: the support lies inside the triangle
    with corners (0,0), (0,n), (m n, 0), and along the hypotenuse the
    coefficient at (m(n-j), j) equals the w^j coefficient of the
    characteristic polynomial of diag(b_eigs), prod_k (b_k - w)."""
    eigs = [parse_rational(b) for b in b_eigs]
    for (i, j), c in q.terms.items():
        if c != 0 and (i < 0 or j < 0 or i + m * j > m * n):
            return False
    charpoly_b: QPoly = poly_const(1)
    for b in eigs:
        charpoly_b = poly_mul(charpoly_b, poly([b, -1]))
    for j in range(n + 1):
        expected = charpoly_b[j] if j < len(charpoly_b) else Fraction(0)
        if q.coefficient(m * (n - j), j) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# line arrangements

class SpectralLineArrangement(Value):
    """Union of lines mu = a_i + b_i lambda with pairwise distinct slopes
    and no three lines concurrent.  nodes[k] = (lambda, mu, i, j) is the
    intersection of lines i < j, aligned with edge k of the dual graph
    (the complete graph on the line indices)."""

    lines: tuple[tuple[Fraction, Fraction], ...]
    nodes: tuple[tuple[Fraction, Fraction, int, int], ...]
    dual_graph: Multigraph

    @property
    def n(self) -> int:
        return len(self.lines)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(b for _, b in self.lines)

    def leading_matrix(self) -> RationalMatrix:
        n = self.n
        return tuple(
            tuple(self.lines[i][1] if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        )

    @cached_property
    def product(self) -> BivariatePolynomial:
        """prod_i (a_i + b_i lambda - mu), the defining polynomial with the
        sign convention of char_poly; built on first use, then kept."""
        acc: BivarTerms = {(0, 0): Fraction(1)}
        for a, b in self.lines:
            factor: BivarTerms = {(0, 1): Fraction(-1)}
            if a != 0:
                factor[(0, 0)] = a
            if b != 0:
                factor[(1, 0)] = b
            acc = biv_mul(acc, factor)
        return BivariatePolynomial(acc)


def line_arrangement(lines: Sequence[Sequence]) -> SpectralLineArrangement:
    """Validate the line data and compute all nodes exactly."""
    parsed = tuple((parse_rational(a), parse_rational(b)) for a, b in lines)
    if not parsed:
        raise ArrangementError("at least one line is required")
    slopes = [b for _, b in parsed]
    if len(set(slopes)) != len(slopes):
        raise ArrangementError("coincident slopes: lines must be pairwise non-parallel")
    n = len(parsed)
    nodes = []
    for i, j in combinations(range(n), 2):
        a_i, b_i = parsed[i]
        a_j, b_j = parsed[j]
        lam = (a_j - a_i) / (b_i - b_j)
        mu = a_i + b_i * lam
        nodes.append((lam, mu, i, j))
    points = [(lam, mu) for lam, mu, _, _ in nodes]
    if len(set(points)) != len(points):
        raise ArrangementError("three or more lines pass through one point (not nodal)")
    return SpectralLineArrangement(parsed, tuple(nodes), complete_graph(n))


def arrangement_product(c: SpectralLineArrangement) -> BivariatePolynomial:
    """prod_i (a_i + b_i lambda - mu), the defining polynomial with the
    sign convention of char_poly (computed once per arrangement)."""
    return c.product


# ---------------------------------------------------------------------------
# eigenvector data

class EigenLineData(Value):
    """Coprime polynomial eigenvector on one line and its maximal entry
    degree (the degree of the dual eigenvector bundle there)."""

    line_index: int
    eigenvector: tuple[QPoly, ...]
    dual_degree: int


def _line_matrix(
    rows: list[list[IPoly]], scales: list[int], line: tuple[Fraction, Fraction]
) -> list[list[IPoly]]:
    """P(lambda) - (a + b lambda) Id as integer rows, from P's cleared rows:
    row r is l times cleared row r, minus l scales[r] (a + b lambda) on the
    diagonal, with l = lcm(den a, den b), so row r is row r of the rational
    matrix times l scales[r].  Scaling rows keeps the kernel over the
    rational function field."""
    a, b = line
    l = math.lcm(a.denominator, b.denominator)
    a_l, b_l = a.numerator * (l // a.denominator), b.numerator * (l // b.denominator)
    mat = [[tuple(l * x for x in e) for e in row] for row in rows]
    for r, scale in enumerate(scales):
        mat[r][r] = int_poly_add(mat[r][r], (-scale * a_l, -scale * b_l))
    return mat


def _check_char_matches(p: MatrixPolynomial, c: SpectralLineArrangement) -> None:
    if p.n != c.n:
        raise StrataError(
            f"matrix size {p.n} does not match the arrangement with {c.n} lines"
        )
    if char_poly(p) != arrangement_product(c):
        raise StrataError("characteristic polynomial does not equal the arrangement product")


def eigen_line_data(p: MatrixPolynomial, c: SpectralLineArrangement) -> tuple[EigenLineData, ...]:
    """Eigenvector data for every line.  The kernel over the rational
    function field must be one-dimensional on each line."""
    _check_char_matches(p, c)
    return _eigen_line_data(c, *_cleared_rows(p))


def _eigen_line_data(
    c: SpectralLineArrangement, rows: list[list[IPoly]], scales: list[int]
) -> tuple[EigenLineData, ...]:
    out = []
    for i, line in enumerate(c.lines):
        try:
            ints = int_poly_matrix_kernel_vector(_line_matrix(rows, scales, line))
        except StrataError as exc:
            raise StrataError(f"line {i}: eigenvector is not unique ({exc})") from None
        vec = _rational_vector(ints)
        out.append(EigenLineData(i, vec, max(poly_degree(q) for q in vec)))
    return tuple(out)


def gamma_of(p: MatrixPolynomial, c: SpectralLineArrangement) -> Subgraph:
    """Generating subgraph of the dual graph: keep the edge of a node when
    the eigenspace there is one-dimensional, drop it when it is
    two-dimensional."""
    _check_char_matches(p, c)
    return _gamma(c, *_cleared_rows(p), p.m)


def _node_rank(
    rows: list[list[IPoly]], scales: list[int], m: int, lam: Fraction, mu: Fraction
) -> int:
    """Rank of P(lam) - mu Id for the degree-m polynomial whose cleared
    rows are `rows`.  With lam = p/q and mu = r/s, row i of the rational
    matrix times s q^m scales[i] is the integer row whose entries are s
    times the homogeneous form sum_k c_k p^k q^(m-k) of the cleared
    entries, minus scales[i] r q^m on the diagonal; scaling rows by
    nonzero integers keeps the rank."""
    p, q = lam.numerator, lam.denominator
    weights = [mu.denominator * p**k * q ** (m - k) for k in range(m + 1)]
    mat = [[sum(c * w for c, w in zip(e, weights)) for e in row] for row in rows]
    shift = mu.numerator * q**m
    for i, scale in enumerate(scales):
        mat[i][i] -= scale * shift
    return int_rank(mat)


def _gamma(
    c: SpectralLineArrangement, rows: list[list[IPoly]], scales: list[int], m: int
) -> Subgraph:
    kept = set()
    for k, (lam, mu, _, _) in enumerate(c.nodes):
        kernel_dim = len(rows) - _node_rank(rows, scales, m, lam, mu)
        if kernel_dim == 1:
            kept.add(k)
        elif kernel_dim != 2:
            raise StrataError(
                f"node {k}: kernel dimension {kernel_dim} is not 1 or 2; "
                "the input violates the spectral-curve assumptions"
            )
    return Subgraph(c.dual_graph, frozenset(kept))


def divisor_of(p: MatrixPolynomial, c: SpectralLineArrangement) -> Divisor:
    """Divisor on the dual graph: per line, the maximal entry degree of the
    coprime polynomial eigenvector."""
    _check_char_matches(p, c)
    return _divisor(c, *_cleared_rows(p))


def _divisor(
    c: SpectralLineArrangement, rows: list[list[IPoly]], scales: list[int]
) -> Divisor:
    data = _eigen_line_data(c, rows, scales)
    return Divisor(c.dual_graph.vertices, tuple(d.dual_degree for d in data))


def classify_polynomial(p: MatrixPolynomial, c: SpectralLineArrangement) -> StratumLabel:
    """Stratum label (eigenvector subgraph, divisor) of a matrix
    polynomial.  The characteristic polynomial is checked against the
    arrangement once, here, and P's rows are cleared of denominators once:
    the node ranks and the line matrices are built from those integer
    rows.  The divisor of a polynomial that meets the spectral-curve
    assumptions is an indegree divisor on the subgraph; input whose divisor
    is not is rejected."""
    _check_char_matches(p, c)
    rows, scales = _cleared_rows(p)
    sub = _gamma(c, rows, scales, p.m)
    d = _divisor(c, rows, scales)
    if is_indegree(sub.as_multigraph(), d) is None:
        raise StrataError(
            f"divisor {list(d.values)} is not an indegree divisor of the eigenvector "
            "subgraph; the input violates the spectral-curve assumptions"
        )
    return StratumLabel(sub, d)


# ---------------------------------------------------------------------------
# reducibility (n <= 6)

def reducibility(p: MatrixPolynomial) -> Reducibility:
    """Invariant-subspace classification for n <= 6, char_poly's cap.

    A subspace invariant under P(lambda) for every lambda is invariant
    under each coefficient, in particular under the leading coefficient,
    whose eigenvalues must be distinct rationals here.  Every invariant
    subspace is then spanned by a subset of its eigenvectors, so the
    search is over the 2^n - 2 proper nonempty subsets, in every
    dimension.  The eigenvalues are the rational roots of the leading
    coefficient's characteristic polynomial, and each eigenvector is the
    integer kernel vector of its line matrix, as in eigen_line_data.
    Completely reducible means every invariant subspace has an invariant
    complement, and the only candidate complement is the span of the
    remaining eigenvectors.

    The subsets are read off one eigenbasis pattern.  With right
    eigenvectors v_j and left eigenvectors w_i of the leading coefficient,
    w_i^T v_j = 0 for i != j and w_i^T v_i != 0, so the v_i-coordinate of
    A v_j is proportional to w_i^T A v_j.  The span of {v_j : j in S} is
    therefore invariant under A exactly when w_i^T A v_j = 0 for every
    i not in S and j in S.  The links (i, j) with w_i^T A_k v_j != 0 for
    some coefficient A_k are found once, as integer bilinear forms, and
    each subset is checked against them.
    """
    inv = _invariant_subsets(p)
    if not inv:
        return Reducibility.IRREDUCIBLE
    everything = frozenset(range(p.n))
    if all((everything - s) in inv for s in inv):
        return Reducibility.COMPLETELY_REDUCIBLE
    return Reducibility.REDUCIBLE_NOT_CR


def _invariant_subsets(p: MatrixPolynomial) -> set[frozenset[int]]:
    """The proper nonempty S such that the leading coefficient's
    eigenvectors with indices in S (eigenvalues in increasing order) span
    a subspace invariant under every coefficient."""
    n = p.n
    lead = MatrixPolynomial((p.leading,))
    # at degree 0 in lambda, char_poly's mu-coefficients are det(lead - mu Id)
    charpoly_w = char_poly(lead)
    roots = rational_roots(poly([charpoly_w.coefficient(0, j) for j in range(n + 1)]))
    if len(roots) != n:
        raise StrataError(
            "leading coefficient must have n distinct rational eigenvalues"
        )
    # lead - b Id is the line matrix of the horizontal line mu = b; its
    # integer kernel vector is a right eigenvector of the leading coefficient
    lead_rows, lead_scales = _cleared_rows(lead)
    right = []
    for b in roots:
        mat = _line_matrix(lead_rows, lead_scales, (b, 0))
        try:
            ints = int_poly_matrix_kernel_vector(mat)
        except StrataError:
            raise AssertionError(
                "an eigenvalue of multiplicity one must have a one-dimensional eigenspace"
            ) from None
        right.append([e[0] if e else 0 for e in ints])
    # The cofactors of row i of the (integer) eigenvector matrix form a left
    # eigenvector w_i with w_i^T v_j = det * (i == j); the same expansion
    # gives the determinant for the independence check.
    ring = (0, 1, operator.mul, operator.add, operator.neg)
    expansions = [cofactor_expansion(right, i, *ring) for i in range(n)]
    if expansions[0][0] == 0:
        raise AssertionError("eigenvectors of distinct eigenvalues must be independent")

    # Row r of P is cleared row r over scales[r], so with top = lcm(scales)
    # the coefficients of top w^T P(lambda) v are those of
    # sum_r w[r] (top / scales[r]) (cleared rows times v)[r], all integers.
    rows, scales = _cleared_rows(p)
    top = math.lcm(*scales)
    duals = [[x * (top // sc) for x, sc in zip(w, scales)] for _, w in expansions]
    links = set()
    for j, v in enumerate(right):
        image = [[0] * (p.m + 1) for _ in range(n)]
        for r, row in enumerate(rows):
            for s, entry in enumerate(row):
                for k, c in enumerate(entry):
                    image[r][k] += c * v[s]
        for i, w in enumerate(duals):
            if i != j and any(
                sum(x * col[k] for x, col in zip(w, image)) for k in range(p.m + 1)
            ):
                links.add((i, j))
    return {
        frozenset(subset)
        for size in range(1, n)
        for subset in combinations(range(n), size)
        if not any(j in subset and i not in subset for i, j in links)
    }


# ---------------------------------------------------------------------------
# stratum samples (m = 1, n in {2, 3}, diagonal leading coefficient)

def interior_cubic_coefficients(
    c: SpectralLineArrangement,
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(c1, c2, c3, k) with (c1, c2, c3) the cross product of (1, 1, 1)
    with the slope vector and k its inner product with the intercepts.
    The three-line interior stratum lives on w(kz - w) = c1 c2 c3 z^3."""
    if c.n != 3:
        raise SampleError("the interior cubic needs exactly three lines")
    (a1, b1), (a2, b2), (a3, b3) = c.lines
    c1, c2, c3 = b3 - b2, b1 - b3, b2 - b1
    k = c1 * a1 + c2 * a2 + c3 * a3
    return c1, c2, c3, k


def on_interior_cubic(c: SpectralLineArrangement, z: Fraction, w: Fraction) -> bool:
    c1, c2, c3, k = interior_cubic_coefficients(c)
    return w * (k * z - w) == c1 * c2 * c3 * z**3


def interior_cubic_points(
    c: SpectralLineArrangement, z_candidates: Sequence
) -> list[tuple[Fraction, Fraction]]:
    """Points (z, w) with z, w nonzero and rational on the interior-stratum
    cubic, found by solving the quadratic in w for each candidate z."""
    c1, c2, c3, k = interior_cubic_coefficients(c)
    found = []
    for z_raw in z_candidates:
        z = parse_rational(z_raw)
        if z == 0:
            continue
        disc = k * k * z * z - 4 * c1 * c2 * c3 * z**3
        root = sqrt_rational(disc)
        if root is None:
            continue
        for w in ((k * z + root) / 2, (k * z - root) / 2):
            if w != 0 and (z, w) not in found:
                found.append((z, w))
    return found


def sample_stratum(
    c: SpectralLineArrangement,
    s: StratumLabel,
    params: Sequence,
) -> MatrixPolynomial:
    """Explicit degree-one matrix polynomial in the stratum s, with the
    arrangement's slopes on the diagonal of the leading coefficient.

    For strata whose divisor has a unique witness orientation, params
    supplies one nonzero value per subgraph edge; the value is placed at
    (tail, head) of the oriented edge.  When two witness arcs chain as
    a -> v -> b and the edge {a, b} is absent from the subgraph, the
    entry at (a, b) is not free: it is set to the product of the two
    chain entries divided by the value of line v minus the node value at
    the intersection of lines a and b, which forces the eigenspace at
    that node to stay two-dimensional.  For the three-line interior
    stratum (full triangle, divisor all ones) params is a point (z, w)
    with z, w nonzero lying on the interior cubic.
    """
    n = c.n
    if n not in (2, 3):
        raise SampleError("samples are implemented for 2 or 3 lines")
    if s.subgraph.parent != c.dual_graph:
        raise SampleError("stratum does not belong to this arrangement")
    sub = s.subgraph.as_multigraph()
    witness = is_indegree(sub, s.divisor)
    if witness is None:
        raise SampleError("stratum divisor is not an indegree divisor of its subgraph")
    values = [parse_rational(x) for x in params]
    if any(v == 0 for v in values):
        raise SampleError("all sample parameters must be nonzero")

    a_diag = [a for a, _ in c.lines]
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = a_diag[i]

    interior = n == 3 and s.subgraph.n_edges == 3 and s.divisor.values == (1, 1, 1)
    if interior:
        if len(values) != 2:
            raise SampleError("the interior stratum takes params (z, w)")
        z, w = values
        if not on_interior_cubic(c, z, w):
            raise SampleError("(z, w) does not lie on the interior cubic")
        c1, c2, c3, _ = interior_cubic_coefficients(c)
        entries[0][1] = Fraction(1)
        entries[1][2] = Fraction(1)
        entries[2][0] = w
        entries[1][0] = c3 * z
        entries[2][1] = c1 * z
        entries[0][2] = c2 * z / w
    else:
        # a divisor of multiplicity one has exactly one orientation: the witness
        if multiplicity(sub, s.divisor) != 1:
            raise SampleError(
                "unsupported stratum: the divisor does not determine a unique "
                "star pattern"
            )
        arcs = list(witness.arcs())
        if len(values) != len(arcs):
            raise SampleError(f"expected {len(arcs)} parameters, got {len(values)}")
        for (t, h), v in zip(arcs, values):
            entries[t][h] = v
        present = {c.dual_graph.edges[i] for i in s.subgraph.edge_set}
        node_at = {(i, j): (lam, mu) for lam, mu, i, j in c.nodes}
        for t1, h1 in arcs:
            for t2, h2 in arcs:
                if h1 != t2 or t1 == h2:
                    continue
                a, v, b = t1, h1, h2
                if (min(a, b), max(a, b)) in present:
                    continue
                lam_ab, mu_ab = node_at[(min(a, b), max(a, b))]
                line_a, line_b = c.lines[v]
                q = line_a + line_b * lam_ab - mu_ab
                entries[a][b] = entries[a][v] * entries[v][b] / q

    lead = c.leading_matrix()
    sample = MatrixPolynomial(
        (tuple(tuple(row) for row in entries), lead)
    )
    label = classify_polynomial(sample, c)
    if label != s:
        raise SampleError(
            "sample parameters are degenerate: the sample landed in stratum "
            f"{label.subgraph.edge_list()}, {label.divisor.values} instead of "
            f"{s.subgraph.edge_list()}, {s.divisor.values}"
        )
    return sample


# ---------------------------------------------------------------------------
# serialisation

def matpoly_to_json_obj(p: MatrixPolynomial) -> dict:
    return {
        "m": p.m,
        "n": p.n,
        "coeffs": [
            [[str(x) for x in row] for row in mat] for mat in p.coefficients
        ],
    }


def matpoly_from_json_obj(obj: Mapping) -> MatrixPolynomial:
    try:
        coeffs = obj["coeffs"]
    except (KeyError, TypeError):
        raise StrataError("matrix polynomial JSON must have 'coeffs'") from None
    if not (
        isinstance(coeffs, list)
        and all(isinstance(mat, list) and all(isinstance(row, list) for row in mat) for mat in coeffs)
    ):
        raise StrataError("'coeffs' must be a list of matrices, each a list of rows")
    p = matrix_polynomial(coeffs)
    for key in ("m", "n"):
        # bool is a subclass of int, but true/false are not sizes
        if key in obj and (not isinstance(obj[key], int) or isinstance(obj[key], bool)):
            raise StrataError(f"{key!r} must be an integer")
    if "m" in obj and obj["m"] != p.m:
        raise StrataError(f"declared degree {obj['m']} does not match {p.m}")
    if "n" in obj and obj["n"] != p.n:
        raise StrataError(f"declared size {obj['n']} does not match {p.n}")
    return p


def arrangement_to_json_obj(c: SpectralLineArrangement) -> dict:
    return {"lines": [[str(a), str(b)] for a, b in c.lines]}


def arrangement_from_json_obj(obj: Mapping) -> SpectralLineArrangement:
    try:
        lines = obj["lines"]
    except (KeyError, TypeError):
        raise StrataError("arrangement JSON must have 'lines'") from None
    if not (isinstance(lines, list) and all(isinstance(x, list) and len(x) == 2 for x in lines)):
        raise StrataError("'lines' must be a list of [intercept, slope] pairs")
    return line_arrangement(lines)
