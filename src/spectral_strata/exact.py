"""Exact arithmetic helpers: univariate and bivariate polynomials over the
rationals, and exact linear algebra (rank, nullspace, polynomial-matrix
determinants and adjugate kernels).

Rank is Bareiss's fraction-free elimination in one integer-only routine,
int_rank.  rank clears a rational matrix's rows into it; matpoly hands it
the integer matrices it builds directly (P(lambda) - mu Id at a node, each
row scaled by a positive integer), so no Fraction is made on the way.

nullspace, det, rank and poly_matrix_det are Fraction routines that no
package path calls: matpoly runs on the integer routines.  They are the
tests' Fraction reference for those routes, and the benchmark's tracer
wraps them by name.

One memoised cofactor expansion along a row gives the determinant and a
column of the adjugate at once; polynomial-matrix determinants, adjugate
kernels and matpoly's characteristic polynomial all read it.  It runs
over integers: each row of the matrix is first multiplied by the lcm of
its coefficients' denominators, and the result is mapped back to the
rationals once at the end (dividing by the product of the row scales, or,
for an adjugate kernel, not at all, since scaling the other rows scales
every cofactor of a row by one constant).  Content-free normalisation
likewise works on integer polynomials, with a primitive pseudo-remainder
gcd.

Rational roots come from the squarefree part of the polynomial: its real
roots are isolated by a Sturm chain evaluated on integers at dyadic
points, each root's interval is bisected until it holds at most one
fraction whose denominator divides the leading coefficient, that fraction
is found with Fraction.limit_denominator, and it is kept only when the
polynomial vanishes at it exactly.  No float is used, and the work is
polynomial in the bit length of the coefficients.

Univariate polynomials are coefficient tuples in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  Their
coefficients are Fractions (QPoly), or ints (IPoly) inside the integer
kernels.  Bivariate polynomials are dicts mapping (i, j) exponent pairs to
nonzero coefficients, Fractions or ints; their operations serve both.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import StrataError

QPoly = tuple[Fraction, ...]
IPoly = tuple[int, ...]
BivarTerms = dict[tuple[int, int], Fraction]


def _quoted(value) -> str:
    """repr(value) for an error message, cut to its first 60 characters
    and its length when it is longer."""
    shown = repr(value)
    return shown if len(shown) <= 60 else f"{shown[:60]}... ({len(shown)} characters)"


def parse_rational(text) -> Fraction:
    """Parse an integer, or a string of the grammar -?[0-9]+(/[0-9]+)?,
    into a Fraction.  Decimals, exponents, underscores, signs other than
    a leading "-" and whitespace are rejected."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise StrataError(f"cannot parse rational {text!r}: a boolean is not a number")
    if isinstance(text, int):
        return Fraction(text)
    if not (isinstance(text, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text)):
        raise StrataError(f"cannot parse rational {_quoted(text)}: not an integer or a 'p/q' string")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StrataError(f"cannot parse rational {_quoted(text)}: {exc}") from None


# ---------------------------------------------------------------------------
# univariate polynomials

ZERO_POLY: QPoly = ()


def poly(coeffs: Iterable) -> QPoly:
    out = [parse_rational(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_const(c) -> QPoly:
    return poly([c])


def poly_degree(p: QPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def poly_add(p: QPoly, q: QPoly) -> QPoly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def poly_neg(p: QPoly) -> QPoly:
    return tuple(-c for c in p)


def poly_mul(p: QPoly, q: QPoly) -> QPoly:
    if not p or not q:
        return ZERO_POLY
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def poly_scale(p: QPoly, c: Fraction) -> QPoly:
    if c == 0:
        return ZERO_POLY
    return tuple(a * c for a in p)


def poly_divmod(p: QPoly, q: QPoly) -> tuple[QPoly, QPoly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for shift in range(len(p) - len(q), -1, -1):
        c = rem[shift + len(q) - 1] / lead
        if c != 0:
            quot[shift] = c
            for i, b in enumerate(q):
                rem[shift + i] -= c * b
    return poly(quot), poly(rem)


def poly_gcd(p: QPoly, q: QPoly) -> QPoly:
    """Monic greatest common divisor (1 for coprime, 0 only if both zero)."""
    a, b = p, q
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ZERO_POLY
    return poly_scale(a, 1 / a[-1])


def poly_eval(p: QPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_content_free(vector: Sequence[QPoly]) -> tuple[QPoly, ...]:
    """Divide a nonzero polynomial vector by the gcd of its entries, clear
    denominators, divide by the integer content, and normalise the sign of
    the leading coefficient of the first nonzero entry."""
    denom = math.lcm(*(c.denominator for p in vector for c in p))
    ints = [tuple(c.numerator * (denom // c.denominator) for c in p) for p in vector]
    return _rational_vector(_content_free_ints(ints))


def _rational_vector(vector: Sequence[IPoly]) -> tuple[QPoly, ...]:
    return tuple(tuple(Fraction(c) for c in p) for p in vector)


# ---------------------------------------------------------------------------
# univariate polynomials over the integers

def int_poly_add(p: IPoly, q: IPoly) -> IPoly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def int_poly_neg(p: IPoly) -> IPoly:
    return tuple(-c for c in p)


def int_poly_mul(p: IPoly, q: IPoly) -> IPoly:
    """Product; the integers have no zero divisors, so the leading
    coefficient is nonzero and nothing needs trimming."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def clear_row_denominators(
    matrix: Sequence[Sequence[Sequence[Fraction]]],
) -> tuple[list[list[IPoly]], list[int]]:
    """Each row of a polynomial matrix (coefficient sequences in ascending
    degree, trailing zeros allowed) times the lcm of its coefficients'
    denominators: the integer rows, and the scale of each row."""
    rows, scales = [], []
    for row in matrix:
        scale = math.lcm(*(c.denominator for p in row for c in p))
        out = []
        for p in row:
            ints = [c.numerator * (scale // c.denominator) for c in p]
            while ints and not ints[-1]:
                ints.pop()
            out.append(tuple(ints))
        rows.append(out)
        scales.append(scale)
    return rows, scales


def _exact_quotient(p: Sequence[int], g: Sequence[int]) -> list[int]:
    """p / g for integer polynomials when the quotient has integer
    coefficients, as it has when g is primitive and divides p over the
    rationals (Gauss's lemma)."""
    rem = list(p)
    quot = [0] * (len(p) - len(g) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + len(g) - 1] // g[-1]
        if c:
            quot[shift] = c
            for i, b in enumerate(g):
                rem[shift + i] -= c * b
    return quot


def _content_free_ints(vector: Sequence[IPoly]) -> tuple[IPoly, ...]:
    """poly_content_free on integer polynomials: the gcd of the entries is a
    primitive pseudo-remainder gcd, the entries are divided by it exactly,
    then by the integer content, and the sign of the first nonzero entry's
    leading coefficient is made positive."""
    entries = [p for p in vector if p]
    if not entries:
        raise StrataError("cannot normalise the zero vector")
    g = _primitive(entries[0])
    for b in entries[1:]:
        if len(g) == 1:
            break
        a = g
        while b:
            a, b = b, _neg_prem(a, b)
        g = _primitive(a)
    reduced = [_exact_quotient(p, g) if p else [] for p in vector]
    content = math.gcd(*(c for p in reduced for c in p))
    if next(p for p in reduced if p)[-1] < 0:
        content = -content
    return tuple(tuple(c // content for c in p) for p in reduced)


def _primitive(ints: list[int]) -> list[int]:
    """Divide an integer vector by the (positive) gcd of its entries."""
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _integer_form(p: QPoly) -> list[int]:
    """p times a positive rational: coprime integer coefficients with the
    same signs, so the same roots and the same sign at every point."""
    denom = math.lcm(*(c.denominator for c in p))
    return _primitive([c.numerator * (denom // c.denominator) for c in p])


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """-(a mod b) times a positive rational, as a primitive integer vector
    (empty when b divides a).  With b's sign chosen so its leading
    coefficient is positive, each elimination step scales the remainder by
    that coefficient, so no division and no sign flip happens on the way."""
    if b[-1] < 0:
        b = [-c for c in b]
    r = list(a)
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [c * b[-1] for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
    return [-c for c in _primitive(r)] if r else []


def _sturm_chain(ints: list[int]) -> list[list[int]]:
    """p, p', then negated remainders, each a primitive integer vector.
    The last member is gcd(p, p') up to a positive factor."""
    chain = [ints, _primitive([i * c for i, c in enumerate(ints)][1:])]
    while len(chain[-1]) > 1:
        r = _neg_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sign_changes(chain: list[list[int]], m: int, k: int) -> int:
    """Sign changes along the chain at x = m / 2^k, zeros skipped.  Each
    member is evaluated as 2^(k d) p(x) by homogeneous Horner on integers,
    which has the sign of p(x)."""
    changes, last = 0, 0
    for coeffs in chain:
        d = len(coeffs) - 1
        v = coeffs[d]
        for i in range(d - 1, -1, -1):
            v = v * m + (coeffs[i] << (k * (d - i)))
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _root_bound_exponent(ints: list[int]) -> int:
    """e >= 0 with every complex root of modulus below 2^e: Fujiwara's
    bound 2 max_i |a_(d-i) / a_d|^(1/i), rounded up through bit lengths."""
    d = len(ints) - 1
    lead_bits = abs(ints[d]).bit_length()
    e = 0
    for i in range(1, d + 1):
        if ints[d - i]:
            bits = abs(ints[d - i]).bit_length() - lead_bits + 1
            e = max(e, 1 - (-bits // i))
    return e


def rational_roots(p: QPoly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, sorted, without
    multiplicity.

    After the zero root is split off, q is the squarefree part p / gcd(p, p')
    as a primitive integer polynomial with leading coefficient a.  A
    rational root of q has a denominator dividing a, and two such numbers
    lie at least 1/a^2 apart.  The real roots are isolated by a Sturm chain
    of q, evaluated on integers at dyadic points, bisecting half-open
    intervals from Fujiwara's bound until each interval that holds a root
    is narrower than 1/(2 a^2).  The only candidate there is the fraction
    with denominator at most |a| nearest the midpoint (limit_denominator),
    kept when it lies in the interval and q vanishes at it exactly.  The
    work is polynomial in the bit length of the coefficients.
    """
    if not p:
        raise StrataError("zero polynomial has every root")
    low = next(i for i, c in enumerate(p) if c)
    roots = [Fraction(0)] if low else []
    q = _integer_form(p[low:])
    if len(q) == 1:
        return roots
    chain = _sturm_chain(q)
    if len(chain[-1]) > 1:  # repeated roots: isolate those of the squarefree part
        q = _primitive(_exact_quotient(q, chain[-1]))
        chain = _sturm_chain(q)
    lead = abs(q[-1])
    target = 2 * lead * lead
    # (lo / 2^k, hi / 2^k] holds V(lo) - V(hi) distinct real roots
    e = _root_bound_exponent(q)
    lo, hi = -1 << e, 1 << e
    pending = [(lo, hi, 0, _sign_changes(chain, lo, 0), _sign_changes(chain, hi, 0))]
    while pending:
        lo, hi, k, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if (hi - lo) * target < 1 << k:
            cand = Fraction(lo + hi, 1 << (k + 1)).limit_denominator(lead)
            if Fraction(lo, 1 << k) < cand <= Fraction(hi, 1 << k) and poly_eval(q, cand) == 0:
                roots.append(cand)
            continue
        mid, k = lo + hi, k + 1
        v_mid = _sign_changes(chain, mid, k)
        pending.append((2 * lo, mid, k, v_lo, v_mid))
        pending.append((mid, 2 * hi, k, v_mid, v_hi))
    return sorted(roots)


def sqrt_rational(x: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root, or None when x is not a square."""
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# bivariate polynomials (exponent pair -> coefficient)

def biv_clean(terms: BivarTerms) -> BivarTerms:
    return {k: v for k, v in terms.items() if v != 0}


def biv_add(a: BivarTerms, b: BivarTerms) -> BivarTerms:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return biv_clean(out)


def biv_neg(a: BivarTerms) -> BivarTerms:
    return {k: -v for k, v in a.items()}


def biv_mul(a: BivarTerms, b: BivarTerms) -> BivarTerms:
    out: BivarTerms = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return biv_clean(out)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals

Matrix = Sequence[Sequence[Fraction]]


def rank(matrix: Matrix) -> int:
    """Rank of a rational matrix: each row is multiplied by the lcm of its
    denominators, which keeps the rank, and the integer copy goes to
    int_rank."""
    rows = []
    for row in matrix:
        fs = [parse_rational(x) for x in row]
        denom = math.lcm(*(f.denominator for f in fs))
        rows.append([f.numerator * (denom // f.denominator) for f in fs])
    return int_rank(rows)


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination,
    which overwrites the rows: every division is exact, so every entry
    stays an integer."""
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    prev = 1
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                rows[i][j] = (rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]) // prev
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
        if r == m:
            break
    return r


def nullspace(matrix: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, via reduced row echelon form."""
    m = [[parse_rational(x) for x in row] for row in matrix]
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -m[pr][fc]
        basis.append(vec)
    return basis


def det(matrix: Matrix) -> Fraction:
    m = [[parse_rational(x) for x in row] for row in matrix]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        out *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return out * sign


# ---------------------------------------------------------------------------
# matrices of univariate polynomials

def cofactor_expansion(matrix: Sequence[Sequence], row: int, zero, one, mul, add, neg):
    """Laplace expansion over a commutative ring (zero and zero entries
    falsy) along `row`, then the other rows in order, memoised over (row
    offset, column subset).  Returns the determinant and the cofactors of
    `row`, which are the adjugate's column `row`."""
    n = len(matrix)
    if n == 0:
        return one, []
    rows = [r for r in range(n) if r != row]
    cache: dict[tuple[int, int], object] = {}

    def minor(k: int, colmask: int):
        if colmask == 0:
            return one
        key = (k, colmask)
        if key in cache:
            return cache[key]
        acc = zero
        cols = [c for c in range(n) if colmask >> c & 1]
        for pos, col in enumerate(cols):
            entry = matrix[rows[k]][col]
            if entry:
                term = mul(entry, minor(k + 1, colmask & ~(1 << col)))
                acc = add(acc, neg(term) if pos % 2 else term)
        cache[key] = acc
        return acc

    full = (1 << n) - 1
    total, cofactors = zero, []
    for col in range(n):
        cof = minor(0, full & ~(1 << col))
        if (row + col) % 2:
            cof = neg(cof)
        cofactors.append(cof)
        if matrix[row][col]:
            total = add(total, mul(matrix[row][col], cof))
    # minor refers to itself through its closure; breaking that cycle
    # frees the memo now rather than at the next cyclic collection
    cache.clear()
    del minor
    return total, cofactors


_INT_POLY_RING = ((), (1,), int_poly_mul, int_poly_add, int_poly_neg)


def poly_matrix_det(matrix: Sequence[Sequence[QPoly]]) -> QPoly:
    """Determinant of a square polynomial matrix, by cofactor expansion
    along the first row of the denominator-cleared integer matrix, divided
    by the product of the row scales."""
    rows, scales = clear_row_denominators(matrix)
    total = cofactor_expansion(rows, 0, *_INT_POLY_RING)[0]
    scale = math.prod(scales)
    return tuple(Fraction(c, scale) for c in total)


def poly_matrix_kernel_vector(matrix: Sequence[Sequence[QPoly]]) -> tuple[QPoly, ...]:
    """Content-free kernel vector of a square polynomial matrix whose
    determinant vanishes identically and whose rank over the rational
    function field is size-1 (unique eigendirection).

    The kernel is int_poly_matrix_kernel_vector of the
    denominator-cleared integer rows: clearing scales the determinant,
    and every cofactor of a row, by one nonzero constant, so the zero
    tests and the content-free result are those of the rational matrix.
    Raises when the adjugate is zero (kernel dimension at least two) or
    the determinant is nonzero.
    """
    if len(matrix) == 1:
        if matrix[0][0]:
            raise StrataError("nonzero 1x1 matrix has trivial kernel")
        return (poly_const(1),)
    rows, _ = clear_row_denominators(matrix)
    return _rational_vector(int_poly_matrix_kernel_vector(rows))


def int_poly_matrix_kernel_vector(rows: Sequence[Sequence[IPoly]]) -> tuple[IPoly, ...]:
    """Content-free kernel vector of a square matrix of integer
    polynomials, under the conditions of poly_matrix_kernel_vector.

    The adjugate transposes cofactors, and M adj(M) = det(M) Id = 0, so any
    nonzero adjugate column spans the kernel.  One expansion along row 0
    gives the determinant and adjugate column 0; rows 1, 2, ... are
    expanded only while that column is zero.
    """
    for row in range(len(rows)):
        total, column = cofactor_expansion(rows, row, *_INT_POLY_RING)
        if row == 0 and total:
            raise StrataError("matrix has nonzero determinant; kernel is trivial")
        if any(column):
            return _content_free_ints(column)
    raise StrataError("adjugate vanishes: kernel dimension is at least two")
