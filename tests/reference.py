"""Reference routines the tests check the package against; no package
path calls them.

Determinants and adjugate columns by cofactor expansion over any
commutative ring, and the ring helpers the tests hand it: the tests'
oracle for exact.bareiss on packed integers, which shares no code with
it and works on polynomials term by term.  Arithmetic on polynomials with
Fraction coefficients (tuples in ascending degree, no trailing zeros),
down to a monic gcd by division with remainder: the reference for the
integer content-free normalisation.
"""

from fractions import Fraction
from typing import Sequence

from spectral_strata.exact import ZERO_POLY, QPoly, poly


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


def int_poly_neg(p):
    return tuple(-c for c in p)


def int_poly_mul(p, q):
    """Product of integer polynomials (ascending coefficient tuples); the
    integers have no zero divisors, so nothing needs trimming."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def biv_neg(a):
    """Negation of a bivariate polynomial, a dict from (i, j) exponent
    pairs to nonzero coefficients."""
    return {k: -v for k, v in a.items()}


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
