"""Truncated formal power series with exact coefficients.

A TruncatedSeries is a coefficient vector closed under a fixed
truncation order N: all arithmetic (including reciprocal and
composition) is exact modulo x^{N+1}, in the ring of its coefficients.
Integer series stay integer, and so does the reciprocal of one with
constant term 1 or -1; any other reciprocal gives Fractions.  Every
product of two series is one big-integer product (Kronecker
substitution, after clearing a common denominator), and a reciprocal is
a few such products by Newton's iteration, so no product or reciprocal
loops over pairs of coefficients in Python.  The verify_* functions
rebuild both sides of the generating-function identities that tie the
structure counts to the matching counts and report the first
coefficient where the two sides disagree, if any.  All
of them but the Bessel check run on plain integers: only that
determinant of exponential generating functions is rational.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from fractions import Fraction

from . import counting, structures

# Every verify_* refuses an order past this before any table grows (see
# _sequence): Horner composition takes order/2 products whose coefficients
# grow with the order, and `verify --which all` takes about 0.7 s at k = 3
# and 1.6 s at k = 6 at this one.
MAX_ORDER = 200
# verify_bessel_egf refuses a k past this before any count is read: its
# (k-1) x (k-1) elimination grows like k^3.  At k = 12 the largest order the
# walk frontier accepts, 65, takes about 0.7 s in the determinant.
MAX_BESSEL_K = 12


def _integer_vector(coeffs: list) -> tuple[list[int], int | None]:
    """(ints, den) with coeffs[i] == ints[i] / den.

    den is None when every coefficient is a plain int (ints is coeffs
    then), and the least common denominator otherwise, which may be 1.
    """
    if all(type(c) is int for c in coeffs):
        return coeffs, None
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _kronecker_product(a: list[int], b: list[int], length: int) -> list[int]:
    """The first `length` coefficients of the integer polynomial a * b.

    Kronecker substitution: each vector, trailing zeros dropped, becomes
    one integer whose base-2^w digits are its coefficients, and one
    big-integer product gives every coefficient at once.  Each product
    coefficient sums at most min(len(a), len(b)) terms, so w leaves room
    for it and a sign bit, and no digit carries into the next.  Digits are
    packed and read whole bytes at a time, each shifted by 2^(w-1) so it
    is nonnegative.
    """
    square = a is b
    a = _without_trailing_zeros(a[:length])
    b = a if square else _without_trailing_zeros(b[:length])
    if not a or not b:
        return [0] * length
    terms = min(len(a), len(b))
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b)) + terms.bit_length() + 1
    size = (bits + 7) // 8  # bytes per digit
    half = 1 << (8 * size - 1)
    digit_half = half.to_bytes(size, "little")

    def pack(v: list[int]) -> int:
        biased = b"".join([(c + half).to_bytes(size, "little") for c in v])
        return int.from_bytes(biased, "little") - int.from_bytes(digit_half * len(v), "little")

    x = pack(a)
    product = x * x if square else x * pack(b)
    count = min(length, len(a) + len(b) - 1)
    nbytes = size * count
    biased = (product + int.from_bytes(digit_half * count, "little")) & ((1 << (8 * nbytes)) - 1)
    data = memoryview(biased.to_bytes(nbytes, "little"))
    out = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, nbytes, size)]
    return out + [0] * (length - count)


def _without_trailing_zeros(v: list) -> list:
    end = len(v)
    while end and not v[end - 1]:
        end -= 1
    return v[:end]


class TruncatedSeries:
    """Exact power series modulo x^(order+1).

    Coefficients must be exact (numbers.Rational: int or Fraction); any
    other value raises TypeError, so a float can never enter a series.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int and not isinstance(c, numbers.Rational):
                raise TypeError(f"series coefficients must be exact rationals, got {c!r}")
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        coeffs = coeffs[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls([0, 1], order)

    def __getitem__(self, n: int) -> numbers.Rational:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):  # a scalar
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        self._check_order(other)
        a, a_den = _integer_vector(self.coeffs)
        b, b_den = (a, a_den) if other is self else _integer_vector(other.coeffs)
        product = _kronecker_product(a, b, self.order + 1)
        if a_den is None and b_den is None:
            return TruncatedSeries(product, self.order)
        den = (a_den or 1) * (b_den or 1)
        return TruncatedSeries([Fraction(p, den) for p in product], self.order)

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Series r with self * r = 1 modulo x^(order+1), by Newton steps.

        If r inverts self modulo x^d, then self * r = 1 + x^d e and
        r - x^d r e inverts it modulo x^(2d): each step doubles the known
        terms with two products.
        """
        a = self.coeffs
        if not a[0]:
            raise ValueError("reciprocal needs a nonzero constant term")
        r = [a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])]
        while len(r) <= self.order:
            done = len(r)
            step = min(done, self.order + 1 - done)
            top = done + step - 1
            ar = TruncatedSeries(a[: top + 1], top) * TruncatedSeries(r, top)
            e = TruncatedSeries(ar.coeffs[done:], step - 1)
            correction = TruncatedSeries(r[:step], step - 1) * e
            r += [-c for c in correction.coeffs]
        return TruncatedSeries(r, self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner); inner must have zero constant term.

        Horner's rule from the highest nonzero coefficient of self.
        """
        self._check_order(inner)
        if inner.coeffs[0]:
            raise ValueError("composition needs a zero constant term inside")
        top = self.order
        while top and not self.coeffs[top]:
            top -= 1
        result = TruncatedSeries([self.coeffs[top]], self.order)
        for i in range(top - 1, -1, -1):
            result = result * inner
            result.coeffs[0] += self.coeffs[i]
        return result

    def pow(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


def exponential(order: int) -> TruncatedSeries:
    """sum x^n / n! truncated at order."""
    return TruncatedSeries(
        [Fraction(1, math.factorial(n)) for n in range(order + 1)], order
    )


def bessel_i(r: int, order: int) -> TruncatedSeries:
    """Modified Bessel function of the first kind, I_r(2x), as a series.

    I_r(2x) = sum_j x^(2j+r) / (j! (r+j)!); negative orders coincide with
    positive ones.
    """
    r = abs(r)
    coeffs = [0] * (order + 1)
    for j in range((order - r) // 2 + 1):
        e = 2 * j + r
        if e <= order:
            coeffs[e] = Fraction(1, math.factorial(j) * math.factorial(r + j))
    return TruncatedSeries(coeffs, order)


def determinant(matrix: list[list[TruncatedSeries]]) -> TruncatedSeries:
    """Determinant of a square series matrix by Gaussian elimination.

    Rows are never exchanged, so every pivot must be invertible, that is,
    have a nonzero constant term; a zero one raises ValueError.  The
    Bessel matrix is the identity at x = 0, so each of its pivots starts
    with 1.
    """
    rows = [list(row) for row in matrix]
    det = TruncatedSeries.one(rows[0][0].order)
    for c, pivot_row in enumerate(rows):
        pivot = pivot_row[c]
        if not pivot[0]:
            raise ValueError(f"pivot {c} has a zero constant term")
        det = det * pivot
        below = rows[c + 1 :]
        if not below:  # the last pivot eliminates nothing, so it is never inverted
            break
        inverse = pivot.reciprocal()
        for row in below:
            factor = row[c] * inverse
            for j in range(c + 1, len(rows)):
                row[j] = row[j] - factor * pivot_row[j]
    return det


class IdentityReport(
    namedtuple(
        "IdentityReport",
        "name order ok first_mismatch lhs rhs",
        defaults=(None, None, None),
    )
):
    """Outcome of checking one identity coefficient-by-coefficient: on a
    mismatch, its first index and the two coefficients there."""

    __slots__ = ()

    def describe(self) -> str:
        if self.ok:
            return f"{self.name}: holds to order {self.order}"
        return (
            f"{self.name}: MISMATCH at x^{self.first_mismatch} "
            f"(lhs={self.lhs}, rhs={self.rhs})"
        )


def _compare(name: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityReport:
    for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return IdentityReport(name, lhs.order, False, i, a, b)
    return IdentityReport(name, lhs.order, True)


def _sequence(term, k: int, order: int) -> TruncatedSeries:
    """sum term(k, n) x^n, truncated at order.

    Every identity check reads its counts here before any other work.  An
    order past MAX_ORDER is refused, and the largest term is read first, so
    a count past a table's bound is refused before that table grows.
    """
    if order > MAX_ORDER:
        raise counting.BudgetExceededError(f"series order {order} is past the bound of {MAX_ORDER}")
    return TruncatedSeries([term(k, n) for n in range(order, -1, -1)][::-1], order)


def _substitution(
    name: str, term, k: int, order: int, numerator: list[int], denominator: list[int]
) -> IdentityReport:
    """sum term(k, n) x^n  ==  1/D * F_k(N/D), F_k(y) = sum f_k(2m,0) y^(2m).

    N and D are polynomial coefficient lists with N(0) = 0 and D(0) = 1, so
    the right side stays in Z[[x]].  Left side from the counts, right side
    rebuilt through series arithmetic only; the two routes are independent.
    F_k(w) is composed as G(w^2), G(y) = sum f_k(2m,0) y^m: the same series,
    since f_k(n, 0) = 0 at odd n, in half the Horner steps.
    """
    lhs = _sequence(term, k, order)
    f_k = _sequence(counting.fk_perfect, k, order)
    if any(f_k.coeffs[1::2]):
        raise ArithmeticError(f"f_{k}(n, 0) is nonzero at an odd n")
    inverse = TruncatedSeries(denominator, order).reciprocal()
    w = TruncatedSeries(numerator, order) * inverse
    rhs = inverse * TruncatedSeries(f_k.coeffs[::2], order).compose(w * w)
    return _compare(name, lhs, rhs)


def verify_laplace_identity(k: int, order: int) -> IdentityReport:
    """sum T_k(n) x^n  ==  1/(1-x) * sum f_k(2n,0) (x/(1-x))^(2n)."""
    return _substitution(f"laplace(k={k})", counting.tk_total, k, order, [0, 1], [1, -1])


def verify_functional_equation(k: int, order: int) -> IdentityReport:
    """sum S_{k,3}(n) x^n against the arc-length-3 substitution.

    Right side: 1/u(x) * sum f_k(2n,0) ((x-x^3)/u(x))^(2n) with
    u(x) = 1 - x + x^2 + x^3 - x^4.
    """
    return _substitution(
        f"functional(k={k})", structures.s_k3, k, order, [0, 1, 0, -1], [1, -1, 1, 1, -1]
    )


def verify_phi_identity(n: int, order: int) -> IdentityReport:
    """sum_b lam(n+2b, b) x^b == (1/(1-x-x^2)) ((1+x)/(1-x-x^2))^n."""
    if n < 0:
        raise ValueError(f"shift must be nonnegative, got {n}")
    lhs = _sequence(lambda shift, b: structures.lambda_weight(shift + 2 * b, b), n, order)
    phi0 = TruncatedSeries([1, -1, -1], order).reciprocal()
    ratio = TruncatedSeries([1, 1], order) * phi0
    rhs = phi0 * ratio.pow(n)
    return _compare(f"phi(n={n})", lhs, rhs)


def verify_bessel_egf(k: int, order: int) -> IdentityReport:
    """Determinant form of the exponential generating functions.

    det[I_{i-j}(2x) - I_{i+j}(2x)] over i, j = 1..k-1 must have
    n! [x^n] det = f_k(n, 0), and after multiplying by e^x,
    n! [x^n] (e^x det) = T_k(n).
    """
    if k > MAX_BESSEL_K:
        raise counting.BudgetExceededError(f"Bessel k = {k} is past the bound of {MAX_BESSEL_K}")
    # the counts before the determinant, so a refused walk term costs no series work
    f_k, t_k = (_sequence(term, k, order) for term in (counting.fk_perfect, counting.tk_total))
    size = k - 1
    matrix = [
        [bessel_i(i - j, order) - bessel_i(i + j, order) for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]
    det = determinant(matrix)
    for name, egf, counts in (
        (f"bessel-det(k={k})", det, f_k),
        (f"bessel-egf(k={k})", exponential(order) * det, t_k),
    ):
        lhs = TruncatedSeries([egf[n] * math.factorial(n) for n in range(order + 1)], order)
        report = _compare(name, lhs, counts)
        if not report.ok:
            break
    return report
