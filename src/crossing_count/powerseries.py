"""Truncated formal power series with integer coefficients.

A TruncatedSeries is a coefficient vector closed under a fixed
truncation order N: all arithmetic (including reciprocal and
composition) is exact in Z[[x]] modulo x^{N+1}.  A unit there has
constant term 1 or -1, so its reciprocal is an integer series too.
Every product of two series is one big-integer product (Kronecker
substitution), so no product loops over pairs of coefficients in
Python.  Composition is Paterson-Stockmeyer: about 2 sqrt(N) products,
where Horner's rule takes N.  A HurwitzSeries is a TruncatedSeries that
stores an exponential generating function by its integer coefficients
n! [x^n]; only its product differs, a binomial convolution done as one
Kronecker product with factorial weights and an exact division, so both
rings share the ring code and the one Newton inversion, _newton_inverse.

The verify_* functions rebuild both sides of the generating-function
identities that tie the structure counts to the matching counts and
report the first coefficient where the two sides disagree, if any.  All
of them run on plain integers: every series they invert has constant
term 1 (the functional equation's u and the Laplace check's 1 - x), and
the Bessel determinant is taken in the Hurwitz ring, where its matrix is
the identity at x = 0, so every pivot is a unit and the elimination
stays integral.  A phi side is built afresh for each check, by
square-and-multiply from two Fibonacci series, so no check keeps state
between calls.
"""
import math
from collections import namedtuple
from functools import lru_cache

from . import U, W, BudgetExceededError, counting, structures

# Every verify_* refuses an order past this before any table grows (see
# _sequence): the series coefficients grow with the order, and
# `verify --which all` takes about 0.5 s at k = 3 and 1.2 s at k = 6 at
# this one.
MAX_ORDER = 200
# verify_bessel_egf refuses a k past this before any count is read: its
# (k-1) x (k-1) elimination grows like k^3.  At k = 12 the largest order the
# walk frontier accepts, 65, takes about 0.2 s in the determinant.
MAX_BESSEL_K = 12


def _kronecker_product(a: list[int], b: list[int], length: int, shift: int = 0) -> list[int]:
    """The first `length` coefficients of the integer polynomial a * b;
    shift is ignored, since coefficient shift + j of a * x^shift b is
    coefficient j of a * b.

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
    # two vectors whose nonzero terms each keep to one parity multiply as
    # polynomials in x^2: half the digits, about a third of the work
    parities = _parity(a), _parity(b)
    if None not in parities and max(len(a), len(b)) > 1:
        low = sum(parities)
        out = [0] * length
        if low < length:
            half = a[parities[0] :: 2]
            out[low::2] = _kronecker_product(
                half, half if square else b[parities[1] :: 2], (length - low + 1) // 2
            )
        return out
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


def _newton_inverse(a: list[int], order: int, product) -> list[int]:
    """r with a * r = 1 modulo x^(order+1), for a[0] = 1 or -1, its own inverse.

    If a * r = 1 + x^d e, then r - x^d r e inverts a modulo x^(2d): each
    Newton step doubles the known terms with two truncated products,
    product(u, v, length, shift) giving coefficients shift ..
    shift+length-1 of u * x^shift v.
    """
    r = [a[0]]
    while len(r) <= order:
        done = len(r)
        step = min(done, order + 1 - done)
        e = product(a, r, done + step)[done:]
        r += [-c for c in product(r, e, step, done)]
    return r


def _parity(v: list[int]) -> int | None:
    """0 or 1 if every nonzero term of v has an index of that parity, else None."""
    if not any(v[1::2]):
        return 0
    if not any(v[::2]):
        return 1
    return None


def _without_trailing_zeros(v: list[int]) -> list[int]:
    end = len(v)
    while end and not v[end - 1]:
        end -= 1
    return v[:end]


class TruncatedSeries:
    """Integer power series modulo x^(order+1).

    A coefficient whose type is not int raises TypeError, so no float and
    no rational can enter a series.  Arithmetic builds type(self), and a
    product is the class's _product, so a subclass that changes only the
    product is another ring.
    """

    __slots__ = ("order", "coeffs")
    _product = staticmethod(_kronecker_product)

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"series coefficients must be ints, got {c!r}")
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
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):  # a scalar
            return type(self)([c * other for c in self.coeffs], self.order)
        self._check_order(other)
        return type(self)(self._product(self.coeffs, other.coeffs, self.order + 1), self.order)

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Series r with self * r = 1 modulo x^(order+1), by _newton_inverse;
        ValueError unless the constant term is 1 or -1, the units of Z."""
        if self.coeffs[0] not in (1, -1):
            raise ValueError("reciprocal needs a constant term of 1 or -1")
        return type(self)(_newton_inverse(self.coeffs, self.order, self._product), self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner); inner must have zero constant term.

        Paterson-Stockmeyer: with top the degree of self and m about
        sqrt(top), the powers inner^0 .. inner^m are made once.  self splits
        into blocks of m coefficients, each block a scalar combination of
        those powers, and Horner's rule in inner^m joins the blocks: about
        2 sqrt(top) products, where Horner's rule in inner takes top.
        """
        self._check_order(inner)
        if inner.coeffs[0]:
            raise ValueError("composition needs a zero constant term inside")
        top = self.order
        while top and not self.coeffs[top]:
            top -= 1
        m = math.isqrt(top) + 1
        powers = [TruncatedSeries.one(self.order), inner][:m]
        while len(powers) < m:
            powers.append(powers[-1] * inner)

        def block(start: int) -> TruncatedSeries:
            acc = [0] * (self.order + 1)
            for c, power in zip(self.coeffs[start : start + m], powers):
                if c:
                    acc = [a + c * p for a, p in zip(acc, power.coeffs)]
            return TruncatedSeries(acc, self.order)

        starts = range(0, top + 1, m)
        result = block(starts[-1])
        if len(starts) > 1:
            giant = powers[-1] * inner
            for start in reversed(starts[:-1]):
                result = result * giant + block(start)
        return result


@lru_cache(maxsize=64)
def _factorial_weights(top: int) -> tuple[int, ...]:
    """top! / i! for i = 0..top."""
    weights = [1] * (top + 1)
    for i in range(top, 0, -1):
        weights[i - 1] = weights[i] * i
    return tuple(weights)


def _binomial_convolution(a: list[int], b: list[int], length: int, shift: int = 0) -> list[int]:
    """Hurwitz coefficients shift .. shift+length-1 of a * b, where a[i] is
    the coefficient at i and b[j] the one at shift + j.

    The wanted n-th coefficient is n! sum a[i] b[j] / (i! (shift+j)!) over
    i + j = n - shift.  Weighted by top!/i! and top!/(shift+j)!, with top
    = shift + length - 1, a and b become integer vectors whose Kronecker
    product is top!^2 / n! times it, so one exact division recovers it.
    """
    weights = _factorial_weights(shift + length - 1)
    product = _kronecker_product(
        [c * w for c, w in zip(a[:length], weights)],
        [c * w for c, w in zip(b[:length], weights[shift:])],
        length,
    )
    return [c // (weights[0] * w) for c, w in zip(product, weights[shift:])]


class HurwitzSeries(TruncatedSeries):
    """Integer exponential generating function modulo x^(order+1), stored
    as its coefficients n! [x^n]: a ring under the binomial convolution
    (a b)[n] = sum_i C(n, i) a[i] b[n-i], where a unit has constant term
    1 or -1.  Only the product differs from a TruncatedSeries, and there
    is no composition."""

    __slots__ = ()
    _product = staticmethod(_binomial_convolution)

    def compose(self, inner):
        raise TypeError("a HurwitzSeries has no composition")


def bessel_matrix(k: int, order: int) -> list[list[HurwitzSeries]]:
    """[I_{i-j}(2x) - I_{i+j}(2x)] over i, j = 1..k-1, in the Hurwitz ring.

    I_d(2x) = sum_j x^(2j+d) / (j! (d+j)!), so n! [x^n] I_d(2x) is
    C(n, (n-d)/2) when n - d is even and nonnegative, and 0 otherwise.
    """
    size = k - 1
    bessel = [
        [math.comb(n, (n - d) // 2) if n >= d and (n - d) % 2 == 0 else 0 for n in range(order + 1)]
        for d in range(2 * size + 1)
    ]
    return [
        [
            HurwitzSeries([p - q for p, q in zip(bessel[abs(i - j)], bessel[i + j])], order)
            for j in range(1, size + 1)
        ]
        for i in range(1, size + 1)
    ]


def determinant(matrix):
    """Determinant of a square series matrix by Gaussian elimination.

    The entries are all TruncatedSeries or all HurwitzSeries.  Rows are
    never exchanged, so every pivot but the last must be invertible, that
    is, have a constant term of 1 or -1, else ValueError; a zero constant
    term raises ValueError at any pivot.  The Bessel matrix is the
    identity at x = 0, so each of its pivots starts with 1.
    """
    rows = [list(row) for row in matrix]
    det = type(rows[0][0]).one(rows[0][0].order)
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


def _sequence(terms, k: int, order: int) -> TruncatedSeries:
    """sum terms(k, range(order + 1))[n] x^n, truncated at order: every identity
    check reads its counts here before any other work.  An order past MAX_ORDER
    is refused first; terms reads its largest n first, so a count past a
    table's bound is refused before the table grows."""
    if order > MAX_ORDER:
        raise BudgetExceededError(f"series order {order} is past the bound of {MAX_ORDER}")
    return TruncatedSeries(terms(k, range(order + 1)), order)


def _each(term):
    """terms(k, ns) from term(k, n), read largest n first: see _sequence."""
    return lambda k, ns: [term(k, n) for n in reversed(ns)][::-1]


def _substitution(
    name: str, terms, k: int, order: int, numerator: tuple[int, ...], denominator: tuple[int, ...]
) -> IdentityReport:
    """sum terms(k, ns)[n] x^n  ==  1/D * F_k(N/D), F_k(y) = sum f_k(2m,0) y^(2m).

    N and D are polynomial coefficients, lowest degree first, with N(0) = 0
    and D(0) = 1, so the right side stays in Z[[x]].  Left side from the
    counts, right side rebuilt through series arithmetic only; the two
    routes are independent.
    F_k(w) is composed as G(w^2), G(y) = sum f_k(2m,0) y^m: the same series,
    since f_k(n, 0) = 0 at odd n, from a polynomial of half the degree.
    """
    lhs = _sequence(terms, k, order)
    f_k = _sequence(_each(counting.fk_perfect), k, order)
    if any(f_k.coeffs[1::2]):
        raise ArithmeticError(f"f_{k}(n, 0) is nonzero at an odd n")
    inverse = TruncatedSeries(denominator, order).reciprocal()
    w = TruncatedSeries(numerator, order) * inverse
    rhs = inverse * TruncatedSeries(f_k.coeffs[::2], order).compose(w * w)
    return _compare(name, lhs, rhs)


def verify_laplace_identity(k: int, order: int) -> IdentityReport:
    """sum T_k(n) x^n  ==  1/(1-x) * sum f_k(2n,0) (x/(1-x))^(2n)."""
    return _substitution(f"laplace(k={k})", _each(counting.tk_total), k, order, (0, 1), (1, -1))


def verify_functional_equation(k: int, order: int) -> IdentityReport:
    """sum S_{k,3}(n) x^n  ==  1/u * sum f_k(2n,0) (w/u)^(2n), the
    arc-length-3 substitution with the package's u = U and w = W."""
    return _substitution(f"functional(k={k})", structures.s_k3_at, k, order, W, U)


def _phi_side(n: int, order: int) -> TruncatedSeries:
    """phi0 ratio^n modulo x^(order+1), phi0 = 1/(1-x-x^2) = sum F(j+1) x^j
    and ratio = (1+x) phi0 = sum F(j+2) x^j, both read off one Fibonacci
    run; ratio^n by square-and-multiply, about 2 log2(n) products."""
    fib = [0, 1]
    while len(fib) < order + 3:
        fib.append(fib[-1] + fib[-2])
    side = TruncatedSeries(fib[1:-1], order)
    power = TruncatedSeries(fib[2:], order)
    while n:
        if n & 1:
            side = side * power
        n >>= 1
        if n:
            power = power * power
    return side


def verify_phi_identity(n: int, order: int) -> IdentityReport:
    """sum_b lam(n+2b, b) x^b == (1/(1-x-x^2)) ((1+x)/(1-x-x^2))^n."""
    if n < 0:
        raise ValueError(f"shift must be nonnegative, got {n}")
    lhs = _sequence(lambda n, bs: structures.lambda_diagonal(n, bs[-1]), n, order)
    return _compare(f"phi(n={n})", lhs, _phi_side(n, order))


def verify_bessel_egf(k: int, order: int) -> IdentityReport:
    """Determinant form of the exponential generating functions.

    det[I_{i-j}(2x) - I_{i+j}(2x)] over i, j = 1..k-1 must have
    n! [x^n] det = f_k(n, 0), and after multiplying by e^x,
    n! [x^n] (e^x det) = T_k(n).  det and e^x det are HurwitzSeries,
    whose coefficients are those n! [x^n], so they compare with the counts
    directly; e^x is the all-ones series there.
    """
    if k > MAX_BESSEL_K:
        raise BudgetExceededError(f"Bessel k = {k} is past the bound of {MAX_BESSEL_K}")
    # the counts before the determinant, so a refused walk term costs no series work
    f_k, t_k = (_sequence(_each(t), k, order) for t in (counting.fk_perfect, counting.tk_total))
    det = determinant(bessel_matrix(k, order))
    for name, egf, counts in (
        (f"bessel-det(k={k})", det, f_k),
        (f"bessel-egf(k={k})", HurwitzSeries([1] * (order + 1), order) * det, t_k),
    ):
        report = _compare(name, egf, counts)
        if not report.ok:
            break
    return report
