"""Growth constants and asymptotic approximations for the k = 3 counts.

The exponential growth rate of the structure counts is 1/rho_k, where
rho_k is the smallest positive solution of theta(z) = r_k and r_k is the
radius of convergence of sum f_k(2n,0) z^(2n), exactly 1/(2(k-1)) since
f_k(2n,0) ~ c_k n^(-((k-1)^2 + (k-1)/2)) (2(k-1))^(2n) (Grabiner &
Magyar 1993; Chen, Deng, Du, Stanley & Yan 2007).  Clearing
theta(z) = r_k gives a quartic, z^4 - 5z^3 - z^2 + 5z - 1 for k = 3,
whose only root in [r_k/2, 1/2] is rho_k.  For k = 3 the
subexponential factor is K' * 4! / (n(n-1)(n-2)(n-3)(n-4)) with the
paper's printed K' = 6.11170, a finite-n value: the exact sequence
kprime(n) crosses it at n = 421 and converges to the singular-expansion
constant (8 g'(rho) rho)^4 / (pi u(rho)) = 6.55545, which follows from
f_3(2m,0) ~ (24/pi) 16^m / m^5 through the radius map.

rho_k and 1/rho_k are each the float nearest the root, found by
bisection over the floats with every sign taken exactly on integers (a
float is an integer ratio, and the cleared quartic has integer
coefficients); 1/rho_k is bisected on the reversed quartic, whose roots
are the reciprocals, so no float solver is on that path and no command
that reports a growth constant imports fractions.  The other roots, for
`roots` and growth's list of induced singularities, come from one root
finder for integer polynomials of any degree (_roots): exact zero roots
are split off, and so, through an integer gcd with the derivative, is
every repeated factor, so a multiple root comes out exact; the
squarefree rest is solved by Aberth-Ehrlich iteration whose Newton
corrections are each rounded once from exact Gaussian-integer values.
A real root is then made exactly real by the same exact bisection, so
the +r_k quartic's list holds rho_k bit for bit.

Only the functions that need exact counts (estimate_rk, kprime and
estimate_kprime through it) import the counting layers, so solving a
quartic or computing a growth constant loads neither.
"""

import cmath
import functools
import itertools
import math
import sys
from collections import namedtuple

# The paper's printed K'; lim K'(n) is (8 g'(rho) rho)^4 / (pi u(rho)) = 6.55545.
KPRIME = 6.11170
GROWTH_RATE_K3 = 4.54920


class QuarticProblem(namedtuple("QuarticProblem", "a b c d e")):
    """Coefficients of a*x^4 + b*x^3 + c*x^2 + d*x + e, all finite, a != 0."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if not all(map(math.isfinite, self)):
            raise ValueError(f"coefficients must be finite, got {tuple(self)}")
        if self.a == 0:
            raise ValueError("leading coefficient must be nonzero")

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)

    def residual(self, z: complex) -> float:
        value = 0j
        for c in self.coefficients():
            value = value * z + c
        return abs(value)


def solve_quartic(problem: QuarticProblem) -> list[complex]:
    """All four roots, with multiplicity: _roots of the coefficients
    cleared to integers (a float is an integer over a power of two).
    Coefficients too widely spread for double precision, such as
    1, 1e200, 1, 1, 1 with a root near -1e200, raise ValueError."""
    ratios = [c.as_integer_ratio() for c in problem]
    den = math.lcm(*(q for _, q in ratios))
    return _roots([p * (den // q) for p, q in ratios])


def _primitive(p: list[int]) -> list[int]:
    """p over its content, with a positive leading coefficient; [] stays []."""
    content = math.gcd(*p) if p and p[0] > 0 else -math.gcd(*p)
    return [c // content for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the remainder of lc(b)^m a by b ([] for zero)."""
    while len(a) >= len(b):
        a = [b[0] * x - a[0] * y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        a = list(itertools.dropwhile(lambda c: c == 0, a))
    return _primitive(a)


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials when b is primitive and divides a."""
    quotient = []
    while len(a) >= len(b):
        quotient.append(a[0] // b[0])
        a = [x - quotient[-1] * y for x, y in itertools.zip_longest(a, b, fillvalue=0)][1:]
    return quotient


def _roots(p: list[int], degree: int | None = None) -> list[complex]:
    """All roots of an integer polynomial, highest degree first, with multiplicity.

    Exact roots at 0 are split off, then the squarefree part p / gcd(p, p')
    is solved by _aberth and gcd(p, p') recursively, so a root of
    multiplicity m comes out as exactly as a simple one rather than as a
    cluster about eps^(1/m) wide.  The gcd is a primitive pseudo-remainder
    sequence, so every step stays in the integers and the division is exact.
    _aberth judges each factor's float range by degree, that of the
    polynomial the caller gave, and each simple root goes through _as_real.
    """
    if degree is None:
        degree = len(p) - 1
    kept = list(itertools.dropwhile(lambda c: c == 0, reversed(p)))[::-1]
    zeros = [0j] * (len(p) - len(kept))
    if len(kept) == 1:
        return zeros
    n = len(kept) - 1
    gcd, rest = kept, _primitive([c * (n - i) for i, c in enumerate(kept[:-1])])
    while rest:
        gcd, rest = rest, _pseudo_remainder(gcd, rest)
    squarefree = _quotient(kept, gcd)
    simple = [_as_real(squarefree, z) for z in _aberth(squarefree, degree)]
    return zeros + simple + _roots(gcd, degree)


def _as_real(p: list[int], z: complex) -> complex:
    """z, or the float nearest a real root of p if z is one blurred by at
    most s = 4 ulp(|z|): |Im z| <= s and p changes sign, exactly, between
    Re z - s and Re z + s."""
    s = 4 * math.ulp(abs(z))
    if abs(z.imag) <= s:
        try:
            return complex(_nearest_float_root(p, z.real - s, z.real + s), 0.0)
        except ValueError:  # no sign change there: z is not real
            pass
    return z


def _newton_correction(p: list[int], z: complex) -> complex:
    """p(z) / p'(z), rounded once from exact values: z is (x + iy) / den
    for integers x, y and den, so den^d p(z) = v_re + i v_im and
    den^(d-1) p'(z) = s_re + i s_im are Gaussian integers, taken by
    Horner's rule on integer pairs."""
    (x, q), (y, r) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(q, r)
    x, y = x * (den // q), y * (den // r)
    v_re = v_im = s_re = s_im = 0
    power = 1
    for c in p:
        s_re, s_im = s_re * x - s_im * y + v_re, s_re * y + s_im * x + v_im
        v_re, v_im = v_re * x - v_im * y + c * power, v_re * y + v_im * x
        power *= den
    norm = den * (s_re * s_re + s_im * s_im)
    return complex((v_re * s_re + v_im * s_im) / norm, (v_im * s_re - v_re * s_im) / norm)


_MAX_SWEEPS = 200


def _aberth(p: list[int], degree: int) -> list[complex]:
    """The roots of a squarefree integer polynomial with p(0) != 0.

    Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973), each root
    updated in turn, from one circle per edge of the Newton polygon of
    log|c_i|, of radius |c_i / c_j|^(1/(j-i)) (Bini, Numer. Algorithms 13,
    1996).  Each Newton correction is exact up to its one rounding, so a
    root is done once its step is within an ulp of its modulus, also
    inside a cluster that float evaluation would blur.  ValueError if the
    outermost circle's radius to the power degree, that of the caller's
    polynomial of which p is a factor, is past float range (its leading
    term at a root there would overflow), if a correction is, or if the
    iteration does not settle.
    """
    n = len(p) - 1
    hull = []  # the upper convex hull of the points (i, log|c_i|), c_i the coefficient of z^i
    for j, lj in ((i, math.log(abs(c))) for i, c in enumerate(reversed(p)) if c):
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (lj - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (j - hull[-2][0]):
            hull.pop()
        hull.append((j, lj))
    circles = [(i, j - i, (li - lj) / (j - i)) for (i, li), (j, lj) in zip(hull, hull[1:])]
    if degree * circles[-1][2] > math.log(sys.float_info.max):
        raise ValueError("coefficients too widely spread for double precision")
    z = [
        cmath.rect(math.exp(log_radius), 2 * math.pi * (m / count + i / n) + 0.7)
        for i, count, log_radius in circles
        for m in range(count)
    ]
    done = [False] * n
    try:
        for _ in range(_MAX_SWEEPS):
            for i, zi in enumerate(z):
                if not done[i]:
                    ratio = _newton_correction(p, zi)
                    repulsion = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                    step = ratio / (1 - ratio * repulsion)
                    z[i] = zi - step
                    done[i] = abs(step) <= math.ulp(abs(z[i]))
            if all(done):
                return z
    except (OverflowError, ZeroDivisionError):  # a correction past float range; iterates met
        pass
    raise ValueError(f"Aberth iteration did not settle in {_MAX_SWEEPS} sweeps")


def theta(z: float) -> float:
    """The radius map z(1-z)(1+z) / (-(z^2-1/2)^2 + z(z^2-1/2) - z/2 + 5/4).

    The denominator equals 1 - z + z^2 + z^3 - z^4.
    """
    w = z * z - 0.5
    den = -(w * w) + z * w - z / 2 + 1.25
    if abs(den) < 1e-14:
        raise ValueError(f"pole of the radius map at z={z}")
    return z * (1 - z) * (1 + z) / den


def _u(z: float) -> float:
    return 1 - z + z * z + z**3 - z**4


def _u_prime(z: float) -> float:
    return -1 + 2 * z + 3 * z * z - 4 * z**3


def estimate_rk(k: int, n_max: int) -> float:
    """Radius of sum f_k(2n,0) z^(2n) from ratios of exact counts.

    The raw estimates sqrt(f_k(2m-2,0) / f_k(2m,0)) converge like
    r_k (1 + a/m), so iterated Richardson extrapolation in 1/m is
    applied to the tail.  The exact value is 1/(2(k-1)); this estimate
    only serves to check it.
    """
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if n_max < 10:
        raise ValueError(f"need n_max >= 10 for a usable tail, got {n_max}")
    from . import counting

    m_max = n_max // 2
    counting.fk_perfect(k, 2 * m_max)  # largest first: an oversized table is refused before it grows
    f = [counting.fk_perfect(k, 2 * m) for m in range(m_max + 1)]
    seq = [(m, math.sqrt(f[m - 1] / f[m])) for m in range(1, m_max + 1)]
    for j in range(1, 4):
        seq = [
            (m, (m * x - (m - j) * x_before) / j)
            for (_, x_before), (m, x) in zip(seq, seq[1:])
        ]
    return seq[-1][1]


class GrowthReport(namedtuple("GrowthReport", "k radius rho growth_rate residual")):
    """Dominant singularity rho and growth rate 1/rho for one crossing
    bound k, with the radius r_k as a float and the residual
    |theta(rho) - r_k|."""

    __slots__ = ()


def _cleared(num: int, den: int) -> tuple[int, int, int, int, int]:
    """den * ((z - z^3) - r (1 - z + z^2 + z^3 - z^4)) for r = num/den, as
    integer coefficients, highest degree first."""
    return (num, -(den + num), -num, den + num, -num)


def _value(coeffs, p: int, q: int) -> int:
    """q^d P(p/q) for P of degree d: with q > 0, an integer of P's sign at p/q."""
    value, power = 0, 1
    for c in coeffs:
        value = value * p + c * power
        power *= q
    return value


def _nearest_float_root(coeffs, lo: float, hi: float) -> float:
    """The float nearest the one root of an integer polynomial in (lo, hi).

    coeffs are integers, highest degree first, and P must change sign
    between lo and hi, else ValueError.  Bisection over the floats, with
    each sign taken exactly on integers at p/q = x.as_integer_ratio(),
    ends at two adjacent floats; the sign at their exact midpoint says
    which is nearer (a root exactly there goes to hi).
    """

    def value(x: float) -> int:
        return _value(coeffs, *x.as_integer_ratio())

    below = value(lo)
    if below * value(hi) >= 0:
        raise ValueError(f"no sign change of {coeffs} between {lo!r} and {hi!r}")
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if value(mid) * below > 0:
            lo = mid
        else:
            hi = mid
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return lo if _value(coeffs, a * d + c * b, 2 * b * d) * below < 0 else hi


@functools.cache
def compute_rho(k: int) -> GrowthReport:
    """Smallest positive real solution of theta(z) = r_k, r_k = 1/(2(k-1)).

    rho_k is the float nearest the root of the cleared quartic
    (z - z^3) - r_k (1 - z + z^2 + z^3 - z^4) in [r_k/2, 1/2], and the
    growth rate the float nearest the root of the reversed quartic, whose
    roots are the reciprocals, in [2, 2/r_k]; both by exact bisection.
    Each bracket holds one root and no other: the numerator of theta' is
    1 - 4z^2 + 2z^4 - z^6 = (1 - 4z^2) + z^4 (2 - z^2), positive on
    [0, 1/2], so theta increases there, up to theta(1/2) = 6/13 > r_k;
    and u(z) >= 1 - z gives theta(z) <= (8/7) z for z <= 1/8, so
    theta(r_k/2) < r_k.  u > 0 there, so the quartic u (theta - r_k)
    has the roots of theta = r_k.  A k whose 2/r_k is past half the
    float range raises ValueError.  The result is cached, as rho_3
    serves several K' values in one command.
    """
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    den = 2 * (k - 1)
    if 4 * den > sys.float_info.max:  # so the bisection's lo + hi stays finite
        raise ValueError(f"the growth rate's bracket [2, 4(k-1)] nears float overflow for k = {k}")
    quartic = _cleared(1, den)
    rho = _nearest_float_root(quartic, 1 / (2 * den), 0.5)
    growth_rate = _nearest_float_root(quartic[::-1], 2.0, float(2 * den))
    r_k = 1 / den
    return GrowthReport(k, r_k, rho, growth_rate, abs(theta(rho) - r_k))


def singularities_for_radius(report: GrowthReport) -> list[complex]:
    """All eight roots of (z - z^3) = +-r_k (1 - z + z^2 + z^3 - z^4).

    These are the singularities the radius map induces from the pair of
    dominant singularities +-r_k; for k = 3 they are the roots of
    z^4 - 5z^3 - z^2 + 5z - 1 and z^4 + 3z^3 - z^2 - 3z - 1.  Both
    quartics go to _roots as the exact integers +-1, 2(k-1) clear them
    to, whose real roots are the nearest floats, so the +r_k list holds
    report.rho exactly; if it does not, the root finder lost it, and
    ValueError.
    """
    den = 2 * (report.k - 1)
    plus, minus = (_roots(_cleared(num, den)) for num in (1, -1))
    if report.rho not in plus:
        raise ValueError(f"the root finder lost the root at rho_k = {report.rho!r}")
    return plus + minus


def _falling_factorial(n: int) -> int:
    if n < 5:
        raise ValueError(f"falling factorial vanishes for n < 5, got {n}")
    return n * (n - 1) * (n - 2) * (n - 3) * (n - 4)


def subexp_factor(n: int) -> float:
    """Asymptotic subexponential factor K' * 4! / (n(n-1)...(n-4))."""
    return KPRIME * 24 / _falling_factorial(n)


def scaled_count(value: int, base: float, n: int) -> float:
    """value / base^n, without overflowing floats on the way: the exact
    subexponential factor S_{3,3}(n) / base^n when value is the exact count.
    A result past float range raises ValueError, and so does one below the
    normal floats, whose subnormal has lost the digits the CLI prints."""
    if value == 0:
        return 0.0
    try:
        scaled = math.exp(math.log(value) - n * math.log(base))
    except OverflowError:
        raise ValueError(f"count / base^n is past float range for base {base} and n = {n}") from None
    if scaled < sys.float_info.min:
        raise ValueError(f"count / base^n is below float range for base {base} and n = {n}")
    return scaled


def kprime(n: int) -> float:
    """K'(n) = S_{3,3}(n) rho^n n(n-1)...(n-4) / 4!, the normalized count."""
    from . import structures

    ff = _falling_factorial(n)
    rho = compute_rho(3).rho
    return math.exp(
        math.log(structures.s_k3(3, n)) + n * math.log(rho) + math.log(ff) - math.log(24)
    )


class KprimeReport(namedtuple("KprimeReport", "n_max estimate raw_last")):
    """raw_last = kprime(n_max); estimate is the value at 1/n = 0 of the cubic
    in 1/n through kprime at n_max, n_max//2, n_max//4 and n_max//8 (three
    Richardson steps when n_max is a multiple of 8)."""

    __slots__ = ()


def estimate_kprime(n_max: int) -> KprimeReport:
    """K'(n_max) and the extrapolated limit of K'(n) from four nodes."""
    if n_max < 50:
        raise ValueError(f"need n_max >= 50 for a meaningful tail, got {n_max}")
    nodes = [n_max // 2**i for i in range(4)]
    values = {i: kprime(i) for i in nodes}
    # Lagrange interpolation in h = 1/n at h = 0: the weight of node i is
    # prod over j != i of h_j / (h_j - h_i) = i / (i - j)
    estimate = sum(values[i] * math.prod(i / (i - j) for j in nodes if j != i) for i in nodes)
    return KprimeReport(n_max=n_max, estimate=estimate, raw_last=values[n_max])


class SingularConstants(
    namedtuple("SingularConstants", "rho u_value u_derivative g_derivative")
):
    """Local data of the clearing polynomial at the k = 3 singularity:
    u(rho), u'(rho) and g'(rho)."""

    __slots__ = ()

    @property
    def kprime_limit(self) -> float:
        """lim K'(n) = (8 g'(rho) rho)^4 / (pi u(rho)), about 6.55545."""
        return (8 * self.g_derivative * self.rho) ** 4 / (math.pi * self.u_value)


def singular_constants_check() -> SingularConstants:
    """u(rho_3), u'(rho_3) and g'(rho_3) for g(z) = (z - z^3)/u(z)."""
    rho = compute_rho(3).rho
    uv = _u(rho)
    du = _u_prime(rho)
    dg = ((1 - 3 * rho * rho) * uv - (rho - rho**3) * du) / (uv * uv)
    return SingularConstants(rho=rho, u_value=uv, u_derivative=du, g_derivative=dg)
