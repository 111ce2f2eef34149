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
`roots` and growth's list of induced singularities, are solved in closed
form (depressed quartic plus resolvent cubic) with complex arithmetic
throughout, then polished by Newton iteration on the original
polynomial; double precision plus that refinement is enough for the
listed values, whose reference values carry at most 1e-5 accuracy.

Only the functions that need exact counts (estimate_rk, kprime and
estimate_kprime through it) import the counting layers, so solving a
quartic or computing a growth constant loads neither.
"""

import cmath
import functools
import math
import sys
from collections import namedtuple

# The paper's printed K'; lim K'(n) is (8 g'(rho) rho)^4 / (pi u(rho)) = 6.55545.
KPRIME = 6.11170
GROWTH_RATE_K3 = 4.54920


def _horner_with_derivative(coeffs, z: complex) -> tuple[complex, complex]:
    p = 0j
    dp = 0j
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_refine(z: complex, coeffs, max_iter: int = 50) -> complex:
    scale = max(1.0, max(abs(c) for c in coeffs))
    p, _ = _horner_with_derivative(coeffs, z)
    for _ in range(max_iter):
        if abs(p) <= 1e-16 * scale:
            break
        _, dp = _horner_with_derivative(coeffs, z)
        if dp == 0:
            break
        step = p / dp
        # damped: a step may never worsen the residual (a nearly flat
        # derivative would otherwise catapult the iterate away)
        for _ in range(30):
            cand = z - step
            p_new, _ = _horner_with_derivative(coeffs, cand)
            if abs(p_new) <= abs(p):
                break
            step /= 2
        else:
            break
        z, p = cand, p_new
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            break
    return z


def solve_cubic_depressed(p: float, q: float) -> tuple[complex, complex, complex]:
    """All three complex roots of v^3 + p v + q = 0.

    Vieta substitution: v = p/(3U) - U with U^3 = q/2 +- sqrt(q^2/4 +
    p^3/27); the branch keeps U away from zero, and U = 0 (p = q = 0)
    yields the triple root 0.
    """
    disc = cmath.sqrt(complex(q) ** 2 / 4 + complex(p) ** 3 / 27)
    u_cubed = q / 2 + disc
    other = q / 2 - disc
    if abs(other) > abs(u_cubed):
        u_cubed = other
    if u_cubed == 0:
        return (0j, 0j, 0j)
    u0 = u_cubed ** (1 / 3)
    omega = complex(-0.5, math.sqrt(3) / 2)
    coeffs = (1.0, 0.0, p, q)
    cube_roots = (u0, u0 * omega, u0 * omega * omega)
    return tuple(_newton_refine(p / (3 * u) - u, coeffs) for u in cube_roots)


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
        return abs(_horner_with_derivative(self.coefficients(), z)[0])


def _low_degree_roots(coeffs) -> list[complex]:
    """Newton-polished roots of a polynomial of degree 0 to 3, highest coefficient first."""
    monic = [c / coeffs[0] for c in coeffs[1:]]
    if len(monic) == 3:
        b, c, d = monic
        depressed = solve_cubic_depressed(c - b * b / 3, 2 * b**3 / 27 - b * c / 3 + d)
        roots = [v - b / 3 for v in depressed]
    elif len(monic) == 2:
        b, c = monic
        disc = cmath.sqrt(complex(b * b / 4 - c))
        roots = [-b / 2 + disc, -b / 2 - disc]
    else:
        roots = [complex(-c) for c in monic]
    return [_newton_refine(z, coeffs) for z in roots]


def solve_quartic(problem: QuarticProblem) -> list[complex]:
    """All four roots, via depressed quartic and resolvent cubic.

    Exact roots at 0 (trailing zero coefficients) are split off first: the
    closed form blurs a multiple root into a pair about sqrt(eps) apart.
    The resolvent root keeping |alpha + 2y| largest is used, which avoids
    the spurious zero branch of biquadratics; if every resolvent root
    degenerates the quartic is u^4 = 0 up to rounding and is handled as a
    biquadratic.  Roots are Newton-polished at the end, so the branch
    choices only affect intermediate accuracy.

    Finite coefficients can still be too widely spread for double
    precision (1, 1e200, 1, 1, 1 overflows the shifted cubic term): an
    intermediate that overflows, or a root that comes out infinite or NaN,
    raises ValueError.
    """
    try:
        roots = _quartic_roots(problem.coefficients())
        finite = all(map(cmath.isfinite, roots))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"coefficients {tuple(problem)} are too widely spread for double precision")
    return roots


def _quartic_roots(coeffs) -> list[complex]:
    if coeffs[-1] == 0:
        kept = list(coeffs)
        while kept[-1] == 0:
            kept.pop()
        return [0j] * (5 - len(kept)) + _low_degree_roots(kept)
    a, b, c, d, e = coeffs
    b1, c1, d1, e1 = b / a, c / a, d / a, e / a
    shift = -b1 / 4
    alpha = -3 * b1 * b1 / 8 + c1
    beta = b1**3 / 8 - b1 * c1 / 2 + d1
    gamma = -3 * b1**4 / 256 + c1 * b1 * b1 / 16 - b1 * d1 / 4 + e1

    p_res = -alpha * alpha / 12 - gamma
    q_res = -(alpha**3) / 108 + alpha * gamma / 3 - beta * beta / 8
    ys = [v - 5 * alpha / 6 for v in solve_cubic_depressed(p_res, q_res)]
    y = max(ys, key=lambda cand: abs(alpha + 2 * cand))
    s_sq = alpha + 2 * y

    scale = max(1.0, abs(alpha), abs(beta), abs(gamma))
    halves = []
    if abs(s_sq) <= 1e-13 * scale:
        disc = cmath.sqrt(complex(alpha * alpha / 4 - gamma))
        for w in (-alpha / 2 + disc, -alpha / 2 - disc):
            root = cmath.sqrt(w)
            halves.extend((root, -root))
    else:
        s = cmath.sqrt(complex(s_sq))
        for sign in (1.0, -1.0):
            t = cmath.sqrt(-(3 * alpha + 2 * y + sign * 2 * beta / s))
            halves.extend(((sign * s + t) / 2, (sign * s - t) / 2))

    return [_newton_refine(u + shift, coeffs) for u in halves]


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
    quartics are solved in closed form, from the exact pairs +-1, 2(k-1),
    and the smallest real root of the +r_k one in (0, 0.7), taking
    |imag| <= 1e-8 as real, is replaced by report.rho; if the closed form
    lost that root, as at k = 10^7, ValueError.
    """
    den = 2 * (report.k - 1)
    plus, minus = (
        solve_quartic(QuarticProblem(*(c / den for c in _cleared(num, den)))) for num in (1, -1)
    )
    real = [i for i, z in enumerate(plus) if abs(z.imag) <= 1e-8 and 0 < z.real < 0.7]
    if not real:
        raise ValueError(f"the float quartic solver lost the root at rho_k = {report.rho!r}")
    plus[min(real, key=lambda i: plus[i].real)] = complex(report.rho, 0.0)
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
