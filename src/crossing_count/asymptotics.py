"""Growth constants and asymptotic approximations for the k = 3 counts.

The exponential growth rate of the structure counts is 1/rho_k, where
rho_k is the smallest positive solution of theta(z) = r_k and r_k is the
radius of convergence of sum f_k(2n,0) z^(2n), exactly 1/(2(k-1)) since
f_k(2n,0) ~ c_k n^(-((k-1)^2 + (k-1)/2)) (2(k-1))^(2n) (Grabiner &
Magyar 1993; Chen, Deng, Du, Stanley & Yan 2007).  Clearing
theta(z) = r_k gives a quartic, z^4 - 5z^3 - z^2 + 5z - 1 for k = 3,
whose smallest real root in (0, 0.7) is rho_k.  For k = 3 the
subexponential factor is K' * 4! / (n(n-1)(n-2)(n-3)(n-4)) with the
paper's printed K' = 6.11170, a finite-n value: the exact sequence
kprime(n) crosses it at n = 421 and converges to the singular-expansion
constant (8 g'(rho) rho)^4 / (pi u(rho)) = 6.55545, which follows from
f_3(2m,0) ~ (24/pi) 16^m / m^5 through the radius map.

Quartics are solved in closed form (depressed quartic plus resolvent
cubic) with complex arithmetic throughout, then every root is polished
by Newton iteration on the original polynomial; double precision plus
that refinement is enough for all the constants handled here, whose
reference values carry at most 1e-5 accuracy.  rho_k and 1/rho_k are
then each rounded to the nearest float: one Newton step on plain
integers from the float root (a float and r_k are both exact integer
ratios), rounded once by int / int true division, and certified by a
sign change of the quartic, evaluated on integers, across the half-ulp
neighbours of the printed value (for 1/rho_k, at their reciprocals).
So no command that reports a growth constant imports fractions.

Only the functions that need exact counts (estimate_rk, kprime and
estimate_kprime through it) import the counting layers, so solving a
quartic or computing a growth constant loads neither.
"""

import cmath
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


class GrowthReport(namedtuple("GrowthReport", "k radius rho growth_rate residual roots")):
    """Dominant singularity rho and growth rate 1/rho for one crossing
    bound k, with the radius r_k as a float, the residual |theta(rho) - r_k|
    and the four roots of the cleared quartic."""

    __slots__ = ()


def _clearing_coefficients(num: int, den: int) -> tuple[float, float, float, float, float]:
    # (z - z^3) - r*(1 - z + z^2 + z^3 - z^4) for r = num/den, highest degree
    # first, each coefficient rounded once
    return (num / den, -(den + num) / den, -num / den, (den + num) / den, -num / den)


def _cleared(p: int, q: int, num: int, den: int) -> int:
    """den q^4 times the cleared quartic at p/q for r = num/den: with
    q, den > 0, an integer of the quartic's sign there."""
    p2, q2 = p * p, q * q
    return den * (p * q * q2 - p * p2 * q) - num * (q2 * q2 - p * q * q2 + p2 * q2 + p * p2 * q - p2 * p2)


def _half_ulp_neighbours(x: float) -> list[tuple[int, int]]:
    """The points half an ulp below and above x, as (numerator, denominator)."""
    a, b = x.as_integer_ratio()
    out = []
    for toward in (-math.inf, math.inf):
        c, d = math.nextafter(x, toward).as_integer_ratio()
        out.append((a * d + c * b, 2 * b * d))
    return out


def _correctly_rounded_root(z: float, num: int, den: int) -> tuple[float, float]:
    """The floats nearest the root of the cleared quartic next to z and
    nearest its reciprocal, for r = num/den with den > 0.

    One Newton step on integers from the float root z = p/q gives the
    exact ratio x = (p S - C) / (q S), with C and S the quartic and its
    slope at z times den q^4 and den q^3; int / int true division rounds
    x and 1/x once each.  Both are then certified: the quartic must
    change sign between the half-ulp neighbours of the rounded root, and
    between the reciprocals of those of the rounded reciprocal, else
    ArithmeticError.
    """
    p, q = z.as_integer_ratio()
    p2, q2 = p * p, q * q
    slope = den * (q * q2 - 3 * p2 * q) - num * (-q * q2 + 2 * p * q2 + 3 * p2 * q - 4 * p * p2)
    top, bottom = p * slope - _cleared(p, q, num, den), q * slope
    root, reciprocal = top / bottom, bottom / top

    def brackets(lo: tuple[int, int], hi: tuple[int, int]) -> bool:
        return _cleared(*lo, num, den) * _cleared(*hi, num, den) < 0

    (e, f), (g, h) = _half_ulp_neighbours(reciprocal)
    if not (brackets(*_half_ulp_neighbours(root)) and brackets((f, e), (h, g))):
        raise ArithmeticError(f"root near {z} not certified to the nearest float")
    return root, reciprocal


def _dominant_index(roots: list[complex]) -> int:
    """Index of the smallest real root in (0, 0.7), taking |imag| <= 1e-8 as real."""
    real = [i for i, z in enumerate(roots) if abs(z.imag) <= 1e-8 and 0 < z.real < 0.7]
    if not real:
        raise ValueError("no real root in (0, 0.7)")
    return min(real, key=lambda i: roots[i].real)


def compute_rho(k: int) -> GrowthReport:
    """Smallest positive real solution of theta(z) = r_k, r_k = 1/(2(k-1)).

    The cleared quartic (z - z^3) - r_k (1 - z + z^2 + z^3 - z^4) = 0 is
    solved in closed form, whose roots come Newton-polished; rho is the
    smallest real one in (0, 0.7), and rho and the growth rate 1/rho are
    each rounded to the nearest float with integer arithmetic on r_k as
    the pair 1, 2(k-1).
    """
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    num, den = 1, 2 * (k - 1)
    roots = solve_quartic(QuarticProblem(*_clearing_coefficients(num, den)))
    rho, growth_rate = _correctly_rounded_root(roots[_dominant_index(roots)].real, num, den)
    r_k = num / den
    return GrowthReport(k, r_k, rho, growth_rate, abs(theta(rho) - r_k), tuple(roots))


def singularities_for_radius(report: GrowthReport) -> list[complex]:
    """All eight roots of (z - z^3) = +-r_k (1 - z + z^2 + z^3 - z^4).

    These are the singularities the radius map induces from the pair of
    dominant singularities +-r_k; for k = 3 they are the roots of
    z^4 - 5z^3 - z^2 + 5z - 1 and z^4 + 3z^3 - z^2 - 3z - 1.  The +r_k half
    is report.roots with the certified rho in place of the closed-form root
    it rounds; only the -r_k quartic is solved, from the exact pair -1, 2(k-1).
    """
    plus = list(report.roots)
    plus[_dominant_index(plus)] = complex(report.rho, 0.0)
    return plus + solve_quartic(QuarticProblem(*_clearing_coefficients(-1, 2 * (report.k - 1))))


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
