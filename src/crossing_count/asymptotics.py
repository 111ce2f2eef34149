"""Growth constants and asymptotic approximations for the k = 3 counts.

The exponential growth rate of the structure counts is 1/rho_k, where
rho_k is the smallest positive solution of theta(z) = r_k and r_k is the
radius of convergence of sum f_k(2n,0) z^(2n).  For k = 3 the radius is
exactly 1/4, clearing theta(z) = 1/4 gives the quartic
z^4 - 5z^3 - z^2 + 5z - 1, and the subexponential factor is
K' * 4! / (n(n-1)(n-2)(n-3)(n-4)) with the paper's printed K' = 6.11170.
That constant is a finite-n value: the exact sequence
K'(n) = S_{3,3}(n) rho^n n(n-1)...(n-4) / 4! crosses it at n = 421 and
converges to the singular-expansion constant
(8 g'(rho) rho)^4 / (pi u(rho)) = 6.55545, which follows from
f_3(2m,0) ~ (24/pi) 16^m / m^5 through the radius map.

Quartics are solved in closed form (depressed quartic plus resolvent
cubic) with complex arithmetic throughout, then every root is polished
by Newton iteration on the original polynomial; double precision plus
that refinement is enough for all the constants handled here, whose
reference values carry at most 1e-5 accuracy.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from . import counting, structures

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
    roots = []
    for _ in range(3):
        roots.append(_newton_refine(p / (3 * u0) - u0, coeffs))
        u0 *= omega
    return tuple(roots)


@dataclass(frozen=True)
class QuarticProblem:
    """Coefficients of a*x^4 + b*x^3 + c*x^2 + d*x + e, a != 0."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("leading coefficient must be nonzero")

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)

    def residual(self, z: complex) -> float:
        return abs(_horner_with_derivative(self.coefficients(), z)[0])


def solve_quartic(problem: QuarticProblem) -> list[complex]:
    """All four roots, via depressed quartic and resolvent cubic.

    The resolvent root keeping |alpha + 2y| largest is used, which
    avoids the spurious zero branch of biquadratics; if every resolvent
    root degenerates the quartic is u^4 = 0 up to rounding and is
    handled as a biquadratic.  Roots are Newton-polished at the end, so
    the branch choices only affect intermediate accuracy.
    """
    a, b, c, d, e = problem.coefficients()
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
    if abs(s_sq) <= 1e-13 * scale:
        disc = cmath.sqrt(complex(alpha * alpha / 4 - gamma))
        halves = []
        for w in (-alpha / 2 + disc, -alpha / 2 - disc):
            root = cmath.sqrt(w)
            halves.extend((root, -root))
    else:
        s = cmath.sqrt(complex(s_sq))
        halves = []
        for sign in (1.0, -1.0):
            t = cmath.sqrt(-(3 * alpha + 2 * y + sign * 2 * beta / s))
            halves.append((sign * s + t) / 2)
            halves.append((sign * s - t) / 2)

    coeffs = problem.coefficients()
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


@dataclass(frozen=True)
class RadiusEstimate:
    """Numeric radius of convergence estimate with an empirical bound."""

    k: int
    n_max: int
    value: float
    error: float


def estimate_rk(k: int, n_max: int) -> RadiusEstimate:
    """Radius of sum f_k(2n,0) z^(2n) from ratios of exact counts.

    The raw estimates sqrt(f_k(2m-2,0) / f_k(2m,0)) converge like
    r_k (1 + a/m), so iterated Richardson extrapolation in 1/m is
    applied to the tail; the reported error is the size of the last
    extrapolation step, an empirical bound rather than a guarantee.
    """
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if n_max < 10:
        raise ValueError(f"need n_max >= 10 for a usable tail, got {n_max}")
    m_max = n_max // 2
    f = [counting.fk_perfect(k, 2 * m) for m in range(m_max + 1)]
    seq = [(m, math.sqrt(f[m - 1] / f[m])) for m in range(1, m_max + 1)]
    prev_last = seq[-1][1]
    depth = min(3, len(seq) - 1)
    for j in range(1, depth + 1):
        prev_last = seq[-1][1]
        seq = [
            (m, (m * x - (m - j) * x_before) / j)
            for (_, x_before), (m, x) in zip(seq, seq[1:])
        ]
    value = seq[-1][1]
    error = max(abs(value - seq[-2][1]), abs(value - prev_last) / 4) + 1e-12
    return RadiusEstimate(k=k, n_max=n_max, value=value, error=error)


@dataclass(frozen=True)
class GrowthReport:
    """Dominant singularity and growth rate for one crossing bound."""

    k: int
    radius: float
    rho: float
    growth_rate: float
    residual: float
    roots: tuple[complex, ...]


def _clearing_coefficients(r) -> tuple[float, float, float, float, float]:
    # (z - z^3) - r*(1 - z + z^2 + z^3 - z^4), highest degree first
    return (float(r), float(-(1 + r)), float(-r), float(1 + r), float(-r))


def compute_rho(k: int, r_k) -> GrowthReport:
    """Smallest positive real solution of theta(z) = r_k.

    Rational r_k goes through the exact-coefficient quartic
    (z - z^3) - r_k (1 - z + z^2 + z^3 - z^4) = 0 solved in closed form;
    a float r_k is bracketed by a sign scan on [0, 0.7] instead.  Either
    way the root is Newton-polished on the cleared quartic.
    """
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    exact = isinstance(r_k, numbers.Rational)
    r = Fraction(r_k) if exact else float(r_k)
    rf = float(r)
    if not 0 < rf <= 0.5:
        raise ValueError(f"radius must lie in (0, 1/2], got {rf}")
    coeffs = _clearing_coefficients(r)
    problem = QuarticProblem(*coeffs)
    roots = solve_quartic(problem)

    rho = None
    if exact:
        real_candidates = [
            z.real for z in roots if abs(z.imag) <= 1e-8 and 0 < z.real < 0.7
        ]
        if real_candidates:
            rho = min(real_candidates)
    else:
        rho = _bisect_smallest_root(coeffs, rf)
    if rho is None:
        raise ValueError(f"no real root in (0, 0.7) for radius {rf}")
    rho = _newton_refine(complex(rho), coeffs).real
    residual = abs(theta(rho) - rf)
    return GrowthReport(
        k=k,
        radius=rf,
        rho=rho,
        growth_rate=1 / rho,
        residual=residual,
        roots=tuple(roots),
    )


def _bisect_smallest_root(coeffs, rf: float) -> float | None:
    def q(z: float) -> float:
        return (z - z**3) - rf * _u(z)

    steps = 7000
    prev = q(0.0)
    for i in range(1, steps + 1):
        z = 0.7 * i / steps
        val = q(z)
        if val == 0:
            return z
        if prev < 0 < val or val < 0 < prev:
            lo, hi = 0.7 * (i - 1) / steps, z
            for _ in range(80):
                mid = (lo + hi) / 2
                if (q(lo) < 0) == (q(mid) < 0):
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2
        prev = val
    return None


def singularities_for_radius(r) -> list[complex]:
    """All eight roots of (z - z^3) = +-r (1 - z + z^2 + z^3 - z^4).

    These are the singularities the radius map induces from the pair of
    dominant singularities +-r; for r = 1/4 they are the roots of
    z^4 - 5z^3 - z^2 + 5z - 1 and z^4 + 3z^3 - z^2 - 3z - 1.
    """
    out: list[complex] = []
    for signed in (r, -r):
        out.extend(solve_quartic(QuarticProblem(*_clearing_coefficients(signed))))
    return out


def subexp_factor(n: int) -> float:
    """Asymptotic subexponential factor K' * 4! / (n(n-1)...(n-4))."""
    if n < 5:
        raise ValueError(f"falling factorial vanishes for n < 5, got {n}")
    ff = n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
    return KPRIME * 24 / ff


def _scaled_count(value: int, base: float, n: int) -> float:
    # value / base^n without overflowing floats; exact ints keep log accurate
    if value == 0:
        return 0.0
    return math.exp(math.log(value) - n * math.log(base))


def exact_subexp_factor(n: int, base: float) -> float:
    """S_{3,3}(n) / base^n from the exact integer count."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if base <= 1:
        raise ValueError(f"base must exceed 1, got {base}")
    return _scaled_count(structures.s_k3(3, n), base, n)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Asymptotic approximation at one n, with the full value log-scaled.

    full_log10 = log10(subexponential * base^n); the plain value would
    overflow floats long before the interesting range ends.
    """

    n: int
    subexponential: float
    full_log10: float
    kprime: float = KPRIME


def asymptotic_estimate(n: int, base: float = GROWTH_RATE_K3) -> AsymptoticEstimate:
    """Predicted structure count at n as subexponential factor and log scale."""
    s = subexp_factor(n)
    return AsymptoticEstimate(
        n=n, subexponential=s, full_log10=math.log10(s) + n * math.log10(base)
    )


@dataclass(frozen=True)
class KprimeReport:
    """Convergence data for the subexponential constant K'.

    values[n] = S_{3,3}(n) * rho^n * n(n-1)...(n-4) / 4! for n >= 5
    (earlier entries are nan); estimate is the value at 1/n = 0 of the
    cubic in 1/n through values at n_max, n_max//2, n_max//4 and
    n_max//8 (three Richardson steps when n_max is a multiple of 8).
    """

    n_max: int
    rho: float
    estimate: float
    raw_last: float
    values: tuple[float, ...]


def estimate_kprime(n_max: int) -> KprimeReport:
    """Normalized-count sequence and extrapolated limit for K'."""
    if n_max < 50:
        raise ValueError(f"need n_max >= 50 for a meaningful tail, got {n_max}")
    rho = compute_rho(3, Fraction(1, 4)).rho
    log_rho = math.log(rho)
    values = [math.nan] * (n_max + 1)
    for n in range(5, n_max + 1):
        ff = n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
        values[n] = math.exp(
            math.log(structures.s_k3(3, n)) + n * log_rho + math.log(ff) - math.log(24)
        )
    # Lagrange interpolation in h = 1/n at h = 0: the weight of node i is
    # prod over j != i of h_j / (h_j - h_i) = i / (i - j)
    nodes = [n_max // 2**i for i in range(4)]
    estimate = sum(
        values[i] * math.prod(i / (i - j) for j in nodes if j != i) for i in nodes
    )
    return KprimeReport(
        n_max=n_max,
        rho=rho,
        estimate=estimate,
        raw_last=values[n_max],
        values=tuple(values),
    )


@dataclass(frozen=True)
class SingularConstants:
    """Local data of the clearing polynomial at the k = 3 singularity."""

    rho: float
    u_value: float
    u_derivative: float
    g_derivative: float

    @property
    def kprime_limit(self) -> float:
        """lim K'(n) = (8 g'(rho) rho)^4 / (pi u(rho)), about 6.55545."""
        return (8 * self.g_derivative * self.rho) ** 4 / (math.pi * self.u_value)


def singular_constants_check() -> SingularConstants:
    """u(rho_3), u'(rho_3) and g'(rho_3) for g(z) = (z - z^3)/u(z)."""
    rho = compute_rho(3, Fraction(1, 4)).rho
    uv = _u(rho)
    du = _u_prime(rho)
    dg = ((1 - 3 * rho * rho) * uv - (rho - rho**3) * du) / (uv * uv)
    return SingularConstants(rho=rho, u_value=uv, u_derivative=du, g_derivative=dg)
