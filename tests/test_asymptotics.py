import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import match_roots, newton_deflation_roots
from crossing_count import asymptotics as asy
from crossing_count import counting
from crossing_count.asymptotics import QuarticProblem


APPENDIX_ROOTS_PLUS = (0.21982, 5.00829, -1.07392, 0.84581)
APPENDIX_ROOTS_MINUS = (
    complex(-0.53243, 0.11951),
    complex(-0.53243, -0.11951),
    1.10477,
    -3.03992,
)


def test_quartic_reference_roots():
    plus = asy.solve_quartic(QuarticProblem(1, -5, -1, 5, -1))
    assert match_roots(plus, [complex(r) for r in APPENDIX_ROOTS_PLUS]) < 1e-5
    minus = asy.solve_quartic(QuarticProblem(1, 3, -1, -3, -1))
    assert match_roots(minus, [complex(r) for r in APPENDIX_ROOTS_MINUS]) < 1e-5


def test_quartic_quadruple_root():
    roots = asy.solve_quartic(QuarticProblem(1, -4, 6, -4, 1))
    assert all(abs(z - 1) < 1e-7 for z in roots)


def test_quartic_biquadratic():
    roots = asy.solve_quartic(QuarticProblem(1, 0, -5, 0, 4))
    assert match_roots(roots, [1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j]) < 1e-10


@pytest.mark.parametrize(
    "coeffs, repeated, simple",
    [
        ((1, -2, 2, -2, 1), [1, 1], [1j, -1j]),  # (x - 1)^2 (x^2 + 1)
        ((1, -5, 6, 4, -8), [2, 2, 2], [-1]),  # (x - 2)^3 (x + 1)
        ((1, -2, 1, 0, 0), [0, 0, 1, 1], []),  # x^2 (x - 1)^2
    ],
    ids=["double", "triple", "double-at-0-and-1"],
)
def test_quartic_multiple_roots_are_exact(coeffs, repeated, simple):
    # the squarefree split divides gcd(p, p') out exactly, so a multiple
    # root is not blurred into a cluster about eps^(1/m) wide
    roots = asy.solve_quartic(QuarticProblem(*coeffs))
    for root in repeated:
        assert complex(root) in roots
        roots.remove(complex(root))
    assert match_roots(roots, simple) <= 1e-15


def test_quartic_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        QuarticProblem(0, 1, 1, 1, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(5))
def test_quartic_rejects_non_finite_coefficient(bad, position):
    coeffs = [1.0] * 5
    coeffs[position] = bad
    with pytest.raises(ValueError, match="finite"):
        QuarticProblem(*coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1e200, 1, 1, 1),  # a root near -1e200, whose fourth power overflows
        (1e-160, 1, 1, 1, 1),  # the same, from a tiny leading coefficient
        (1e-300, 1, 0, 0, 0),  # a root near -1e300 beside a triple root at 0
        (1e-100, 1, 1, 0, 0),  # a root near -1e100 beside a double root at 0
    ],
)
def test_quartic_rejects_too_widely_spread_coefficients(coeffs):
    with pytest.raises(ValueError, match="widely spread"):
        asy.solve_quartic(QuarticProblem(*coeffs))


@pytest.mark.parametrize("coeffs", [(1, 1, 1, 1e160, 1), (1, 0, 0, 1e160, -1)])
def test_quartic_solves_widely_spread_coefficients(coeffs):
    # a root near -+1e-160 and three of modulus about 2e53; the closed form
    # overflowed in its resolvent cubic or returned NaN here
    problem = QuarticProblem(*coeffs)
    roots = asy.solve_quartic(problem)
    magnitudes = [abs(c) for c in coeffs]
    for z in roots:
        scale = sum(c * abs(z) ** (4 - i) for i, c in enumerate(magnitudes))
        assert problem.residual(z) <= 1e-14 * scale
    assert abs(sum(roots) + coeffs[1]) <= 1e-15 * max(map(abs, roots))


def _random_problem(rng):
    while True:
        a = rng.uniform(-10, 10)
        if abs(a) >= 0.1:
            break
    return QuarticProblem(a, *(rng.uniform(-10, 10) for _ in range(4)))


def test_quartic_random_residual_vieta_and_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        problem = _random_problem(rng)
        roots = asy.solve_quartic(problem)
        norm = max(1.0, max(abs(c) for c in problem.coefficients()))
        for z in roots:
            assert problem.residual(z) / norm <= 1e-9
        total = sum(roots)
        prod = math.prod(roots)
        assert abs(total - (-problem.b / problem.a)) <= 1e-9 * max(1.0, abs(total))
        assert abs(prod - problem.e / problem.a) <= 1e-9 * max(1.0, abs(prod))
        oracle_roots = newton_deflation_roots(problem.coefficients(), rng)
        assert match_roots(roots, oracle_roots) <= 1e-7


@given(
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
@example(0.3359375, 2.0, -6.103515625e-05, 0.0, 0.0)  # double root at 0
@example(
    1.8930515802676104, -5.8976442220668, 9.927219641726195e-14, -1.1063282926029688e-14,
    8.311946440109289e-16,
)  # a triple cluster of modulus about 5e-6; the closed form missed the sum by 1.5e-6
@example(
    1.1509981238312932, 1.1509981238312932, 1.0671568235878684e-133, 1.1509981238312932,
    1.1509981238312932,
)  # two roots 1e-66 from -1, which float evaluation of p blurs to a pair 1e-8 apart
def test_quartic_vieta_property(a, b, c, d, e):
    problem = QuarticProblem(a, b, c, d, e)
    roots = asy.solve_quartic(problem)
    assert abs(sum(roots) + b / a) <= 1e-8 * max(1.0, abs(b / a))


def test_quartic_vieta_on_a_near_triple_cluster():
    # one real root and a complex pair of modulus about 1.7e-5; the closed
    # form returned three real roots near -1.82e-5, off the Vieta sum by
    # 5.2e-5, past test_quartic_vieta_property's bound of 2e-7 here
    a, b = 0.1, 2.0
    roots = asy.solve_quartic(QuarticProblem(a, b, 6.129627507605499e-06, 0.0, 1e-14))
    assert abs(sum(roots) + b / a) <= 1e-8 * max(1.0, abs(b / a))


def test_rho_quartic_roots_stay_apart_at_large_k():
    # the +r_k quartic for k = 10^6 has the roots 1999999, 0.99999975,
    # -1.00000025 and 5.0000025e-7; the closed form returned the tiny root
    # twice, one of them then replaced by rho, and lost the one near 1
    roots = asy.singularities_for_radius(asy.compute_rho(10**6))[:4]
    assert all(abs(z - w) >= 1e-3 for i, z in enumerate(roots) for w in roots[i + 1 :])


def test_rho_exists_at_k_ten_million():
    # theta(z) is about z near 0, so rho_k is about r_k
    k = 10**7
    assert asy.compute_rho(k).rho == pytest.approx(1 / (2 * (k - 1)), rel=1e-6)


def test_theta_values():
    assert asy.theta(0.0) == 0.0
    assert asy.theta(1.0) == 0.0
    assert abs(asy.theta(0.21982) - 0.25) <= 1e-4


def test_theta_matches_rational_form():
    for i in range(71):
        z = i / 100
        expected = (z - z**3) / (1 - z + z * z + z**3 - z**4)
        assert abs(asy.theta(z) - expected) < 1e-14


def test_theta_pole_raises():
    lo, hi = 1.5, 1.6  # u has a root near 1.5166
    u = lambda z: 1 - z + z * z + z**3 - z**4
    for _ in range(200):
        mid = (lo + hi) / 2
        if (u(lo) > 0) == (u(mid) > 0):
            lo = mid
        else:
            hi = mid
    with pytest.raises(ValueError):
        asy.theta(lo)


def test_radius_values():
    assert [asy.compute_rho(k).radius for k in (3, 4, 5, 12)] == [1 / 4, 1 / 6, 1 / 8, 1 / 22]


@pytest.mark.parametrize("k", range(3, 7))
def test_estimate_rk_converges_to_the_exact_radius(k):
    r = 1 / (2 * (k - 1))
    error_40 = abs(asy.estimate_rk(k, 40) - r)
    error_64 = abs(asy.estimate_rk(k, 64) - r)
    assert error_64 < error_40
    assert error_64 < 1e-3 * r


def test_estimate_rk_rejects_bad_arguments():
    with pytest.raises(ValueError):
        asy.estimate_rk(3, 9)
    with pytest.raises(ValueError):
        asy.estimate_rk(2, 40)


def test_estimate_rk_refuses_before_the_walk_table_grows(monkeypatch):
    # k = 8 has no recurrence: reading f_8(2m, 0) in ascending m used to
    # walk to max_n = 37 (about 1 s) before the refusal
    fk_tables = {k: table for k, table in counting._fk_tables.items() if k != 8}
    monkeypatch.setattr(counting, "_fk_tables", fk_tables)
    with pytest.raises(counting.BudgetExceededError):
        asy.estimate_rk(8, 400)
    assert 8 not in fk_tables


def test_compute_rho_exact_quarter():
    report = asy.compute_rho(3)
    assert abs(report.rho - 0.21982) <= 1e-5
    assert abs(report.growth_rate - 4.54920) <= 1e-4
    assert abs(asy.theta(report.rho) - 0.25) <= 1e-10
    appendix = QuarticProblem(1, -5, -1, 5, -1)
    assert appendix.residual(report.rho) <= 1e-12
    assert report.growth_rate == 1 / report.rho


def test_dominant_root_round_trip():
    # both exact bisections at a radius with a long ratio, in compute_rho's brackets
    r = asy.theta(0.1)
    quartic = asy._cleared(*r.as_integer_ratio())
    rho = asy._nearest_float_root(quartic, r / 2, 0.5)
    growth_rate = asy._nearest_float_root(quartic[::-1], 2.0, 2 / r)
    assert abs(rho - 0.1) <= 1e-10
    assert abs(growth_rate - 10) <= 1e-8


@pytest.mark.parametrize("k", range(3, 9))
def test_compute_rho_matches_bisection_oracle(k):
    r = Fraction(1, 2 * (k - 1))
    report = asy.compute_rho(k)
    assert report.radius == float(r)

    def cleared(z):
        return (z - z**3) - float(r) * (1 - z + z * z + z**3 - z**4)

    lo, hi = 0.0, 0.7
    assert cleared(lo) < 0
    # first sign change
    step = 1e-4
    z = step
    while cleared(z) < 0:
        z += step
    lo, hi = z - step, z
    for _ in range(100):
        mid = (lo + hi) / 2
        if (cleared(lo) < 0) == (cleared(mid) < 0):
            lo = mid
        else:
            hi = mid
    assert abs(report.rho - (lo + hi) / 2) <= 1e-9


BISECTED_K = [*range(3, 13), 10**6, 10**7]


@pytest.mark.parametrize("k", BISECTED_K)
def test_compute_rho_is_the_correctly_rounded_root(k):
    # exact bisection of the cleared quartic, until both ends of the
    # interval round to the same float; the scan's step is r/4, so its
    # first sign change is past 0 for every k
    r = Fraction(1, 2 * (k - 1))

    def cleared(z):
        return (z - z**3) - r * (1 - z + z * z + z**3 - z**4)

    step = r / 4
    lo = Fraction(0)
    while cleared(lo + step) < 0:
        lo += step
    hi = lo + step
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if cleared(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert asy.compute_rho(k).rho == float(lo)


@pytest.mark.parametrize("k", BISECTED_K)
def test_growth_rate_is_the_correctly_rounded_reciprocal(k):
    # exact bisection of the cleared quartic, until 1/rho at both ends of
    # the interval rounds to the same float
    r = Fraction(1, 2 * (k - 1))

    def cleared(z):
        return (z - z**3) - r * (1 - z + z * z + z**3 - z**4)

    step = r / 4
    lo = Fraction(0)
    while cleared(lo + step) < 0:
        lo += step
    hi = lo + step
    while float(1 / lo) != float(1 / hi):
        mid = (lo + hi) / 2
        if cleared(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert asy.compute_rho(k).growth_rate == float(1 / lo)


def test_bracket_without_a_sign_change_raises():
    # rho_3 = 0.2198 lies below [1/4, 1/2], which holds no other root
    with pytest.raises(ValueError, match="no sign change"):
        asy._nearest_float_root(asy._cleared(1, 4), 0.25, 0.5)


def test_nearest_float_root_is_the_correctly_rounded_sqrt():
    # IEEE sqrt is correctly rounded, so it is an independent oracle
    for n in range(2, 201):
        if math.isqrt(n) ** 2 != n:
            assert asy._nearest_float_root((1, 0, -n), 1.0, float(n)) == math.sqrt(n), n


def _times(a, b):
    """Product of two integer polynomials, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _at(poly, z):
    return sum(c * z**i for i, c in enumerate(poly))


def test_theta_increases_on_the_rho_bracket():
    # compute_rho's bracket argument, exactly.  The numerator of theta' is
    # (1 - 3z^2) u - (z - z^3) u' = 1 - 4t + 2t^2 - t^3 with t = z^2; its
    # slope in t, -4 + 4t - 3t^2, is at most -3 for t <= 1/4, so on
    # [0, 1/2] it is least at z = 1/2, where it is 7/64 > 0
    u, du = [1, -1, 1, 1, -1], [-1, 2, 3, -4]
    first, second = _times([1, 0, -3], u), _times([0, 1, 0, -1], du)
    numerator = [x - y for x, y in zip(first, second)]
    assert numerator == [1, 0, -4, 0, 2, 0, -1]
    half = Fraction(1, 2)
    assert _at(numerator, half) == Fraction(7, 64)
    assert all(-4 + 4 * t - 3 * t * t <= -3 for t in (Fraction(i, 400) for i in range(101)))
    # theta(1/2) = 6/13 > r_k; and u(z) - (1 - z) = z^2 (1 + z - z^2) >= 0 on
    # [0, 1], so u(z) >= 7/8 and theta(z) <= (8/7) z for z <= 1/8
    assert (half - half**3) / _at(u, half) == Fraction(6, 13)
    assert [a - b for a, b in zip(u, [1, -1, 0, 0, 0])] == _times([0, 0, 1], [1, 1, -1])


def test_compute_rho_needs_no_float_solver(monkeypatch):
    def refuse(problem):
        raise RuntimeError("solve_quartic called")

    monkeypatch.setattr(asy, "solve_quartic", refuse)
    for k in (3, 12, 10**7):
        assert asy.compute_rho.__wrapped__(k) == asy.compute_rho(k)


@pytest.mark.parametrize("k", range(3, 13))
def test_singularities_hold_the_certified_rho(k):
    # the roots of the +r_k and -r_k quartics on the integers +-1, 2(k-1)
    # clear them to; the first holds rho exactly, as a real root
    report = asy.compute_rho(k)
    sing = asy.singularities_for_radius(report)
    plus, minus = (asy._roots(asy._cleared(num, 2 * (k - 1))) for num in (1, -1))
    assert complex(report.rho, 0.0) in plus
    assert sing == plus + minus


@pytest.mark.parametrize("k", range(3, 13))
def test_singularities_keep_no_imaginary_crumbs(k):
    # a root with a nonzero imaginary part has its conjugate beside it, well
    # apart; a root with none is real: its quartic changes sign across it
    d = 2 * (k - 1)
    sing = asy.singularities_for_radius(asy.compute_rho(k))
    for num, roots in zip((1, -1), (sing[:4], sing[4:])):
        quartic = asy._cleared(num, d)
        for z in roots:
            if z.imag:
                assert z.conjugate() in roots
                assert abs(z.imag) > 1e-3 * abs(z)
            else:
                signs = [
                    asy._value(quartic, *math.nextafter(z.real, end).as_integer_ratio())
                    for end in (-math.inf, math.inf)
                ]
                assert signs[0] * signs[1] < 0


@pytest.mark.parametrize("k", [228948, 288537, 367783, 370547, 518642, 10**6, 10**7])
def test_singularities_at_large_k_are_the_nearest_floats(k):
    # at these k the closed form dropped the root at rho_k or merged two
    # roots.  With d = 2(k-1) all eight roots are real, one in each bracket:
    # the +r_k quartic is -1 at 1 and -1 and -d^3 + d - 1 at d, positive at
    # 1/2, -2 and 2d; the -r_k one is 1 at 0, 1, -1 and 1 - d, negative at
    # -1/2, 2 and -d; rho_k's bracket is compute_rho's.  Exact bisection in
    # each bracket is the oracle.
    d = 2 * (k - 1)
    sing = asy.singularities_for_radius(asy.compute_rho(k))
    brackets = (
        [(1 / (2 * d), 0.5), (0.5, 1.0), (-2.0, -1.0), (float(d), float(2 * d))],
        [(-1.0, -0.5), (-0.5, 0.0), (1.0, 2.0), (float(-d), float(1 - d))],
    )
    for num, roots, spans in zip((1, -1), (sing[:4], sing[4:]), brackets):
        quartic = asy._cleared(num, d)
        for lo, hi in spans:
            exact = asy._nearest_float_root(quartic, lo, hi)
            [root] = [z for z in roots if lo <= z.real <= hi]
            assert root.real == exact
            assert root.imag == 0.0


def test_compute_rho_rejects_out_of_range():
    for k in (2, 1, 0):
        with pytest.raises(ValueError):
            asy.compute_rho(k)


def test_compute_rho_refuses_a_bracket_near_float_overflow():
    # the last k whose bracket [2, 4(k-1)] has a finite midpoint sum, then the first past it
    edge = int(sys.float_info.max) // 8 + 1
    assert asy.compute_rho(edge).growth_rate == pytest.approx(2 * (edge - 1), rel=1e-15)
    with pytest.raises(ValueError, match="float overflow"):
        asy.compute_rho(edge + 1)


def test_singularities_for_quarter_radius():
    sing = asy.singularities_for_radius(asy.compute_rho(3))
    expected = [complex(r) for r in APPENDIX_ROOTS_PLUS] + [
        complex(r) for r in APPENDIX_ROOTS_MINUS
    ]
    assert match_roots(sing, expected) < 1e-5


def test_subexp_factor_values():
    assert abs(asy.subexp_factor(10) - 4.851e-3) <= 1e-6
    assert abs(asy.subexp_factor(50) - 5.769e-7) <= 1e-10
    assert abs(asy.subexp_factor(100) - 1.624e-8) <= 1e-11
    with pytest.raises(ValueError):
        asy.subexp_factor(4)


def test_scaled_count_values():
    from crossing_count.structures import s_k3

    assert asy.scaled_count(s_k3(3, 0), 4.54920, 0) == 1.0
    assert abs(asy.scaled_count(s_k3(3, 10), 4.54920, 10) - 3.016e-4) / 3.016e-4 <= 0.005
    # the printed table row at n=60 is a misprint (it repeats the n=50
    # value); this is the cross-verified computed value
    assert abs(asy.scaled_count(s_k3(3, 60), 4.54920, 60) - 1.4762e-7) / 1.4762e-7 <= 0.005


def test_scaled_count_accuracy():
    # n small enough for a direct float cross-check
    from crossing_count.structures import s_k3

    for n in (10, 50):
        direct = s_k3(3, n) / 4.54920**n
        assert abs(asy.scaled_count(s_k3(3, n), 4.54920, n) - direct) <= 1e-9 * direct


def test_scaled_count_past_float_range_is_refused():
    from crossing_count.structures import s_k3

    for base, n in ((1e-300, 10), (1e-300, 2), (1e-100, 8), (1e300, 10), (1e300, 2), (1e100, 8)):
        with pytest.raises(ValueError, match=re.escape(f"base {base} and n = {n}")):
            asy.scaled_count(s_k3(3, n), base, n)
    # a factor near the bottom of the normal floats still prints its digits
    assert asy.scaled_count(s_k3(3, 10), 1e30, 10) == pytest.approx(1.145e-297, rel=1e-12)


def test_estimate_kprime_small_run():
    report = asy.estimate_kprime(100)
    assert abs(asy.kprime(100) - 4.89) / 4.89 <= 0.02
    assert report.raw_last == asy.kprime(100)
    assert all(
        asy.kprime(n) < asy.kprime(n + 1) for n in range(50, 100)
    )
    with pytest.raises(ValueError):
        asy.estimate_kprime(49)


def test_kprime_rejects_vanishing_falling_factorial():
    with pytest.raises(ValueError):
        asy.kprime(4)


def test_estimate_kprime_counts_only_at_its_four_nodes(monkeypatch):
    from crossing_count import structures

    calls = []
    s_k3 = structures.s_k3

    def counted(k, n):
        calls.append((k, n))
        return s_k3(k, n)

    monkeypatch.setattr(structures, "s_k3", counted)
    asy.estimate_kprime(200)
    assert sorted(calls) == [(3, 25), (3, 50), (3, 100), (3, 200)]


def test_estimate_kprime_extrapolates_to_the_limit():
    limit = asy.singular_constants_check().kprime_limit
    assert abs(limit - 6.55545) < 1e-5
    report = asy.estimate_kprime(250)
    assert abs(report.estimate - 6.55545) < 5e-3
    assert report.raw_last < report.estimate < limit


def test_singular_constants():
    sc = asy.singular_constants_check()
    assert abs(sc.u_value - 0.83679) <= 1e-4
    assert abs(abs(sc.u_derivative) - 0.4580) <= 1e-3
    assert abs(abs(sc.g_derivative) - 1.15861) <= 1e-3


def test_growth_rate_matches_empirical_ratio():
    from crossing_count.structures import s_k3

    report = asy.compute_rho(3)
    ratio = s_k3(3, 201) / s_k3(3, 200)
    # the gap decays like 5 * growth_rate / n, so ~0.11 at n = 200
    assert abs(ratio - report.growth_rate) <= 0.12
    assert abs(math.log(ratio) - math.log(report.growth_rate)) <= 0.05
