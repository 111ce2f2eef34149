import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import match_roots, newton_deflation_roots
from crossing_count import asymptotics as asy
from crossing_count import counting
from crossing_count.asymptotics import QuarticProblem


def test_depressed_cubic_triple_root():
    assert asy.solve_cubic_depressed(0.0, 0.0) == (0j, 0j, 0j)


def test_depressed_cubic_factored():
    roots = sorted(asy.solve_cubic_depressed(-1.0, 0.0), key=lambda z: z.real)
    for root, expected in zip(roots, (-1, 0, 1)):
        assert abs(root - expected) < 1e-12


def test_depressed_cubic_resolvent_case():
    # the resolvent cubic of z^4 - 5z^3 - z^2 + 5z - 1; its real root
    # corresponds to y ~ 6.21621 via v = y + 5*alpha/6 with alpha = -83/8
    roots = asy.solve_cubic_depressed(-16 / 3, 299 / 216)
    target = 6.21621 - 5 * 83 / 48
    assert min(abs(z - target) for z in roots) < 1e-5
    for z in roots:
        assert abs(z**3 - (16 / 3) * z + 299 / 216) < 1e-9


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
def test_quartic_vieta_property(a, b, c, d, e):
    problem = QuarticProblem(a, b, c, d, e)
    roots = asy.solve_quartic(problem)
    assert abs(sum(roots) + b / a) <= 1e-8 * max(1.0, abs(b / a))


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
    assert len(report.roots) == 4
    assert report.growth_rate == 1 / report.rho


def test_dominant_root_round_trip():
    # the solver and the integer rounding at a radius with a long ratio
    num, den = asy.theta(0.1).as_integer_ratio()
    roots = asy.solve_quartic(QuarticProblem(*asy._clearing_coefficients(num, den)))
    rho, growth_rate = asy._correctly_rounded_root(roots[asy._dominant_index(roots)].real, num, den)
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


@pytest.mark.parametrize("k", range(3, 13))
def test_compute_rho_is_the_correctly_rounded_root(k):
    # exact bisection of the cleared quartic, until both ends of the
    # interval round to the same float
    r = Fraction(1, 2 * (k - 1))

    def cleared(z):
        return (z - z**3) - r * (1 - z + z * z + z**3 - z**4)

    step = Fraction(1, 64)
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


@pytest.mark.parametrize("k", range(3, 13))
def test_growth_rate_is_the_correctly_rounded_reciprocal(k):
    # exact bisection of the cleared quartic, until 1/rho at both ends of
    # the interval rounds to the same float
    r = Fraction(1, 2 * (k - 1))

    def cleared(z):
        return (z - z**3) - r * (1 - z + z * z + z**3 - z**4)

    step = Fraction(1, 64)
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


def test_uncertified_rounding_raises():
    # one Newton step from 0.2 does not land within half an ulp of rho_3
    with pytest.raises(ArithmeticError):
        asy._correctly_rounded_root(0.2, 1, 4)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_singularities_hold_the_certified_rho(k):
    # the first four are the closed-form roots compute_rho saw, but for rho
    report = asy.compute_rho(k)
    sing = asy.singularities_for_radius(report.radius, report.rho)
    assert complex(report.rho, 0.0) in sing[:4]
    changed = [i for i, (a, b) in enumerate(zip(sing, report.roots)) if a != b]
    assert len(changed) <= 1
    assert all(abs(sing[i] - report.roots[i]) <= 1e-15 for i in changed)


def test_compute_rho_rejects_out_of_range():
    for k in (2, 1, 0):
        with pytest.raises(ValueError):
            asy.compute_rho(k)


def test_singularities_for_quarter_radius():
    sing = asy.singularities_for_radius(0.25, asy.compute_rho(3).rho)
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
