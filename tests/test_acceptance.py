"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, straight from the contract.  Two printed
reference values are corrected from the paper's own data, and the
printed values stay under test:

- the printed exact column of the factor table shifts three values:
  rows 50, 60 and 70 hold the values of rows 45, 50 and 60.  The rows
  carry their computed values, backed by the functional equation to
  order 70, and each printed value is checked against the row it was
  copied from;
- the limit of K'(n) is the singular-expansion constant
  (8 g'(rho) rho)^4 / (pi u(rho)) = 6.5556, computed from the printed
  rho, g'(rho) and u(rho).  The printed 6.11170 is a finite-n value of
  that slowly converging sequence, which K'(n) crosses between n = 400
  and n = 450.

Nothing here is loosened to force green.
"""

import math
import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES
from helpers import match_roots, matches_sig_figs, newton_deflation_roots

from crossing_count import asymptotics as asy
from crossing_count import counting, oracle, powerseries, structures
from crossing_count.asymptotics import QuarticProblem
from crossing_count.oracle import Diagram, EnumSpec, crossing_number, enumerate_count
from crossing_count.powerseries import TruncatedSeries


def _record(num: int, description: str, failures: list[str], elapsed: float) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num} [{status}] {description} ({elapsed:.1f}s)"
    print(line)
    ACCEPTANCE_LINES.append(line)
    for item in failures[:12]:
        ACCEPTANCE_LINES.append(f"    - {item}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_oracle_equivalence():
    start = time.time()
    failures = []
    for k in (3, 4):
        for n in range(15):
            hist = enumerate_count(
                EnumSpec(n=n, max_crossing=k, min_arc_length=3, by_isolated=True)
            )
            if sum(hist.values()) != structures.s_k3(k, n):
                failures.append(f"total mismatch at k={k}, n={n}")
            for ell in range(n + 1):
                if hist.get(ell, 0) != structures.s_k3_by_isolated(k, n, ell):
                    failures.append(f"histogram mismatch at k={k}, n={n}, ell={ell}")
    elapsed = time.time() - start
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    _record(1, "oracle equivalence, k in {3,4}, n <= 14, with histograms", failures, elapsed)


def test_criterion_2_closed_form():
    start = time.time()
    failures = []
    for n in range(0, 61, 2):
        if counting.fk_perfect(3, n) != counting.fk_closed_form_k3(n):
            failures.append(f"mismatch at n={n}")
    elapsed = time.time() - start
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1 s")
    _record(2, "f_3 table equals Catalan closed form, even n <= 60", failures, elapsed)


def test_criterion_3_identity_verification():
    start = time.time()
    failures = []
    checks = [
        powerseries.verify_laplace_identity(3, 30),
        powerseries.verify_laplace_identity(4, 20),
        powerseries.verify_functional_equation(3, 30),
        powerseries.verify_functional_equation(4, 20),
        powerseries.verify_bessel_egf(3, 16),
        powerseries.verify_bessel_egf(4, 12),
    ] + [powerseries.verify_phi_identity(n, 15) for n in range(6)]
    for report in checks:
        if not report.ok:
            failures.append(report.describe())
    elapsed = time.time() - start
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _record(3, "generating-function identities at stated orders", failures, elapsed)


REFERENCE_TABLE = {
    # n: (exact column S/4.54920^n, asymptotic column)
    10: (3.016e-4, 4.851e-3),
    20: (2.017e-5, 7.884e-5),
    30: (3.513e-6, 8.577e-6),
    40: (9.646e-7, 1.858e-6),
    50: (3.457e-7, 5.769e-7),
    60: (1.476e-7, 2.238e-7),
    70: (7.136e-8, 1.010e-7),
    80: (3.783e-8, 5.085e-8),
    90: (2.154e-8, 2.781e-8),
    100: (1.299e-8, 1.624e-8),
}

# The printed exact column at rows 50, 60 and 70 repeats the values of
# rows 45, 50 and 60: printed row -> (row it was copied from, printed value)
PRINTED_EXACT_SHIFT = {
    50: (45, 5.627e-7),
    60: (50, 3.457e-7),
    70: (60, 1.476e-7),
}


def test_criterion_4_table_reproduction():
    start = time.time()
    failures = []
    for n, (exact_printed, asym_printed) in REFERENCE_TABLE.items():
        exact = asy.scaled_count(structures.s_k3(3, n), 4.54920, n)
        if not matches_sig_figs(exact, exact_printed, 3):
            failures.append(
                f"exact column n={n}: computed {exact:.4e} vs printed {exact_printed:.4e}"
            )
        asym = asy.subexp_factor(n)
        if not matches_sig_figs(asym, asym_printed, 4):
            failures.append(
                f"asymptotic column n={n}: computed {asym:.4e} vs printed {asym_printed:.4e}"
            )
    for row, (source, printed) in PRINTED_EXACT_SHIFT.items():
        exact = asy.scaled_count(structures.s_k3(3, source), 4.54920, source)
        if not matches_sig_figs(exact, printed, 3):
            failures.append(
                f"printed exact row {row}: {printed:.4e} vs computed n={source} {exact:.4e}"
            )
    # an independent route to the exact column through n = 70
    report = powerseries.verify_functional_equation(3, 70)
    if not report.ok:
        failures.append(report.describe())
    elapsed = time.time() - start
    if elapsed > 10:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10 s")
    _record(
        4,
        "factor table, 10 rows (3 s.f. exact, 4 s.f. asymptotic), "
        "printed rows 50/60/70 match n = 45/50/60, functional equation to order 70",
        failures,
        elapsed,
    )


def test_criterion_5_growth_constants():
    start = time.time()
    failures = []
    report = asy.compute_rho(3)
    if abs(report.rho - 0.21982) > 1e-5:
        failures.append(f"rho_3 = {report.rho}")
    if abs(report.growth_rate - 4.54920) > 1e-4:
        failures.append(f"growth rate = {report.growth_rate}")
    if abs(asy.theta(report.rho) - 0.25) > 1e-10:
        failures.append(f"theta(rho) = {asy.theta(report.rho)}")
    printed_plus = [0.21982 + 0j, 5.00829 + 0j, -1.07392 + 0j, 0.84581 + 0j]
    printed_minus = [
        complex(-0.53243, 0.11951),
        complex(-0.53243, -0.11951),
        1.10477 + 0j,
        -3.03992 + 0j,
    ]
    worst_plus = match_roots(
        asy.solve_quartic(QuarticProblem(1, -5, -1, 5, -1)), printed_plus
    )
    worst_minus = match_roots(
        asy.solve_quartic(QuarticProblem(1, 3, -1, -3, -1)), printed_minus
    )
    if worst_plus > 1e-5:
        failures.append(f"first quartic roots off by {worst_plus:.2e}")
    if worst_minus > 1e-5:
        failures.append(f"second quartic roots off by {worst_minus:.2e}")
    elapsed = time.time() - start
    _record(5, "rho_3, growth rate, theta round-trip, 8 reference roots", failures, elapsed)


def test_criterion_6_singular_constants():
    start = time.time()
    failures = []
    sc = asy.singular_constants_check()
    if abs(sc.u_value - 0.83679) > 1e-4:
        failures.append(f"u(rho) = {sc.u_value}")
    if abs(abs(sc.u_derivative) - 0.4580) > 1e-3:
        failures.append(f"|u'(rho)| = {abs(sc.u_derivative)}")
    if abs(abs(sc.g_derivative) - 1.15861) > 1e-3:
        failures.append(f"|g'(rho)| = {abs(sc.g_derivative)}")
    elapsed = time.time() - start
    _record(6, "singular constants u, u', g' at rho_3", failures, elapsed)


# The paper's printed formula constant, a finite-n value of K'(n).
KPRIME_PRINTED = 6.11170
# The limit of K'(n): f_3(2m,0) ~ (24/pi) 16^m / m^5 transfers through the
# radius map theta to (8 g'(rho) rho)^4 / (pi u(rho)), here from the
# printed rho = 0.21982, g'(rho) = 1.15861 and u(rho) = 0.83679.
KPRIME_LIMIT = (8 * 1.15861 * 0.21982) ** 4 / (math.pi * 0.83679)


def test_criterion_7_kprime_convergence():
    start = time.time()
    failures = []
    report = asy.estimate_kprime(800)
    values = {n: asy.kprime(n) for n in range(50, 501)}
    not_increasing = [
        n for n in range(50, 500) if not values[n] < values[n + 1]
    ]
    if not_increasing:
        failures.append(f"sequence not strictly increasing at n={not_increasing[:5]}")
    if abs(values[100] - 4.89) / 4.89 > 0.02:
        failures.append(f"K'(100) = {values[100]:.4f} vs 4.89 +- 2%")
    if abs(report.estimate - KPRIME_LIMIT) > 0.3:
        failures.append(
            f"extrapolated estimate {report.estimate:.4f} outside "
            f"{KPRIME_LIMIT:.4f} +- 0.3 (raw K'(800) = {report.raw_last:.4f})"
        )
    if not values[400] < KPRIME_PRINTED < values[450]:
        failures.append(
            f"K'(n) does not cross {KPRIME_PRINTED:.5f} between n = 400 and 450 "
            f"(K'(400) = {values[400]:.4f}, K'(450) = {values[450]:.4f})"
        )
    elapsed = time.time() - start
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _record(
        7,
        f"K' sequence increasing, K'(100), extrapolated limit within {KPRIME_LIMIT:.4f} +- 0.3, "
        f"crosses printed {KPRIME_PRINTED:.5f} at 400 < n < 450",
        failures,
        elapsed,
    )


def test_criterion_8_expansion_coefficient():
    start = time.time()
    failures = []
    n = 10**6
    value = asy.subexp_factor(n) * n**5
    if abs(value - 146.6807) / 146.6807 > 0.001:
        failures.append(f"subexp_factor(1e6) * 1e30 = {value}")
    elapsed = time.time() - start
    _record(8, "subexponential factor times n^5 tends to 146.6807", failures, elapsed)


def _random_series(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(order + 1)],
        order,
    )


def _random_diagram(rng: random.Random, n_max: int = 12) -> Diagram:
    n = rng.randint(0, n_max)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    m = rng.randint(0, n // 2)
    arcs = frozenset(
        (min(a, b), max(a, b)) for a, b in zip(verts[0 : 2 * m : 2], verts[1 : 2 * m : 2])
    )
    return Diagram(n, arcs)


def test_criterion_9_property_suites():
    start = time.time()
    failures = []
    rng = random.Random(987654321)

    # quartic solver: residual, Vieta, independent Newton-deflation oracle
    for i in range(1000):
        coeffs = [rng.uniform(-10, 10) for _ in range(5)]
        while abs(coeffs[0]) < 0.1:
            coeffs[0] = rng.uniform(-10, 10)
        problem = QuarticProblem(*coeffs)
        roots = asy.solve_quartic(problem)
        norm = max(1.0, max(abs(c) for c in coeffs))
        if any(problem.residual(z) / norm > 1e-9 for z in roots):
            failures.append(f"residual violation at instance {i}")
            break
        if abs(sum(roots) + problem.b / problem.a) > 1e-9 * max(
            1.0, abs(problem.b / problem.a)
        ):
            failures.append(f"Vieta sum violation at instance {i}")
            break
        if abs(math.prod(roots) - problem.e / problem.a) > 1e-9 * max(
            1.0, abs(problem.e / problem.a)
        ):
            failures.append(f"Vieta product violation at instance {i}")
            break
        if match_roots(roots, newton_deflation_roots(coeffs, rng)) > 1e-7:
            failures.append(f"oracle mismatch at instance {i}")
            break

    # series ring axioms on random rational series
    one = TruncatedSeries.one(8)
    for i in range(150):
        a, b, c = (_random_series(rng, 8) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * (b + c) != a * b + a * c:
            failures.append(f"ring axiom violation at instance {i}")
            break
        if a * b != b * a or (a * b) * c != a * (b * c):
            failures.append(f"ring axiom violation at instance {i}")
            break
        if a[0]:
            if a * a.reciprocal() != one:
                failures.append(f"reciprocal violation at instance {i}")
                break

    # oracle symmetries
    for i in range(150):
        d = _random_diagram(rng)
        if crossing_number(d) != crossing_number(d.mirror()):
            failures.append(f"mirror violation at instance {i}")
            break
    for n in (6, 7, 8):
        spec = EnumSpec(n=n, max_crossing=3, min_arc_length=2, by_isolated=True)
        base = enumerate_count(spec)
        if any(
            enumerate_count(spec, branch_rng=random.Random(seed)) != base
            for seed in (1, 2, 3)
        ):
            failures.append(f"search-order dependence at n={n}")

    # monotonicity of the structure counts
    for k in (3, 4):
        for n in range(40):
            if structures.s_k3(k, n) > structures.s_k3(k, n + 1):
                failures.append(f"not monotone in n at k={k}, n={n}")
            if structures.s_k3(k, n) > structures.s_k3(k + 1, n):
                failures.append(f"not monotone in k at k={k}, n={n}")

    elapsed = time.time() - start
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _record(9, "property suites: quartic, series ring, oracle symmetry, monotonicity", failures, elapsed)
