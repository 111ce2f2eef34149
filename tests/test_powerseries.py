import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    horner_compose,
    scaled_bessel_matrix,
    scan_rows,
    scan_steps,
    schoolbook_product,
    schoolbook_reciprocal,
    theta,
)
from crossing_count import U, W, counting, structures
from crossing_count import asymptotics as asy
from crossing_count import powerseries as ps
from crossing_count.powerseries import HurwitzSeries, TruncatedSeries

ORDER = 8

coefficients = st.integers(min_value=-4, max_value=4)
series = st.lists(coefficients, min_size=1, max_size=ORDER + 1).map(
    lambda cs: TruncatedSeries(cs, ORDER)
)
units = st.tuples(st.sampled_from([1, -1]), st.lists(coefficients, max_size=ORDER)).map(
    lambda unit: TruncatedSeries([unit[0], *unit[1]], ORDER)
)

# small values and values past 2^300, of both signs
int_coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**310), 2**310))


@st.composite
def series_pairs(draw, left, right):
    """Two series of one order in 0..12; an empty list is the zero series."""
    order = draw(st.integers(min_value=0, max_value=12))
    return tuple(
        TruncatedSeries(draw(st.lists(coeffs, max_size=order + 1)), order) for coeffs in (left, right)
    )


@st.composite
def invertible_series(draw, coefficients, constants):
    order = draw(st.integers(min_value=0, max_value=12))
    return TruncatedSeries([draw(constants), *draw(st.lists(coefficients, max_size=order))], order)


def poly(*coeffs, order=10):
    return TruncatedSeries(list(coeffs), order)


def test_arithmetic_examples():
    one_plus = poly(1, 1)
    one_minus = poly(1, -1)
    assert (one_plus * one_minus).coeffs == poly(1, 0, -1).coeffs
    s = poly(3, 1, 4, 1, 5)
    assert (s + TruncatedSeries([], 10)).coeffs == s.coeffs
    assert (poly(1, 1, 1) - poly(1, 1)).coeffs == poly(0, 0, 1).coeffs


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        poly(1, order=5) + poly(1, order=6)
    with pytest.raises(ValueError):
        poly(1, order=5) * poly(1, order=6)


def test_reciprocal_geometric():
    assert poly(1, -1).reciprocal().coeffs == [1] * 11


def test_reciprocal_fibonacci():
    fib = poly(1, -1, -1).reciprocal()
    assert [fib[i] for i in range(6)] == [1, 1, 2, 3, 5, 8]


def test_reciprocal_of_one():
    assert TruncatedSeries.one(10).reciprocal().coeffs == TruncatedSeries.one(10).coeffs


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ValueError):
        poly(0, 1).reciprocal()


def test_compose_geometric_with_square():
    comp = poly(1, -1).reciprocal().compose(poly(0, 0, 1))
    assert comp.coeffs == [int(n % 2 == 0) for n in range(11)]


def test_compose_identities():
    f = poly(0, 2, 3, 0, 7)
    x = poly(0, 1)
    assert x.compose(f).coeffs == f.coeffs
    assert f.compose(x).coeffs == f.coeffs


def test_compose_moebius():
    half = poly(0, 1) * poly(1, -1).reciprocal()  # x/(1-x)
    comp = half.compose(half)
    assert [comp[i] for i in range(5)] == [0, 1, 2, 4, 8]  # x/(1-2x)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        poly(1, 1).compose(poly(1, 1))


@given(series, series, series)
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@given(series_pairs(int_coefficients, int_coefficients))
def test_integer_product_matches_schoolbook_and_stays_integer(pair):
    a, b = pair
    for product, expected in ((a * b, schoolbook_product(a, b)), (a * a, schoolbook_product(a, a))):
        assert product.coeffs == expected.coeffs
        assert all(type(c) is int for c in product.coeffs)


@pytest.mark.parametrize("order", [0, 1, 7])
def test_products_with_zero_and_at_order_zero(order):
    zero, big = TruncatedSeries([], order), TruncatedSeries([-(2**300), 3, 2**301], order)
    for a, b in ((zero, big), (big, zero), (zero, zero), (big, big)):
        assert (a * b).coeffs == schoolbook_product(a, b).coeffs


@given(invertible_series(int_coefficients, st.sampled_from([1, -1])))
def test_unit_reciprocal_matches_schoolbook_and_stays_integer(a):
    r = a.reciprocal()
    assert r.coeffs == schoolbook_reciprocal(a).coeffs
    assert all(type(c) is int for c in r.coeffs)


@given(units)
def test_reciprocal_round_trip(a):
    assert (a * a.reciprocal()).coeffs == TruncatedSeries.one(ORDER).coeffs


@given(series)
def test_compose_identity_round_trip(a):
    assert a.compose(TruncatedSeries([0, 1], ORDER)).coeffs == a.coeffs


@st.composite
def composable_pairs(draw, coefficients):
    """(outer, inner) of one order in 0..12, inner with zero constant term."""
    order = draw(st.integers(min_value=0, max_value=12))
    outer = TruncatedSeries(draw(st.lists(coefficients, max_size=order + 1)), order)
    inner = TruncatedSeries([0, *draw(st.lists(coefficients, max_size=order))], order)
    return outer, inner


@settings(max_examples=50)
@given(composable_pairs(int_coefficients))
def test_integer_compose_matches_horner(pair):
    outer, inner = pair
    composed = outer.compose(inner)
    assert composed.coeffs == horner_compose(outer, inner).coeffs
    assert all(type(c) is int for c in composed.coeffs)


def test_compose_takes_about_two_sqrt_products(monkeypatch):
    products = []
    mul = TruncatedSeries.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    outer = TruncatedSeries(list(range(1, 102)), 100)
    inner = TruncatedSeries([0, 1, -1, 2], 100)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    composed = outer.compose(inner)
    assert len(products) <= 2 * 11
    monkeypatch.undo()
    assert composed.coeffs == horner_compose(outer, inner).coeffs


@st.composite
def one_parity_pairs(draw):
    """Two int series of one order in 0..12, each zero at every odd or at
    every even index: the products split into polynomials in x^2."""
    order = draw(st.integers(min_value=0, max_value=12))
    out = []
    for _ in range(2):
        coeffs = draw(st.lists(int_coefficients, max_size=order + 1))
        parity = draw(st.sampled_from([0, 1]))
        out.append(TruncatedSeries([c if i % 2 == parity else 0 for i, c in enumerate(coeffs)], order))
    return tuple(out)


@settings(max_examples=50)
@given(one_parity_pairs())
def test_one_parity_product_matches_schoolbook(pair):
    a, b = pair
    assert (a * b).coeffs == schoolbook_product(a, b).coeffs
    assert (a * a).coeffs == schoolbook_product(a, a).coeffs


def binomial_convolution(a: HurwitzSeries, b: HurwitzSeries) -> list[int]:
    """The coefficients of the Hurwitz product by its definition,
    sum_i C(n, i) a[i] b[n-i]."""
    return [sum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(a.order + 1)]


@st.composite
def hurwitz_pairs(draw):
    """Two int Hurwitz series of one order in 0..12, the first a unit."""
    order = draw(st.integers(min_value=0, max_value=12))
    unit = [draw(st.sampled_from([1, -1])), *draw(st.lists(int_coefficients, max_size=order))]
    other = draw(st.lists(int_coefficients, max_size=order + 1))
    return HurwitzSeries(unit, order), HurwitzSeries(other, order)


@settings(max_examples=50)
@given(hurwitz_pairs())
def test_hurwitz_product_and_reciprocal_match_their_definitions(pair):
    unit, other = pair
    assert (unit * other).coeffs == binomial_convolution(unit, other)
    assert (other * unit).coeffs == binomial_convolution(other, unit)
    assert (unit * unit.reciprocal()).coeffs == HurwitzSeries.one(unit.order).coeffs


def test_hurwitz_series_is_its_own_ring():
    hurwitz, ordinary = HurwitzSeries([1, 1, 2], 2), TruncatedSeries([1, 1, 2], 2)
    with pytest.raises(TypeError, match="no composition"):
        hurwitz.compose(HurwitzSeries([0, 1], 2))
    # the same coefficients square differently: sum_i C(n, i) a[i] a[n-i]
    # against sum_i a[i] a[n-i], and each ring keeps its own type
    square, ordinary_square = hurwitz * hurwitz, ordinary * ordinary
    assert (square.coeffs, ordinary_square.coeffs) == ([1, 2, 6], [1, 2, 5])
    assert type(square) is type(hurwitz + hurwitz) is type(hurwitz.reciprocal()) is HurwitzSeries
    assert type(ordinary_square) is type(ordinary.reciprocal()) is TruncatedSeries


@pytest.mark.parametrize("k, order", [(3, 30), (4, 30), (5, 24), (6, 20)])
def test_hurwitz_determinant_matches_the_rational_route(k, order):
    # the ordinary series det[I_{i-j}(2x) - I_{i+j}(2x)] has rational
    # coefficients [x^n] det = h_n / n!, h the Hurwitz determinant.  Scaled
    # by top = order! the matrix is integral, and its Leibniz expansion (no
    # inverse, no binomial convolution) is top^(k-1) det, so
    # n! [x^n] of it is top^(k-1) h_n; top e^x = sum (top / n!) x^n does
    # the same for e^x det, with top^k
    top = math.factorial(order)
    det = ps.determinant(ps.bessel_matrix(k, order))
    scaled = _permutation_determinant(scaled_bessel_matrix(k, order))
    assert [math.factorial(n) * c for n, c in enumerate(scaled.coeffs)] == [
        top ** (k - 1) * h for h in det.coeffs
    ]
    egf = HurwitzSeries([1] * (order + 1), order) * det
    exponential = TruncatedSeries([top // math.factorial(n) for n in range(order + 1)], order)
    assert [math.factorial(n) * c for n, c in enumerate((exponential * scaled).coeffs)] == [
        top**k * h for h in egf.coeffs
    ]


def test_laplace_identity_orders():
    assert ps.verify_laplace_identity(3, 30).ok
    assert ps.verify_laplace_identity(4, 20).ok
    assert ps.verify_laplace_identity(3, 0).ok


def test_functional_equation_orders():
    assert ps.verify_functional_equation(3, 30).ok
    assert ps.verify_functional_equation(4, 20).ok
    assert ps.verify_functional_equation(3, 0).ok


def test_phi_identity_orders():
    assert ps.verify_phi_identity(0, 20).ok
    assert ps.verify_phi_identity(1, 20).ok
    assert ps.verify_phi_identity(5, 15).ok


def test_phi_identity_rejects_a_negative_shift():
    for n in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            ps.verify_phi_identity(n, 10)


def test_phi_side_at_any_shift_order():
    # up by one, repeated, down, a jump: each side equals phi0 ratio^n by
    # repeated products from the ring's own reciprocal of 1 - x - x^2
    order = 18
    phi0 = ps.TruncatedSeries([1, -1, -1], order).reciprocal()
    ratio = ps.TruncatedSeries([1, 1], order) * phi0
    for n in (0, 1, 2, 2, 0, 7, 8, 3):
        side = phi0
        for _ in range(n):
            side = side * ratio
        assert ps._phi_side(n, order).coeffs == side.coeffs
        assert ps.verify_phi_identity(n, order).ok


def test_phi_side_at_a_large_shift():
    # phi0 ratio^n = (1+x)^n / (1-x-x^2)^(n+1).  (1-x-x^2)^m is
    # sum_i C(m, i) (-1)^i x^i (1+x)^i by the binomial theorem, so the side
    # times it is (1+x)^n, each term a binomial coefficient
    n, order = 2000, 200
    signed = [(-1) ** i * math.comb(n + 1, i) for i in range(order + 1)]
    denominator = [
        sum(signed[i] * math.comb(i, j - i) for i in range(j + 1)) for j in range(order + 1)
    ]
    cleared = ps._phi_side(n, order) * TruncatedSeries(denominator, order)
    assert cleared.coeffs == [math.comb(n, j) for j in range(order + 1)]


def test_u_and_w_tie_the_lam_weights_phi_sides_and_quartic_together():
    # the package's one statement of the substitution against the model's
    # other two: the lam recursion and the phi sides' Fibonacci run
    order = 200
    # lam's generating function at y = -1 is 1/u
    signed = [sum((-1) ** b * lam for b, lam in enumerate(row)) for row in scan_rows(order)]
    assert signed == TruncatedSeries(U, order).reciprocal().coeffs
    # phi0 ratio^n = Q^n / P^(n+1), P = 1 - x - x^2 from u's even part and
    # Q = 1 + x from w's odd part
    p = TruncatedSeries([(-1) ** i * c for i, c in enumerate(U[::2])], order)
    q = TruncatedSeries([(-1) ** i * c for i, c in enumerate(W[1::2])], order)
    for n in (0, 1, 5):
        cleared, power = ps._phi_side(n, order), TruncatedSeries([1], order)
        for _ in range(n + 1):
            cleared = cleared * p
        for _ in range(n):
            power = power * q
        assert cleared.coeffs == power.coeffs
    # w is minus the odd part of u
    assert [-c if i % 2 else 0 for i, c in enumerate(U)] == list(W) + [0]
    # theta(z) = 1/4 clears to the README's quartic
    assert asy._cleared(1, 4) == (1, -5, -1, 5, -1)


@pytest.mark.parametrize("k", [*range(3, 13), 10**6, 10**7])
def test_growth_residual_is_exact(k):
    # |theta(rho_k) - r_k| rounded once from the exact rational, with theta
    # written out rather than read from U and W
    report = asy.compute_rho(k)
    assert report.residual == float(abs(theta(report.rho) - Fraction(1, 2 * (k - 1))))


def test_both_rings_invert_by_the_one_newton_iteration(monkeypatch):
    products = []
    newton_inverse = ps._newton_inverse

    def spy(a, order, product):
        products.append(product)
        return newton_inverse(a, order, product)

    monkeypatch.setattr(ps, "_newton_inverse", spy)
    assert poly(1, -1).reciprocal().coeffs == [1] * 11
    assert ps.HurwitzSeries([1] * 11, 10).reciprocal().coeffs == [(-1) ** n for n in range(11)]
    assert products == [ps._kronecker_product, ps._binomial_convolution]


def test_oversized_checks_are_refused_before_any_table_grows(monkeypatch):
    order = ps.MAX_ORDER + 1
    steps = scan_steps(monkeypatch)
    tables = (counting._fk_tables[3], counting._tk_tables[3])
    rows = [table.max_n for table in tables]
    for check in (
        lambda: ps.verify_laplace_identity(3, order),
        lambda: ps.verify_functional_equation(3, order),
        lambda: ps.verify_phi_identity(0, order),
        lambda: ps.verify_bessel_egf(3, order),
        lambda: ps.verify_phi_identity(structures.MAX_LAMBDA_ROW - 10, 10),
    ):
        with pytest.raises(counting.BudgetExceededError, match="bound"):
            check()
    assert [table.max_n for table in tables] == rows
    assert steps == []


def test_bessel_check_asks_for_its_counts_before_the_determinant(monkeypatch):
    def refuse(k, n):
        raise counting.BudgetExceededError("no count")

    monkeypatch.setattr(counting, "fk_perfect", refuse)
    monkeypatch.setattr(ps, "determinant", lambda matrix: pytest.fail("determinant built"))
    with pytest.raises(counting.BudgetExceededError, match="no count"):
        ps.verify_bessel_egf(12, ps.MAX_ORDER)


def test_bessel_check_refuses_k_past_its_bound_before_any_count(monkeypatch):
    for name in ("fk_perfect", "tk_total"):
        monkeypatch.setattr(counting, name, lambda k, n: pytest.fail("count read"))
    for k in (ps.MAX_BESSEL_K + 1, 60):
        with pytest.raises(counting.BudgetExceededError, match="bound"):
            ps.verify_bessel_egf(k, 2)


def test_phi_base_case_is_fibonacci():
    phi0 = ps.TruncatedSeries([1, -1, -1], 20).reciprocal()
    from crossing_count.structures import lambda_weight

    for b in range(21):
        assert phi0[b] == lambda_weight(2 * b, b)


def test_bessel_egf_orders():
    assert ps.verify_bessel_egf(3, 16).ok
    assert ps.verify_bessel_egf(4, 12).ok
    assert ps.verify_bessel_egf(3, 2).ok


def test_reconstructed_structure_coefficients_are_integers(monkeypatch):
    # every side the laplace, functional, phi and Bessel checks compare is
    # built from plain ints, and every series they invert is a unit of
    # Z[[x]], also at the largest order they accept
    compared, inverted = [], []

    def spy(name, lhs, rhs):
        compared.append(name)
        for side in (lhs, rhs):
            assert all(type(c) is int for c in side.coeffs), name
        return compare(name, lhs, rhs)

    def invert(self):
        inverted.append(type(self))
        assert self[0] in (1, -1), self.coeffs[:4]
        return reciprocal(self)

    compare, reciprocal = ps._compare, TruncatedSeries.reciprocal
    monkeypatch.setattr(ps, "_compare", spy)
    monkeypatch.setattr(TruncatedSeries, "reciprocal", invert)
    assert ps.verify_laplace_identity(3, 25).ok
    assert ps.verify_functional_equation(3, 25).ok
    assert ps.verify_functional_equation(5, 20).ok
    assert ps.verify_phi_identity(3, 15).ok
    assert ps.verify_bessel_egf(4, 20).ok
    top = ps.MAX_ORDER
    assert ps.verify_laplace_identity(3, top).ok
    assert ps.verify_functional_equation(3, top).ok
    assert ps.verify_phi_identity(3, top).ok
    assert ps.verify_bessel_egf(3, top).ok
    assert compared == [
        "laplace(k=3)",
        "functional(k=3)",
        "functional(k=5)",
        "phi(n=3)",
        "bessel-det(k=4)",
        "bessel-egf(k=4)",
        "laplace(k=3)",
        "functional(k=3)",
        "phi(n=3)",
        "bessel-det(k=3)",
        "bessel-egf(k=3)",
    ]
    # one inversion per substitution check and per Bessel pivot but the last
    assert inverted == [TruncatedSeries] * 3 + [HurwitzSeries] * 2 + [TruncatedSeries] * 2 + [
        HurwitzSeries
    ]


def test_integer_series_stay_integer():
    a, b = poly(1, 2, -3, 0, 5), poly(-1, 0, 4, 7)
    inner = poly(0, 1, -2, 3)
    for result in (a * b, a * 3, a.reciprocal(), b.reciprocal(), a.compose(inner)):
        assert all(type(c) is int for c in result.coeffs)
    assert (a * a.reciprocal()).coeffs == TruncatedSeries.one(10).coeffs


@pytest.mark.parametrize("ring", [TruncatedSeries, HurwitzSeries], ids=lambda ring: ring.__name__)
def test_reciprocal_refuses_a_non_unit_constant(ring):
    with pytest.raises(ValueError, match="1 or -1"):
        ring([2, 1], 4).reciprocal()


def test_inexact_coefficient_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries([1, 0.5])
    with pytest.raises(TypeError):
        TruncatedSeries([1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        poly(1, 1) * 0.5
    with pytest.raises(TypeError):
        TruncatedSeries([1, complex(0, 1)])


def _permutation_determinant(matrix):
    """Leibniz expansion over all permutations: the oracle for determinant."""
    size = len(matrix)
    ring, order = type(matrix[0][0]), matrix[0][0].order
    total = ring([], order)
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = ring.one(order)
        for i in range(size):
            term = term * matrix[i][perm[i]]
        total = total + term * (-1) ** inversions
    return total


INTEGER_MATRIX = [
    [poly(1, 2, 0, 1, order=8), poly(0, 3, order=8), poly(5, order=8)],
    [poly(2, -1, order=8), poly(-1, 0, 2, order=8), poly(0, 0, 1, order=8)],
    [poly(0, 1, 1, order=8), poly(4, order=8), poly(3, 1, order=8)],
]


@pytest.mark.parametrize(
    "matrix",
    [*(ps.bessel_matrix(k, 14) for k in range(3, 7)), INTEGER_MATRIX],
    ids=[*(f"bessel-{k}" for k in range(3, 7)), "integer"],
)
def test_determinant_matches_permutation_expansion(matrix):
    det = ps.determinant(matrix)
    assert type(det) is type(matrix[0][0])
    assert det.coeffs == _permutation_determinant(matrix).coeffs


def test_determinant_rejects_zero_pivot_constant():
    x, one = poly(0, 1, order=6), TruncatedSeries.one(6)
    with pytest.raises(ValueError, match="pivot"):
        ps.determinant([[x, one], [one, x]])


def test_determinant_rejects_a_zero_last_pivot():
    x, one, zero = poly(0, 1, order=6), TruncatedSeries.one(6), TruncatedSeries([], 6)
    with pytest.raises(ValueError, match="pivot 1"):
        ps.determinant([[one, zero], [zero, x]])
    with pytest.raises(ValueError, match="pivot 0"):
        ps.determinant([[x]])


def test_determinant_inverts_every_pivot_but_the_last(monkeypatch):
    inverted = []
    reciprocal = TruncatedSeries.reciprocal

    def counted(self):
        inverted.append(self)
        return reciprocal(self)

    monkeypatch.setattr(TruncatedSeries, "reciprocal", counted)
    for k in range(3, 7):
        inverted.clear()
        matrix = ps.bessel_matrix(k, 10)
        assert ps.determinant(matrix).coeffs == _permutation_determinant(matrix).coeffs
        assert len(inverted) == len(matrix) - 1


def test_bessel_determinant_at_k_12():
    # for n < 2k no k arcs can cross, so f_12(n, 0) = (n-1)!! and T_12(n)
    # is the involution number; Hurwitz coefficients are n! [x^n] already
    k, order = 12, 12
    involutions = [1, 1]
    for n in range(2, order + 1):
        involutions.append(involutions[-1] + (n - 1) * involutions[-2])
    double_factorials = [0 if n % 2 else math.prod(range(1, n, 2)) for n in range(order + 1)]
    assert double_factorials == [counting.fk_perfect(k, n) for n in range(order + 1)]
    assert involutions == [counting.tk_total(k, n) for n in range(order + 1)]
    hurwitz = ps.determinant(ps.bessel_matrix(k, order))
    assert hurwitz.coeffs == double_factorials
    assert (ps.HurwitzSeries([1] * (order + 1), order) * hurwitz).coeffs == involutions
    assert ps.verify_bessel_egf(k, order).ok


def test_functional_equation_pinpoints_a_wrong_structure_count(monkeypatch):
    s_k3_at = structures.s_k3_at
    monkeypatch.setattr(
        structures, "s_k3_at", lambda k, ns: [c + (n == 7) for n, c in zip(ns, s_k3_at(k, ns))]
    )
    report = ps.verify_functional_equation(3, 20)
    assert report.first_mismatch == 7
    assert report.describe() == "functional(k=3): MISMATCH at x^7 (lhs=41, rhs=40)"


def test_laplace_identity_pinpoints_a_wrong_matching_count(monkeypatch):
    tk_total = counting.tk_total
    monkeypatch.setattr(counting, "tk_total", lambda k, n: tk_total(k, n) + (n == 7))
    report = ps.verify_laplace_identity(3, 20)
    assert report.first_mismatch == 7
    assert report.describe() == "laplace(k=3): MISMATCH at x^7 (lhs=226, rhs=225)"


def test_substitution_refuses_a_perfect_matching_count_at_odd_n(monkeypatch):
    fk_perfect = counting.fk_perfect
    monkeypatch.setattr(counting, "fk_perfect", lambda k, n: fk_perfect(k, n) + (n == 5))
    with pytest.raises(ArithmeticError, match="odd"):
        ps.verify_laplace_identity(3, 10)


def test_report_pinpoints_first_mismatch():
    report = ps._compare("demo", poly(1, 2, 3), poly(1, 2, 4))
    assert not report.ok
    assert report.first_mismatch == 2
    assert report.lhs == 3 and report.rhs == 4
    assert "MISMATCH" in report.describe()
