"""Shared test utilities: an independent polynomial root oracle,
coefficient-loop oracles for series products and reciprocals, Horner's
rule as the composition oracle, the rational Bessel series as the oracle
for the Hurwitz determinant, every partial matching on n vertices,
significant-figure comparison and the environment for child processes."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import crossing_count
from crossing_count.oracle import Diagram
from crossing_count.powerseries import TruncatedSeries


def poly_eval(coeffs, z: complex) -> complex:
    p = 0j
    for c in coeffs:
        p = p * z + c
    return p


def poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _newton(coeffs, z: complex, iters: int = 200) -> complex | None:
    deriv = poly_derivative(coeffs)
    for _ in range(iters):
        p = poly_eval(coeffs, z)
        dp = poly_eval(deriv, z)
        if dp == 0:
            return None
        step = p / dp
        z -= step
        if abs(step) <= 1e-13 * max(1.0, abs(z)):
            return z
    return None


def _deflate(coeffs, root: complex):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def newton_deflation_roots(coeffs, rng: random.Random):
    """All roots by Newton iteration plus synthetic-division deflation.

    Independent of any closed-form solver: random complex starting
    points, deflation after each hit, and a final polish against the
    original polynomial.
    """
    coeffs = [complex(c) for c in coeffs]
    work = list(coeffs)
    roots = []
    while len(work) > 2:
        root = None
        while root is None:
            start = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
            root = _newton(work, start)
        polished = _newton(coeffs, root)
        if polished is not None:
            root = polished
        roots.append(root)
        work = _deflate(work, root)
    root = -work[1] / work[0]
    polished = _newton(coeffs, root)
    roots.append(polished if polished is not None else root)
    return roots


def match_roots(found, expected) -> float:
    """Greedy nearest-neighbour matching; returns the largest pair distance."""
    remaining = list(expected)
    worst = 0.0
    for z in found:
        best = min(remaining, key=lambda w: abs(w - z))
        remaining.remove(best)
        worst = max(worst, abs(best - z))
    return worst


def schoolbook_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b by the O(N^2) coefficient loop, in the coefficients' own ring."""
    n = a.order
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(out, n)


def schoolbook_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """1 / a by solving a * r = 1 one coefficient at a time."""
    c = a.coeffs
    inv0 = c[0] if c[0] in (1, -1) else 1 / Fraction(c[0])
    out = [inv0] + [0] * a.order
    for n in range(1, a.order + 1):
        acc = 0
        for i in range(1, n + 1):
            if c[i]:
                acc += c[i] * out[n - i]
        out[n] = -acc * inv0
    return TruncatedSeries(out, a.order)


def horner_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner) by Horner's rule: one product per coefficient of outer."""
    top = outer.order
    while top and not outer.coeffs[top]:
        top -= 1
    result = TruncatedSeries([outer.coeffs[top]], outer.order)
    for i in range(top - 1, -1, -1):
        result = result * inner
        result.coeffs[0] += outer.coeffs[i]
    return result


def exponential(order: int) -> TruncatedSeries:
    """sum x^n / n! truncated at order."""
    return TruncatedSeries([Fraction(1, math.factorial(n)) for n in range(order + 1)], order)


def bessel_i(r: int, order: int) -> TruncatedSeries:
    """Modified Bessel function of the first kind, I_r(2x), as a series.

    I_r(2x) = sum_j x^(2j+r) / (j! (r+j)!); negative orders coincide with
    positive ones.
    """
    r = abs(r)
    coeffs = [0] * (order + 1)
    for j in range((order - r) // 2 + 1):
        coeffs[2 * j + r] = Fraction(1, math.factorial(j) * math.factorial(r + j))
    return TruncatedSeries(coeffs, order)


def rational_bessel_matrix(k: int, order: int) -> list[list[TruncatedSeries]]:
    """[I_{i-j}(2x) - I_{i+j}(2x)] over i, j = 1..k-1, as Fraction series."""
    return [
        [bessel_i(i - j, order) - bessel_i(i + j, order) for j in range(1, k)]
        for i in range(1, k)
    ]


def partial_matchings(n: int):
    """Every partial matching on vertices 1..n, as Diagrams, unfiltered."""

    def matchings(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        v, rest = free[0], free[1:]
        yield from matchings(rest)  # v isolated
        for i, j in enumerate(rest):
            for arcs in matchings(rest[:i] + rest[i + 1 :]):
                yield ((v, j), *arcs)

    for arcs in matchings(tuple(range(1, n + 1))):
        yield Diagram(n, frozenset(arcs))


def matches_sig_figs(computed: float, printed: float, figures: int) -> bool:
    """Agreement to the given number of significant figures (relative)."""
    if printed == 0:
        return computed == 0
    return abs(computed - printed) / abs(printed) <= 0.5 * 10.0 ** (1 - figures)


def package_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this crossing_count."""
    src = os.path.dirname(os.path.dirname(crossing_count.__file__))
    return {**os.environ, "PYTHONPATH": src}
