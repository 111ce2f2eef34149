"""Shared test utilities: an independent polynomial root oracle, the
radius map theta in exact rationals, coefficient-loop oracles for
series products and reciprocals, Horner's rule as the composition
oracle, the Bessel matrix scaled to integer series as the oracle for the
Hurwitz determinant, a diagram's crossing number from its arc
subsets, every partial matching on n vertices, the hook length formula as the oracle for the oracle's end orders,
the four-term recursion and a closed sum as the oracles for the lam scan,
significant-figure comparison and the environment for child processes."""

from __future__ import annotations

import math
import os
import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

import crossing_count
from crossing_count import structures
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


def theta(z) -> Fraction:
    """The radius map w(z)/u(z) at a float or rational z, as an exact
    Fraction, with u and w written out rather than read from U and W."""
    z = Fraction(z)
    return (z - z**3) / (1 - z + z**2 + z**3 - z**4)


def schoolbook_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b by the O(N^2) coefficient loop."""
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
    """1 / a by solving a * r = 1 one coefficient at a time; a[0] is 1 or
    -1, its own inverse."""
    c = a.coeffs
    out = [c[0]] + [0] * a.order
    for n in range(1, a.order + 1):
        acc = 0
        for i in range(1, n + 1):
            if c[i]:
                acc += c[i] * out[n - i]
        out[n] = -acc * c[0]
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


def scaled_bessel_matrix(k: int, order: int) -> list[list[TruncatedSeries]]:
    """order! [I_{i-j}(2x) - I_{i+j}(2x)] over i, j = 1..k-1, as ordinary
    integer series.

    I_d(2x) = sum_j x^(2j+d) / (j! (d+j)!), and j + (d+j) = 2j+d <= order,
    so each scaled coefficient order! / (j! (d+j)!) is an integer.
    """
    top = math.factorial(order)

    def bessel(d: int) -> TruncatedSeries:
        coeffs = [0] * (order + 1)
        for j in range((order - d) // 2 + 1):
            coeffs[2 * j + d] = top // (math.factorial(j) * math.factorial(d + j))
        return TruncatedSeries(coeffs, order)

    return [[bessel(abs(i - j)) - bessel(i + j) for j in range(1, k)] for i in range(1, k)]


class Diagram(namedtuple("Diagram", "n arcs")):
    """Vertices 1..n plus a frozenset of arcs (i, j), i < j, degrees <= 1."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        seen: set[int] = set()
        for i, j in self.arcs:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"arc ({i}, {j}) out of range for n={self.n}")
            if i in seen or j in seen:
                raise ValueError(f"vertex of degree > 1 in arcs {sorted(self.arcs)}")
            seen.update((i, j))

    def mirror(self) -> "Diagram":
        """Relabel i -> n+1-i; crossing structure is preserved."""
        m = self.n + 1
        return Diagram(self.n, frozenset((m - j, m - i) for i, j in self.arcs))


def arcs_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True if the two arcs interleave as i1 < i2 < j1 < j2."""
    if a[0] > b[0]:
        a, b = b, a
    return a[0] < b[0] < a[1] < b[1]


def _mutually_crossing(arcs) -> bool:
    return all(arcs_cross(a, b) for a, b in combinations(arcs, 2))


def crossing_number(d: Diagram) -> int:
    """Largest m such that some m arcs of d are mutually crossing.

    Exhaustive over arc subsets by decreasing size; exponential in the
    number of arcs, which is fine at oracle scale.
    """
    arcs = sorted(d.arcs)
    for size in range(len(arcs), 1, -1):
        if any(_mutually_crossing(c) for c in combinations(arcs, size)):
            return size
    return 1 if arcs else 0


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


def shapes(m: int, widest: int):
    """Partitions of m into parts of at most widest, largest part first."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, widest), 0, -1):
        for rest in shapes(m - part, part):
            yield (part, *rest)


def tableaux(shape) -> int:
    """Standard Young tableaux of the shape, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1 :] if r > j)
            hooks *= row - j + below
    return math.factorial(sum(shape)) // hooks


def lambda_rows(top: int):
    """Rows lam(0, .), ..., lam(top, .) as lists, each from four earlier
    rows padded and shifted: the four-term recursion, the scan's oracle."""
    rows = [[1]]
    yield rows[0]
    for m in range(1, top + 1):
        shifted = []
        for back, shift in ((1, 0), (2, 1), (3, 1), (4, 2)):
            row = rows[-back] if back <= len(rows) else []
            shifted.append([0] * shift + row + [0] * (m // 2 + 1 - shift - len(row)))
        rows = [*rows[-3:], [a + b + c + d for a, b, c, d in zip(*shifted)]]
        yield rows[-1]


def lambda_closed(n: int, b: int) -> int:
    """lam(n, b) from the phi identity's coefficient [x^b] (1+x)^a / (1-x-x^2)^(a+1),
    a = n - 2b, expanded: independent of the recursion."""
    a = n - 2 * b
    return sum(math.comb(a + j, j) * math.comb(a + j, b - j) for j in range(b + 1))


def scan_rows(top: int):
    """The rows of one production scan to top, as lists: packed row m read
    as m // 2 + 1 slots, so a nonzero bit past the last one raises."""
    rows = structures._rows(top)
    step = next(rows) // 8
    for m, row in enumerate(rows):
        data = row.to_bytes(step * (m // 2 + 1), "little")
        yield [int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)]


def scan_steps(monkeypatch) -> list[int]:
    """A list that gets a scan's top row for each row the scan builds: it
    stays empty while every scan is refused before its first row."""
    steps, rows = [], structures._rows

    def recorded(top):
        scan = rows(top)
        yield next(scan)  # the slot width; the row bound is checked before it
        for row in scan:
            steps.append(top)
            yield row

    monkeypatch.setattr(structures, "_rows", recorded)
    return steps


def matches_sig_figs(computed: float, printed: float, figures: int) -> bool:
    """Agreement to the given number of significant figures (relative)."""
    if printed == 0:
        return computed == 0
    return abs(computed - printed) / abs(printed) <= 0.5 * 10.0 ** (1 - figures)


def package_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this crossing_count."""
    src = os.path.dirname(os.path.dirname(crossing_count.__file__))
    return {**os.environ, "PYTHONPATH": src}
