"""Shared test utilities: an independent polynomial root oracle,
significant-figure comparison and the environment for child processes."""

from __future__ import annotations

import os
import random

import crossing_count


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


def matches_sig_figs(computed: float, printed: float, figures: int) -> bool:
    """Agreement to the given number of significant figures (relative)."""
    if printed == 0:
        return computed == 0
    return abs(computed - printed) / abs(printed) <= 0.5 * 10.0 ** (1 - figures)


def package_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this crossing_count."""
    src = os.path.dirname(os.path.dirname(crossing_count.__file__))
    return {**os.environ, "PYTHONPATH": src}
