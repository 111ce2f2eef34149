"""Guess P-recurrences for f_k(2m, 0) and T_k(n), k = 2..6, and commit them.

    PYTHONPATH=src python3 scripts/derive_recurrences.py

A P-recurrence of order r and degree d is

    p_0(n) a(n) + p_1(n) a(n - 1) + ... + p_r(n) a(n - r) = 0   (n >= r)

with integer polynomials p_i of degree <= d.  Each n gives one linear
equation in the (r + 1)(d + 1) unknown coefficients.  Candidates are
tried by increasing unknown count, over exact terms from the walk table
(f_k) and its binomial sum (T_k), and solved with exact Fraction
arithmetic (Salvy & Zimmermann, GFUN, 1994).  A candidate is kept only
when at least twice as many equations as unknowns hold and its solution
space is one-dimensional, so the recurrence is fixed by the data with as
many equations again to spare.

The recurrences and their initial terms replace the block between the
BEGIN/END markers in src/crossing_count/counting.py.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

from crossing_count.walks import WalkTable

K_RANGE = range(2, 7)
# Vertex counts 0..N_MAX: f_6 (24 unknowns) needs 2m up to 100, T_6 (42) n up to 89.
N_MAX = 110
COUNTING_PY = Path(__file__).resolve().parents[1] / "src" / "crossing_count" / "counting.py"
BEGIN = "# BEGIN RECURRENCES"
END = "# END RECURRENCES"


def sequences(k: int) -> tuple[list[int], list[int]]:
    """f_k(2m, 0) for 2m <= N_MAX and T_k(n) for n <= N_MAX, from the walk table."""
    walks = WalkTable(k)
    f = [walks.value(m) for m in range(N_MAX // 2 + 1)]
    t = [sum(math.comb(n, 2 * m) * f[m] for m in range(n // 2 + 1)) for n in range(N_MAX + 1)]
    return f, t


def nullspace(rows: list[list[int]], width: int) -> list[list[Fraction]]:
    """Basis of {x : row . x = 0 for every row}, by exact row reduction."""
    pivots: list[tuple[int, list[Fraction]]] = []  # reduced rows, keyed by pivot column
    for row in rows:
        vec = [Fraction(x) for x in row]
        for col, piv in pivots:
            if vec[col]:
                c = vec[col]
                vec = [a - c * b for a, b in zip(vec, piv)]
        col = next((j for j, x in enumerate(vec) if x), None)
        if col is None:
            continue
        vec = [x / vec[col] for x in vec]
        pivots = [
            (pc, [a - p[col] * b for a, b in zip(p, vec)] if p[col] else p) for pc, p in pivots
        ]
        pivots.append((col, vec))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for col, piv in pivots:
            x[col] = -piv[free]
        basis.append(x)
    return basis


def guess(seq: list[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The smallest overdetermined P-recurrence of seq, and its initial terms."""
    shapes = sorted(((r + 1) * (d + 1), r, d) for r in range(1, 9) for d in range(9))
    for unknowns, r, d in shapes:
        if len(seq) - r < 2 * unknowns:
            continue
        rows = [
            [n**j * seq[n - i] for i in range(r + 1) for j in range(d + 1)]
            for n in range(r, len(seq))
        ]
        basis = nullspace(rows, unknowns)
        if len(basis) != 1:
            continue
        (x,) = basis
        scale = math.lcm(*(c.denominator for c in x))
        ints = [int(c * scale) for c in x]
        ints = [c // math.gcd(*ints) for c in ints]
        polys = [tuple(ints[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(r + 1)]
        if next(c for c in reversed(polys[0]) if c) < 0:
            polys = [tuple(-c for c in p) for p in polys]
        # p_0(n) = 0 leaves a(n) free, so such an n needs a stored term
        roots = [n for n in range(r, len(seq)) if not sum(c * n**j for j, c in enumerate(polys[0]))]
        start = max([r] + [n + 1 for n in roots])
        print(
            f"  order {r}, degree {d}: {unknowns} unknowns, {len(rows)} equations, "
            f"{start} initial terms",
            file=sys.stderr,
        )
        return tuple(polys), tuple(seq[:start])
    raise ArithmeticError("no overdetermined recurrence within order 8 and degree 8")


def render(fk: dict, tk: dict) -> str:
    lines = [BEGIN + " (written by scripts/derive_recurrences.py; do not edit)"]
    for name, table in (("FK_RECURRENCES", fk), ("TK_RECURRENCES", tk)):
        lines.append(f"{name}: dict[int, Recurrence] = {{")
        for k, (polys, initial) in table.items():
            lines.append(f"    {k}: (")
            lines.append("        (")
            lines.extend(f"            {p!r}," for p in polys)
            lines.append("        ),")
            lines.append(f"        {initial!r},")
            lines.append("    ),")
        lines.append("}")
    lines.append(END)
    return "\n".join(lines)


def main() -> None:
    fk, tk = {}, {}
    for k in K_RANGE:
        f, t = sequences(k)
        print(f"f_{k}(2m, 0):", file=sys.stderr)
        fk[k] = guess(f)
        print(f"T_{k}(n):", file=sys.stderr)
        tk[k] = guess(t)
    source = COUNTING_PY.read_text()
    head, rest = source.split(BEGIN, 1)
    tail = rest.split(END, 1)[1]
    COUNTING_PY.write_text(head + render(fk, tk) + tail)


if __name__ == "__main__":
    main()
