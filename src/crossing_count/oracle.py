"""Brute-force ground truth for structure counts at small n.

Enumerates partial matchings directly from the definition: vertices
1..n of degree at most one, arcs (i, j) with j - i >= min_arc_length,
and no max_crossing mutually crossing arcs.  The search branches on the
leftmost undecided vertex (isolate it or pair it with an admissible
partner) and prunes as soon as a forbidden crossing set appears; adding
arcs never destroys an existing crossing set, so pruning is sound.  Once
that vertex is past n - min_arc_length no arc can start, so the rest of
the diagram is fixed and counted at once.

This module is deliberately dumb and exponential.  A deterministic
budget guard (estimated search size, not wall time) refuses instances
that are too large, so a refusal is reproducible and never a partial
count.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .counting import BudgetExceededError  # re-exported: the oracle raises it too

DEFAULT_BUDGET = 10**8


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


class EnumSpec(
    namedtuple(
        "EnumSpec",
        "n max_crossing min_arc_length by_isolated budget",
        defaults=(1, False, DEFAULT_BUDGET),
    )
):
    """What to enumerate: size, crossing cap, arc-length floor, output
    (the histogram by isolated vertices, or the total) and search budget."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if self.min_arc_length < 1:
            raise ValueError(f"minimum arc length must be >= 1, got {self.min_arc_length}")
        if self.max_crossing < 2:
            raise ValueError(f"crossing bound must be >= 2, got {self.max_crossing}")
        if self.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {self.budget}")


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


def _completes_crossing_set(chosen: list[tuple[int, int]], arc, k: int) -> bool:
    """Would adding arc create k mutually crossing arcs?"""
    crossers = [a for a in chosen if arcs_cross(a, arc)]
    if len(crossers) < k - 1:
        return False
    return any(_mutually_crossing(c) for c in combinations(crossers, k - 1))


def _involutions(n: int) -> int:
    # partial matchings with no constraints; a-priori search-size estimate
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def enumerate_count(spec: EnumSpec, branch_rng=None):
    """Exact count of diagrams satisfying spec.

    Returns an int, or a histogram {isolated vertices -> count} if
    spec.by_isolated.  branch_rng, a random.Random when given, shuffles
    the order in which partners are tried; the result must not depend
    on it.
    """
    estimate = _involutions(spec.n)
    if estimate > spec.budget:
        raise BudgetExceededError(
            f"estimated search size {estimate} exceeds budget {spec.budget} for n={spec.n}"
        )

    n, k, min_len = spec.n, spec.max_crossing, spec.min_arc_length
    hist: dict[int, int] = {}
    used = [False] * (n + 2)
    chosen: list[tuple[int, int]] = []

    last_start = n - min_len  # no arc starts past this vertex

    def backtrack(v: int) -> None:
        while v <= n and used[v]:
            v += 1
        if v > last_start:  # every vertex left stays isolated: one diagram
            ell = n - 2 * len(chosen)
            hist[ell] = hist.get(ell, 0) + 1
            return
        backtrack(v + 1)  # leave v isolated
        partners = [j for j in range(v + min_len, n + 1) if not used[j]]
        if branch_rng is not None and len(partners) > 1:  # shorter lists draw nothing
            branch_rng.shuffle(partners)
        for j in partners:
            arc = (v, j)
            if _completes_crossing_set(chosen, arc, k):
                continue
            used[j] = True
            chosen.append(arc)
            backtrack(v + 1)
            chosen.pop()
            used[j] = False

    backtrack(1)
    if spec.by_isolated:
        return hist
    return sum(hist.values())
