"""Brute-force ground truth for structure counts at small n.

Counts partial matchings directly from the definition: vertices 1..n
of degree at most one, arcs (i, j) with j - i >= min_arc_length, and no
max_crossing mutually crossing arcs.  The search decides the vertices
from left to right: the first undecided vertex v is left isolated or
paired with an admissible partner.

A state is v together with the ends b of the open arcs (a, b), a < v < b,
listed in the order of their starts.  That key is exact: it is all the
past that shapes the completions.
- Two open arcs cross iff their ends come in the same order as their
  starts; so the open arcs hold k mutually crossing arcs iff the ends
  have an increasing run of length k.
- A later arc (v', j') crosses an open arc iff v' < b < j'; a closed arc
  ends before v' and crosses none.
- The used vertices past v are exactly those ends.
So a pair (v, j) completes a k-crossing iff j is past b*, the least end
that closes an increasing run of k - 1 ends, and the search counts each
state once, however many paths reach it.  Each state carries the
histogram of the paths into it as one packed int (slot a: paths with a
arcs), so adding an arc is a shift and merging two paths is one add.
Once v is past n - min_arc_length no arc can start, so the rest of the
diagram is fixed.

The search stays exponential.  A deterministic budget guard (an
a-priori bound on the number of states, not wall time) refuses
instances that are too large before any search, so a refusal is
reproducible and never a partial count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations
from math import comb, factorial

from .counting import BudgetExceededError  # re-exported: the oracle raises it too

# states, not diagrams: admits oracle --n 18 --k 3 (bound 297 820, 1.8 s on a
# 2-vCPU VM) and --n 17 --k 4 (441 120, 3.3 s); refuses --n 19 --k 3
# (701 171) at once
DEFAULT_BUDGET = 5 * 10**5


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
    (the histogram by isolated vertices, or the total) and the budget on
    search states."""

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


def _shapes(m: int, widest: int):
    """Partitions of m into parts of at most widest, largest part first."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, widest), 0, -1):
        for rest in _shapes(m - part, part):
            yield (part, *rest)


def _tableaux(shape) -> int:
    """Standard Young tableaux of the shape, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1 :] if r > j)
            hooks *= row - j + below
    return factorial(sum(shape)) // hooks


def _end_orders(m: int, k: int) -> int:
    """Orders of m open-arc ends that hold no k mutually crossing arcs.

    These are the permutations of m whose longest increasing run is
    below k; by RSK, the sum of (tableaux of shape)^2 over the shapes of
    m whose rows are shorter than k.
    """
    return sum(_tableaux(s) ** 2 for s in _shapes(m, k - 1))


def state_bound(spec: EnumSpec) -> int:
    """A-priori bound on the states the search of enumerate_count visits.

    A state at vertex v holds m open arcs, m <= min(v - 1, n - v): a set
    of m ends past v, in one of _end_orders(m, k) orders.  The root
    counts even when no arc can start, so a budget of 0 refuses every
    search.  Stops summing once the budget is passed, so an oversized
    request is refused at once.
    """
    n, k = spec.n, spec.max_crossing
    orders: list[int] = []
    bound = 1
    for v in range(2, n - spec.min_arc_length + 1):
        for m in range(min(v - 1, n - v) + 1):
            if m == len(orders):
                orders.append(_end_orders(m, k))
            bound += comb(n - v, m) * orders[m]
        if bound > spec.budget:
            break
    return bound


def _search(spec: EnumSpec, branch_rng=None) -> tuple[int, int, int]:
    """Forward pass over the states (v, open-arc ends in start order).

    Returns (packed, width, states): packed holds, in slot a of width
    bits, the number of diagrams with a arcs; states counts the states
    expanded.
    """
    n, k, min_len = spec.n, spec.max_crossing, spec.min_arc_length
    last = n - min_len  # no arc starts past this vertex
    if last < 1:  # no arc fits: the empty diagram alone
        return 1, 1, 0
    # every diagram is one choice per vertex v <= last: isolated, an end,
    # or one of last - v + 1 partners; so no slot ever exceeds (last + 1)!
    width = factorial(last + 1).bit_length()
    # levels[v]: open-arc ends -> packed counts by arcs so far, for the
    # states whose first undecided vertex is v
    levels = [{} for _ in range(last + 1)]
    levels[1][()] = 1
    done = 0  # packed counts of the diagrams past last, whose rest is isolated
    states = 0
    for v in range(1, last + 1):
        level, levels[v] = levels[v], None
        states += len(level)
        for ends, packed in level.items():
            top = n + 1  # first partner that would close a k-crossing
            if len(ends) >= k - 1:
                tails: list[int] = []  # tails[r]: least end closing an increasing run of r + 1
                for b in ends:
                    r = bisect_left(tails, b)
                    if r == len(tails):
                        tails.append(b)
                    else:
                        tails[r] = b
                if len(tails) >= k - 1:
                    top = tails[k - 2]
            partners = [j for j in range(v + min_len, top) if j not in ends]
            if branch_rng is not None and len(partners) > 1:  # shorter lists draw nothing
                branch_rng.shuffle(partners)
            shifted = packed << width
            # the next undecided vertex skips the ends at v + 1, v + 2, ...
            u = v + 1
            while u in ends:
                u += 1
            if u > last:  # every move ends the search
                done += packed + shifted * len(partners)
                continue
            rest = ends if u == v + 1 else tuple(b for b in ends if b > u)
            level_u = levels[u]
            level_u[rest] = level_u.get(rest, 0) + packed
            for j in partners:
                if j != u:
                    key, target = (*rest, j), level_u
                else:  # the arc (v, j) closes at the next undecided vertex too
                    w = u + 1
                    while w in rest:
                        w += 1
                    if w > last:
                        done += shifted
                        continue
                    key, target = tuple(b for b in rest if b > w), levels[w]
                target[key] = target.get(key, 0) + shifted
    return done, width, states


def enumerate_count(spec: EnumSpec, branch_rng=None):
    """Exact count of diagrams satisfying spec.

    Returns an int, or a histogram {isolated vertices -> count} if
    spec.by_isolated.  branch_rng, a random.Random when given, shuffles
    each state's partner list; the result must not depend on it.
    """
    bound = state_bound(spec)
    if bound > spec.budget:
        raise BudgetExceededError(
            f"search state bound exceeds budget {spec.budget} for n={spec.n}"
            f" (at least {bound} states)"
        )
    packed, width, _ = _search(spec, branch_rng)
    mask = (1 << width) - 1
    hist: dict[int, int] = {}
    arcs = 0
    while packed:
        if packed & mask:
            hist[spec.n - 2 * arcs] = packed & mask
        packed >>= width
        arcs += 1
    if spec.by_isolated:
        return hist
    return sum(hist.values())
