"""Brute-force ground truth for structure counts at small n.

Counts partial matchings directly from the definition: vertices 1..n
of degree at most one, arcs (i, j) with j - i >= min_arc_length, and no
max_crossing mutually crossing arcs.  The search passes the vertices
from left to right, one transition each.

A state is vertex v together with the ends b of the open arcs (a, b),
a < v <= b, listed in the order of their starts.  If v is one of those
ends its arc closes there, v's one move; otherwise v is left isolated
or opens an arc to an admissible partner.  That key is exact: it is all
the past that shapes the completions.
- Two open arcs cross iff their ends come in the same order as their
  starts; so the open arcs hold k mutually crossing arcs iff the ends
  have an increasing run of length k.
- A later arc (v', j') crosses an open arc iff v' < b < j'; a closed arc
  ends before v' and crosses none.
- The used vertices from v on are exactly those ends.
So a pair (v, j) completes a k-crossing iff j is past b*, the least end
that closes an increasing run of k - 1 ends, and the search counts each
state once, however many paths reach it.  Each state carries the
histogram of the paths into it as one packed int (slot a: paths with a
arcs), so adding an arc is a shift and merging two paths is one add.
Once v is past n - min_arc_length no arc can start, so the rest of the
diagram is fixed and the last level's histograms are summed.

The search stays exponential.  A deterministic budget guard (an
a-priori bound on the number of states, not wall time) refuses
instances that are too large before any search, so a refusal is
reproducible and never a partial count.
"""

from bisect import bisect_left
from collections import namedtuple
from math import comb, factorial

from . import BudgetExceededError  # re-exported: the oracle raises it too

# states, not diagrams: admits oracle --n 18 --k 3 (bound 297 820, 1.0-1.5 s on
# a 2-vCPU VM) and --n 17 --k 4 (441 120, 2.3-2.8 s); refuses --n 19 --k 3
# (701 171) at once
DEFAULT_BUDGET = 5 * 10**5


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


def _end_orders(k: int):
    """Yield, for m = 0, 1, 2, ..., the orders of m open-arc ends that
    hold no k mutually crossing arcs: the permutations of m whose longest
    increasing run is below k.  By RSK that is the sum of t^2 over the
    shapes of m with rows shorter than k, t the shape's standard tableaux,
    grown here one square at a time (the square of m + 1 at a corner).
    """
    tableaux = {(): 1}
    while True:
        yield sum(t * t for t in tableaux.values())
        grown: dict[tuple[int, ...], int] = {}
        for shape, t in tableaux.items():
            for i, row in enumerate((*shape, 0)):
                if row < k - 1 and (i == 0 or shape[i - 1] > row):
                    bigger = (*shape[:i], row + 1, *shape[i + 1 :])
                    grown[bigger] = grown.get(bigger, 0) + t
        tableaux = grown


def state_bound(spec: EnumSpec) -> int:
    """A-priori bound on the states the search of enumerate_count visits.

    A state at vertex v holds m open arcs, m <= min(v - 1, n - v): a set
    of m ends past v, in one of the orders _end_orders yields for m.  The
    root counts even when no arc can start, so a budget of 0 refuses
    every search.  Stops summing once the budget is passed, so an
    oversized request is refused at once.
    """
    n = spec.n
    end_orders = _end_orders(spec.max_crossing)
    orders: list[int] = []
    bound = 1
    for v in range(2, n - spec.min_arc_length + 1):
        for m in range(min(v - 1, n - v) + 1):
            if m == len(orders):
                orders.append(next(end_orders))
            bound += comb(n - v, m) * orders[m]
        if bound > spec.budget:
            break
    return bound


def _search(spec: EnumSpec, branch_rng=None) -> tuple[int, int, int]:
    """Forward pass over the vertices 1..n - min_arc_length.

    Returns (packed, width, states): packed holds, in slot a of width
    bits, the number of diagrams with a arcs; states counts the states
    (v, open-arc ends in start order) at which v has a choice.
    """
    n, k, min_len = spec.n, spec.max_crossing, spec.min_arc_length
    last = n - min_len  # no arc starts past this vertex
    if last < 1:  # no arc fits: the empty diagram alone
        return 1, 1, 0
    # every diagram is one choice per vertex v <= last: isolated, an end,
    # or one of last - v + 1 partners; so no slot ever exceeds (last + 1)!
    width = factorial(last + 1).bit_length()
    # open-arc ends -> packed counts by arcs so far, for the diagrams on 1..v - 1
    level: dict[tuple[int, ...], int] = {(): 1}
    states = 0
    for v in range(1, last + 1):
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for ends, packed in level.items():
            if v in ends:  # v closes its arc, its one move
                i = ends.index(v)
                closed = ends[:i] + ends[i + 1 :]
                nxt[closed] = get(closed, 0) + packed
                continue
            states += 1
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
            nxt[ends] = get(ends, 0) + packed
            shifted = packed << width
            for j in partners:
                opened = (*ends, j)
                nxt[opened] = get(opened, 0) + shifted
        level = nxt
    return sum(level.values()), width, states


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
