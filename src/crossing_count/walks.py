"""f_k(2m, 0) from walks on Young diagrams, for a k with no recurrence.

A perfect matching on [n] with no k mutually crossing arcs corresponds
to a closed walk of length n on Young diagrams with at most k-1 rows,
where every step adds or removes exactly one square (an oscillating
tableau that starts and ends at the empty shape).  Splitting a closed
walk of length 2m at its midpoint gives

    f_k(2m, 0) = sum over shapes lam of W_m(lam)^2,

where W_m(lam) counts the m-step walks from the empty shape to lam, so
one more step of the frontier W_m extends the sequence by one term.

counting reads this module only for a k outside its recurrence table,
after refusing, from frontier_shapes, a request whose W_m would pass
counting.MAX_FRONTIER_SHAPES.  For k = 2..6 the walk table is the test
oracle of the recurrences and the source of the terms that
scripts/derive_recurrences.py guesses them from.
"""

from .counting import GrowingTable


class WalkTable(GrowingTable):
    """f_k(2m, 0) for m = 0, 1, ..., max_n, extended one walk step at a time.

    Keeps the frontier W_m of m-step walks from the empty shape; a step
    advances it to W_{m+1} and appends f_k(2m+2, 0).
    """

    def __init__(self, k: int):
        super().__init__([1])
        self._max_rows = k - 1
        self._frontier: dict[tuple[int, ...], int] = {(): 1}

    def _step(self) -> None:
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for shape, ways in self._frontier.items():
            rows = len(shape)
            # add one square to any row that stays weakly decreasing
            for i in range(rows):
                if i == 0 or shape[i - 1] > shape[i]:
                    cand = shape[:i] + (shape[i] + 1,) + shape[i + 1 :]
                    nxt[cand] = get(cand, 0) + ways
            if rows < self._max_rows:
                cand = shape + (1,)
                nxt[cand] = get(cand, 0) + ways
            # remove one square; a row emptied this way is always the last
            for i in range(rows):
                if i == rows - 1 or shape[i] > shape[i + 1]:
                    v = shape[i] - 1
                    cand = shape[:i] + (v,) + shape[i + 1 :] if v else shape[:i]
                    nxt[cand] = get(cand, 0) + ways
        self._frontier = nxt
        self._terms.append(sum(ways * ways for ways in nxt.values()))


def frontier_shapes(k: int, m: int) -> int:
    """Shapes in W_m, those with at most k-1 rows, at most m squares and the
    parity of m, counted as their conjugates: partitions into parts <= k-1."""
    ways = [1] + [0] * m
    for part in range(1, min(k - 1, m) + 1):
        for j in range(part, m + 1):
            ways[j] += ways[j - part]
    return sum(ways[m % 2 :: 2])
