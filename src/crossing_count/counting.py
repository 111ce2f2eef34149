"""Exact counts of k-noncrossing matchings and partial matchings.

A perfect matching on [n] with no k mutually crossing arcs corresponds to
a closed walk of length n on Young diagrams with at most k-1 rows, where
every step adds or removes exactly one square (an oscillating tableau
that starts and ends at the empty shape).  Splitting a closed walk of
length 2m at its midpoint gives

    f_k(2m, 0) = sum over shapes lam of W_m(lam)^2,

where W_m(lam) counts the m-step walks from the empty shape to lam, so
one more step of the frontier W_m extends the sequence by one term.
Partial-matching counts follow by choosing which vertices stay isolated.

Everything here is exact: counts are plain Python integers and are never
rounded.  Each k has one table that grows in place under its own lock;
counts are only appended, never changed, so concurrent callers always
see the same values.
"""

from __future__ import annotations

import math
import threading

_tk_cache: dict[tuple[int, int], int] = {}


def catalan(m: int) -> int:
    """m-th Catalan number, binom(2m, m) / (m + 1)."""
    if m < 0:
        raise ValueError(f"Catalan index must be nonnegative, got {m}")
    return math.comb(2 * m, m) // (m + 1)


class WalkTable:
    """f_k(n, 0) for n = 0, 1, ..., max_n, extended one walk step at a time.

    Keeps the frontier W_m of m-step walks from the empty shape; a step
    appends f_k(2m+1, 0) = 0 and f_k(2m+2, 0).  Reads need no lock; growth
    takes the table's own lock.
    """

    def __init__(self, k: int):
        self._max_rows = k - 1
        self._counts = [1]
        self._frontier: dict[tuple[int, ...], int] = {(): 1}
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        return len(self._counts) - 1

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
        self._counts += (0, sum(ways * ways for ways in nxt.values()))

    def ensure(self, n: int) -> None:
        """Extend the table so every count up to n is filled."""
        with self._lock:
            while self.max_n < n:
                self._step()

    def value(self, n: int) -> int:
        if n > self.max_n:
            self.ensure(n)
        return self._counts[n]


_walk_tables: dict[int, WalkTable] = {}


def fk_perfect(k: int, n: int) -> int:
    """Number of perfect matchings on [n] with no k mutually crossing arcs.

    Zero for odd n (no perfect matching exists) and one for n = 0 (the
    empty matching).
    """
    if k < 2:
        raise ValueError(f"crossing bound k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    table = _walk_tables.get(k) or _walk_tables.setdefault(k, WalkTable(k))
    return table.value(n)


def fk_closed_form_k3(n: int) -> int:
    """Catalan closed form for the k = 3 perfect-matching count.

    Independent of the walk table: C_{n/2+2} * C_{n/2} - C_{n/2+1}^2.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n % 2:
        raise ValueError(f"closed form needs an even vertex count, got {n}")
    m = n // 2
    return catalan(m + 2) * catalan(m) - catalan(m + 1) ** 2


def fk_partial(k: int, n: int, ell: int) -> int:
    """Matchings on [n] with exactly ell isolated vertices, crossing < k.

    Choosing the isolated vertices reduces to the perfect case:
    binom(n, ell) * fk_perfect(k, n - ell).
    """
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    return math.comb(n, ell) * fk_perfect(k, n - ell)


def tk_total(k: int, n: int) -> int:
    """Total number of partial matchings on [n] with crossing number < k."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    key = (k, n)
    value = _tk_cache.get(key)
    if value is None:
        value = sum(
            math.comb(n, 2 * m) * fk_perfect(k, 2 * m) for m in range(n // 2 + 1)
        )
        _tk_cache.setdefault(key, value)
    return value
