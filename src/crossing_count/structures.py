"""Counts of k-noncrossing structures with minimum arc length 3.

A structure here is a partial matching on [n] whose arcs (i, j) all
satisfy j - i >= 3 and whose crossing number stays below k.  Short arcs
are removed by a signed sum over matchings: the weight lam(n, b) counts
configurations of b forbidden short arcs, and

    S_{k,3}(n) = sum_b (-1)^b * lam(n, b) * T_k(n - 2b),

with the analogous sum against f_k(n - 2b, ell) when the number of
isolated vertices is prescribed.  The weights satisfy the four-term
recursion

    lam(n, b) = lam(n-1, b) + lam(n-2, b-1) + lam(n-3, b-1) + lam(n-4, b-2)

with lam(n, 0) = 1 and lam(n, b) = 0 for b < 0 or 2b > n; that boundary
is the unique one reproducing lam(n, 1) = 2n - 3 for n >= 2 and making
the diagonal lam(2b, b) Fibonacci.  All arithmetic is exact integer;
despite the alternating signs every count is nonnegative.
"""

from __future__ import annotations

import threading

from . import counting

_s_cache: dict[tuple[int, int], int] = {}
_s_ell_cache: dict[tuple[int, int, int], int] = {}


class LambdaTable:
    """Bottom-up table of the short-arc weights lam(n, b).

    Reads need no lock: rows are appended whole and never changed.  Growth
    takes the table's own lock, so concurrent queries fill each row once.
    """

    def __init__(self, max_n: int = 0):
        self._rows: list[list[int]] = []
        self._lock = threading.Lock()
        self.ensure(max_n)

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1

    def _get(self, n: int, b: int) -> int:
        if n < 0 or b < 0 or 2 * b > n:
            return 0
        return self._rows[n][b]

    def ensure(self, n: int) -> None:
        """Extend the table so every row up to n is filled."""
        with self._lock:
            for m in range(len(self._rows), n + 1):
                row = [1] + [0] * (m // 2)
                for b in range(1, m // 2 + 1):
                    row[b] = (
                        self._get(m - 1, b)
                        + self._get(m - 2, b - 1)
                        + self._get(m - 3, b - 1)
                        + self._get(m - 4, b - 2)
                    )
                self._rows.append(row)

    def value(self, n: int, b: int) -> int:
        if n < 0:
            raise ValueError(f"row index must be nonnegative, got {n}")
        if b < 0 or 2 * b > n:
            return 0
        if n > self.max_n:
            self.ensure(n)
        return self._rows[n][b]


_table = LambdaTable()


def lambda_weight(n: int, b: int) -> int:
    """Weight lam(n, b); zero outside 0 <= 2b <= n."""
    return _table.value(n, b)


def s_k3(k: int, n: int) -> int:
    """Number of k-noncrossing structures on [n] with arc length >= 3."""
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    key = (k, n)
    value = _s_cache.get(key)
    if value is None:
        value = 0
        for b in range(n // 2 + 1):
            term = lambda_weight(n, b) * counting.tk_total(k, n - 2 * b)
            value += -term if b % 2 else term
        if value < 0:
            raise ArithmeticError(f"signed sum collapsed below zero for k={k}, n={n}")
        _s_cache.setdefault(key, value)
    return value


def s_k3_by_isolated(k: int, n: int, ell: int) -> int:
    """Structures on [n] with exactly ell isolated vertices."""
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    key = (k, n, ell)
    value = _s_ell_cache.get(key)
    if value is None:
        value = 0
        for b in range((n - ell) // 2 + 1):
            term = lambda_weight(n, b) * counting.fk_partial(k, n - 2 * b, ell)
            value += -term if b % 2 else term
        if value < 0:
            raise ArithmeticError(
                f"signed sum collapsed below zero for k={k}, n={n}, ell={ell}"
            )
        _s_ell_cache.setdefault(key, value)
    return value
