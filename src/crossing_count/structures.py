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

from . import counting

# The lam table keeps about n^2/4 bigints and refuses rows past this one;
# building it to row 3000 takes about 4 s and 520 MiB.
MAX_LAMBDA_ROW = 3000


class LambdaTable(counting.GrowingTable):
    """Bottom-up table of the short-arc weights lam(n, b), one row per n.
    A row past MAX_LAMBDA_ROW raises BudgetExceededError before any step."""

    def __init__(self, max_n: int = 0):
        super().__init__([[1]])
        self.ensure(max_n)

    def ensure(self, n: int) -> None:
        if n > MAX_LAMBDA_ROW:
            raise counting.BudgetExceededError(f"lam row {n} is past the bound of {MAX_LAMBDA_ROW}")
        super().ensure(n)

    def _get(self, n: int, b: int) -> int:
        if n < 0 or b < 0 or 2 * b > n:
            return 0
        return self._terms[n][b]

    def _step(self) -> None:
        m = len(self._terms)
        row = [1] + [0] * (m // 2)
        for b in range(1, m // 2 + 1):
            row[b] = (
                self._get(m - 1, b)
                + self._get(m - 2, b - 1)
                + self._get(m - 3, b - 1)
                + self._get(m - 4, b - 2)
            )
        self._terms.append(row)

    def value(self, n: int, b: int) -> int:
        if n < 0:
            raise ValueError(f"row index must be nonnegative, got {n}")
        if b < 0 or 2 * b > n:
            return 0
        return super().value(n)[b]


_table = LambdaTable()


def lambda_weight(n: int, b: int) -> int:
    """Weight lam(n, b); zero outside 0 <= 2b <= n."""
    return _table.value(n, b)


def _signed_sum(k: int, n: int, ell: int | None) -> int:
    """sum_b (-1)^b lam(n, b) times T_k(n - 2b), or f_k(n - 2b, ell) for an ell;
    each lam weight is read before its count, so a row past the bound grows none."""
    value = 0
    for b in range((n - (ell or 0)) // 2 + 1):
        weight, m = lambda_weight(n, b), n - 2 * b
        term = weight * (counting.tk_total(k, m) if ell is None else counting.fk_partial(k, m, ell))
        value += -term if b % 2 else term
    if value < 0:
        where = f"k={k}, n={n}" + ("" if ell is None else f", ell={ell}")
        raise ArithmeticError(f"signed sum collapsed below zero for {where}")
    return value


def s_k3(k: int, n: int) -> int:
    """Number of k-noncrossing structures on [n] with arc length >= 3."""
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return _signed_sum(k, n, None)


def s_k3_by_isolated(k: int, n: int, ell: int) -> int:
    """Structures on [n] with exactly ell isolated vertices."""
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    return _signed_sum(k, n, ell)
