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
the diagonal lam(2b, b) Fibonacci.  Each row lam(m, .) of the table
sums four shifted earlier rows; a row past MAX_LAMBDA_ROW is refused
before the table grows.  All arithmetic is exact integer; despite the
alternating signs every count is nonnegative.
"""

from . import counting

# The lam table keeps about n^2/4 bigints, so rows past this one are refused
# before it grows; building it to row 3000 takes about 2 s and 520 MiB.
MAX_LAMBDA_ROW = 3000


class LambdaTable(counting.GrowingTable):
    """Rows lam(m, .) of the short-arc weights, one list per m."""

    def __init__(self):
        super().__init__([[1]])

    def _step(self) -> None:
        # row(m) = row(m-1) + [0]+row(m-2) + [0]+row(m-3) + [0,0]+row(m-4), padded
        m = len(self._terms)
        shifted = []
        for back, shift in ((1, 0), (2, 1), (3, 1), (4, 2)):
            row = self._terms[m - back] if back <= m else []
            shifted.append([0] * shift + row + [0] * (m // 2 + 1 - shift - len(row)))
        self._terms.append([a + b + c + d for a, b, c, d in zip(*shifted)])


_table = LambdaTable()


def _check_row(n: int) -> None:
    """Refuse a lam row past MAX_LAMBDA_ROW before the table grows."""
    if n > MAX_LAMBDA_ROW:
        raise counting.BudgetExceededError(f"lam row {n} is past the bound of {MAX_LAMBDA_ROW}")


def lambda_weight(n: int, b: int) -> int:
    """Weight lam(n, b); zero outside 0 <= 2b <= n."""
    _check_row(n)
    row = _table.value(n)
    return row[b] if 0 <= b < len(row) else 0


def _signed_sum(k: int, n: int, ell: int | None) -> int:
    """sum_b (-1)^b lam(n, b) times T_k(n - 2b), or f_k(n - 2b, ell) for an ell.

    The row bound, then the largest count (b = 0, lam(n, 0) = 1), come
    before the row is built, so a refused request grows no table.
    """
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")

    def count(m: int) -> int:
        return counting.tk_total(k, m) if ell is None else counting.fk_partial(k, m, ell)

    _check_row(n)
    value = count(n)
    row = _table.value(n)
    for b in range(1, (n - (ell or 0)) // 2 + 1):
        term = row[b] * count(n - 2 * b)
        value += -term if b % 2 else term
    if value < 0:
        where = f"k={k}, n={n}" + ("" if ell is None else f", ell={ell}")
        raise ArithmeticError(f"signed sum collapsed below zero for {where}")
    return value


def s_k3(k: int, n: int) -> int:
    """Number of k-noncrossing structures on [n] with arc length >= 3."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return _signed_sum(k, n, None)


def s_k3_by_isolated(k: int, n: int, ell: int) -> int:
    """Structures on [n] with exactly ell isolated vertices."""
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    return _signed_sum(k, n, ell)
