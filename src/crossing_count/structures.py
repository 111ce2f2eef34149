"""Counts of k-noncrossing structures with minimum arc length 3.

A structure here is a partial matching on [n] whose arcs (i, j) all
satisfy j - i >= 3 and whose crossing number stays below k.  Short arcs
are removed by a signed sum over matchings: the weight lam(n, b) counts
configurations of b forbidden short arcs, and

    S_{k,3}(n) = sum_b (-1)^b * lam(n, b) * T_k(n - 2b),

with the analogous sum against f_k(n - 2b, ell) when the number of
isolated vertices is prescribed.  The weights satisfy

    lam(n, b) = lam(n-1, b) + lam(n-2, b-1) + lam(n-3, b-1) + lam(n-4, b-2)

with lam(n, 0) = 1 and lam(n, b) = 0 for b < 0 or 2b > n, so lam(n, 1) =
2n - 3 for n >= 2 and lam(2b, b) is Fibonacci.  No table is kept: one
forward scan to the top row holds four rows, row m one integer with
lam(m, b) in slot b, B > top bits wide.  No slot carries: the row sums obey
s(m) = s(m-1) + s(m-2) + s(m-3) + s(m-4) with s(1..4) = 1, 2, 4, 8, so by
induction lam(m, b) <= s(m) <= 2^(m-1) < 2^B.  A top row past
MAX_LAMBDA_ROW, then the largest count, are refused before the scan.
Despite the alternating signs every exact count is nonnegative.
"""

from itertools import islice

from . import counting

# A scan to row 3000 takes about 1 s (its rows grow like m^2 bits), so rows
# past that are refused before a scan starts.
MAX_LAMBDA_ROW = 3000


def _rows(top: int):
    """Yield the slot width B, in whole bytes, then the packed rows 0..top: the
    recursion is row(m) = q(m-1) + q(m-3) 2^B with q(m) = row(m) + row(m-1) 2^B."""
    if top > MAX_LAMBDA_ROW:
        raise counting.BudgetExceededError(f"lam row {top} is past the bound of {MAX_LAMBDA_ROW}")
    width = top // 8 * 8 + 8
    yield width
    row, q1, q2, q3 = 1, 1, 0, 0  # row(0), q(0), q(-1), q(-2)
    yield row
    for _ in range(top):
        new = q1 + (q3 << width)
        row, q1, q2, q3 = new, new + (row << width), q1, q2
        yield row


def lambda_diagonal(shift: int, order: int) -> list[int]:
    """lam(shift + 2b, b) for b = 0..order: slot b of every other row of one scan."""
    rows = _rows(shift + 2 * order)
    width = next(rows)
    mask = (1 << width) - 1
    return [row >> b * width & mask for b, row in enumerate(islice(rows, shift, None, 2))]


def lambda_weight(n: int, b: int) -> int:
    """Weight lam(n, b); zero outside 0 <= 2b <= n."""
    if n < 0:
        raise ValueError(f"lam row must be nonnegative, got {n}")
    return lambda_diagonal(n - 2 * b, b)[b] if 0 <= 2 * b <= n else 0


def s_k3_at(k: int, ns, ell: int | None = None) -> list[int]:
    """S_{k,3}(n) at each n of ns, in order, from one scan to the largest:
    sum_b (-1)^b lam(n, b) times T_k(n - 2b), or f_k(n - 2b, ell) for an ell."""
    if k < 3:
        raise ValueError(f"crossing bound k must be >= 3, got {k}")
    if ell is not None and not 0 <= ell <= min(ns):
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={min(ns)}")

    def count(m: int) -> int:
        return counting.tk_total(k, m) if ell is None else counting.fk_partial(k, m, ell)

    rows = _rows(max(ns))
    step = next(rows) // 8
    for n in max(ns), min(ns):  # a refused largest count, then a negative n
        count(n)
    values = dict.fromkeys(ns)
    for n, row in enumerate(rows):
        if n in values:
            data = row.to_bytes(step * (n // 2 + 1), "little")
            value = 0
            for b in range((n - (ell or 0)) // 2 + 1):
                term = int.from_bytes(data[b * step : (b + 1) * step], "little") * count(n - 2 * b)
                value += -term if b % 2 else term
            if value < 0:
                raise ArithmeticError(f"signed sum collapsed below zero for k={k}, n={n}, ell={ell}")
            values[n] = value
    return [values[n] for n in ns]


def s_k3(k: int, n: int) -> int:
    """Number of k-noncrossing structures on [n] with arc length >= 3."""
    return s_k3_at(k, [n])[0]


def s_k3_by_isolated(k: int, n: int, ell: int) -> int:
    """Structures on [n] with exactly ell isolated vertices."""
    return s_k3_at(k, [n], ell)[0]
