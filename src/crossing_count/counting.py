"""Exact counts of k-noncrossing matchings and partial matchings.

For k = 2..6 both f_k(2m, 0), the perfect matchings on [2m] with no k
mutually crossing arcs, and T_k(n), all partial matchings on [n] with
that property, come from linear recurrences with polynomial coefficients
(P-recurrences): their exponential generating functions are the Bessel
determinant of Grabiner & Magyar (1993) and e^x times it, both D-finite.
scripts/derive_recurrences.py guesses each recurrence from exact terms,
overdetermined two to one, and writes the table at the bottom of this
module; one step of a recurrence is a few small-integer products and one
exact division.

Any other k falls back to walks: a perfect matching on [n] corresponds
to a closed walk of length n on Young diagrams with at most k-1 rows,
where every step adds or removes exactly one square (an oscillating
tableau that starts and ends at the empty shape).  Splitting a closed
walk of length 2m at its midpoint gives

    f_k(2m, 0) = sum over shapes lam of W_m(lam)^2,

where W_m(lam) counts the m-step walks from the empty shape to lam, so
one more step of the frontier W_m extends the sequence by one term, and
T_k(n) = sum_m binom(n, 2m) f_k(2m, 0).  That route stays the test
oracle for the recurrences; a request whose W_m would pass
MAX_FRONTIER_SHAPES is refused from frontier_shapes, before any step.
Partial-matching counts follow by choosing which vertices stay isolated.

Everything here is exact: counts are plain Python integers and are never
rounded.  Each sequence has one table (f_k by m, T_k by n) that grows
in place under its own lock; counts are only appended, never changed,
so concurrent callers always see the same values.
"""

from __future__ import annotations

import math
import threading

from . import BudgetExceededError  # re-exported: callers catch counting.BudgetExceededError

# f_k(2m, 0) for a k with no recurrence is refused, before any walk step, if
# W_m would keep more shapes than this: k = 7 from n = 84, k = 8 from n = 76.
MAX_FRONTIER_SHAPES = 20_000

# coefficients[i][j] is the n^j coefficient of p_i; initial terms a(0), ...
Recurrence = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def catalan(m: int) -> int:
    """m-th Catalan number, binom(2m, m) / (m + 1)."""
    if m < 0:
        raise ValueError(f"Catalan index must be nonnegative, got {m}")
    return math.comb(2 * m, m) // (m + 1)


class GrowingTable:
    """Terms a(0), ..., a(max_n) that a subclass's _step extends in order.
    A term is appended whole and never changed, so reads need no lock;
    growth takes the table's own lock."""

    def __init__(self, initial):
        self._terms = list(initial)
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        return len(self._terms) - 1

    def ensure(self, n: int) -> None:
        """Extend the table so every term up to n is filled."""
        with self._lock:
            while self.max_n < n:
                self._step()

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"table index must be nonnegative, got {n}")
        if n > self.max_n:
            self.ensure(n)
        return self._terms[n]


class RecurrenceTable(GrowingTable):
    """Terms of a P-recursive sequence, extended one term at a time.

    The sequence satisfies p_0(n) a(n) + p_1(n) a(n-1) + ... + p_r(n) a(n-r)
    = 0 for every n past the initial terms, so each new term is an exact
    quotient by p_0(n).  A remainder, or p_0(n) = 0, means the coefficients
    are wrong and raises ArithmeticError.
    """

    def __init__(self, coefficients, initial):
        super().__init__(initial)
        self._polys = coefficients

    def _step(self) -> None:
        n, terms = len(self._terms), self._terms
        lead, *rest = (sum(c * n**j for j, c in enumerate(p)) for p in self._polys)
        if not lead:
            raise ArithmeticError(f"leading coefficient vanishes at n={n}")
        quotient, remainder = divmod(-sum(p * terms[n - i] for i, p in enumerate(rest, 1)), lead)
        if remainder:
            raise ArithmeticError(f"recurrence leaves remainder {remainder} at n={n}")
        terms.append(quotient)


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


def _fk_table(k: int, m: int) -> GrowingTable:
    """The table for f_k(2m, 0): the recurrence, else the walk table, made once."""
    if k < 2:
        raise ValueError(f"crossing bound k must be >= 2, got {k}")
    # W_m only grows with m, and with two rows W_2t alone has (t+1)(t+2)/2
    # shapes, past the bound at t = isqrt(2 bound): no larger m need be counted
    counted = min(m, 2 * math.isqrt(2 * MAX_FRONTIER_SHAPES))
    if k not in FK_RECURRENCES and frontier_shapes(k, counted) > MAX_FRONTIER_SHAPES:
        raise BudgetExceededError(f"f_{k}({2 * m}, 0) needs over {MAX_FRONTIER_SHAPES} walk shapes")
    return _fk_tables.get(k) or _fk_tables.setdefault(k, WalkTable(k))


def fk_perfect(k: int, n: int) -> int:
    """Number of perfect matchings on [n] with no k mutually crossing arcs.

    Zero for odd n (no perfect matching exists) and one for n = 0 (the
    empty matching).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    table = _fk_table(k, 0 if n % 2 else n // 2)
    return 0 if n % 2 else table.value(n // 2)


def fk_closed_form_k3(n: int) -> int:
    """Catalan closed form for the k = 3 perfect-matching count.

    Independent of the recurrence table: C_{n/2+2} * C_{n/2} - C_{n/2+1}^2.
    """
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
    if k in _tk_tables:
        return _tk_tables[k].value(n)
    f = _fk_table(k, n // 2)
    return sum(math.comb(n, 2 * m) * f.value(m) for m in range(n // 2 + 1))


# BEGIN RECURRENCES (written by scripts/derive_recurrences.py; do not edit)
FK_RECURRENCES: dict[int, Recurrence] = {
    2: (
        (
            (1, 1),
            (2, -4),
        ),
        (1,),
    ),
    3: (
        (
            (6, 5, 1),
            (4, 0, -16),
        ),
        (1,),
    ),
    4: (
        (
            (90, 63, 14, 1),
            (60, -32, -156, -40),
            (-108, 396, -432, 144),
        ),
        (1, 1),
    ),
    5: (
        (
            (2520, 1522, 327, 30, 1),
            (1728, -1372, -3620, -1056, -80),
            (-2304, 7680, -6400, 0, 1024),
        ),
        (1, 1),
    ),
    6: (
        (
            (113400, 60390, 12177, 1177, 55, 1),
            (80080, -77032, -144462, -41460, -4186, -140),
            (-89520, 291556, -226680, -15980, 36480, 4144),
            (54000, -246600, 405000, -306000, 108000, -14400),
        ),
        (1, 1, 3),
    ),
}
TK_RECURRENCES: dict[int, Recurrence] = {
    2: (
        (
            (2, 1),
            (-1, -2),
            (3, -3),
        ),
        (1, 1),
    ),
    3: (
        (
            (24, 10, 1),
            (-15, -17, -3),
            (9, 4, -13),
            (30, -45, 15),
        ),
        (1, 1, 2),
    ),
    4: (
        (
            (720, 252, 28, 1),
            (-495, -424, -78, -4),
            (305, -25, -246, -34),
            (580, -718, 62, 76),
            (-630, 1155, -630, 105),
        ),
        (1, 1, 2, 4),
    ),
    5: (
        (
            (40320, 12176, 1308, 60, 1),
            (-29393, -20663, -3574, -230, -5),
            (18991, -5558, -11571, -1792, -70),
            (27174, -32893, 2245, 3244, 230),
            (-25452, 41928, -16773, -492, 789),
            (-22680, 47250, -33075, 9450, -945),
        ),
        (1, 1, 2, 4, 10),
    ),
    6: (
        (
            (3628800, 966240, 97416, 4708, 110, 1),
            (-2755377, -1658520, -265085, -17752, -535, -6),
            (1857231, -766695, -941237, -141827, -7347, -125),
            (2184480, -2660628, 215474, 238068, 22066, 540),
            (-1987902, 3197739, -1188778, -78922, 54544, 3319),
            (-2066472, 4119534, -2626905, 590340, -8763, -7734),
            (1247400, -2848230, 2338875, -883575, 155925, -10395),
        ),
        (1, 1, 2, 4, 10, 26),
    ),
}
# END RECURRENCES

_fk_tables = {k: RecurrenceTable(*rec) for k, rec in FK_RECURRENCES.items()}
_tk_tables = {k: RecurrenceTable(*rec) for k, rec in TK_RECURRENCES.items()}
