import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import lambda_closed, lambda_rows, package_env, scan_rows, scan_steps
from crossing_count import counting, structures, walks
from crossing_count.oracle import EnumSpec, enumerate_count
from crossing_count.structures import (
    lambda_diagonal,
    lambda_weight,
    s_k3,
    s_k3_at,
    s_k3_by_isolated,
)


def test_lambda_initial_conditions():
    assert lambda_weight(4, 1) == 5
    assert lambda_weight(8, 4) == 5
    assert lambda_weight(3, 2) == 0
    for n in range(50):
        assert lambda_weight(n, 0) == 1


def test_lambda_out_of_range_is_zero():
    assert lambda_weight(5, -1) == 0
    assert lambda_weight(5, 3) == 0


def test_lambda_rejects_negative_row():
    with pytest.raises(ValueError):
        lambda_weight(-1, 0)


def test_lambda_linear_row():
    for n in range(2, 201):
        assert lambda_weight(n, 1) == 2 * n - 3


def test_lambda_recursion_closure():
    rows = list(scan_rows(200))
    for n in range(4, 201):
        for b in range(n // 2 + 1):
            assert rows[n][b] == sum(
                rows[n - back][b - shift] if 0 <= b - shift < len(rows[n - back]) else 0
                for back, shift in ((1, 0), (2, 1), (3, 1), (4, 2))
            )


def test_lambda_matches_the_phi_expansion_to_200():
    # [x^b] (1+x)^a / (1-x-x^2)^(a+1), a = n - 2b, is the phi identity's
    # coefficient; expanding it gives a closed sum, independent of the recursion
    for n, row in enumerate(scan_rows(200)):
        assert row == [lambda_closed(n, b) for b in range(n // 2 + 1)]


def test_lambda_diagonal_and_weight_match_the_closed_sum():
    for shift in (*range(12), 99, 400):
        assert lambda_diagonal(shift, 60) == [lambda_closed(shift + 2 * b, b) for b in range(61)]
    rng = random.Random(25)
    for n in (*range(12), *rng.sample(range(12, 1000), 4), 1000):
        for b in {-1, 0, n // 2 + 1, rng.randrange(n // 2 + 1)}:
            assert lambda_weight(n, b) == (lambda_closed(n, b) if 0 <= 2 * b <= n else 0)


def test_lambda_diagonal_is_fibonacci():
    # lam(0,0) = lam(2,1) = 1, then each diagonal entry is the sum of
    # the previous two
    diag = lambda_diagonal(0, 100)
    assert diag[0] == diag[1] == 1
    for b in range(2, 101):
        assert diag[b] == diag[b - 1] + diag[b - 2]


def test_lambda_scan_rows_match_the_four_term_oracle():
    # every row to 400 from scans of several tops, whose slot widths differ,
    # and row 1000 alone
    oracle = list(lambda_rows(400))
    for top in (*range(18), 63, 64, 65, 400):
        assert list(scan_rows(top)) == oracle[: top + 1]
    *_, row = lambda_rows(1000)
    *_, scanned = scan_rows(1000)
    assert scanned == row


def test_lambda_slots_leave_no_carry():
    # the docstring's bound: lam(m, b) <= 2^(m-1) for m >= 1, below the slot
    # width, which is more than the scan's top row in bits
    for m, row in enumerate(lambda_rows(1000)):
        assert max(row) <= max(1, 2 ** (m - 1))
    for top in (0, 1, 7, 8, 9, 248, 3000):
        assert next(structures._rows(top)) > top


def test_scan_runs_no_further_than_its_top_row(monkeypatch):
    steps = scan_steps(monkeypatch)
    assert s_k3_at(3, [10, 30, 20]) == [s_k3(3, 10), s_k3(3, 30), s_k3(3, 20)]
    assert steps == [30] * 31 + [10] * 11 + [30] * 31 + [20] * 21
    steps.clear()
    lambda_diagonal(5, 10)
    lambda_weight(12, 3)
    assert lambda_weight(12, 7) == 0  # 2b > n: no scan
    assert steps == [25] * 26 + [12] * 13


def test_s_k3_at_matches_the_count_at_each_n():
    ns = [40, 0, 7, 40, 3, 25]
    assert s_k3_at(4, ns) == [s_k3(4, n) for n in ns]
    assert s_k3_at(3, [30, 12], 6) == [s_k3_by_isolated(3, 30, 6), s_k3_by_isolated(3, 12, 6)]
    with pytest.raises(ValueError, match="nonnegative"):
        s_k3_at(3, [5, -1])
    with pytest.raises(ValueError, match="ell <= n"):
        s_k3_at(3, [30, 5], 6)


def test_s_k3_small_values():
    assert s_k3(3, 3) == 1
    assert s_k3(3, 4) == 2
    assert s_k3(3, 5) == 5


def test_s_k3_rejects_bad_arguments():
    with pytest.raises(ValueError):
        s_k3(2, 5)
    with pytest.raises(ValueError):
        s_k3(3, -1)


def test_s_k3_by_isolated_values():
    assert s_k3_by_isolated(3, 4, 4) == 1
    assert s_k3_by_isolated(3, 4, 2) == 1
    # frozen from the exhaustive oracle, re-checked below
    assert s_k3_by_isolated(3, 7, 3) == 24


def test_s_k3_by_isolated_rejects_bad_ell():
    with pytest.raises(ValueError):
        s_k3_by_isolated(3, 4, 5)


def test_matches_oracle_to_10():
    for k in (3, 4):
        for n in range(11):
            hist = enumerate_count(
                EnumSpec(n=n, max_crossing=k, min_arc_length=3, by_isolated=True)
            )
            assert sum(hist.values()) == s_k3(k, n)
            for ell in range(n + 1):
                assert hist.get(ell, 0) == s_k3_by_isolated(k, n, ell)


def test_monotone_in_n_and_k():
    for k in (3, 4, 5):
        for n in range(40):
            assert s_k3(k, n) <= s_k3(k, n + 1)
            assert s_k3(k, n) <= s_k3(k + 1, n)


def test_sum_rule_over_isolated():
    for k in (3, 4):
        for n in range(41):
            parts = [s_k3_by_isolated(k, n, ell) for ell in range(n + 1)]
            assert all(p >= 0 for p in parts)
            assert sum(parts) == s_k3(k, n)


@pytest.mark.parametrize("k", range(3, 7))
def test_counts_match_a_walk_table_recomputation(k):
    # the production path reads the recurrence tables; rebuild every count
    # from the walk table and the binomial sum instead
    n_max = 60
    table = walks.WalkTable(k)
    f = [0 if n % 2 else table.value(n // 2) for n in range(n_max + 1)]
    t = [sum(math.comb(n, 2 * m) * f[2 * m] for m in range(n // 2 + 1)) for n in range(n_max + 1)]

    def signed(n, terms):
        return sum((-1) ** b * lambda_weight(n, b) * terms(n - 2 * b) for b in range(n // 2 + 1))

    for n in (n_max - 1, n_max):
        assert s_k3(k, n) == signed(n, t.__getitem__)
        for ell in range(0, n + 1, 7):
            assert s_k3_by_isolated(k, n, ell) == signed(
                n, lambda m: math.comb(m, ell) * f[m - ell] if m >= ell else 0
            )


def test_lambda_table_refuses_rows_past_its_bound(monkeypatch):
    steps = scan_steps(monkeypatch)
    n = structures.MAX_LAMBDA_ROW + 1
    for query in (
        lambda: lambda_weight(n, 1),
        lambda: s_k3(3, n),
        lambda: s_k3_at(3, [10, n]),
        lambda: lambda_diagonal(n - 20, 10),
    ):
        with pytest.raises(counting.BudgetExceededError, match="bound"):
            query()
    assert steps == []
    assert lambda_weight(12, 1) == 2 * 12 - 3


def test_oversized_count_is_refused_before_any_table_grows(monkeypatch):
    steps = scan_steps(monkeypatch)
    n = structures.MAX_LAMBDA_ROW + 1
    tables = (counting._tk_tables[3], counting._fk_tables[3])
    rows = [table.max_n for table in tables]
    for query in (lambda: s_k3(3, n), lambda: s_k3_by_isolated(3, n, 1)):
        with pytest.raises(counting.BudgetExceededError, match="bound"):
            query()
    assert [table.max_n for table in tables] == rows
    assert steps == []


def test_a_count_keeps_four_lam_rows_at_a_time():
    # a table of every row to 1500 peaked at 90 MiB for this command; the
    # scan's four packed rows take a few MiB beside the interpreter's 14
    script = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
    proc = subprocess.run(
        [sys.executable, "-S", str(script), "--limit-mib", "40", "count --k 3 --n 1500"],
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("exit 0  count --k 3 --n 1500\n")


def _only_one_short_arc(k, m):
    # T_k(m) = 1 for m = 8 only: S(10) = -lam(10, 1) * 1 < 0
    return 1 if m == 8 else 0


def test_negative_signed_sum_raises_arithmetic_error(monkeypatch):
    monkeypatch.setattr(counting, "tk_total", _only_one_short_arc)
    with pytest.raises(ArithmeticError, match="below zero"):
        structures.s_k3(3, 10)
    monkeypatch.setattr(counting, "fk_partial", lambda k, m, ell: _only_one_short_arc(k, m))
    with pytest.raises(ArithmeticError, match="below zero"):
        structures.s_k3_by_isolated(3, 10, 0)


def test_negative_signed_sum_raises_under_optimize():
    script = (
        "from crossing_count import counting, structures\n"
        "counting.tk_total = lambda k, m: 1 if m == 8 else 0\n"
        "try:\n"
        "    structures.s_k3(3, 10)\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
