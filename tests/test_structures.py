import random
import subprocess
import sys
import threading

import pytest

from helpers import package_env
from crossing_count import counting, structures
from crossing_count.oracle import EnumSpec, enumerate_count
from crossing_count.structures import LambdaTable, lambda_weight, s_k3, s_k3_by_isolated


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
    for n in range(4, 201):
        for b in range(n // 2 + 1):
            assert lambda_weight(n, b) == (
                lambda_weight(n - 1, b)
                + lambda_weight(n - 2, b - 1)
                + lambda_weight(n - 3, b - 1)
                + lambda_weight(n - 4, b - 2)
            )


def test_lambda_diagonal_is_fibonacci():
    # lam(0,0) = lam(2,1) = 1, then each diagonal entry is the sum of
    # the previous two
    diag = [lambda_weight(2 * b, b) for b in range(101)]
    assert diag[0] == diag[1] == 1
    for b in range(2, 101):
        assert diag[b] == diag[b - 1] + diag[b - 2]


def test_lambda_table_type():
    table = LambdaTable(max_n=10)
    assert table.max_n == 10
    table.ensure(20)
    assert table.max_n == 20
    assert table.value(8, 4) == 5
    assert table.value(30, 2) == lambda_weight(30, 2)


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


def test_structure_counts_are_cached():
    before = structures.s_k3(3, 25)
    assert structures.s_k3(3, 25) == before


def test_lambda_table_concurrent_growth_matches_sequential():
    queries = [(n, b) for n in range(100) for b in range(n // 2 + 1)]
    sequential = LambdaTable(99)
    expected = {q: sequential.value(*q) for q in queries}
    table = LambdaTable()
    start = threading.Barrier(6)
    results = []

    def worker(seed):
        order = random.Random(seed).sample(queries, len(queries))
        start.wait(timeout=60)
        results.append({q: table.value(*q) for q in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # force frequent thread switches
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 6
    assert table.max_n == 99


def _only_one_short_arc(k, m):
    # T_k(m) = 1 for m = 8 only: S(10) = -lam(10, 1) * 1 < 0
    return 1 if m == 8 else 0


def test_negative_signed_sum_raises_arithmetic_error(monkeypatch):
    monkeypatch.setattr(counting, "tk_total", _only_one_short_arc)
    monkeypatch.setattr(structures, "_s_cache", {})
    with pytest.raises(ArithmeticError, match="below zero"):
        structures.s_k3(3, 10)
    monkeypatch.setattr(counting, "fk_partial", lambda k, m, ell: _only_one_short_arc(k, m))
    monkeypatch.setattr(structures, "_s_ell_cache", {})
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
