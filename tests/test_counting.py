import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from crossing_count import counting
from crossing_count.oracle import EnumSpec, enumerate_count


def test_catalan_values():
    assert counting.catalan(0) == 1
    assert counting.catalan(3) == 5
    assert counting.catalan(5) == 42


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        counting.catalan(-1)


def test_fk_perfect_small_values():
    assert counting.fk_perfect(3, 2) == 1
    assert counting.fk_perfect(3, 6) == 14
    assert counting.fk_perfect(4, 8) == 104


def test_fk_perfect_boundary():
    assert counting.fk_perfect(3, 0) == 1
    for n in (1, 3, 5, 7, 9):
        assert counting.fk_perfect(3, n) == 0


def test_fk_perfect_rejects_bad_arguments():
    with pytest.raises(ValueError):
        counting.fk_perfect(1, 4)
    with pytest.raises(ValueError):
        counting.fk_perfect(3, -2)


def test_closed_form_values():
    assert counting.fk_closed_form_k3(2) == 1
    assert counting.fk_closed_form_k3(4) == 3
    assert counting.fk_closed_form_k3(6) == 14


def test_closed_form_rejects_odd():
    with pytest.raises(ValueError):
        counting.fk_closed_form_k3(5)


def test_dp_matches_closed_form_to_60():
    for n in range(0, 61, 2):
        assert counting.fk_perfect(3, n) == counting.fk_closed_form_k3(n)


def test_walk_table_matches_closed_form_to_300():
    table = counting.WalkTable(3)
    for n in range(0, 301, 2):
        assert table.value(n) == counting.fk_closed_form_k3(n)


@pytest.mark.parametrize("k", range(3, 7))
def test_walk_table_same_values_in_any_query_order(k):
    n_max = 60
    ascending = counting.WalkTable(k)
    up = [ascending.value(n) for n in range(n_max + 1)]
    descending = counting.WalkTable(k)
    down = [descending.value(n) for n in range(n_max, -1, -1)][::-1]
    large = counting.WalkTable(k)
    large.ensure(n_max)
    assert up == down == [large.value(n) for n in range(n_max + 1)]
    assert up[1::2] == [0] * (n_max // 2)


@pytest.mark.parametrize("k", range(3, 7))
def test_fk_perfect_grows_its_table_no_further_than_asked(k, monkeypatch):
    monkeypatch.setattr(counting, "_walk_tables", {})
    for n in (0, 7, 10, 31, 64):
        counting.fk_perfect(k, n)
        assert counting._walk_tables[k].max_n + 1 <= n + 2  # entries for 0..max_n


def test_walk_table_concurrent_growth_matches_sequential():
    queries = list(range(81))
    expected = [counting.WalkTable(4).value(n) for n in queries]
    table = counting.WalkTable(4)
    start = threading.Barrier(6)
    results = []

    def worker(seed):
        order = random.Random(seed).sample(queries, len(queries))
        start.wait(timeout=60)
        got = {n: table.value(n) for n in order}
        results.append([got[n] for n in queries])

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
    assert table.max_n == 80


def test_k2_is_catalan():
    for n in range(21):
        assert counting.fk_perfect(2, 2 * n) == counting.catalan(n)


def test_unconstrained_is_double_factorial():
    # with k > n arcs can never build a forbidden crossing set
    for n in range(6):
        expected = math.prod(range(1, 2 * n, 2)) if n else 1
        assert counting.fk_perfect(6, 2 * n) == expected


def test_weakly_increasing_in_k():
    for n in range(13):
        values = [counting.fk_perfect(k, 2 * n) for k in range(2, 8)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_fk_partial_values():
    assert counting.fk_partial(3, 4, 2) == 6
    assert counting.fk_partial(3, 5, 5) == 1
    assert counting.fk_partial(3, 5, 2) == 0


def test_fk_partial_rejects_bad_ell():
    with pytest.raises(ValueError):
        counting.fk_partial(3, 4, 5)
    with pytest.raises(ValueError):
        counting.fk_partial(3, 4, -1)


def test_tk_total_values():
    assert counting.tk_total(3, 0) == 1
    assert counting.tk_total(3, 4) == 10
    # involutions(6) = 76 minus the unique 3-crossing perfect matching
    assert counting.tk_total(3, 6) == 75


def test_tk_total_is_sum_over_isolated():
    for k in (3, 4):
        for n in range(31):
            total = sum(counting.fk_partial(k, n, ell) for ell in range(n + 1))
            assert counting.tk_total(k, n) == total


def test_matches_enumeration_to_10():
    for k in (3, 4):
        for n in range(0, 11, 2):
            hist = enumerate_count(
                EnumSpec(n=n, max_crossing=k, min_arc_length=1, by_isolated=True)
            )
            assert hist.get(0, 0) == counting.fk_perfect(k, n)
            assert sum(hist.values()) == counting.tk_total(k, n)


def test_concurrent_calls_are_consistent():
    jobs = [(k, n) for k in (2, 3, 4) for n in range(0, 40)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda job: counting.fk_perfect(*job), jobs))
    assert results == [counting.fk_perfect(k, n) for k, n in jobs]
