import functools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from crossing_count import counting, walks
from crossing_count.oracle import BudgetExceededError, EnumSpec, enumerate_count


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
    for k in range(3, 8):  # recurrences for k <= 6, walks for k = 7
        for n in (1, 3, 5, 7, 9, 59):
            assert counting.fk_perfect(k, n) == 0


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


def test_fk_perfect_matches_closed_form_to_1024():
    for n in range(0, 1025, 2):
        assert counting.fk_perfect(3, n) == counting.fk_closed_form_k3(n)


def test_walk_table_matches_closed_form_to_300():
    table = walks.WalkTable(3)
    for m in range(151):
        assert table.value(m) == counting.fk_closed_form_k3(2 * m)


@pytest.mark.parametrize("k", range(3, 7))
def test_walk_table_same_values_in_any_query_order(k):
    m_max = 30
    ascending = walks.WalkTable(k)
    up = [ascending.value(m) for m in range(m_max + 1)]
    descending = walks.WalkTable(k)
    down = [descending.value(m) for m in range(m_max, -1, -1)][::-1]
    large = walks.WalkTable(k)
    large.ensure(m_max)
    assert up == down == [large.value(m) for m in range(m_max + 1)]


@pytest.mark.parametrize("k", range(3, 8))
def test_fk_perfect_grows_its_table_no_further_than_asked(k, monkeypatch):
    fresh = {j: counting.RecurrenceTable(*rec) for j, rec in counting.FK_RECURRENCES.items()}
    monkeypatch.setattr(counting, "_fk_tables", fresh)
    # entries a(0..max_n), a(m) = f_k(2m, 0); the k = 7 walk table starts at a(0)
    initial = counting.FK_RECURRENCES[k][1] if k in fresh else (1,)
    for n in (0, 7, 10, 14, 31, 64):
        counting.fk_perfect(k, n)
        assert fresh[k].max_n <= max(n // 2, len(initial) - 1)


def _fresh_tk_table(monkeypatch, k):
    """A new T_k table in place of the module's: (table, query, initial max_n)."""
    table = counting.RecurrenceTable(*counting.TK_RECURRENCES[k])
    monkeypatch.setitem(counting._tk_tables, k, table)
    return table, functools.partial(counting.tk_total, k), len(counting.TK_RECURRENCES[k][1]) - 1


@pytest.mark.parametrize(
    "fresh",
    [functools.partial(_fresh_tk_table, k=k) for k in range(2, 7)],
    ids=[f"tk_total-{k}" for k in range(2, 7)],
)
def test_table_grows_no_further_than_asked(fresh, monkeypatch):
    table, query, initial_max_n = fresh(monkeypatch)
    for n in (0, 7, 10, 14, 31, 64):
        query(n)
        assert table.max_n <= max(n, initial_max_n)


def _grow_concurrently(table, queries):
    """table.value at each query, asked by 6 threads in shuffled orders."""
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
    return results


def test_walk_table_concurrent_growth_matches_sequential():
    queries = list(range(41))
    expected = [walks.WalkTable(4).value(m) for m in queries]
    table = walks.WalkTable(4)
    assert _grow_concurrently(table, queries) == [expected] * 6
    assert table.max_n == 40


@pytest.mark.parametrize(
    "make",
    [
        lambda: counting.RecurrenceTable(*counting.TK_RECURRENCES[3]),
        lambda: walks.WalkTable(3),
    ],
    ids=["RecurrenceTable", "WalkTable"],
)
def test_table_rejects_negative_index(make):
    filled = make()
    filled.ensure(5)
    for table in (filled, make()):
        for n in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                table.value(n)
    assert filled.max_n == 5


def test_recurrence_table_concurrent_growth_matches_sequential():
    queries = list(range(1501))
    sequential = counting.RecurrenceTable(*counting.TK_RECURRENCES[4])
    expected = [sequential.value(n) for n in queries]
    table = counting.RecurrenceTable(*counting.TK_RECURRENCES[4])
    assert _grow_concurrently(table, queries) == [expected] * 6
    assert table.max_n == 1500


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


@functools.cache
def _walks(k):
    """One shared walk table per k, the oracle for the recurrences."""
    return walks.WalkTable(k)


def _unknowns(rec):
    coefficients, _ = rec
    return sum(len(p) for p in coefficients)


@pytest.mark.parametrize("k", range(2, 7))
def test_fk_recurrence_matches_walk_table(k):
    rec = counting.FK_RECURRENCES[k]
    terms = 2 * _unknowns(rec)
    table = counting.RecurrenceTable(*rec)
    assert [table.value(m) for m in range(terms)] == [
        _walks(k).value(m) for m in range(terms)
    ]


@pytest.mark.parametrize("k", range(2, 7))
def test_tk_recurrence_matches_binomial_sum(k):
    rec = counting.TK_RECURRENCES[k]
    terms = 2 * _unknowns(rec)
    table = counting.RecurrenceTable(*rec)
    assert [table.value(n) for n in range(terms)] == [
        sum(math.comb(n, 2 * m) * _walks(k).value(m) for m in range(n // 2 + 1))
        for n in range(terms)
    ]


@pytest.mark.parametrize("kind", ["f", "T"])
@pytest.mark.parametrize("k", range(3, 7))
def test_mutated_coefficient_raises(k, kind):
    # f_2 is left out: two one-unit changes there give the central
    # binomials and (2m)!/m!, integer sequences of their own
    recurrences = counting.FK_RECURRENCES if kind == "f" else counting.TK_RECURRENCES
    coefficients, initial = recurrences[k]
    for i, poly in enumerate(coefficients):
        for j in range(len(poly)):
            for delta in (1, -1):
                bent = list(poly)
                bent[j] += delta
                mutated = coefficients[:i] + (tuple(bent),) + coefficients[i + 1 :]
                with pytest.raises(ArithmeticError):
                    counting.RecurrenceTable(mutated, initial).ensure(20)


def test_vanishing_leading_coefficient_raises():
    table = counting.RecurrenceTable(((-3, 1), (1,)), (1,))  # (n - 3) a(n) + a(n - 1)
    with pytest.raises(ArithmeticError):
        table.ensure(5)


def test_shape_count_is_the_walk_frontier():
    for k in range(2, 9):
        table = walks.WalkTable(k)
        for m in range(31):
            table.ensure(m)
            assert walks.frontier_shapes(k, m) == len(table._frontier), (k, m)


@pytest.mark.parametrize(("k", "n_accepted"), [(7, 82), (8, 74)])
def test_walk_request_is_refused_from_the_shape_count(k, n_accepted, monkeypatch):
    # the frontier passes the shape bound first at n = 84 for k = 7 and at
    # n = 76 for k = 8
    fresh = {j: counting.RecurrenceTable(*rec) for j, rec in counting.FK_RECURRENCES.items()}
    monkeypatch.setattr(counting, "_fk_tables", fresh)
    refused = n_accepted + 2
    for query in (
        lambda: counting.fk_perfect(k, refused),
        lambda: counting.tk_total(k, refused),
        lambda: counting.fk_partial(k, refused + 1, 1),
        lambda: counting.fk_perfect(k, 10**9),
        lambda: counting.tk_total(10**6, 10**6),
    ):
        with pytest.raises(BudgetExceededError, match="walk shapes"):
            query()
    assert fresh.keys() == counting.FK_RECURRENCES.keys()  # no walk table made
    assert walks.frontier_shapes(k, n_accepted // 2) <= counting.MAX_FRONTIER_SHAPES
    assert counting._fk_table(k, n_accepted // 2).max_n == 0  # accepted, nothing walked yet
    assert counting.fk_perfect(k, refused + 1) == 0  # odd: no term is read, so no refusal


def test_fk_perfect_guard_lets_k7_to_64_pass():
    assert counting.fk_perfect(7, 64) == _walks(7).value(32)
