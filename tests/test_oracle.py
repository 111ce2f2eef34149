import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Diagram, arcs_cross, crossing_number, partial_matchings, shapes, tableaux
from crossing_count import counting, oracle
from crossing_count.oracle import BudgetExceededError, EnumSpec, enumerate_count, state_bound


def diagram(n, arcs):
    return Diagram(n, frozenset(arcs))


def test_crossing_number_examples():
    assert crossing_number(diagram(5, [(1, 4), (2, 5)])) == 2
    assert crossing_number(diagram(8, [(1, 4), (5, 8)])) == 1
    assert crossing_number(diagram(6, [(1, 4), (2, 5), (3, 6)])) == 3
    assert crossing_number(diagram(4, [])) == 0


def test_diagram_validation():
    with pytest.raises(ValueError):
        diagram(4, [(1, 5)])
    with pytest.raises(ValueError):
        diagram(5, [(1, 4), (1, 5)])
    with pytest.raises(ValueError):
        diagram(5, [(3, 3)])


def test_enum_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(n=-1, max_crossing=3)
    with pytest.raises(ValueError):
        EnumSpec(n=4, max_crossing=1)
    with pytest.raises(ValueError):
        EnumSpec(n=4, max_crossing=3, min_arc_length=0)
    with pytest.raises(ValueError):
        EnumSpec(n=4, max_crossing=3, budget=-1)


def test_records_are_immutable_values():
    d = diagram(5, [(1, 4), (2, 5)])
    assert d == diagram(5, [(2, 5), (1, 4)]) and d != diagram(6, [(1, 4), (2, 5)])
    assert len({d, diagram(5, [(2, 5), (1, 4)])}) == 1
    spec = EnumSpec(n=4, max_crossing=3)
    assert (spec.min_arc_length, spec.by_isolated, spec.budget) == (1, False, oracle.DEFAULT_BUDGET)
    for record, field in ((d, "n"), (spec, "budget")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_enumerate_hand_counts():
    # n=5, arcs of length >= 3: empty, (1,4), (1,5), (2,5), {(1,4),(2,5)}
    assert enumerate_count(EnumSpec(n=5, max_crossing=3, min_arc_length=3)) == 5
    assert enumerate_count(EnumSpec(n=4, max_crossing=3, min_arc_length=3)) == 2


@pytest.mark.parametrize("n", [0, 1, 5])
def test_no_room_for_an_arc_leaves_one_empty_diagram(n):
    spec = EnumSpec(n=n, max_crossing=3, min_arc_length=n + 1, by_isolated=True)
    assert enumerate_count(spec) == {n: 1}
    assert enumerate_count(spec, branch_rng=random.Random(n)) == {n: 1}


def test_enumerate_perfect_matching_bucket():
    hist = enumerate_count(
        EnumSpec(n=6, max_crossing=3, min_arc_length=1, by_isolated=True)
    )
    assert hist[0] == 14
    assert sum(hist.values()) == 75


def test_budget_refusal_is_deterministic():
    spec = EnumSpec(n=30, max_crossing=3, min_arc_length=3, budget=10**6)
    with pytest.raises(BudgetExceededError):
        enumerate_count(spec)
    with pytest.raises(BudgetExceededError):
        enumerate_count(spec)


def test_default_budget_refuses_large_n():
    accepted, refused = (EnumSpec(n=n, max_crossing=3, min_arc_length=3) for n in (18, 19))
    assert state_bound(accepted) <= oracle.DEFAULT_BUDGET < state_bound(refused)
    with pytest.raises(BudgetExceededError):
        enumerate_count(refused)


@pytest.mark.parametrize("n", [0, 3])
def test_budget_zero_refuses_even_a_search_with_no_arc(n):
    with pytest.raises(BudgetExceededError):
        enumerate_count(EnumSpec(n=n, max_crossing=3, min_arc_length=3, budget=0))


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("min_len", [1, 3])
def test_state_bound_covers_the_search(k, min_len):
    for n in range(15):
        spec = EnumSpec(n=n, max_crossing=k, min_arc_length=min_len, budget=10**9)
        _, _, states = oracle._search(spec)
        assert states <= state_bound(spec)


@pytest.mark.parametrize(
    ("n", "k", "states"), [(12, 3, 1_786), (12, 4, 2_778), (16, 3, 48_846)]
)
def test_search_state_count(n, k, states):
    assert oracle._search(EnumSpec(n=n, max_crossing=k, min_arc_length=3))[2] == states


@pytest.mark.parametrize(
    ("n", "k", "bound"),
    [(18, 3, 297_820), (19, 3, 701_171), (17, 4, 441_120), (18, 4, 1_251_781)],
)
def test_state_bound_values(n, k, bound):
    spec = EnumSpec(n=n, max_crossing=k, min_arc_length=3, budget=10**9)
    assert state_bound(spec) == bound


@pytest.mark.parametrize("k", range(2, 8))
def test_end_orders_match_the_hook_length_formula(k):
    # RSK: the permutations of m with no increasing run of k, as the sum of
    # squared tableaux counts over the shapes of m with rows shorter than k
    expected = [sum(tableaux(s) ** 2 for s in shapes(m, k - 1)) for m in range(13)]
    assert list(itertools.islice(oracle._end_orders(k), 13)) == expected


@pytest.mark.parametrize("n", range(10))
def test_matches_the_definition(n):
    # every partial matching, kept iff its arcs are long enough and it has
    # no k mutually crossing arcs: the definition, with no search at all
    diagrams = [
        (len(d.arcs), crossing_number(d), min((j - i for i, j in d.arcs), default=math.inf))
        for d in partial_matchings(n)
    ]
    for k in range(2, 6):
        for min_len in range(1, 5):
            expected = Counter(
                n - 2 * arcs
                for arcs, crossing, shortest in diagrams
                if crossing < k and shortest >= min_len
            )
            spec = EnumSpec(n=n, max_crossing=k, min_arc_length=min_len, by_isolated=True)
            assert enumerate_count(spec) == dict(expected)
            shuffled = enumerate_count(spec, branch_rng=random.Random(100 * n + 10 * k + min_len))
            assert shuffled == dict(expected)


@st.composite
def diagrams(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    order = draw(st.permutations(list(range(1, n + 1))))
    m = draw(st.integers(min_value=0, max_value=n // 2))
    arcs = []
    for i in range(m):
        a, b = order[2 * i], order[2 * i + 1]
        arcs.append((min(a, b), max(a, b)))
    return Diagram(n, frozenset(arcs))


@given(diagrams())
def test_crossing_number_mirror_invariant(d):
    assert crossing_number(d) == crossing_number(d.mirror())


@given(diagrams())
def test_arcs_cross_symmetric(d):
    for a in d.arcs:
        for b in d.arcs:
            if a != b:
                assert arcs_cross(a, b) == arcs_cross(b, a)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=0, max_value=9),
    k=st.integers(min_value=2, max_value=4),
    min_len=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_order_independence(n, k, min_len, seed):
    spec = EnumSpec(n=n, max_crossing=k, min_arc_length=min_len, by_isolated=True)
    baseline = enumerate_count(spec)
    shuffled = enumerate_count(spec, branch_rng=random.Random(seed))
    assert shuffled == baseline


def test_matches_counting_to_12():
    for k in (3, 4):
        for n in range(0, 13, 2):
            hist = enumerate_count(
                EnumSpec(n=n, max_crossing=k, min_arc_length=1, by_isolated=True)
            )
            assert hist.get(0, 0) == counting.fk_perfect(k, n)
            assert sum(hist.values()) == counting.tk_total(k, n)
