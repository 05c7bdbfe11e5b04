import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cteuclid.algebra import CT, FREE, ExactRing, exps_from_dict
from cteuclid.bruteforce import (
    OracleRefusal,
    brute_count,
    certify_bounded,
    column_bounds,
    dp_knapsack,
    naive_ct,
)
from oracles import homogeneous_nonzero_exists, make_term, term_y_series

RING = ExactRing()
Y, X = (FREE, 0), (CT, 0)


def E(**kw):
    return exps_from_dict({{"y": Y, "x": X}[k]: v for k, v in kw.items()})


# ---------------------------------------------------------------------------
# counting oracles agree with exhaustive enumeration


def _exhaustive(A, b, cap=12):
    n = len(A[0])
    count = 0
    for xs in itertools.product(range(cap + 1), repeat=n):
        if all(sum(r[j] * xs[j] for j in range(n)) == bi for r, bi in zip(A, b)):
            count += 1
    return count


def test_dp_knapsack_small_cases():
    assert dp_knapsack(41, [1, 5, 14]) == 18
    assert dp_knapsack(0, [3, 5]) == 1
    assert dp_knapsack(1, [2, 4]) == 0
    assert dp_knapsack(10, [1]) == 1


def test_dp_matches_exhaustive():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 3)
        ws = [rng.randint(1, 7) for _ in range(n)]
        a0 = rng.randint(0, 20)
        assert dp_knapsack(a0, ws) == _exhaustive([ws], [a0], cap=a0)


def test_brute_count_matches_dp_on_single_rows():
    rng = random.Random(45)
    for _ in range(30):
        n = rng.randint(1, 4)
        ws = [rng.randint(1, 9) for _ in range(n)]
        a0 = rng.randint(0, 30)
        assert brute_count([ws], [a0]) == dp_knapsack(a0, ws)


def test_brute_count_multirow():
    A = [[1, 1, 0], [0, 1, 1]]
    b = [3, 3]
    assert brute_count(A, b) == _exhaustive(A, b, cap=3)
    A = [[2, 1], [1, 2]]
    assert brute_count(A, [4, 5]) == _exhaustive(A, [4, 5], cap=5)


def test_brute_count_handles_negative_entries():
    # x1 - x2 = 0 with x1 + x2 = 4
    A = [[1, -1], [1, 1]]
    b = [0, 4]
    assert brute_count(A, b) == 1  # (2, 2)


def test_dp_budget_refusal():
    with pytest.raises(OracleRefusal):
        dp_knapsack(10**12, [1, 2], budget=10**6)


def test_brute_budget_refusal():
    with pytest.raises(OracleRefusal):
        brute_count([[1, 1, 1, 1]], [100], budget=10)


# ---------------------------------------------------------------------------
# boundedness certificate


def test_certify_bounded_easy_cases():
    assert certify_bounded([[1, 2, 3]])
    assert certify_bounded([[1, 1], [1, -1]])  # second row handled by first
    assert not certify_bounded([[1, -1]])
    assert not certify_bounded([[1, -1], [-1, 1]])
    assert certify_bounded([[1, 0], [0, 1]])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda m: st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_certificate_agrees_with_homogeneous_search(A):
    y = certify_bounded(A)
    if y is not None:
        assert all(type(c) is int for c in y)
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) > 0 for j in range(len(A[0])))
    # a ray of {x >= 0 : A x = 0} with minimal support is a vector of signed
    # minors of at most m rows, each at most (max |a| * m)^m by Hadamard
    m = len(A)
    cap = (max(1, max(abs(c) for row in A for c in row)) * m) ** m
    try:
        found = homogeneous_nonzero_exists(A, [cap] * len(A[0]), budget=10**5)
    except OracleRefusal:
        return
    assert found == (y is None)


def test_homogeneous_search_finds_rays():
    A = [[1, -1]]
    box = column_bounds(A, [0]) or [5] * 2
    assert homogeneous_nonzero_exists(A, [5, 5])
    assert not homogeneous_nonzero_exists([[1, 1]], [5, 5])


def test_column_bounds_covering_rows():
    # all-nonnegative row caps every variable it touches
    ub = column_bounds([[2, 3], [1, -1]], [12, 0])
    assert ub == [6, 4]
    # a row with a negative entry caps nothing
    assert column_bounds([[1, -1]], [3]) == [None, None]


# ---------------------------------------------------------------------------
# graded expansion


def test_naive_ct_geometric_series():
    # CT_x of 1/(1-xy) is 1; the y-series of the answer is {0: 1}
    t = make_term(RING, {(): RING.one()}, [E(y=1, x=1)])
    assert naive_ct(RING, t, X, Y, 10) == {0: 1}
    # plain y-series mode: 1/(1-y) through degree 4
    t = make_term(RING, {(): RING.one()}, [E(y=1)])
    assert naive_ct(RING, t, None, Y, 4) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


def test_naive_ct_large_factor_flip():
    # 1/(1-y^-1 x): large, = -y x^-1 (1 + y x^-1 + ...); CT_x is 0
    t = make_term(RING, {(): RING.one()}, [E(y=-1, x=1)])
    assert naive_ct(RING, t, X, Y, 12) == {}
    # against x^-1 numerator the first ladder rung hits x^0
    t = make_term(RING, {E(x=1): RING.one()}, [E(y=-1, x=1)])
    got = naive_ct(RING, t, X, Y, 12)
    assert got == {1: -1}


def test_naive_ct_is_additive():
    t1 = make_term(RING, {E(y=1): RING.from_int(2)}, [E(y=1, x=1)])
    t2 = make_term(RING, {E(y=2): RING.from_int(-1)}, [E(y=1, x=1)])
    both = make_term(
        RING,
        {E(y=1): RING.from_int(2), E(y=2): RING.from_int(-1)},
        [E(y=1, x=1)],
    )
    s1 = naive_ct(RING, t1, X, Y, 15)
    s2 = naive_ct(RING, t2, X, Y, 15)
    s12 = naive_ct(RING, both, X, Y, 15)
    merged = dict(s1)
    for d, c in s2.items():
        merged[d] = merged.get(d, 0) + c
        if not merged[d]:
            del merged[d]
    assert merged == s12


def test_term_y_series_sums_terms():
    t1 = make_term(RING, {(): RING.one()}, [E(y=1)])
    t2 = make_term(RING, {(): RING.from_int(-1)}, [E(y=2)])
    got = term_y_series(RING, [t1, t2], Y, 6)
    # 1/(1-y) - 1/(1-y^2): odd-degree coefficients survive
    assert got == {1: 1, 3: 1, 5: 1}


def test_naive_ct_refuses_ungraded_factor():
    t = make_term(RING, {(): RING.one()}, [E(x=1)])
    with pytest.raises(OracleRefusal):
        naive_ct(RING, t, X, Y, 5)


def test_naive_ct_budget():
    t = make_term(RING, {(): RING.one()}, [E(y=1), E(y=1, x=1)])
    with pytest.raises(OracleRefusal):
        naive_ct(RING, t, X, Y, 400, budget=10)
