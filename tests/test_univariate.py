import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cteuclid.algebra import ExactRing, PrimeField
from cteuclid.elimination import DEFAULT_PRIMES
from cteuclid.univariate import (
    FactoredAccumulator,
    cyclotomic,
    dense_from_sparse,
    divexact_int,
    pmul,
    power_series_div,
    reduce_factored,
    sparse_mul,
    sparse_mul_binomial,
    trim,
)

import oracles
from helpers import binomial_factor, expand_factored, padd
from oracles import content_int, gcd_int, primitive_int, reduce_fraction_int, reduce_series

RING = ExactRing()

small_poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)


def test_trim():
    assert trim([1, 2, 0, 0]) == [1, 2]
    assert trim([0, 0]) == []


def test_binomial_factor_and_expand():
    assert binomial_factor(RING, 3, 1) == [1, 0, 0, -1]
    assert binomial_factor(RING, 1, 2) == [1, -2, 1]
    got = expand_factored(RING, {1: 2, 2: 1})
    want = pmul([1, -2, 1], [1, 0, -1])
    assert got == want


@given(small_poly, small_poly)
def test_pmul_commutes(a, b):
    assert pmul(a, b) == pmul(b, a)


@given(small_poly, small_poly, small_poly)
def test_pmul_distributes(a, b, c):
    lhs = pmul(a, padd(RING, b, c))
    rhs = padd(RING, pmul(a, b), pmul(a, c))
    assert lhs == rhs


def test_power_series_div():
    # 1/(1-q) = 1 + q + q^2 + ...
    assert power_series_div([1], [1, -1], 5) == [1, 1, 1, 1, 1]
    # (1+q)/(1-q)^2 = 1 + 3q + 5q^2 + ...
    got = power_series_div([1, 1], [1, -2, 1], 4)
    assert got == [1, 3, 5, 7]


@given(small_poly, small_poly, st.integers(min_value=1, max_value=12))
def test_power_series_div_inverts_multiplication(num, den, count):
    den = [1] + den  # unit constant coefficient
    series = power_series_div(num, den, count)
    back = pmul(series, den)[:count]
    back += [0] * (count - len(back))
    numt = (num + [0] * count)[:count]
    assert [RING.from_int(c) for c in numt] == back


# ---------------------------------------------------------------------------
# integer polynomial gcd (the oracle's) / exact division


def test_content_primitive():
    assert content_int([4, -6, 8]) == 2
    assert primitive_int([4, -6, 8]) == [2, -3, 4]
    assert primitive_int([-4, -6]) == [-2, -3]


def test_gcd_known():
    a = pmul([1, -1], [1, 1])  # q^2 - 1 style
    b = pmul([1, -1], [1, 2])
    assert gcd_int(a, b) == [-1, 1] or gcd_int(a, b) == [1, -1]


@given(small_poly, small_poly, small_poly)
@settings(max_examples=60)
def test_gcd_divides_products(g, a, b):
    if not trim(g):
        return
    ga = pmul(g, a)
    gb = pmul(g, b)
    if not trim(ga) or not trim(gb):
        return
    d = gcd_int(ga, gb)
    # g divides the gcd of g*a and g*b
    assert len(d) >= len(trim(primitive_int(trim(g))))
    divexact_int(ga, d)  # must not raise
    divexact_int(gb, d)


def test_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        divexact_int([1, 0, 1], [1, 1])


@given(small_poly, small_poly)
@settings(max_examples=60)
def test_reduce_fraction_round_trip(num, den):
    if not trim(den) or not trim(num):
        return
    g = [1, -3, 2]
    n2, d2 = reduce_fraction_int(pmul(num, g), pmul(den, g))
    # reduced pair represents the same rational function: n2*den == num*d2 up
    # to the removed content
    lhs = pmul(n2, trim(den))
    rhs = pmul(trim(num), d2)
    # proportional by a positive rational
    c1 = next(c for c in lhs if c) if trim(lhs) else 0
    c2 = next(c for c in rhs if c) if trim(rhs) else 0
    if c1 and c2:
        assert [Fraction(c, c1) for c in lhs] == [Fraction(c, c2) for c in rhs]
    assert d2 and d2[-1] > 0 or d2[0] > 0  # positive leading convention


# ---------------------------------------------------------------------------
# reduction over a factored denominator


def test_cyclotomic_factors_multiply_to_binomials():
    for d in range(1, 41):
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                assert cyclotomic(e)[0] == 1
                prod = pmul(prod, cyclotomic(e))
        assert prod == [1] + [0] * (d - 1) + [-1]


def test_reduce_factored_known():
    # (1 - q)(1 + q^2) / (1 - q^4) = 1 / (1 + q), not a product of binomials
    assert reduce_factored({0: 1, 1: -1, 2: 1, 3: -1}, {4: 1}) == ([1], [1, 1], None)
    assert reduce_factored({}, {2: 1}) == ([], [1], {})
    assert reduce_factored({0: 1, 1: 1}, {2: 1}) == ([1], [1, -1], {1: 1})


@given(
    base=small_poly,
    shared=st.lists(st.integers(min_value=1, max_value=12), max_size=4),
    counts=st.dictionaries(st.integers(min_value=1, max_value=12),
                           st.integers(min_value=1, max_value=2), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_reduce_factored_matches_gcd_reference(base, shared, counts):
    """Equal to one PRS gcd on the dense fraction and trial division of its denominator."""
    num = base
    for d in shared:
        num = pmul(num, cyclotomic(d))
    num = trim(list(num))
    got = reduce_factored({i: c for i, c in enumerate(num) if c}, counts)
    assert got == reduce_series(num, expand_factored(RING, counts))


# ---------------------------------------------------------------------------
# sparse helpers


def _dense(num_sparse, ring):
    if not num_sparse:
        return []
    lo, hi = min(num_sparse), max(num_sparse)
    assert lo >= 0
    out = [ring.zero()] * (hi + 1)
    for d, c in num_sparse.items():
        out[d] = c
    return out


@given(
    st.dictionaries(st.integers(min_value=0, max_value=8),
                    st.integers(min_value=-5, max_value=5), max_size=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60)
def test_sparse_mul_binomial_matches_dense(num, k, e):
    num = {d: RING.from_int(c) for d, c in num.items() if c}
    got = sparse_mul_binomial(RING.reduce, num, k, e)
    want = pmul(_dense(num, RING), binomial_factor(RING, k, e))
    assert trim(_dense(got, RING)) == trim(want)


SPARSE = st.dictionaries(st.integers(min_value=0, max_value=8),
                         st.integers(min_value=-5, max_value=5), max_size=4)


@pytest.mark.parametrize("ring", [RING, PrimeField(636286597)], ids=["exact", "mod"])
@given(a=SPARSE, b=SPARSE)
@settings(max_examples=60)
def test_sparse_mul_matches_dense(ring, a, b):
    a = {d: ring.from_int(c) for d, c in a.items() if c}
    b = {d: ring.from_int(c) for d, c in b.items() if c}
    got = sparse_mul(ring.reduce, a, b)
    assert all(not ring.is_zero(c) for c in got.values())
    assert trim(_dense(got, ring)) == oracles.pmul(ring, _dense(a, ring), _dense(b, ring))


REFERENCE_RINGS = [RING, PrimeField(11), PrimeField(DEFAULT_PRIMES)]
REFERENCE_RING_IDS = ["exact", "mod11", "mod-default-primes"]
LAURENT = st.dictionaries(st.integers(min_value=-3, max_value=8),
                          st.integers(min_value=-12, max_value=12), max_size=5)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=REFERENCE_RING_IDS)
@given(a=LAURENT, b=LAURENT, k=st.integers(min_value=1, max_value=4),
       e=st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_sparse_products_match_the_ring_references(ring, a, b, k, e):
    """sparse_mul and sparse_mul_binomial equal the ring-method versions, in key order."""
    a = {d: ring.from_int(c) for d, c in a.items() if not ring.is_zero(ring.from_int(c))}
    b = {d: ring.from_int(c) for d, c in b.items() if not ring.is_zero(ring.from_int(c))}
    got = sparse_mul(ring.reduce, a, b)
    assert list(got.items()) == list(oracles.sparse_mul(ring, a, b).items())
    got = sparse_mul_binomial(ring.reduce, dict(a), k, e)
    assert list(got.items()) == list(oracles.sparse_mul_binomial(ring, dict(a), k, e).items())


def test_factored_accumulator_combines_denominators():
    acc = FactoredAccumulator(RING)
    acc.add_piece({0: RING.one()}, {1: 1})           # 1/(1-q)
    acc.add_piece({0: RING.one()}, {2: 1})           # 1/(1-q^2)
    assert acc.den == {1: 1, 2: 1}
    num = dense_from_sparse(acc.numerator())
    # 1/(1-q) + 1/(1-q^2) = ((1-q^2) + (1-q)) / ((1-q)(1-q^2))
    want = padd(RING, [1, 0, -1], [1, -1])
    assert trim(num) == trim(want)


def test_factored_accumulator_rejects_surviving_negative_degrees():
    acc = FactoredAccumulator(RING)
    acc.add_piece({-1: RING.one()}, {1: 1})
    with pytest.raises(ArithmeticError):
        dense_from_sparse(acc.numerator())


def test_factored_accumulator_negative_degrees_may_cancel():
    acc = FactoredAccumulator(RING)
    acc.add_piece({-1: RING.one()}, {1: 1})
    acc.add_piece({-1: RING.from_int(-1)}, {1: 1})
    assert dense_from_sparse(acc.numerator()) == []


PIECE = st.tuples(
    st.dictionaries(st.integers(min_value=-3, max_value=8),
                    st.integers(min_value=-5, max_value=5), max_size=4),
    st.dictionaries(st.integers(min_value=1, max_value=4),
                    st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
)


@pytest.mark.parametrize("ring", [RING, PrimeField(636286597)], ids=["exact", "mod"])
@given(pieces=st.lists(PIECE, max_size=8), cancelled=PIECE, rnd=st.randoms())
@settings(max_examples=60, deadline=None)
def test_factored_accumulator_matches_dense_reference(ring, pieces, cancelled, rnd):
    """num/den equals the sum by dense cross-multiplication, in any order."""
    pieces = [({d: ring.from_int(c) for d, c in num.items() if c}, den) for num, den in pieces]
    num, den = cancelled
    num = {d: ring.from_int(c) for d, c in num.items() if c}
    # a piece added once with each sign cancels but still counts for den
    everything = pieces + [(num, den), ({d: ring.neg(c) for d, c in num.items()}, den)]

    acc = FactoredAccumulator(ring)
    for n, d in everything:
        acc.add_piece(n, d)
    want_den = {}
    for _, d in everything:
        for k, e in d.items():
            want_den[k] = max(e, want_den.get(k, 0))
    assert acc.den == want_den

    # reference: sum_i q^3 num_i * prod_{j != i} den_j over prod_j den_j
    full = [ring.one()]
    ref = []
    for i, (n, _) in enumerate(pieces):
        term = _dense({d + 3: c for d, c in n.items()}, ring)
        for j, (_, d) in enumerate(pieces):
            if j != i:
                term = oracles.pmul(ring, term, expand_factored(ring, d))
        ref = padd(ring, ref, term)
    for _, d in pieces:
        full = oracles.pmul(ring, full, expand_factored(ring, d))
    got = _dense({d + 3: c for d, c in acc.numerator().items()}, ring)
    lhs = oracles.pmul(ring, got, full)
    rhs = oracles.pmul(ring, ref, expand_factored(ring, acc.den))
    assert trim(lhs) == trim(rhs)

    rnd.shuffle(everything)
    again = FactoredAccumulator(ring)
    for n, d in everything:
        again.add_piece(n, d)
    assert again.numerator() == acc.numerator()

    # merging two accumulators equals adding every piece to one
    left, right = FactoredAccumulator(ring), FactoredAccumulator(ring)
    half = len(everything) // 2
    for n, d in everything[:half]:
        left.add_piece(n, d)
    for n, d in everything[half:]:
        right.add_piece(n, d)
    left.merge(right)
    assert left.den == acc.den
    assert left.numerator() == acc.numerator()


@given(pieces=st.lists(PIECE, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_split_of_a_product_ring_matches_each_prime(pieces):
    # coefficients up to 5 in size vanish mod 3 or 5 now and then
    primes = (3, 5, 636286597)
    whole = FactoredAccumulator(PrimeField(primes))
    fields = [PrimeField(p) for p in primes]
    alone = [FactoredAccumulator(f) for f in fields]
    for num, den in pieces:
        for acc in [whole] + alone:
            acc.add_piece({d: acc.ring.from_int(c) for d, c in num.items()
                           if not acc.ring.is_zero(acc.ring.from_int(c))}, den)
    parts = whole.split(fields)
    for part, acc in zip(parts, alone):
        assert part.ring is acc.ring
        assert part.den == acc.den == whole.den
        assert part.numerator() == acc.numerator()
    assert whole.split([whole.ring]) == [whole]
    # each part is the numerator over den reduced through from_int
    num = whole.numerator()
    for part, field in zip(parts, fields):
        want = {d: field.from_int(c) for d, c in num.items() if not field.is_zero(field.from_int(c))}
        assert list(part.numerator().items()) == list(want.items())


def test_prime_field_series_division_matches_exact():
    p = 636286597
    rp = PrimeField(p)
    num, den = [1, 1], [1, -2, 1]
    exact = power_series_div(num, den, 10)
    modp = oracles.power_series_div(rp, [rp.from_int(c) for c in num],
                                    [rp.from_int(c) for c in den], 10)
    assert [c % p for c in exact] == modp
