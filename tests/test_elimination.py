import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cteuclid import cli, elimination
from cteuclid.algebra import (
    CT,
    EXPS_ONE,
    FREE,
    SLACK,
    ExactRing,
    InputError,
    Layout,
    PrimeField,
    VariableTable,
    exps_from_dict,
)
from cteuclid.elimination import (
    DEFAULT_PRIMES,
    LambdaExhaustion,
    PrimeClash,
    crt_combine,
    ct_s_term,
    eliminate_slack,
    group_series,
    integer_rows,
    lambda_pairing,
    pairing_function,
    pick_lambda,
    pole_order,
    pure_row,
    summarize,
    validate_lambda,
)
from cteuclid.engine import ElliottTerm, Stats, TermSum, ct_all, num_items
from cteuclid.problems import (
    build_count_termsum,
    build_series_termsum,
    diophantine_count,
    knapsack_system,
    magic_square_system,
)
from cteuclid.univariate import FactoredAccumulator

from helpers import tuple_pairing
from oracles import (
    RationalRing,
    enumerate_pieces,
    make_term,
    ordinary_ct_s_term,
    reference_group_rows,
    reference_pure_row,
    stirling_row,
)

RING = RationalRing()


def _table(nslack, nfree=0):
    table = VariableTable()
    ys = [table.add(f"q{j + 1}", FREE) for j in range(nfree)]
    zs = [table.fresh_slack() for _ in range(nslack)]
    return table, ys, zs


def term_of(table, num, den):
    return make_term(RING, {e: RING.from_int(c) for e, c in num.items()}, den)


# ---------------------------------------------------------------------------
# series tables


BERNOULLI = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
]


def test_pole_coefficients_are_scaled_bernoulli_numbers():
    # the pole row of order r is -L_r B_n, L_r the lcm of the denominators
    # of B_0..B_r: 30 from r = 4 on, and 2310 once B_10 = 5/66 brings in 11
    for r, lr in ((4, 30), (9, 210), (10, 2310)):
        pole, binom, d = integer_rows(r)
        assert d == math.factorial(r) * lr**r
        assert pole_order(RING, r) == (binom, d)
        assert all(type(x) is int for x in pole)
        assert pole == tuple(-lr * BERNOULLI[n] for n in range(r + 1))


def test_stirling_subset_numbers():
    def stirling(n, k):
        return stirling_row(n)[k]

    assert stirling(4, 2) == 7
    assert stirling(5, 3) == 25
    assert stirling(6, 3) == 90
    assert stirling(7, 2) == 63
    assert stirling(5, 5) == 1
    assert stirling(5, 0) == 0
    # recurrence cross-check
    for n in range(1, 7):
        for k in range(1, n):
            assert stirling(n + 1, k) == k * stirling(n, k) + stirling(n, k - 1)


def test_tables_reduce_correctly_mod_p():
    p = 636286597
    modp = PrimeField(p)
    assert pole_order(modp, 8) == pole_order(RING, 8) == integer_rows(8)[1:]
    pure_b = [3, -5, 7, 1, 2, -2, p, 4]
    assert pure_row(modp.reduce, pure_b) == [x % p for x in pure_row(RING.reduce, pure_b)]


# The denominator named when a small prime meets pole order r: at r = p - 1
# that of B_(p-1)/(p-1)!, whose Bernoulli denominator p divides (von
# Staudt-Clausen); from r = p on that of 1/p!.
SMALL_PRIME_DENOMINATORS = {
    3: (12, 6),
    5: (720, 120),
    7: (30240, 5040),
    11: (47900160, 39916800),
    13: (1307674368000, 6227020800),
}


@pytest.mark.parametrize("p", sorted(SMALL_PRIME_DENOMINATORS))
@pytest.mark.parametrize("shift", [-2, -1, 0], ids=["r=p-2", "r=p-1", "r=p"])
def test_small_prime_refused_from_pole_order_p_minus_1(p, shift):
    ring = PrimeField(p)
    r = p + shift
    table = VariableTable()
    zs = [table.fresh_slack() for _ in range(r)]
    term = make_term(ring, {EXPS_ONE: ring.one()}, [exps_from_dict({z: 1}) for z in zs])
    lam = {z: 1 for z in zs}
    if shift == -2:
        pole_order(ring, r)
        assert ct_s_term(ring, term, tuple_pairing(lam))
        return
    den = SMALL_PRIME_DENOMINATORS[p][shift + 1]
    message = f"modulus {p} divides the denominator {den}; use a larger prime"
    with pytest.raises(InputError) as excinfo:
        pole_order(ring, r)
    assert str(excinfo.value) == message
    with pytest.raises(InputError) as excinfo:
        ct_s_term(ring, term, tuple_pairing(lam))
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# direction handling


def test_lambda_pairing_splits_slack_part():
    table, _, (z1, z2) = _table(2)[0], None, _table(2)[2]
    table, ys, (z1, z2) = _table(2, nfree=1)
    q = ys[0]
    e = exps_from_dict({z1: 2, z2: -1, q: 5})
    b, degree = lambda_pairing({z1: 3, z2: 4}, e)
    assert b == 2 * 3 - 4
    assert degree == 5
    assert lambda_pairing({z1: 3, z2: 4}, exps_from_dict({z1: 1})) == (3, 0)


def _pairing_outcome(pair, m):
    try:
        return pair(m)
    except ValueError as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_digit_pairing_matches_the_decoded_monomial(data):
    table = VariableTable()
    for j in range(data.draw(st.integers(0, 2))):
        table.add(f"q{j}", FREE)
    zs = [table.fresh_slack() for _ in range(data.draw(st.integers(1, 4)))]
    for j in range(data.draw(st.integers(0, 2))):
        table.add(f"c{j}", CT)
    bound = data.draw(st.sampled_from([1, 4, 100, 1 << 12]))
    # a reach past the default widens every digit
    layout = Layout(table, bound, reach=data.draw(st.sampled_from([None, bound << 40])))
    covered = data.draw(st.lists(st.sampled_from(zs), unique=True))
    lam = {z: data.draw(st.integers(-(1 << 20), 1 << 20)) for z in covered}
    pair = pairing_function(lam, TermSum(layout, None))
    vids = [v for v, _ in table.ordered()]
    for _ in range(8):
        exps = data.draw(st.dictionaries(st.sampled_from(vids),
                                         st.integers(-layout.reach, layout.reach).filter(bool),
                                         max_size=len(vids)))
        m = layout.pack(exps_from_dict(exps))
        assert _pairing_outcome(pair, m) == _pairing_outcome(
            lambda m: lambda_pairing(lam, layout.unpack(m)), m)


def test_digit_pairing_refuses_as_lambda_pairing_does():
    table = VariableTable()
    q = table.add("q", FREE)
    z1, z2 = table.fresh_slack(), table.fresh_slack()
    c = table.add("c", CT)
    layout = Layout(table, 8)
    pair = pairing_function({z1: 3}, TermSum(layout, None))
    assert pair(layout.pack(exps_from_dict({q: -2, z1: 5}))) == (15, -2)
    with pytest.raises(ValueError, match=r"^no direction entry for slack variable \(1, 1\)$"):
        pair(layout.pack(exps_from_dict({z1: 1, z2: -1, c: 2})))
    with pytest.raises(ValueError, match="^constant-term variable present at slack-elimination time$"):
        pair(layout.pack(exps_from_dict({q: 1, z1: -3, c: -1})))


def test_summarize_is_sorted_and_deterministic():
    table, ys, (z1, z2) = _table(2, nfree=1)
    q = ys[0]
    t1 = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z1: 1}), exps_from_dict({z2: 1, q: 1})])
    t2 = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z2: 1})])
    s1 = summarize([TermSum.pack(table, RING, [t1, t2])])
    s2 = summarize([TermSum.pack(table, RING, [t2]), TermSum.pack(table, RING, [t1])])
    assert s1 == s2
    assert s1.terms == 2
    assert s1.slacks == [z1, z2]
    assert s1.descriptors == tuple(sorted(s1.descriptors))
    # t1 has one mixed factor at q^1 and one pure factor
    assert s1.den == {1: 2}


def test_validate_lambda_failure_kinds():
    z1, z2 = (SLACK, 0), (SLACK, 1)
    pure = ((((z1, 1), (z2, -1)), True),)
    assert validate_lambda(pure, {z1: 2, z2: 2}) == "zero"
    assert validate_lambda(pure, {z1: 5, z2: 2}) is None
    assert validate_lambda(pure, {z1: 5, z2: 2}, moduli=(3,)) == "prime"
    mixed = ((((z1, 1),), False),)
    assert validate_lambda(mixed, {z1: 0}) is None  # mixed factors tolerate 0


def test_pick_lambda_respects_user_direction():
    table, ys, (z1, z2) = _table(2, nfree=1)
    q = ys[0]
    t = term_of(
        table,
        {EXPS_ONE: 1},
        [exps_from_dict({z1: 1, z2: -1}), exps_from_dict({z2: 1, q: 1})],
    )
    ts = TermSum.pack(table, RING, [t])
    zs = table.vids_of_rank(SLACK)
    lam = pick_lambda(summarize([ts]), zs, lam={z1: 7, z2: 3})
    assert lam == {z1: 7, z2: 3}
    with pytest.raises(LambdaExhaustion):
        pick_lambda(summarize([ts]), zs, lam={z1: 3, z2: 3})  # collapses the pure factor
    with pytest.raises(PrimeClash):
        pick_lambda(summarize([ts]), zs, moduli=(2305843009213693951,),
                    lam={z1: 2305843009213693955, z2: 4})
    with pytest.raises(InputError):
        pick_lambda(summarize([ts]), zs, lam={z1: 7})  # does not cover z2


def test_pick_lambda_refuses_a_sequence_of_the_wrong_length():
    system = knapsack_system(41, [1, 5, 14])
    with pytest.raises(InputError, match="^direction vector has 6 entries for 3 slack variables$"):
        diophantine_count(system, lam=[3, 5, 7, 11, 13, 99])
    with pytest.raises(InputError, match="^direction vector has 2 entries for 3 slack variables$"):
        diophantine_count(system, lam=[3, 5])
    assert diophantine_count(system, lam=[3, 5, 7]).value == 18
    # stage A leaves no term here, hence no slack variable in any term, but
    # the direction still lists the run's one slack variable
    assert diophantine_count(knapsack_system(1, [2]), lam=[5]).value == 0
    with pytest.raises(InputError, match="^direction vector has 2 entries for 1 slack variables$"):
        diophantine_count(knapsack_system(1, [2]), lam=[5, 7])


def test_pick_lambda_refuses_a_key_that_is_not_a_slack_variable():
    table, ys, (z1, z2, z3) = _table(3, nfree=1)
    q = ys[0]
    t = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z1: 1}), exps_from_dict({z2: 1, q: 1})])
    ts = TermSum.pack(table, RING, [t])
    zs = table.vids_of_rank(SLACK)
    with pytest.raises(InputError, match="^direction vector names 1 variables that are "
                                         "not slack variables among its 3 entries$"):
        pick_lambda(summarize([ts]), zs, lam={z1: 7, z2: 3, q: 5})
    with pytest.raises(InputError, match="^direction vector names 2 variables that are "
                                         "not slack variables among its 3 entries$"):
        pick_lambda(summarize([ts]), zs, lam={z1: 7, "z2": 3, 2: 5})
    # shaped like a slack variable, but the run has no such variable
    with pytest.raises(InputError, match="^direction vector names 1 variables that are "
                                         "not slack variables among its 3 entries$"):
        pick_lambda(summarize([ts]), zs, lam={z1: 7, z2: 3, (SLACK, 9): 1})
    # a slack variable of the run that no term carries any more is accepted
    assert pick_lambda(summarize([ts]), zs, lam={z1: 7, z2: 3, z3: 1}) == {z1: 7, z2: 3, z3: 1}
    system = knapsack_system(41, [1, 5, 14])
    table = VariableTable()
    build_count_termsum(system, table, RING)
    z1, z2, z3 = table.vids_of_rank(SLACK)
    with pytest.raises(InputError, match="^direction vector names 1 variables that are "
                                         "not slack variables among its 4 entries$"):
        diophantine_count(system, lam={z1: 3, z2: 5, z3: 7, (SLACK, 9): 1})
    assert diophantine_count(system, lam={z1: 3, z2: 5, z3: 7}).value == 18


def test_pick_lambda_is_deterministic_per_seed():
    table, ys, zs = _table(3, nfree=1)
    q = ys[0]
    t = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z: 1, q: 1}) for z in zs])
    ts = TermSum.pack(table, RING, [t])
    a = pick_lambda(summarize([ts]), zs, seed=5)
    b = pick_lambda(summarize([ts]), zs, seed=5)
    c = pick_lambda(summarize([ts]), zs, seed=6)
    assert a == b
    assert a != c
    assert all(1 <= v <= 1 << 16 for v in a.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_summary_reads_packed_digits_as_the_decoded_terms(data):
    table = VariableTable()
    for j in range(data.draw(st.integers(0, 2))):
        table.add(f"q{j}", FREE)
    for _ in range(data.draw(st.integers(1, 4))):
        table.fresh_slack()
    for j in range(data.draw(st.integers(0, 2))):
        table.add(f"c{j}", CT)
    bound = data.draw(st.sampled_from([1, 4, 100, 1 << 12]))
    # a reach past the default widens every digit
    layout = Layout(table, bound, reach=data.draw(st.sampled_from([None, bound << 40])))
    vids = [v for v, _ in table.ordered()]
    monomial = st.dictionaries(st.sampled_from(vids), st.integers(-layout.reach, layout.reach).filter(bool),
                               max_size=len(vids)).map(lambda d: layout.pack(exps_from_dict(d)))
    terms = data.draw(st.lists(st.tuples(st.lists(monomial, min_size=1, max_size=3, unique=True),
                                         st.lists(monomial, max_size=4)), min_size=1, max_size=4))
    packed = TermSum(layout, None, [ElliottTerm(tuple(itertools.chain.from_iterable((e, 1) for e in num)),
                                                tuple(den)) for num, den in terms])
    decoded = [ElliottTerm({layout.unpack(e): 1 for e in num}, tuple(map(layout.unpack, den)))
               for num, den in terms]
    # the terms packed again as a checkpoint packs a chunk it loads: digits
    # of another width, bounded by the terms' own exponents
    reloaded = TermSum.pack(table, None, decoded)
    assert summarize([packed]) == summarize([reloaded])


# ---------------------------------------------------------------------------
# single-term elimination


def test_displayed_substitution_value():
    # -t^12223 / ((1-t)(1-t^12223)) under t = e^s has constant term
    # -149365061/146676
    table = VariableTable()
    t = table.add("t", SLACK)
    term = term_of(
        table,
        {exps_from_dict({t: 12223}): -1},
        [exps_from_dict({t: 1}), exps_from_dict({t: 12223})],
    )
    acc = eliminate_slack(RING, table, TermSum.pack(table, RING, [term]), {t: 1})
    assert acc.den == {}
    assert acc.numerator() == {0: Fraction(-149365061, 146676)}


def test_pure_factor_scalar_is_half():
    # 1/(1-z): one pure factor, constant term of s/(1-e^s) at s^1 is +1/2
    table = VariableTable()
    z = table.add("z", SLACK)
    term = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z: 1})])
    acc = eliminate_slack(RING, table, TermSum.pack(table, RING, [term]), {z: 1})
    assert acc.den == {}
    assert acc.numerator() == {0: Fraction(1, 2)}


def test_mixed_factor_becomes_plain_series():
    # 1/(1-z q) -> 1/(1-q) once the slack is sent to 1
    table = VariableTable()
    q = table.add("q", FREE)
    z = table.add("z", SLACK)
    term = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z: 1, q: 1})])
    acc = eliminate_slack(RING, table, TermSum.pack(table, RING, [term]), {z: 1})
    assert acc.den == {1: 1}
    assert acc.numerator() == {0: 1}


def test_ct_s_term_prime_clash_guard():
    table = VariableTable()
    z = table.add("z", SLACK)
    ring = PrimeField(3)
    term = make_term(ring, {EXPS_ONE: ring.one()}, [exps_from_dict({z: 1})])
    with pytest.raises(PrimeClash):
        ct_s_term(ring, term, tuple_pairing({z: 3}))


def test_summand_bound_is_tracked():
    table = VariableTable()
    q = table.add("q", FREE)
    zs = [table.fresh_slack() for _ in range(4)]
    den = [exps_from_dict({z: 1, q: k + 1}) for k, z in enumerate(zs)]
    den.append(exps_from_dict({zs[0]: 1, zs[1]: 1}))
    term = term_of(table, {EXPS_ONE: 1}, den)
    stats = Stats()
    ct_s_term(RING, term, tuple_pairing({z: w for z, w in zip(zs, (3, 5, 7, 11))}),
              stats=stats)
    assert stats.ct_s_calls == 1
    assert stats.summand_max >= 1
    assert stats.summand_bound_ok


# ---------------------------------------------------------------------------
# grouped stage B against one leaf per composition

SMALL_P = 11  # small enough that pairings and sums vanish mod p by chance


def _factor_term(ring, pure, mixed, num):
    """A term with one slack variable per factor, so that lam picks every b.

    pure: pairings of factors 1/(1 - z_i); mixed: (m, b) of factors
    1/(1 - q^m z_j); num: (q-degree, z_0-exponent, coeff) monomials.
    """
    table = VariableTable()
    q = table.add("q", FREE)
    zs = [table.fresh_slack() for _ in range(len(pure) + len(mixed))]
    lam = dict(zip(zs, list(pure) + [b for _, b in mixed]))
    den = [exps_from_dict({z: 1}) for z in zs[: len(pure)]]
    den += [exps_from_dict({q: m, z: 1}) for (m, _), z in zip(mixed, zs[len(pure):])]
    coeffs = {}
    for d, e, c in num:
        key = exps_from_dict({q: d, zs[0]: e} if zs else {q: d})
        coeffs[key] = coeffs.get(key, 0) + c
    nonzero = {e: ring.from_int(c) for e, c in coeffs.items() if not ring.is_zero(ring.from_int(c))}
    return make_term(ring, nonzero, den), lam


def _accumulate(ring, pieces):
    acc = FactoredAccumulator(ring)
    for num, den_counts in pieces:
        acc.add_piece(num, den_counts)
    return acc


def _grouped_against_enumerated(ring, pure, mixed, num):
    term, lam = _factor_term(ring, pure, mixed, num)
    if term is None:
        return None
    stats = Stats()
    pieces = ct_s_term(ring, term, tuple_pairing(lam), stats=stats)
    want, leaves = enumerate_pieces(ring, term, lam)
    grouped, enumerated = _accumulate(ring, pieces), _accumulate(ring, want)
    assert grouped.sums == enumerated.sums
    assert grouped.den == enumerated.den
    assert stats.summand_max == leaves
    groups = len({m for m, _ in mixed})
    assert len(pieces) <= math.comb(len(pure) + groups, groups)
    return grouped


stage_b_case = st.tuples(
    st.lists(st.sampled_from([1, -1, 2, 3, -4, 7]), max_size=3),
    st.lists(
        st.tuples(
            st.integers(1, 3),
            st.sampled_from([0, 1, -1, 2, -2, 3, 5, SMALL_P, -2 * SMALL_P]),
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(st.integers(-2, 3), st.integers(0, 2), st.sampled_from([-3, -1, 1, 2])),
        min_size=1,
        max_size=3,
    ),
)


@pytest.mark.parametrize("ring", [RING, PrimeField(SMALL_P)], ids=["exact", "mod11"])
@given(stage_b_case)
@example(([1], [(1, 2), (1, -2)], [(0, 0, 1)]))  # the s^1 group coefficient cancels
@example(([1, 2], [(2, SMALL_P), (2, 3), (1, 0)], [(1, 1, 2)]))  # b = p and b = 0
@example(([1, -1, 3], [(1, 1), (1, 5), (2, -1), (3, 2), (3, 2)], [(0, 1, 1), (2, 0, -1)]))
@settings(max_examples=150, deadline=None)
def test_grouped_pieces_match_leaf_enumeration(ring, case):
    _grouped_against_enumerated(ring, *case)


def test_cancelled_group_coefficient_still_registers_its_denominator():
    # b and -b share m = 1: the s^1 coefficient of the pair is 0, yet the
    # split that gives it order 1 still puts (1 - q)^3 into the denominator
    acc = _grouped_against_enumerated(RING, [1], [(1, 2), (1, -2)], [(0, 0, 1)])
    assert acc.sums[((1, 3),)] == {}
    assert acc.den == {1: 3}


def test_pairing_divisible_by_the_modulus_counts_no_leaves():
    # b = p is zero in GF(p): that factor only takes order 0
    for ring, leaves in ((RING, 3), (PrimeField(SMALL_P), 1)):
        term, lam = _factor_term(ring, [1, 2], [(1, SMALL_P)], [(0, 0, 1)])
        stats = Stats()
        ct_s_term(ring, term, tuple_pairing(lam), stats=stats)
        assert stats.summand_max == leaves


def _batch_chunk(bad_at, length):
    """(table, chunk, lam): length series terms, of which the one at bad_at has a pure pairing 202.

    Term k is otherwise (k + 1)/((1 - z1^j)(1 - q z2)), j = 1 + k mod 7, with
    pairings 3j and 5, so the terms of a batch divide by different units.
    """
    table = VariableTable()
    q = table.add("q", FREE)
    z1, z2, z3 = (table.fresh_slack() for _ in range(3))
    mixed = ((q, 1), (z2, 1))
    terms = [ElliottTerm({EXPS_ONE: k + 1}, (mixed, ((z1, 1 + k % 7),))) for k in range(length)]
    if bad_at is not None:
        terms[bad_at] = ElliottTerm({exps_from_dict({z1: 1}): 2}, (((q, 2), (z2, 1)), ((z3, 1),)))
    return table, TermSum.pack(table, ExactRing(), terms), {z1: 3, z2: 5, z3: 202}


@pytest.mark.parametrize("bad_at, length", [(0, 3), (2, 5), (elimination.INVERSION_BATCH + 1,
                                                          elimination.INVERSION_BATCH + 3)])
def test_batched_pass_refuses_as_the_term_by_term_pass(bad_at, length):
    """A pass that shares one inversion per batch refuses the term ct_s_term refuses, as it does.

    Modulo 101 * 103 the pure pairing 202 of the term at bad_at is not a
    unit: the pass raises ct_s_term's PrimeClash, with its message and
    with the stats of the terms before it, wherever the term sits in its
    batch.
    """
    table, chunk, lam = _batch_chunk(bad_at, length)
    ring = PrimeField((101, 103))
    pair = pairing_function(lam, chunk)
    want_stats = Stats()
    with pytest.raises(PrimeClash) as want:
        for t in chunk:
            num = {e: c % ring.modulus for e, c in num_items(t.num)}
            ct_s_term(ring, ElliottTerm(num, t.den), pair, want_stats)
    got_stats = Stats()
    with pytest.raises(PrimeClash) as got:
        eliminate_slack(ring, table, chunk, lam, got_stats)
    assert str(got.value) == str(want.value)
    assert got_stats.as_dict() == want_stats.as_dict()
    assert got_stats.ct_s_calls == bad_at


def test_batched_pass_adds_the_term_by_term_pieces():
    """Past one batch, the pass adds what ct_s_term gives term by term, in its order."""
    length = 2 * elimination.INVERSION_BATCH + 5
    table, chunk, lam = _batch_chunk(None, length)
    ring = PrimeField((101, 103))
    want = FactoredAccumulator(ring)
    pair = pairing_function(lam, chunk)
    for t in chunk:
        num = {e: c % ring.modulus for e, c in num_items(t.num)}
        for piece, den_counts in ct_s_term(ring, ElliottTerm(num, t.den), pair):
            want.add_piece(piece, den_counts)
    got = eliminate_slack(ring, table, chunk, lam)
    assert got.numerator() == want.numerator() and got.den == want.den


def test_magic4_stage_b_piece_count(tmp_path, monkeypatch, capsys):
    """magic --n 4 makes 1,562 stage-B pieces.

    The bound sits just above that and far below the 16,144 pieces of one
    leaf per composition of the pole order over the mixed factors.  A pass
    makes each term's pieces with _unscaled_pieces, the body of ct_s_term,
    and scales them once per batch.
    """
    counted = []
    original = elimination._unscaled_pieces

    def counting(*args, **kwargs):
        pieces, d = original(*args, **kwargs)
        counted.append(len(pieces))
        return pieces, d

    monkeypatch.setattr(elimination, "_unscaled_pieces", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["magic", "--n", "4", "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(counted) == 394
    assert sum(counted) <= 1600


def test_magic4_stage_b_rows_are_plain_ints(monkeypatch):
    """Stage B of magic --n 4 forms its rows and products without ring calls.

    Over two default primes, eliminate_slack makes at most 8,000 calls to
    the field's mul, from_int and is_zero; the accumulator's own additions
    make most of them.
    """
    table = VariableTable()
    done = ct_all(build_series_termsum(magic_square_system(4), table, ExactRing()))
    lam = pick_lambda(summarize([done]), table.vids_of_rank(SLACK))
    ring = PrimeField(DEFAULT_PRIMES[:2])
    calls = {}
    for name in ("mul", "from_int", "is_zero"):
        def counting(self, *args, _name=name, _method=getattr(PrimeField, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(self, *args)
        monkeypatch.setattr(PrimeField, name, counting)
    eliminate_slack(ring, table, done, lam)
    assert sum(calls.values()) <= 8000


# ---------------------------------------------------------------------------
# direction invariance of full elimination
#
# A lone random term usually has a genuine pole at the slack point and its
# regularized value depends on the direction.  Invariance is a property of
# the term sums the extraction phase actually produces (counting problems:
# singular parts cancel), so the test builds those.


def test_elimination_is_direction_invariant():
    from cteuclid.bruteforce import dp_knapsack
    from cteuclid.engine import ct_all
    from cteuclid.problems import build_count_termsum, knapsack_system

    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(2, 4)
        weights = [rng.randint(1, 6) for _ in range(n)]
        a0 = rng.randint(0, 25)
        system = knapsack_system(a0, weights)
        table = VariableTable()
        ts = build_count_termsum(system, table, RING)
        done = ct_all(ts)
        zs = table.vids_of_rank(SLACK)
        lam1 = {z: 1009 + 13 * i for i, z in enumerate(zs)}
        lam2 = {z: 577 + 101 * i * i for i, z in enumerate(zs)}
        try:
            pick_lambda(summarize([done]), zs, lam=lam1)
            pick_lambda(summarize([done]), zs, lam=lam2)
        except (LambdaExhaustion, PrimeClash):
            continue
        acc1 = eliminate_slack(RING, table, done, lam1)
        acc2 = eliminate_slack(RING, table, done, lam2)
        assert acc1.den == acc2.den == {}
        want = dp_knapsack(a0, weights)
        assert acc1.numerator() == acc2.numerator() == ({0: want} if want else {})


def test_eliminate_slack_refuses_a_ring_that_cannot_divide():
    from cteuclid.algebra import ExactRing
    from cteuclid.engine import ct_all

    table = VariableTable()
    ring = ExactRing()
    done = ct_all(build_count_termsum(knapsack_system(41, [1, 5, 14]), table, ring))
    lam = pick_lambda(summarize([done]), table.vids_of_rank(SLACK))
    with pytest.raises(TypeError, match="PrimeField"):
        eliminate_slack(ring, table, done, lam)


# ---------------------------------------------------------------------------
# CRT


def test_crt_combine_round_trip():
    primes = list(DEFAULT_PRIMES)
    for value in (0, 18, -12345678901234567890123, 94267024658624993843):
        residues = [value % p for p in primes]
        got, conf = crt_combine(residues, primes)
        assert got == value
        assert 0 <= conf < Fraction(1, 2)
        assert conf == Fraction(abs(value), primes[0] * primes[1] * primes[2])


def test_crt_combine_two_primes():
    got, _ = crt_combine([1, 2], [5, 7])
    assert got % 5 == 1 and got % 7 == 2
    assert -5 * 7 // 2 < got <= 5 * 7 // 2


def test_default_primes_are_odd_primes():
    for p in DEFAULT_PRIMES:
        PrimeField(p)  # raises if composite
    assert len(set(DEFAULT_PRIMES)) == 3


# ---------------------------------------------------------------------------
# integer exponential rows against the ordinary Fraction form

ORACLE_RINGS = [RING, PrimeField(DEFAULT_PRIMES[0]), PrimeField(11), PrimeField(13)]


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["exact", "mod-m61", "mod11", "mod13"])
@given(stage_b_case)
@example(([3], [(1, 2), (1, -2)], [(0, 0, 1)]))  # b and -b in one group
@example(([2, -3, 5], [(1, 7), (1, -7), (2, 4)], [(1, 1, 2), (0, 2, -3)]))
@example(([1, -1], [(1, 3)], [(0, 0, 2), (1, 1, 1)]))  # pairings +-1: integral pieces
@settings(max_examples=150, deadline=None)
def test_integer_rows_match_ordinary_coefficients(ring, case):
    term, lam = _factor_term(ring, *case)
    if term is None:
        return
    got_stats, want_stats = Stats(), Stats()
    got = ct_s_term(ring, term, tuple_pairing(lam), stats=got_stats)
    want = ordinary_ct_s_term(ring, term, lam, stats=want_stats)
    assert [dc for _, dc in got] == [dc for _, dc in want]
    assert [list(num.items()) for num, _ in got] == [list(num.items()) for num, _ in want]
    assert [[type(c) for c in num.values()] for num, _ in got] == [
        [type(c) for c in num.values()] for num, _ in want
    ]
    assert got_stats.as_dict() == want_stats.as_dict()


# ---------------------------------------------------------------------------
# rows from power sums against the factor-by-factor loops

ROW_RINGS = [ExactRing(), PrimeField(11), PrimeField(13), PrimeField(DEFAULT_PRIMES[0]),
             PrimeField(DEFAULT_PRIMES)]
ROW_RING_IDS = ["exact", "mod11", "mod13", "mod-m61", "mod-default3"]
# 0 and pairings that vanish mod 11, 13, one default prime or their product
ROW_PAIRINGS = [0, 1, -1, 2, -2, 3, -5, 7, 1 << 16, -11, 22, 13, -143, DEFAULT_PRIMES[0],
                -math.prod(DEFAULT_PRIMES)]
row_pairings = st.lists(st.sampled_from(ROW_PAIRINGS), max_size=12)


@pytest.mark.parametrize("ring", ROW_RINGS, ids=ROW_RING_IDS)
@given(row_pairings, st.integers(0, 12), st.integers(1, 4))
@example([3, 3], 1, 2)
@example([1, -1] * 6, 12, 1)  # cancelling power sums
@example([11, 22, -11], 12, 3)  # all vanish mod 11
@settings(max_examples=60, deadline=None)
def test_group_rows_match_the_factor_by_factor_loop(ring, bs, r, m):
    reduce = ring.reduce
    want = [{m * e: reduce(c) for e, c in enumerate(row) if reduce(c)}
            for row in reference_group_rows(bs, r)]
    got = group_series(reduce, bs, m, r)
    assert [list(g.items()) for g in got] == [list(w.items()) for w in want]


@pytest.mark.parametrize("ring", ROW_RINGS, ids=ROW_RING_IDS)
@given(row_pairings)
@example([1] * 12)
@example([-1, 2, 11, 13] * 3)
@settings(max_examples=60, deadline=None)
def test_pure_rows_match_the_factor_by_factor_loop(ring, pure_b):
    assert pure_row(ring.reduce, pure_b) == [ring.reduce(x) for x in reference_pure_row(pure_b)]


def test_rows_depend_only_on_power_sums():
    # {3, 3} and {1, 5} share P_1; {2, -1, -1} and {-2, 1, 1} share P_1 and
    # P_2; a pairing 0 adds nothing to any P_k
    for ring in ROW_RINGS:
        reduce = ring.reduce
        assert group_series(reduce, [3, 3], 2, 1) == group_series(reduce, [1, 5], 2, 1) == [{0: 1}, {2: 6}]
        assert group_series(reduce, [2, -1, -1], 1, 2) == group_series(reduce, [-2, 1, 1], 1, 2)
        assert group_series(reduce, [5, 0], 1, 6) == group_series(reduce, [5], 1, 6)
    assert reference_group_rows([3, 3], 1) == reference_group_rows([1, 5], 1)


def test_rows_at_high_pole_order():
    # the plan's scaled log coefficients L_r^k a_k must be exact integers
    reduce = ExactRing().reduce
    for r in (13, 16, 20):
        pure_b = [(-1) ** k * k for k in range(1, r + 1)]
        assert pure_row(reduce, pure_b) == reference_pure_row(pure_b)
    want = [{e: c for e, c in enumerate(row) if c} for row in reference_group_rows([5, -3], 16)]
    assert group_series(reduce, [5, -3], 1, 16) == want


# ---------------------------------------------------------------------------
# the count kernel against ordinary coefficients, term by term

COUNT_RINGS = [RING, PrimeField(DEFAULT_PRIMES[0]), PrimeField(DEFAULT_PRIMES),
               PrimeField(11), PrimeField(13)]
COUNT_LAM = [1, -1, 2, 3, -5, 0, 11, 13 * 11, DEFAULT_PRIMES[0]]
# 11 * 13 and the primes vanish in some ring, so a numerator can vanish too
COUNT_COEFFS = [1, -1, 2, -3, 7, 11 * 13, -11 * 13, DEFAULT_PRIMES[0], math.prod(DEFAULT_PRIMES)]
_slack_monomial = st.dictionaries(st.integers(0, 3), st.integers(-2, 2).filter(bool), max_size=3)
count_chunk = st.tuples(
    st.lists(st.sampled_from(COUNT_LAM), min_size=4, max_size=4),
    st.lists(
        st.tuples(
            st.lists(st.tuples(_slack_monomial, st.sampled_from(COUNT_COEFFS)), min_size=1, max_size=3),
            st.lists(_slack_monomial.filter(bool), max_size=12),
        ),
        min_size=1,
        max_size=6,
    ),
)


def _count_chunk(lam_values, terms):
    """Tuple-form count terms over z1..z4, and the direction lam_values."""
    table = VariableTable()
    zs = [table.fresh_slack() for _ in range(4)]
    chunk = []
    for num, den in terms:
        coeffs = {}
        for d, c in num:
            e = exps_from_dict({zs[i]: k for i, k in d.items()})
            coeffs[e] = coeffs.get(e, 0) + c
        den = tuple(sorted(exps_from_dict({zs[i]: k for i, k in f.items()}) for f in den))
        chunk.append(ElliottTerm({e: c for e, c in coeffs.items() if c}, den))
    return table, chunk, dict(zip(zs, lam_values))


def _ordinary_count(ring, chunk, lam, stats):
    """The numerator of ordinary_ct_s_term's pieces summed over chunk, as eliminate_slack skips terms."""
    acc = FactoredAccumulator(ring)
    for t in chunk:
        num = {}
        for e, c in t.num.items():
            c = ring.from_int(c)
            if not ring.is_zero(c):
                num[e] = c
        if num:
            for piece, den_counts in ordinary_ct_s_term(ring, ElliottTerm(num, t.den), lam, stats=stats):
                acc.add_piece(piece, den_counts)
    return acc.den, acc.numerator()


def _count_outcome(run):
    stats = Stats()
    try:
        value = run(stats)
    except (LambdaExhaustion, PrimeClash, InputError) as exc:
        value = type(exc), str(exc)
    return value, stats.as_dict()


@pytest.mark.parametrize("ring", COUNT_RINGS, ids=["exact", "mod-m61", "mod-default3", "mod11", "mod13"])
@given(count_chunk)
@example(([1, 2, 3, 5], [([({}, 1)], [{0: 1}] * 10)]))  # pole order 10: refused mod 11
@example(([1, -1, 3, 5], [([({}, 1)], [{0: 1}, {1: 1}] * 6)]))  # pole order 12: refused mod 13
@example(([1, -1, 1, 1], [([({0: 1}, 2), ({1: -1}, -1)], [{0: 1}, {1: 1}, {0: 1, 2: 1}]),
                          ([({}, 11 * 13)], [{3: 1}])]))  # pairings +-1; a numerator 0 mod 11
@example(([2, 3, 5, 7], [([({}, 1)], [{0: 1}, {1: 1}]), ([({}, -1)], [{1: 1}, {0: 1}])]))  # sums to 0
@settings(max_examples=100, deadline=None)
def test_count_kernel_matches_ordinary_coefficients(ring, case):
    table, chunk, lam = _count_chunk(*case)

    def kernel(terms):
        def run(stats):
            acc = eliminate_slack(ring, table, terms, lam, stats)
            return acc.den, acc.numerator()
        return run

    # packed, the chunk's pairings are read from the digits
    packed = TermSum.pack(table, ring, chunk)
    # the oracle meets each term's factors in packed order, as the kernel
    # does, so that both refuse the same factor first
    ordered = [ElliottTerm(t.num, tuple(sorted(t.den, key=packed.layout.pack))) for t in chunk]
    got = _count_outcome(kernel(packed))
    assert got == _count_outcome(lambda stats: _ordinary_count(ring, ordered, lam, stats))


def test_count_chunk_makes_one_inversion(monkeypatch):
    """A count chunk sums its terms as one fraction: one ring.inv, at most one add_piece."""
    table = VariableTable()
    done = ct_all(build_count_termsum(knapsack_system(89643481, [12223, 12224, 36674, 61119, 85569]),
                                      table, ExactRing()))
    assert len(done) == 92
    lam = pick_lambda(summarize([done]), table.vids_of_rank(SLACK))
    ring = PrimeField(DEFAULT_PRIMES)
    calls = {"inv": 0, "add_piece": 0}
    inv, add_piece = ring.inv, FactoredAccumulator.add_piece

    def counting_inv(a):
        calls["inv"] += 1
        return inv(a)

    def counting_add_piece(self, num, den_counts):
        calls["add_piece"] += 1
        return add_piece(self, num, den_counts)

    monkeypatch.setattr(ring, "inv", counting_inv)
    monkeypatch.setattr(FactoredAccumulator, "add_piece", counting_add_piece)
    stats = Stats()
    acc = eliminate_slack(ring, table, done, lam, stats)
    assert calls["inv"] == 1
    assert calls["add_piece"] <= 1
    assert stats.ct_s_calls == 92
    assert acc.den == {} and acc.numerator() == {}  # the instance has no solution
