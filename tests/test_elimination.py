import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cteuclid import cli, elimination
from cteuclid.algebra import (
    EXPS_ONE,
    FREE,
    SLACK,
    ExactRing,
    InputError,
    PrimeField,
    VariableTable,
    exps_from_dict,
)
from cteuclid.elimination import (
    DEFAULT_PRIMES,
    LambdaExhaustion,
    PrimeClash,
    SeriesTables,
    collect_slack_info,
    crt_combine,
    ct_s_term,
    eliminate_slack,
    lambda_pairing,
    pick_lambda,
    validate_lambda,
)
from cteuclid.engine import Stats
from cteuclid.univariate import FactoredAccumulator

from oracles import enumerate_pieces, make_term, stirling_row

RING = ExactRing()


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
    tabs = SeriesTables(RING)
    tabs.ensure(10)
    for n in range(11):
        assert tabs.pole_coeff(n) == -BERNOULLI[n] / math.factorial(n)


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
    exact = SeriesTables(RING)
    modp = SeriesTables(PrimeField(p))
    exact.ensure(8)
    modp.ensure(8)
    for n in range(9):
        e = exact.pole_coeff(n)
        assert e.numerator * pow(e.denominator, -1, p) % p == modp.pole_coeff(n)


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


def test_collect_slack_info_is_sorted_and_deterministic():
    table, ys, (z1, z2) = _table(2, nfree=1)
    q = ys[0]
    t1 = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z1: 1}), exps_from_dict({z2: 1, q: 1})])
    t2 = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z2: 1})])
    s1 = collect_slack_info([[t1, t2]])
    s2 = collect_slack_info([[t2, t1]])
    assert s1 == s2
    slacks, descriptors = s1
    assert slacks == [z1, z2]
    assert descriptors == tuple(sorted(descriptors))


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
    ts = [t]
    lam = pick_lambda([ts], lam={z1: 7, z2: 3})
    assert lam == {z1: 7, z2: 3}
    with pytest.raises(LambdaExhaustion):
        pick_lambda([ts], lam={z1: 3, z2: 3})  # collapses the pure factor
    with pytest.raises(PrimeClash):
        pick_lambda([ts], moduli=(2305843009213693951,), lam={z1: 2305843009213693955, z2: 4})
    with pytest.raises(InputError):
        pick_lambda([ts], lam={z1: 7})  # does not cover z2


def test_pick_lambda_is_deterministic_per_seed():
    table, ys, zs = _table(3, nfree=1)
    q = ys[0]
    t = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z: 1, q: 1}) for z in zs])
    ts = [t]
    a = pick_lambda([ts], seed=5)
    b = pick_lambda([ts], seed=5)
    c = pick_lambda([ts], seed=6)
    assert a == b
    assert a != c
    assert all(1 <= v <= 1 << 16 for v in a.values())


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
    acc = eliminate_slack(RING, table, [term], {t: 1})
    assert acc.den == {}
    assert acc.numerator() == {0: Fraction(-149365061, 146676)}


def test_pure_factor_scalar_is_half():
    # 1/(1-z): one pure factor, constant term of s/(1-e^s) at s^1 is +1/2
    table = VariableTable()
    z = table.add("z", SLACK)
    term = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z: 1})])
    acc = eliminate_slack(RING, table, [term], {z: 1})
    assert acc.den == {}
    assert acc.numerator() == {0: Fraction(1, 2)}


def test_mixed_factor_becomes_plain_series():
    # 1/(1-z q) -> 1/(1-q) once the slack is sent to 1
    table = VariableTable()
    q = table.add("q", FREE)
    z = table.add("z", SLACK)
    term = term_of(table, {EXPS_ONE: 1}, [exps_from_dict({z: 1, q: 1})])
    acc = eliminate_slack(RING, table, [term], {z: 1})
    assert acc.den == {1: 1}
    assert acc.numerator() == {0: 1}


def test_ct_s_term_prime_clash_guard():
    table = VariableTable()
    z = table.add("z", SLACK)
    ring = PrimeField(3)
    term = make_term(ring, {EXPS_ONE: ring.one()}, [exps_from_dict({z: 1})])
    with pytest.raises(PrimeClash):
        ct_s_term(ring, term, {z: 3})


def test_summand_bound_is_tracked():
    table = VariableTable()
    q = table.add("q", FREE)
    zs = [table.fresh_slack() for _ in range(4)]
    den = [exps_from_dict({z: 1, q: k + 1}) for k, z in enumerate(zs)]
    den.append(exps_from_dict({zs[0]: 1, zs[1]: 1}))
    term = term_of(table, {EXPS_ONE: 1}, den)
    stats = Stats()
    ct_s_term(RING, term, {z: w for z, w in zip(zs, (3, 5, 7, 11))}, stats=stats)
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
    pieces = ct_s_term(ring, term, lam, stats=stats)
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
        ct_s_term(ring, term, lam, stats=stats)
        assert stats.summand_max == leaves


def test_magic4_stage_b_piece_count(tmp_path, monkeypatch, capsys):
    """magic --n 4 makes 1,562 stage-B pieces.

    The bound sits just above that and far below the 16,144 pieces of one
    leaf per composition of the pole order over the mixed factors.
    """
    counted = []
    original = elimination.ct_s_term

    def counting(*args, **kwargs):
        pieces = original(*args, **kwargs)
        counted.append(len(pieces))
        return pieces

    monkeypatch.setattr(elimination, "ct_s_term", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["magic", "--n", "4", "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(counted) == 394
    assert sum(counted) <= 1600


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
        done = ct_all(ts).unpacked()
        zs = table.vids_of_rank(SLACK)
        lam1 = {z: 1009 + 13 * i for i, z in enumerate(zs)}
        lam2 = {z: 577 + 101 * i * i for i, z in enumerate(zs)}
        try:
            pick_lambda([done], lam=lam1)
            pick_lambda([done], lam=lam2)
        except (LambdaExhaustion, PrimeClash):
            continue
        acc1 = eliminate_slack(RING, table, done, lam1)
        acc2 = eliminate_slack(RING, table, done, lam2)
        assert acc1.den == acc2.den == {}
        want = dp_knapsack(a0, weights)
        assert acc1.numerator() == acc2.numerator() == ({0: want} if want else {})


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
