import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cteuclid.algebra import SLACK, ExactRing, InputError, PrimeField, VariableTable
from cteuclid.bruteforce import brute_count, dp_knapsack
from cteuclid.checkpoint import CheckpointPause
from cteuclid.elimination import (
    DEFAULT_PRIMES,
    PrimeClash,
    SeriesTables,
    eliminate_slack,
    pick_lambda,
    summarize,
)
from cteuclid.engine import Stats, TermSum, ct_all
from cteuclid.problems import (
    DiophantineSystem,
    build_count_termsum,
    build_series_termsum,
    certified_primes,
    check_boundedness,
    dilation_bound,
    diophantine_count,
    ehrhart_series,
    format_series,
    knapsack_count,
    magic_square_system,
    run_pipeline,
    series_coeffs,
    system_from_json,
)
from cteuclid.univariate import (
    dense_from_sparse,
    divexact_int,
    pmul,
    reduce_factored,
)

from helpers import expand_factored
from oracles import power_series_div

RING = ExactRing()


# ---------------------------------------------------------------------------
# system plumbing


def test_system_validation():
    with pytest.raises(InputError):
        DiophantineSystem([[1, 2], [3]], [1, 1])  # ragged
    with pytest.raises(InputError):
        DiophantineSystem([[1, 2]], [1, 2])  # rhs length
    with pytest.raises(InputError):
        DiophantineSystem([[1, 0], [2, 0]], [1, 1])  # zero column
    s = DiophantineSystem([[1, 2]], [3])
    assert s.m == 1 and s.n == 2
    assert s.scaled(4).rhs == [12]


def test_system_rejects_bools():
    # bool is a subclass of int, but True is not a coefficient
    with pytest.raises(InputError, match="matrix entries"):
        DiophantineSystem([[1, True]], [5])
    with pytest.raises(InputError, match="right-hand side entries"):
        DiophantineSystem([[1, 1]], [True])


def test_json_round_trip():
    s = DiophantineSystem([[1, 2], [0, 10**20]], [3, 10**20])
    t = system_from_json('{"matrix": [[1, 2], [0, "100000000000000000000"]],'
                         ' "rhs": [3, "100000000000000000000"]}')
    assert t.matrix == s.matrix and t.rhs == s.rhs


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        system_from_json("not json")
    with pytest.raises(InputError):
        system_from_json('{"matrix": [[1]]}')


def test_magic_square_system_shape():
    s = magic_square_system(3)
    assert s.m == 8 and s.n == 9
    for row in s.matrix:
        assert all(c in (0, 1) for c in row)
    assert all(b == 1 for b in s.rhs)
    # row, column, and both diagonal conditions each touch 3 cells
    assert all(sum(row) == 3 for row in s.matrix)


def test_boundedness_check():
    with pytest.raises(InputError):
        check_boundedness(DiophantineSystem([[1, -1]], [3]))
    assert check_boundedness(DiophantineSystem([[1, 1]], [3])) == [1]


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 2), st.integers(2, 3)).flatmap(lambda mn: st.tuples(
    st.lists(st.lists(st.integers(-2, 3), min_size=mn[1], max_size=mn[1]),
             min_size=mn[0], max_size=mn[0]),
    st.lists(st.integers(0, 3), min_size=mn[0], max_size=mn[0]))))
def test_dilations_stay_within_the_certified_bound(case):
    A, b = case
    try:
        system = DiophantineSystem(A, b)
        y = check_boundedness(system)
    except InputError:
        return  # a zero column, or an infinite solution set
    table = VariableTable()
    terms = ct_all(build_series_termsum(system, table, RING)).unpacked()
    lam = pick_lambda(summarize([terms]), table.vids_of_rank(SLACK))
    primes, den = certified_primes(system, y, summarize([terms]), lam)
    degree = sum(m * e for m, e in den.items())
    top = dilation_bound(system, y, degree)
    yb = sum(yi * bi for yi, bi in zip(y, b))
    ya = [sum(yi * c for yi, c in zip(y, col)) for col in zip(*A)]
    f = []
    for t in range(degree + 1):
        f.append(brute_count(A, [t * c for c in b], box=[max(0, t * yb // c) for c in ya]))
        assert f[-1] <= dilation_bound(system, y, t) <= top
    # the series over den has a numerator of degree at most deg den, whose
    # coefficients the primes lift
    out = ehrhart_series(system)
    assert series_coeffs(out.num, out.den, degree + 1) == f
    num = pmul(out.num, divexact_int(expand_factored(RING, den), out.den))
    assert len(num) - 1 <= degree
    bound = 2 ** sum(den.values()) * top
    assert all(abs(c) <= bound for c in num)
    product = 1
    for p in primes:
        product *= p
    assert product > 2 * bound and primes[0] == DEFAULT_PRIMES[0]


# ---------------------------------------------------------------------------
# counting


def test_knapsack_golden_values():
    assert knapsack_count(41, [1, 5, 14]) == 18
    assert knapsack_count(149389505, [12223, 12224, 36671]) == 0


def test_count_random_vs_dp():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 4)
        ws = [rng.randint(1, 9) for _ in range(n)]
        a0 = rng.randint(0, 40)
        assert knapsack_count(a0, ws) == dp_knapsack(a0, ws), (a0, ws)


def test_count_multirow_vs_brute():
    rng = random.Random(7)
    done = 0
    while done < 12:
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        if any(all(A[i][j] == 0 for i in range(m)) for j in range(n)):
            continue
        b = [rng.randint(0, 8) for _ in range(m)]
        try:
            sys_ = DiophantineSystem(A, b)
            check_boundedness(sys_)
        except InputError:
            continue
        got = diophantine_count(sys_).value
        assert got == brute_count(A, b), (A, b)
        done += 1


def test_count_seed_invariance():
    for seed in (0, 1, 17, 255):
        assert knapsack_count(60, [2, 3, 7], seed=seed) == dp_knapsack(60, [2, 3, 7])


def test_count_modular_and_crt():
    a0, ws = 41, [1, 5, 14]
    p = 636286597
    out = run_pipeline(DiophantineSystem([ws], [a0]), "count", moduli=(p,))
    assert out.exact is False
    assert out.residues == {p: 18}
    out = run_pipeline(
        DiophantineSystem([ws], [a0]),
        "count",
        moduli=(1152921504606847009, 2305843009213693951),
        crt=True,
    )
    assert out.value == 18
    assert out.confidence < Fraction(1, 10**12)


def test_repeated_modulus_is_refused_by_the_library():
    # one product ring over (p, p) would work mod p^2
    p = 636286597
    with pytest.raises(InputError, match="moduli must be pairwise distinct"):
        run_pipeline(DiophantineSystem([[1, 5, 14]], [41]), "count", moduli=(p, p))


EHRHART = Path(__file__).resolve().parent / "golden" / "ehrhart.json"
SMALL_PRIME_SYSTEMS = {
    "magic3": (magic_square_system(3), "series"),
    "ehrhart": (system_from_json(EHRHART.read_text()), "series"),
    "knapsack": (DiophantineSystem([[3, 7, 11, 13]], [1000]), "count"),
}


def _per_prime(system, task, moduli):
    """({p: residues and denominator}, summand-max, ct-s-calls), or the refusal."""
    try:
        out = run_pipeline(system, task, moduli=moduli)
    except (InputError, PrimeClash) as exc:
        return f"{type(exc).__name__}: {exc}"
    found = out.residues if task == "count" else out.series_residues
    return found, out.stats.summand_max, out.stats.ct_s_calls


@pytest.mark.parametrize("primes", [(7, 11), (53, 59), (101, 103)])
@pytest.mark.parametrize("name", sorted(SMALL_PRIME_SYSTEMS))
def test_one_pass_over_small_primes_matches_one_prime_runs(name, primes):
    # small primes divide some mixed pairings (magic-3 and ehrhart at 7 and
    # 11), which the product ring keeps: those pieces are zero mod that prime
    system, task = SMALL_PRIME_SYSTEMS[name]
    singles = [_per_prime(system, task, (p,)) for p in primes]
    both = _per_prime(system, task, primes)
    refused = [one for one in singles if isinstance(one, str)]
    if refused:
        # 7 divides a pure pairing of the knapsack under every direction
        assert both == refused[0]
        return
    assert both[0] == {p: one[0][p] for p, one in zip(primes, singles)}
    assert both[1] == max(one[1] for one in singles)
    assert both[2] == sum(one[2] for one in singles)


def test_residues_over_several_primes_share_one_denominator():
    # 7 divides a mixed pairing here, which leaves (1 - q) in the run mod 7
    # alone; the run over 7 and 11 puts both residues over one denominator,
    # (1 - q)^3 as mod 11, and its 7-residues stand for the same series
    system = DiophantineSystem([[3, 3, 3, 2]], [4])
    both = ehrhart_series(system, moduli=(7, 11), seed=1).series_residues
    alone = {p: ehrhart_series(system, moduli=(p,), seed=1).series_residues[p] for p in (7, 11)}
    assert both[7]["den_counts"] == {1: 3, 2: 3, 3: 3}
    assert alone[7]["den_counts"] == {1: 1, 2: 3, 3: 3}
    assert both[11] == alone[11]
    field = PrimeField(7)

    def series(body):
        num = dense_from_sparse(body["num"])
        return power_series_div(field, num, expand_factored(field, body["den_counts"]), 12)

    assert series(both[7]) == series(alone[7])


def test_count_at_pole_order_ten(monkeypatch):
    # eleven weights leave terms with ten pure factors after the one ct
    # variable: pole order 10, where L_10 = 2310 takes the 11 of B_10 = 5/66
    orders = set()
    ensure = SeriesTables.ensure

    def spy(self, r):
        orders.add(r)
        return ensure(self, r)

    monkeypatch.setattr(SeriesTables, "ensure", spy)
    a0, ws = 40, list(range(2, 13))
    want = dp_knapsack(a0, ws)
    assert knapsack_count(a0, ws) == want
    assert max(orders) == 10
    assert knapsack_count(a0, ws, crt=True) == want


def test_order_policies_agree_on_counts():
    rng = random.Random(123)
    for _ in range(8):
        ws = [rng.randint(1, 9) for _ in range(3)]
        a0 = rng.randint(5, 50)
        a = knapsack_count(a0, ws, order="given")
        b = knapsack_count(a0, ws, order="sparse-first")
        assert a == b == dp_knapsack(a0, ws)


def test_unbounded_system_is_refused():
    with pytest.raises(InputError):
        diophantine_count(DiophantineSystem([[1, -1]], [5]))


# ---------------------------------------------------------------------------
# series


def test_magic3_series_closed_form():
    out = ehrhart_series(magic_square_system(3))
    assert out.num == [1, 0, 0, 2, 0, 0, 1]
    assert out.den_factors == {3: 3}
    assert series_coeffs(out.num, out.den, 9) == [1, 0, 0, 5, 0, 0, 13, 0, 0]


def test_magic3_series_matches_brute_force():
    out = ehrhart_series(magic_square_system(3))
    ms3 = magic_square_system(3)
    got = series_coeffs(out.num, out.den, 7)
    want = [brute_count(ms3.matrix, [k * b for b in ms3.rhs]) for k in range(7)]
    assert got == want


def test_series_seed_invariance():
    s1 = ehrhart_series(magic_square_system(3), seed=0)
    s2 = ehrhart_series(magic_square_system(3), seed=12345)
    assert (s1.num, s1.den) == (s2.num, s2.den)


def test_series_crt_matches_exact():
    exact = ehrhart_series(magic_square_system(3))
    crt = ehrhart_series(
        magic_square_system(3),
        moduli=(1152921504606847009, 2305843009213693951),
        crt=True,
    )
    assert crt.num == exact.num and crt.den == exact.den
    assert crt.exact is False


def test_series_single_prime_residues():
    p = 636286597
    out = ehrhart_series(magic_square_system(3), moduli=(p,))
    assert out.num is None
    assert p in out.series_residues
    body = out.series_residues[p]
    # residue numerator over the aligned factored denominator reproduces the
    # exact series mod p
    num = [0] * (max(body["num"]) + 1)
    for d, c in body["num"].items():
        num[d] = c
    field = PrimeField(p)
    den = expand_factored(field, body["den_counts"])
    got = power_series_div(field, num, den, 9)
    assert got == [1, 0, 0, 5, 0, 0, 13, 0, 0]


def test_series_value_str_mentions_q():
    out = ehrhart_series(magic_square_system(3))
    s = out.value_str()
    assert "q^3" in s and "/" in s


def test_simplex_series():
    # one equation x1 + x2 + x3 = 3k: standard simplex dilations
    sys_ = DiophantineSystem([[1, 1, 1]], [3])
    out = ehrhart_series(sys_)
    got = series_coeffs(out.num, out.den, 6)
    want = [brute_count(sys_.matrix, [3 * k]) for k in range(6)]
    assert got == want


# ---------------------------------------------------------------------------
# a count is the constant term of the series run: both share stage B and C

AGREEMENT_SYSTEMS = {
    "magic3": magic_square_system(3),
    "two-equations": DiophantineSystem([[1, 2, 1, 0], [0, 1, 1, 3]], [3, 4]),
}


def _count_paused_and_resumed(system, path):
    """A checkpointed count run one unit per call, and the pauses it took."""
    pauses = 0
    while True:
        try:
            out = run_pipeline(system, "count", str(path), chunk_size=1, max_units=1)
            return out.value, pauses
        except CheckpointPause:
            pauses += 1


@pytest.mark.parametrize("mode", ["exact", "residue", "crt", "paused"])
@pytest.mark.parametrize("name", sorted(AGREEMENT_SYSTEMS))
def test_counts_are_the_series_coefficients(name, mode, tmp_path):
    system = AGREEMENT_SYSTEMS[name]
    series = ehrhart_series(system)
    coeffs = series_coeffs(series.num, series.den, 5)
    if mode == "crt":
        lifted = ehrhart_series(system, moduli=DEFAULT_PRIMES, crt=True)
        assert series_coeffs(lifted.num, lifted.den, 5) == coeffs
    p = 11
    for t, want in enumerate(coeffs):
        scaled = system.scaled(t)
        if mode == "exact":
            assert diophantine_count(scaled).value == want
        elif mode == "residue":
            assert diophantine_count(scaled, moduli=(p,)).residues == {p: want % p}
        elif mode == "crt":
            assert diophantine_count(scaled, moduli=DEFAULT_PRIMES, crt=True).value == want
        else:
            value, pauses = _count_paused_and_resumed(scaled, tmp_path / f"t{t}")
            assert value == want
            assert pauses >= 1


# ---------------------------------------------------------------------------
# series utilities


def test_factored_denominator_round_trip():
    den = pmul(pmul([1, -1], [1, -1]), [1, 0, 0, -1])
    assert reduce_factored({0: 1}, {1: 2, 3: 1}) == ([1], den, {1: 2, 3: 1})


@given(st.dictionaries(st.integers(min_value=1, max_value=16),
                       st.integers(min_value=1, max_value=3),
                       min_size=1, max_size=3))
@settings(max_examples=40)
def test_factored_denominator_inverts_expand(counts):
    assert reduce_factored({0: 1}, counts) == ([1], expand_factored(RING, counts), counts)


def test_series_coeffs_rejects_negative_counts():
    with pytest.raises(ArithmeticError):
        series_coeffs([1, -2], [1, -1], 5)  # (1-2q)/(1-q) goes negative


def test_format_series():
    assert format_series([1, 0, 2], [1, -1]) == "(1 + 2*q^2) / (1 - q)"
    assert format_series([1], None, {2: 3}) == "(1) / ((1 - q^2)^3)"
    # a polynomial series: the reduced denominator is 1, with no factors
    assert format_series([1], [1], {}) == "(1) / (1)"


def test_stats_threading():
    stats = Stats()
    run_pipeline(DiophantineSystem([[1, 5, 14]], [41]), "count", stats=stats)
    assert stats.raw_terms > 0
    assert stats.collected_terms <= stats.raw_terms
    assert stats.ct_s_calls > 0
    assert stats.summand_bound_ok


# stage B's inputs: (system, task) with the ehrhart system of tests/golden
STAGE_B_INPUTS = {
    "knapsack": (DiophantineSystem([[12223, 12224, 36671]], [149389505]), "count"),
    "magic3": (magic_square_system(3), "series"),
    "ehrhart": (DiophantineSystem([[1, 1, 1, 1], [1, 2, 3, 4]], [2, 5]), "series"),
}


@pytest.mark.parametrize("name", sorted(STAGE_B_INPUTS))
def test_stage_b_reads_a_packed_sum_as_its_tuple_form(name):
    """Direction, primes and pieces agree for stage A's TermSum and for its unpacked() form."""
    system, task = STAGE_B_INPUTS[name]
    y = check_boundedness(system)
    table = VariableTable()
    build = build_count_termsum if task == "count" else build_series_termsum
    packed = ct_all(build(system, table, RING))
    plain = packed.unpacked()
    zs = table.vids_of_rank(SLACK)
    lam = pick_lambda(summarize([packed]), zs, seed=3)
    assert pick_lambda(summarize([plain]), zs, seed=3) == lam
    primes, den = certified_primes(system, y, summarize([packed]), lam)
    assert certified_primes(system, y, summarize([plain]), lam) == (primes, den)
    ring = PrimeField(DEFAULT_PRIMES[:2])  # one pass modulo two primes, as a --crt run
    got, want = Stats(), Stats()
    a = eliminate_slack(ring, table, packed, lam, got)
    b = eliminate_slack(ring, table, plain, lam, want)
    assert a.den == b.den
    assert a.sums == b.sums
    assert got.as_dict() == want.as_dict() and got.ct_s_calls == len(plain)


def test_in_memory_run_builds_no_tuple_form(monkeypatch, tmp_path):
    """Stage B reads stage A's TermSum itself, and a checkpoint unpacks it term by term."""
    calls = []
    unpacked = TermSum.unpacked

    def spy(self):
        calls.append(len(self))
        return unpacked(self)

    monkeypatch.setattr(TermSum, "unpacked", spy)
    assert run_pipeline(magic_square_system(3), "series").num == [1, 0, 0, 2, 0, 0, 1]
    assert knapsack_count(41, [1, 5, 14], moduli=DEFAULT_PRIMES[:2], crt=True) == 18
    assert calls == []
    run_pipeline(magic_square_system(3), "series", tmp_path / "ck")
    assert calls == []
