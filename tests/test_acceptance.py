"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each test carries its own wall-clock budget; a budget miss is a failure,
not a skip.  Brute-force oracles are independent of the engine under test.
"""

import itertools
import random
import subprocess
import time
from fractions import Fraction

import pytest

from cteuclid.algebra import (
    SLACK,
    PrimeField,
    VariableTable,
    exps_from_dict,
    exps_get,
    srem_split,
)
from cteuclid.bruteforce import brute_count, dp_knapsack, naive_ct
from cteuclid.elimination import crt_combine, eliminate_slack
from cteuclid.engine import CollisionError, Stats
from cteuclid.problems import (
    DiophantineSystem,
    ehrhart_series,
    knapsack_count,
    magic_square_system,
    run_pipeline,
    series_coeffs,
)

from helpers import (
    DigitOverflow,
    Packed,
    collapse_term,
    collapsed_series,
    engine_vs_naive,
    random_term,
    table_xy,
)
from oracles import RationalRing, ct_via_at_zero, ct_via_proper, make_term, rem_split

RING = RationalRing()
PRIMES3 = (2305843009213693951, 1152921504606847009, 1152921504606847067)


class clock:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"budget exceeded: {self.elapsed:.1f}s >= {self.budget}s"
            )


def test_criterion_01_knapsack_golden():
    with clock(1.0):
        assert knapsack_count(41, [1, 5, 14]) == 18


def test_criterion_02_infeasible_knapsack_and_displayed_term():
    with clock(10.0):
        assert knapsack_count(149389505, [12223, 12224, 36671]) == 0
    # the first exponential-substitution term of that run, checked alone:
    # -t^12223 / ((1-t)(1-t^12223)) at direction weight 1 contributes
    # -149365061/146676 to the constant term
    table = VariableTable()
    t = table.add("t", SLACK)
    term = make_term(
        RING,
        {exps_from_dict({t: 12223}): RING.one() * -1},
        [exps_from_dict({t: 1}), exps_from_dict({t: 12223})],
    )
    acc = eliminate_slack(RING, table, [term], {t: 1})
    assert acc.den == {}
    assert acc.numerator() == {0: Fraction(-149365061, 146676)}


def test_criterion_03_five_weight_family():
    ws = [12223, 12224, 36674, 61119, 85569]
    with clock(60.0):
        assert knapsack_count(89643481, ws) == 0
    with clock(60.0):
        assert knapsack_count(89643481 * 1001, ws) == 94267024658624993843


def test_criterion_04_magic_3x3_series_vs_brute_force():
    ms3 = magic_square_system(3)
    with clock(30.0):
        out = ehrhart_series(ms3)
        got = series_coeffs(out.num, out.den, 9)
    want = [brute_count(ms3.matrix, [k * b for b in ms3.rhs]) for k in range(9)]
    assert got == want
    assert got == [1, 0, 0, 5, 0, 0, 13, 0, 0]


def test_criterion_05_magic_4x4_series_vs_brute_force():
    ms4 = magic_square_system(4)
    with clock(1800.0):
        out = ehrhart_series(ms4)
        got = series_coeffs(out.num, out.den, 5)
    want = [brute_count(ms4.matrix, [k * b for b in ms4.rhs]) for k in range(5)]
    assert got == want


def test_criterion_06_magic_6x6_known_series_start():
    ms6 = magic_square_system(6)
    # independent check of i(1): line sums 1 force a permutation matrix,
    # so walk all 720 and keep those with both diagonal traces equal to 1
    i1 = 0
    for perm in itertools.permutations(range(6)):
        if sum(perm[i] == i for i in range(6)) == 1 and \
           sum(perm[i] == 5 - i for i in range(6)) == 1:
            i1 += 1
    assert i1 == 96
    with clock(120.0):
        got = [brute_count(ms6.matrix, [k * b for b in ms6.rhs]) for k in (0, 1, 2)]
    assert got == [1, 96, 14763]


def test_criterion_07_property_suite():
    rng = random.Random(2024)

    # 1. engine vs naive expansion on >= 200 random terms
    checked = 0
    while checked < 200:
        m = rng.choice([1, 2, 3])
        table, ys, x = table_xy(m)
        t = random_term(rng, RING, ys, x)
        if t is None:
            continue
        pair = engine_vs_naive(RING, t, ys, x)
        if pair is None:
            continue
        got, want = pair
        assert got == want, (t.num, t.den)
        checked += 1

    # 2. the two closed-form routes agree wherever both apply
    agreed = 0
    yn, xn = (0, 0), (2, 0)
    while agreed < 60:
        m = rng.choice([1, 2])
        table, ys, x = table_xy(m)
        t = random_term(rng, RING, ys, x, x_nonneg_num=True, need_x_factor=True)
        if t is None:
            continue
        packed = Packed(table, RING)
        num2, den2 = packed.normalize_for_var(t, x)
        xdegs = [exps_get(e, x) for e in num2]
        asum = sum(exps_get(f, x) for f in den2)
        if not xdegs or min(xdegs) < 0 or max(xdegs) >= asum:
            continue
        try:
            s1 = collapsed_series(RING, ct_via_proper(RING, t, x), ys, x, yn, xn)
            s2 = collapsed_series(RING, ct_via_at_zero(RING, t, x), ys, x, yn, xn)
            s0 = collapsed_series(RING, packed.ct_var(t, x), ys, x, yn, xn)
            flat = collapse_term(RING, t, ys, x, yn, xn)
            want = naive_ct(RING, flat, xn, yn, 32) if flat is not None else {}
        except (CollisionError, DigitOverflow):
            continue
        assert s0 == s1 == s2 == want
        agreed += 1

    # 3. the bracket of an absent denominator factor is zero
    dropped = 0
    while dropped < 40:
        table, ys, x = table_xy(2)
        t = random_term(rng, RING, ys, x, need_x_factor=True)
        if t is None:
            continue
        absent = exps_from_dict({ys[0]: 3, x: rng.randint(1, 3)})
        if absent in t.den:
            continue
        assert Packed(table, RING).bracket(t, absent, x) == []
        dropped += 1

    # 4. remainder-split invariants
    for _ in range(400):
        a = rng.randint(1, 30)
        e = rng.randint(-200, 200)
        l, r = rem_split(e, a)
        assert e == l * a + r and 0 <= r < a
        l, r = srem_split(e, a)
        assert e == l * a + r and -a < 2 * r <= a


def test_criterion_08_direction_invariance_and_modular_soundness():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 4)
        ws = [rng.randint(1, 9) for _ in range(n)]
        a0 = rng.randint(5, 60)
        sys_ = DiophantineSystem([ws], [a0])
        oa = run_pipeline(sys_, "count", seed=0)
        ob = run_pipeline(sys_, "count", seed=1)
        assert oa.lam != ob.lam  # genuinely different directions
        assert oa.value == ob.value == dp_knapsack(a0, ws), (a0, ws)

    # user-supplied directions take the same path and agree as well
    fixed = DiophantineSystem([[1, 5, 14]], [41])
    lam1 = {(SLACK, 0): 101, (SLACK, 1): 1009, (SLACK, 2): 10007}
    lam2 = {(SLACK, 0): 313, (SLACK, 1): 3137, (SLACK, 2): 31379}
    assert run_pipeline(fixed, "count", lam=lam1).value == 18
    assert run_pipeline(fixed, "count", lam=lam2).value == 18

    exact = knapsack_count(41, [1, 5, 14])
    for p in PRIMES3:
        out = run_pipeline(DiophantineSystem([[1, 5, 14]], [41]), "count", moduli=(p,))
        assert out.residues[p] == exact % p
    out = run_pipeline(
        DiophantineSystem([[1, 5, 14]], [41]), "count", moduli=PRIMES3, crt=True
    )
    assert out.value == exact
    assert out.confidence == Fraction(exact, PRIMES3[0] * PRIMES3[1] * PRIMES3[2])
    v, _ = crt_combine([exact % p for p in PRIMES3], list(PRIMES3))
    assert v == exact


def test_criterion_09_summand_count_bound():
    stats = Stats()
    run_pipeline(DiophantineSystem([[1, 5, 14]], [41]), "count", stats=stats)
    run_pipeline(DiophantineSystem([[2, 3, 5, 7]], [50]), "count", stats=stats)
    run_pipeline(magic_square_system(3), "series", stats=stats)
    run_pipeline(
        DiophantineSystem([[1, 5, 14]], [41]),
        "count",
        moduli=(636286597,),
        stats=stats,
    )
    assert stats.ct_s_calls > 0
    assert stats.summand_max > 0
    assert stats.summand_bound_ok  # checked against C(d+1, floor((d+1)/2)) per call


def test_criterion_10_checkpoint_byte_identity(tmp_path, console_script):
    args = ["ct-euclid", "magic", "--n", "3", "--coeffs", "8",
            "--chunk-size", "2"]
    env = console_script.env()

    def run(extra):
        return subprocess.run(args + extra, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    proc = run(["--checkpoint-dir", "fresh"])
    assert proc.returncode == 0

    proc = run(["--checkpoint-dir", "part", "--max-units", "1"])
    assert proc.returncode == 0 and "# paused:" in proc.stderr
    for _ in range(80):
        proc = subprocess.run(
            ["ct-euclid", "resume", "--checkpoint-dir", "part", "--coeffs", "8",
             "--max-units", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        if "# paused:" not in proc.stderr:
            break
    else:
        pytest.fail("resume never finished")

    fresh = (tmp_path / "fresh" / "result.txt").read_bytes()
    resumed = (tmp_path / "part" / "result.txt").read_bytes()
    assert fresh == resumed
    assert b"coefficients: 1,0,0,5,0,0,13,0,0" in fresh
    assert b"wall-time" not in fresh


@pytest.mark.skip(reason="non-gating stretch target (~45 min); run "
                         "ct-euclid magic --n 5 to exercise it")
def test_criterion_stretch_magic_5x5_full_series():
    out = ehrhart_series(magic_square_system(5))
    assert out.num is not None
