import random

import pytest

from cteuclid.algebra import (
    CT,
    EXPS_ONE,
    FREE,
    ExactRing,
    exps_from_dict,
    exps_get,
)
from cteuclid.bruteforce import naive_ct
from cteuclid.engine import (
    CollisionError,
    ElliottTerm,
    Stats,
    TermSum,
    add_slack,
    bracket,
    collect_terms,
    ct_all,
    ct_var,
    make_term,
    normalize_for_var,
)

from helpers import (
    DigitOverflow,
    collapse_term,
    collapsed_series,
    engine_vs_naive,
    random_term,
    table_xy,
)
from oracles import ct_via_at_zero, ct_via_proper

RING = ExactRing()
Y1, Y2, X = (FREE, 0), (FREE, 1), (CT, 0)
YN, XN = (FREE, 0), (CT, 0)  # collapse targets


def E(**kw):
    names = {"y1": Y1, "y2": Y2, "x": X}
    return exps_from_dict({names[k]: v for k, v in kw.items()})


def T(num, den):
    return make_term(RING, {e: RING.from_int(c) for e, c in num.items()}, den)


# ---------------------------------------------------------------------------
# term canonicalization


def test_make_term_drops_zero_numerator():
    assert T({}, [E(y1=1)]) is None


def test_make_term_flips_large_factors():
    # 1/(1 - y1^-1 x) = -y1 x^-1 / (1 - y1 x^-1): unit moves to the numerator
    t = T({EXPS_ONE: 1}, [E(y1=-1, x=1)])
    assert t.den == (E(y1=1, x=-1),)
    assert t.num == {E(y1=1, x=-1): -1}


def test_make_term_rejects_unit_factor():
    with pytest.raises(CollisionError):
        T({EXPS_ONE: 1}, [EXPS_ONE])


def test_make_term_sorts_denominator():
    t = T({EXPS_ONE: 1}, [E(y2=1), E(y1=1)])
    assert t.den == (E(y1=1), E(y2=1))


# ---------------------------------------------------------------------------
# single-variable extraction, closed forms


def test_ct_var_two_factor_closed_form():
    # CT_x 1/((1-x y1)(1-y2/x)) = 1/(1-y1 y2)
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y2=1, x=-1)])
    out = ct_var(RING, t, X)
    assert len(out) == 1
    got = out[0]
    assert got.num == {EXPS_ONE: 1}
    assert got.den == (E(y1=1, y2=1),)


def test_ct_var_drops_pure_positive_powers():
    # CT_x x^k/(1-x y1) = y1^-k only for k <= 0 contributions; for the plain
    # small factor and numerator 1 the answer is 1
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1)])
    out = ct_var(RING, t, X)
    assert len(out) == 1 and out[0].num == {EXPS_ONE: 1} and out[0].den == ()
    # numerator x^2: nothing at x^0 from the forward expansion times x^2
    t = T({E(x=2): 1}, [E(y1=1, x=1)])
    assert ct_var(RING, t, X) == []
    # numerator x^-2: two rungs down the geometric ladder
    t = T({E(x=-2): 1}, [E(y1=1, x=1)])
    out = ct_var(RING, t, X)
    flat = collapse_term(RING, t, [Y1], X, YN, XN)
    want = naive_ct(RING, flat, XN, YN, 32)
    got = collapsed_series(RING, out, [Y1], X, YN, XN)
    assert got == want == {2: 1}  # CT_x x^-2/(1-xy) = y^2


def test_ct_var_passthrough_without_x():
    t = T({E(y1=1): 2, E(x=1): 5}, [E(y1=1)])
    out = ct_var(RING, t, X)
    assert len(out) == 1
    assert out[0].num == {E(y1=1): 2}
    assert out[0].den == (E(y1=1),)


def test_ct_var_detects_collisions():
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y1=1, x=1)])
    with pytest.raises(CollisionError):
        ct_var(RING, t, X)
    # proportional exponent vectors collide too
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y1=2, x=2)])
    with pytest.raises(CollisionError):
        ct_var(RING, t, X)


def test_bracket_of_absent_factor_is_zero():
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1)])
    assert bracket(RING, t, E(y2=1, x=1), X) == []
    assert bracket(RING, t, E(y1=1), X) == []  # x-free never contributes


def test_bracket_present_factor_matches_closed_form():
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y2=1, x=-1)])
    out = bracket(RING, t, E(y1=1, x=1), X)
    assert len(out) == 1 and out[0].den == (E(y1=1, y2=1),)


# ---------------------------------------------------------------------------
# randomized agreement with the graded expansion


def test_ct_var_matches_naive_expansion():
    rng = random.Random(20260817)
    tested = 0
    while tested < 120:
        m = rng.choice([1, 2, 2, 3])
        table, ys, x = table_xy(m)
        t = random_term(rng, RING, ys, x)
        if t is None:
            continue
        out = engine_vs_naive(RING, t, ys, x)
        if out is None:
            continue
        got, want = out
        assert got == want, (t.num, t.den)
        tested += 1


def test_dual_routes_agree_where_both_apply():
    rng = random.Random(99)
    tested = 0
    while tested < 120:
        m = rng.choice([1, 2])
        table, ys, x = table_xy(m)
        t = random_term(rng, RING, ys, x, x_nonneg_num=True, need_x_factor=True)
        if t is None:
            continue
        num2, den2 = normalize_for_var(RING, t, x)
        xdegs = [exps_get(e, x) for e in num2]
        asum = sum(exps_get(f, x) for f in den2)
        if not xdegs or min(xdegs) < 0 or max(xdegs) >= asum:
            continue
        try:
            s0 = collapsed_series(RING, ct_var(RING, t, x), ys, x, YN, XN)
            s1 = collapsed_series(RING, ct_via_proper(RING, t, x), ys, x, YN, XN)
            s2 = collapsed_series(RING, ct_via_at_zero(RING, t, x), ys, x, YN, XN)
            flat = collapse_term(RING, t, ys, x, YN, XN)
            want = naive_ct(RING, flat, XN, YN, 32) if flat is not None else {}
        except (CollisionError, DigitOverflow):
            continue
        assert s0 == s1 == s2 == want, (t.num, t.den)
        tested += 1


def test_ct_via_at_zero_rejects_pole():
    t = T({E(x=-1): 1}, [E(y1=1, x=1)])
    with pytest.raises(ValueError):
        ct_via_at_zero(RING, t, X)


# ---------------------------------------------------------------------------
# term collection and the driver


def test_collect_terms_cancels():
    t1 = T({E(y1=1): 1}, [E(y1=1)])
    t2 = T({E(y1=1): -1}, [E(y1=1)])
    t3 = T({EXPS_ONE: 1}, [E(y2=1)])
    out = collect_terms(RING, [t1, t2, t3])
    assert len(out) == 1
    assert out[0].num == t3.num and out[0].den == t3.den
    assert collect_terms(RING, [t1, t2]) == []


def test_collect_terms_merges_same_denominator():
    t1 = T({E(y1=1): 1}, [E(y1=1)])
    t2 = T({E(y1=2): 4}, [E(y1=1)])
    out = collect_terms(RING, [t1, t2])
    assert len(out) == 1
    assert out[0].num == {E(y1=1): 1, E(y1=2): 4}


def _two_var_table_term():
    table, ys, x = table_xy(1)
    t = make_term(
        RING,
        {EXPS_ONE: RING.one()},
        [exps_from_dict({ys[0]: 1, x: 1}), exps_from_dict({ys[0]: 1, x: 1})],
    )
    return table, ys, x, t


def test_ct_all_eager_slack_resolves_duplicate_factors():
    table, ys, x, t = _two_var_table_term()
    ts = add_slack(TermSum(table, RING, [t]))
    stats = Stats()
    done = ct_all(ts, stats=stats)
    assert stats.collisions == 0
    assert done.terms
    for r in done.terms:
        for f in r.den:
            assert exps_get(f, x) == 0
        for e in r.num:
            assert exps_get(e, x) == 0


def test_ct_all_delayed_slack_restarts_on_collision():
    table, ys, x, t = _two_var_table_term()
    stats = Stats()
    done = ct_all(TermSum(table, RING, [t]), delayed=True, stats=stats)
    assert stats.collisions >= 1
    assert stats.restarts >= 1
    assert done.terms  # produced something x-free
    for r in done.terms:
        for f in r.den:
            assert exps_get(f, x) == 0


def _random_term_two_ct(rng, ys, xs):
    den = []
    for _ in range(rng.randint(1, 3)):
        while True:
            e = {}
            for x in xs:
                a = rng.randint(-1, 1)
                if a:
                    e[x] = a
            for y in ys:
                k = rng.randint(-2, 2)
                if k and rng.random() < 0.8:
                    e[y] = k
            if any(y in e for y in ys):
                break
        den.append(exps_from_dict(e))
    return make_term(RING, {EXPS_ONE: RING.one()}, den)


def _slack_free(terms, table):
    from cteuclid.algebra import SLACK

    for t in terms:
        for f in t.den:
            if any(v[0] == SLACK for v, _ in f):
                return False
        for e in t.num:
            if any(v[0] == SLACK for v, _ in e):
                return False
    return True


def test_ct_all_order_policies_agree():
    rng = random.Random(3)
    tested = 0
    while tested < 25:
        from cteuclid.algebra import VariableTable

        table = VariableTable()
        ys = [table.add("y1", FREE), table.add("y2", FREE)]
        xs = [table.add("x1", CT), table.add("x2", CT)]
        t = _random_term_two_ct(rng, ys, xs)
        if t is None:
            continue
        try:
            a = ct_all(TermSum(table, RING, [t]), delayed=True)
            b = ct_all(TermSum(table, RING, [t]), delayed=True, order="sparse-first")
        except CollisionError:
            continue
        if not (_slack_free(a.terms, table) and _slack_free(b.terms, table)):
            continue
        try:
            sa = collapsed_series(RING, a.terms, ys, xs[0], YN, XN, ymax=24)
            sb = collapsed_series(RING, b.terms, ys, xs[0], YN, XN, ymax=24)
        except DigitOverflow:
            continue
        assert sa == sb, (t.num, t.den)
        tested += 1


def test_stats_counters_are_monotone():
    rng = random.Random(11)
    stats = Stats()
    ran = 0
    for _ in range(30):
        table, ys, x = table_xy(2)
        t = random_term(rng, RING, ys, x)
        if t is None:
            continue
        try:
            ct_all(TermSum(table, RING, [t]), delayed=True, stats=stats)
            ran += 1
        except CollisionError:
            continue
    assert ran > 0
    assert stats.collected_terms <= stats.raw_terms
    assert stats.euclid_nodes > 0
