import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cteuclid import engine
from cteuclid.algebra import (
    CT,
    EXPS_ONE,
    FREE,
    ExactRing,
    Layout,
    PrimeField,
    VariableTable,
    WidthError,
    exps_from_dict,
    exps_get,
)
from cteuclid.bruteforce import naive_ct
from cteuclid.engine import (
    CollisionError,
    Stats,
    TermSum,
    add_slack,
    ct_all,
    pack_term,
)
from cteuclid.problems import (
    DiophantineSystem,
    build_count_termsum,
    build_series_termsum,
    knapsack_system,
    magic_square_system,
)

import oracles

from helpers import (
    DigitOverflow,
    Packed,
    collapse_term,
    collapsed_series,
    engine_vs_naive,
    random_term,
    table_xy,
    traced_peak,
)
from oracles import ct_via_at_zero, ct_via_proper, make_term, poly_add_inplace

RING = ExactRing()
Y1, Y2, X = (FREE, 0), (FREE, 1), (CT, 0)
YN, XN = (FREE, 0), (CT, 0)  # collapse targets
PK = Packed(table_xy(2)[0], RING)  # y1, y2, x


def E(**kw):
    names = {"y1": Y1, "y2": Y2, "x": X}
    return exps_from_dict({names[k]: v for k, v in kw.items()})


def T(num, den):
    return PK.make_term({e: RING.from_int(c) for e, c in num.items()}, den)


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
    out = PK.ct_var(t, X)
    assert len(out) == 1
    got = out[0]
    assert got.num == {EXPS_ONE: 1}
    assert got.den == (E(y1=1, y2=1),)


def test_ct_var_drops_pure_positive_powers():
    # CT_x x^k/(1-x y1) = y1^-k only for k <= 0 contributions; for the plain
    # small factor and numerator 1 the answer is 1
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1)])
    out = PK.ct_var(t, X)
    assert len(out) == 1 and out[0].num == {EXPS_ONE: 1} and out[0].den == ()
    # numerator x^2: nothing at x^0 from the forward expansion times x^2
    t = T({E(x=2): 1}, [E(y1=1, x=1)])
    assert PK.ct_var(t, X) == []
    # numerator x^-2: two rungs down the geometric ladder
    t = T({E(x=-2): 1}, [E(y1=1, x=1)])
    out = PK.ct_var(t, X)
    flat = collapse_term(RING, t, [Y1], X, YN, XN)
    want = naive_ct(RING, flat, XN, YN, 32)
    got = collapsed_series(RING, out, [Y1], X, YN, XN)
    assert got == want == {2: 1}  # CT_x x^-2/(1-xy) = y^2


def test_ct_var_passthrough_without_x():
    t = T({E(y1=1): 2, E(x=1): 5}, [E(y1=1)])
    out = PK.ct_var(t, X)
    assert len(out) == 1
    assert out[0].num == {E(y1=1): 2}
    assert out[0].den == (E(y1=1),)


def test_ct_var_detects_collisions():
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y1=1, x=1)])
    with pytest.raises(CollisionError):
        PK.ct_var(t, X)
    # proportional exponent vectors collide too
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y1=2, x=2)])
    with pytest.raises(CollisionError):
        PK.ct_var(t, X)


def test_bracket_of_absent_factor_is_zero():
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1)])
    assert PK.bracket(t, E(y2=1, x=1), X) == []
    assert PK.bracket(t, E(y1=1), X) == []  # x-free never contributes


def test_bracket_present_factor_matches_closed_form():
    t = T({EXPS_ONE: 1}, [E(y1=1, x=1), E(y2=1, x=-1)])
    out = PK.bracket(t, E(y1=1, x=1), X)
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
        packed = Packed(table, RING)
        num2, den2 = packed.normalize_for_var(t, x)
        xdegs = [exps_get(e, x) for e in num2]
        asum = sum(exps_get(f, x) for f in den2)
        if not xdegs or min(xdegs) < 0 or max(xdegs) >= asum:
            continue
        try:
            s0 = collapsed_series(RING, packed.ct_var(t, x), ys, x, YN, XN)
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
    out = PK.collect_terms([t1, t2, t3])
    assert len(out) == 1
    assert out[0].num == t3.num and out[0].den == t3.den
    assert PK.collect_terms([t1, t2]) == []


def test_collect_terms_merges_same_denominator():
    t1 = T({E(y1=1): 1}, [E(y1=1)])
    t2 = T({E(y1=2): 4}, [E(y1=1)])
    out = PK.collect_terms([t1, t2])
    assert len(out) == 1
    assert out[0].num == {E(y1=1): 1, E(y1=2): 4}


def test_ct_all_merges_a_packed_sum_without_x():
    """Terms ct_all did not collect are collected even when no Euclid node is made."""
    t1 = T({E(y1=1): 1}, [E(y2=1)])
    t2 = T({E(y1=2): 4, E(y1=1, x=1): 1}, [E(y2=1)])
    got = ct_all(TermSum.pack(PK.table, RING, [t1, t2]), ct_vids=[X]).unpacked()
    assert [(t.num, t.den) for t in got] == [({E(y1=1): 1, E(y1=2): 4}, (E(y2=1),))]


def test_dependent_round_passes_through(monkeypatch):
    """Magic-4's round 8, the last column sum, makes no Euclid node and is not collected."""
    table = VariableTable()
    start = build_series_termsum(magic_square_system(4), table, RING)
    vids = table.vids_of_rank(CT)
    ts = start
    for v in vids[:7]:
        ts = ct_all(ts, ct_vids=[v])
    # the run's raw-terms counter whenever collect_terms orders a round
    seen = []
    collect = engine.collect_terms

    def counted(layout, buckets):
        seen.append(watched.raw_terms)
        return collect(layout, buckets)

    monkeypatch.setattr(engine, "collect_terms", counted)
    mine = watched = Stats()
    got = ct_all(ts, ct_vids=[vids[7]], stats=mine)
    assert seen == []
    assert (mine.raw_terms, mine.collected_terms, mine.euclid_nodes) == (140, 140, 0)
    ref = Stats()
    _same_terms(got.unpacked(), oracles.ct_all(table, RING, ts.unpacked(), ct_vids=[vids[7]],
                                               stats=ref))
    assert mine.as_dict() == ref.as_dict()

    # the same round inside one call over rounds 1-8
    whole_stats, ref = Stats(), Stats()
    watched = whole_stats
    whole = ct_all(start, ct_vids=vids[:8], stats=whole_stats)
    calls = [b - a for a, b in zip([0] + seen, seen)]  # raw terms of each ordered round
    assert calls == [1, 4, 16, 64, 81, 96, 256]
    _same_terms(got.unpacked(), whole.unpacked())
    assert got.layout.bound == whole.layout.bound
    oracles.ct_all(table, RING, start.unpacked(), ct_vids=vids[:8], stats=ref)
    assert whole_stats.as_dict() == ref.as_dict()


def test_pass_through_round_hands_on_the_stored_terms():
    """A round with no Euclid node keeps a term with no x as the same object."""
    table = _table(2, 0, 2)

    def mono(d):
        return exps_from_dict({table.vid_of(k): e for k, e in d.items()})

    plain = oracles.make_term(RING, {mono({"y1": 1}): 2}, [mono({"y2": 1})])
    mixed = oracles.make_term(RING, {mono({"y1": 2}): 4, mono({"y1": 1, "x2": 1}): 1},
                              [mono({"y1": 1, "y2": -1})])
    first = ct_all(TermSum.pack(table, RING, [plain, mixed]), ct_vids=[table.vid_of("x1")])
    stats = Stats()
    second = ct_all(first, ct_vids=[table.vid_of("x2")], stats=stats)
    assert second.layout is first.layout
    # the terms keep their order: plain's denominator is the smaller int
    assert [t is u for t, u in zip(second.terms, first.terms)] == [True, False]
    assert (stats.raw_terms, stats.collected_terms, stats.euclid_nodes) == (2, 2, 0)
    _same_terms(second.unpacked(),
                [oracles.make_term(RING, {mono({"y1": 2}): 4}, mixed.den), plain])


def test_sink_drops_a_cancelled_bucket_and_reopens_it():
    layout, (a, b, c, d) = PK._pack([
        T({E(y1=1): 1}, [E(y1=1)]),
        T({E(y1=1): -1}, [E(y1=1)]),
        T({E(y1=2): 3}, [E(y1=1)]),
        T({EXPS_ONE: 1}, [E(y2=1)]),
    ])
    sink = engine.TermSink(RING)
    for t in (a, d, b):
        sink.add(t)
    assert sink.made == 3
    assert list(sink.buckets.values()) == [d]
    sink.add(c)
    assert sink.made == 4
    assert sink.buckets[c.den] is c
    assert engine.collect_terms(layout, sink.buckets) == sorted([c, d], key=lambda t: t.den)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(-2, 2), st.integers(-2, 2).filter(bool),
                                min_size=1, max_size=3), min_size=1, max_size=6))
def test_sink_sums_numerators_as_dicts_do(nums):
    """Merging packed numerators over one denominator gives the dict sum, in dict order."""
    terms = [T({E(y1=k): c for k, c in num.items()}, [E(y2=1)]) for num in nums]
    layout, packed = PK._pack(terms)
    sink = engine.TermSink(RING)
    want = {}
    for t, p in zip(terms, packed):
        sink.add(p)
        poly_add_inplace(RING, want, t.num)
    got = [engine.unpack_term(layout.unpack, t) for t in sink.buckets.values()]
    assert [list(t.num.items()) for t in got] == ([list(want.items())] if want else [])
    assert sink.made == len(terms)


def test_ct_all_eager_slack_resolves_duplicate_factors():
    table, ys, x = table_xy(1)
    t = make_term(
        RING,
        {EXPS_ONE: RING.one()},
        [exps_from_dict({ys[0]: 1, x: 1}), exps_from_dict({ys[0]: 1, x: 1})],
    )
    ts = add_slack(TermSum.pack(table, RING, [t]))
    stats = Stats()
    done = ct_all(ts, stats=stats)
    assert stats.collisions == 0
    assert done.terms
    for r in done.unpacked():
        for f in r.den:
            assert exps_get(f, x) == 0
        for e in r.num:
            assert exps_get(e, x) == 0


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


def test_ct_all_order_policies_agree():
    rng = random.Random(3)
    tested = 0
    while tested < 25:
        table = VariableTable()
        ys = [table.add("y1", FREE), table.add("y2", FREE)]
        xs = [table.add("x1", CT), table.add("x2", CT)]
        t = _random_term_two_ct(rng, ys, xs)
        if t is None:
            continue
        try:
            a = ct_all(TermSum.pack(table, RING, [t])).unpacked()
            b = ct_all(TermSum.pack(table, RING, [t]), order="sparse-first").unpacked()
        except CollisionError:
            continue
        try:
            sa = collapsed_series(RING, a, ys, xs[0], YN, XN, ymax=24)
            sb = collapsed_series(RING, b, ys, xs[0], YN, XN, ymax=24)
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
            ct_all(TermSum.pack(table, RING, [t]), stats=stats)
            ran += 1
        except CollisionError:
            continue
    assert ran > 0
    assert stats.collected_terms <= stats.raw_terms
    assert stats.euclid_nodes > 0


# ---------------------------------------------------------------------------
# the packed engine against the tuple-form reference


def _table(nfree, nslack, nct):
    table = VariableTable()
    for j in range(nfree):
        table.add(f"y{j + 1}", FREE)
    for _ in range(nslack):
        table.fresh_slack()
    for j in range(nct):
        table.add(f"x{j + 1}", CT)
    return table


@st.composite
def reference_cases(draw, max_terms=1):
    """(table, ring, 1 to max_terms tuple-form terms) over a few variables of every role.

    The terms are None when making one of them collides.
    """
    nfree, nslack, nct = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    table = _table(nfree, nslack, nct)
    vids = [v for v, _ in table.ordered()]
    ring = draw(st.sampled_from([ExactRing(), PrimeField(101)]))
    exps = st.dictionaries(st.sampled_from(vids), st.integers(-3, 3), max_size=4).map(exps_from_dict)
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        factors = draw(st.lists(exps.filter(bool), min_size=1, max_size=4))
        num = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        num = {e: ring.from_int(c) for e, c in num.items()}
        try:
            terms.append(oracles.make_term(ring, num, factors))
        except CollisionError:
            return table, ring, None
    return table, ring, terms


def _same_terms(got, want):
    assert [(t.num, t.den) for t in got] == [(t.num, t.den) for t in want]


def _term_key(t):
    return t.den, sorted(t.num.items())


@settings(max_examples=200, deadline=None)
@given(reference_cases())
def test_ct_var_matches_tuple_reference(case):
    table, ring, terms = case
    assume(terms is not None)
    (t,) = terms
    for x in table.vids_of_rank(CT):
        mine, ref = Stats(), Stats()
        try:
            want = oracles.ct_var(ring, t, x, ref)
        except CollisionError:
            with pytest.raises(CollisionError):
                Packed(table, ring).ct_var(t, x, mine)
            continue
        # ct_var's raw terms follow the int order of the factors, which no
        # result shows: ct_all merges them into buckets
        got = Packed(table, ring).ct_var(t, x, mine)
        _same_terms(sorted(got, key=_term_key), sorted(want, key=_term_key))
        assert mine.as_dict() == ref.as_dict()


def _narrow_sum(table, ring, terms, power=1):
    """The terms packed under a layout whose reach is their exponent bound to the power."""
    top = max(abs(e) for t in terms for m in (*t.num, *t.den) for _, e in m)
    bound = 1 << (top - 1).bit_length()
    narrow = Layout(table, bound, reach=bound**power)
    return TermSum(narrow, ring, [pack_term(narrow, t) for t in terms])


@settings(max_examples=200, deadline=None)
@given(reference_cases(max_terms=3), st.sampled_from(["given", "sparse-first"]),
       st.sampled_from([None, None, 1, 2]))
def test_ct_all_matches_tuple_reference(case, order, power):
    """Rounds of 1-3 terms, packed as usual or so narrowly that a round may be redone.

    A reach of the bound fails every round's first coprimality check; a
    reach of its square passes that check and may fail below a Euclid node.
    """
    table, ring, terms = case
    assume(terms is not None)
    if power is None:
        ts = TermSum.pack(table, ring, terms)
    else:
        ts = _narrow_sum(table, ring, terms, power)
    mine, ref = Stats(), Stats()
    try:
        want = oracles.ct_all(table, ring, terms, order=order, stats=ref)
    except CollisionError:
        with pytest.raises(CollisionError):
            ct_all(ts, order=order, stats=mine)
        assert mine.as_dict() == ref.as_dict()
        return
    got = ct_all(ts, order=order, stats=mine)
    _same_terms(got.unpacked(), want)
    assert mine.as_dict() == ref.as_dict()


@st.composite
def one_equation_cases(draw):
    """(table, ring, starting terms) of w . x = b, a count or its dilation series.

    Weights up to 60 in absolute value make pivots far above the exponents
    of reference_cases, so a bracket recurses through several Euclid nodes
    and the symmetric splits flip factors below the first level.
    """
    weights = draw(st.lists(st.integers(-60, 60).filter(bool), min_size=2, max_size=4))
    rhs = draw(st.integers(-100, 100))
    build = draw(st.sampled_from([build_count_termsum, build_series_termsum]))
    ring = draw(st.sampled_from([ExactRing(), PrimeField(101)]))
    table = VariableTable()
    ts = build(DiophantineSystem([weights], [rhs]), table, ring)
    return table, ring, ts.unpacked()


@settings(max_examples=200, deadline=None)
@given(one_equation_cases(), st.sampled_from([None, 1, 2]))
def test_deep_euclid_recursions_match_tuple_reference(case, power):
    """Deep recursions, packed as usual or narrowly, give the oracle's terms and counters."""
    table, ring, terms = case
    if power is None:
        ts = TermSum.pack(table, ring, terms)
    else:
        ts = _narrow_sum(table, ring, terms, power)
    mine, ref = Stats(), Stats()
    want = oracles.ct_all(table, ring, terms, stats=ref)
    got = ct_all(ts, stats=mine)
    _same_terms(got.unpacked(), want)
    assert mine.as_dict() == ref.as_dict()


def test_unpacked_orders_by_tuple_denominator():
    table = VariableTable()
    done = ct_all(build_series_termsum(magic_square_system(3), table, RING))
    # inside stage A factors and denominators sort as ints, which differs
    # from the tuple order here
    inside = [tuple(map(done.layout.unpack, t.den)) for t in done.terms]
    assert inside != sorted(inside)
    assert any(den != tuple(sorted(den)) for den in inside)
    dens = [t.den for t in done.unpacked()]
    assert dens == sorted(dens)
    assert all(den == tuple(sorted(den)) for den in dens)
    assert sorted(dens) == sorted(tuple(sorted(den)) for den in inside)


def test_coprimality_check_needs_room_for_cross_multiples():
    """f*b == g*a is tested only where those products cannot wrap."""
    table = _table(2, 0, 1)

    def mono(d):
        return exps_from_dict({table.vid_of(k): e for k, e in d.items()})

    # y1*y2^-64*x1 and y1^3*x1^4 are not proportional, but in 8-bit digits
    # 4*(1, -64, 1) = (4, -256, 4) carries into (3, 0, 4) = 1*(3, 0, 4)
    f, g = mono({"y1": 1, "y2": -64, "x1": 1}), mono({"y1": 3, "x1": 4})
    t = oracles.make_term(RING, {EXPS_ONE: 1}, [f, g])
    narrow = Layout(table, 64, reach=64)
    assert narrow.width == 8
    p = pack_term(narrow, t)
    xs = [narrow.get(m, table.vid_of("x1")) for m in p.den]
    assert sorted(xs) == [1, 4]
    assert narrow.pack(f) * 4 == narrow.pack(g)
    with pytest.raises(WidthError):
        engine._check_pairwise_coprime(p.den, xs, narrow)
    mine, ref = Stats(), Stats()
    got = ct_all(TermSum(narrow, RING, [p]), stats=mine)
    assert got.layout.width > narrow.width
    _same_terms(got.unpacked(), oracles.ct_all(table, RING, [t], stats=ref))
    assert mine.as_dict() == ref.as_dict()
    assert mine.collisions == 0


# (numerator monomial, factors) over y1, y2, x1 whose values outgrow a layout
# as wide as their own exponents: the first within a linear step, the
# second below a Euclid node that must not be counted twice
NARROW_CASES = [
    ({"y1": 1, "x1": 17}, [{"y1": -4, "y2": 3}, {"y1": -5, "y2": 6, "x1": -17},
                          {"y1": -5, "y2": 2, "x1": 14}]),
    ({"y1": 1, "x1": -19}, [{"y1": -2, "y2": 1, "x1": -15}, {"y2": 5, "x1": 4},
                           {"y2": 2, "x1": 8}]),
]


@pytest.mark.parametrize("num, factors", NARROW_CASES)
def test_ct_all_widens_a_narrow_layout(num, factors):
    """Terms that outgrow their layout move to a wider one; nothing wraps."""
    table = _table(2, 0, 1)

    def mono(d):
        return exps_from_dict({table.vid_of(k): e for k, e in d.items()})

    t = oracles.make_term(RING, {mono(num): 1}, [mono(f) for f in factors])
    bound = max(abs(e) for m in (*t.num, *t.den) for _, e in m)
    narrow = Layout(table, bound, reach=bound)
    mine, ref = Stats(), Stats()
    got = ct_all(TermSum(narrow, RING, [pack_term(narrow, t)]), stats=mine)
    assert got.layout.width > narrow.width
    _same_terms(got.unpacked(), oracles.ct_all(table, RING, [t], stats=ref))
    assert mine.as_dict() == ref.as_dict()


# One Euclid node per a-priori check, on a layout of reach 64 (8-bit
# digits) with kd = 16: (numerator monomials, [(factor, x-exponent)], pivot,
# kn, the reach the node must ask for).  Exponents are over y1, y2, x1.
NODE_WIDTH_CASES = {
    # the factor y1^16 x1^16 takes l = 8 steps of the pivot y1^-16 x1^2, so
    # its y1 digit reaches 16 + 8*16 = 144, past the digits; kd1 = 16*(1 + 8)
    "kd1-largest-step": ([{"y2": 1}], [({"y1": -16, "x1": 2}, 2), ({"y1": 16, "x1": 16}, 16)],
                         0, 16, 16 * 9),
    # x1^2 splits as x1^(3 - 1) modulo the pivot x1^3 and flips: its unit
    # joins the numerator, kn1 = 40 + 1*(2*16) = 72; kn2 would be 88
    "kn1-flip": ([{"y2": 1, "x1": 2}], [({"y1": 1, "x1": 3}, 3), ({"y2": 1, "x1": 2}, 2)],
                 0, 40, 72),
    # no flip, but the numerator's x1^10 takes 5 steps of the pivot x1^2:
    # kn2 = 16 + 5*16 = 96, for a numerator of one monomial and of two
    "kn2-numerator-steps": ([{"y2": 1, "x1": 10}], [({"y1": 1, "x1": 2}, 2), ({"y2": 1}, 0)],
                            0, 16, 96),
    "kn2-numerator-steps-two-monomials": ([{"y2": 1, "x1": 10}, {"y1": 1}],
                                          [({"y1": 1, "x1": 2}, 2), ({"y2": 1}, 0)], 0, 16, 96),
}


@pytest.mark.parametrize("name", sorted(NODE_WIDTH_CASES))
def test_euclid_node_asks_for_the_reach_of_its_failing_check(name):
    """Each a-priori bound of a Euclid node is checked, in its order, before its values are used.

    kd1 counts the largest step of a reduction, kn1 the units that flips
    push into the numerator, kn2 the steps of the numerator; a node whose
    bound passes the reach raises WidthError asking for that bound, and
    emits nothing.
    """
    num, factors, pivot, kn, need = NODE_WIDTH_CASES[name]
    table = _table(2, 0, 1)
    layout = Layout(table, 16, reach=64)
    assert layout.width == 8

    def packed(d):
        return layout.pack(exps_from_dict({table.vid_of(k): e for k, e in d.items()}))

    den = [packed(f) for f, _ in factors]
    xs = [x for _, x in factors]
    emitted = []
    with pytest.raises(WidthError) as exc:
        engine.euclid_contribution(RING, tuple(v for m in num for v in (packed(m), 1)), den, xs,
                                   pivot, table.vid_of("x1"), layout, 16, kn, emitted.append)
    assert exc.value.need == need
    assert emitted == []


# per-round [raw, collected] terms and Euclid nodes of magic-5 rounds 1-8
MAGIC5_ROUNDS = [[1, 1], [5, 5], [25, 25], [125, 125], [625, 625], [1024, 1024],
                 [1620, 1620], [6360, 3680]]
MAGIC5_NODES = [1, 5, 25, 125, 625, 1024, 1620, 6520]


def test_magic5_rounds_one_call_each():
    table = VariableTable()
    ts = build_series_termsum(magic_square_system(5), table, RING)
    counts, nodes = [], []
    for v in table.vids_of_rank(CT)[:8]:
        stats = Stats()
        ts = ct_all(ts, ct_vids=[v], stats=stats)
        counts.append([stats.raw_terms, stats.collected_terms])
        nodes.append(stats.euclid_nodes)
    assert counts == MAGIC5_ROUNDS
    assert nodes == MAGIC5_NODES
    assert len(ts) == 3680


# ---------------------------------------------------------------------------
# what a round holds: one int per distinct factor, and no raw terms


def _one_object_per_factor(ts):
    factors = [f for t in ts.terms for f in t.den]
    return len({id(f) for f in factors}) == len(set(factors))


def test_stored_factors_are_shared():
    table = VariableTable()
    start = build_series_termsum(magic_square_system(4), table, RING)
    vids = table.vids_of_rank(CT)
    done = ct_all(start)
    assert _one_object_per_factor(done)
    assert _one_object_per_factor(TermSum.pack(table, RING, done.unpacked()))

    # rounds 1-6 repacked as narrowly as their exponents allow: round 7
    # outgrows the layout and moves to a wider one
    head = ct_all(start, ct_vids=vids[:6])
    plain = head.unpacked()
    narrow = Layout(table, head.layout.bound, reach=head.layout.bound)
    packed = TermSum(narrow, RING, [pack_term(narrow, t) for t in plain])
    assert _one_object_per_factor(packed)
    got = ct_all(packed, ct_vids=[vids[6]])
    assert got.layout.width > narrow.width
    assert _one_object_per_factor(got)
    _same_terms(got.unpacked(), ct_all(head, ct_vids=[vids[6]]).unpacked())


def _free_terms(mono):
    """Three terms over one x-free denominator, which a round merges into one."""
    den = [mono({"y1": 2, "y2": -1}), mono({"y2": 3})]
    return [oracles.make_term(RING, num, den) for num in (
        {mono({"y1": 1}): 2, mono({"y2": 1, "x1": 1}): 5},
        {mono({"y1": 1}): -2, mono({"y1": 3}): 1},
        {mono({"y1": 3}): 4, mono({"y2": -2}): 1},
    )]


def test_mid_round_widening_keeps_merged_terms():
    """A later term outgrows the layout after earlier ones merged: the round is redone wider."""
    table = _table(2, 0, 1)

    def mono(d):
        return exps_from_dict({table.vid_of(k): e for k, e in d.items()})

    a, b, c = _free_terms(mono)
    wide = oracles.make_term(RING, {mono(NARROW_CASES[0][0]): 1},
                             [mono(f) for f in NARROW_CASES[0][1]])
    terms = [a, b, wide, c]
    bound = max(abs(e) for t in terms for m in (*t.num, *t.den) for _, e in m)
    narrow = Layout(table, bound, reach=bound)
    mine, ref = Stats(), Stats()
    got = ct_all(TermSum(narrow, RING, [pack_term(narrow, t) for t in terms]), stats=mine)
    assert got.layout.width > narrow.width
    _same_terms(got.unpacked(), oracles.ct_all(table, RING, terms, stats=ref))
    assert mine.as_dict() == ref.as_dict()
    assert (mine.raw_terms, mine.collected_terms) == (4, 2)
    assert _one_object_per_factor(got)


@pytest.mark.parametrize("colliding_first", [False, True])
def test_round_that_collides_counts_nothing(colliding_first):
    """A round that raises counts none of its raw terms or Euclid nodes, whatever its order."""
    table = _table(2, 0, 1)

    def mono(d):
        return exps_from_dict({table.vid_of(k): e for k, e in d.items()})

    euclid = oracles.make_term(RING, {(): 1}, [mono({"y1": 1, "x1": 1}),
                                              mono({"y2": 1, "x1": -2})])
    colliding = oracles.make_term(RING, {(): 1}, [mono({"y1": 1, "x1": 1})] * 2)
    terms = [colliding, euclid] if colliding_first else [euclid, colliding]
    mine, ref = Stats(), Stats()
    with pytest.raises(CollisionError):
        ct_all(TermSum.pack(table, RING, terms), stats=mine)
    with pytest.raises(CollisionError):
        oracles.ct_all(table, RING, terms, stats=ref)
    assert mine.as_dict() == ref.as_dict()
    assert (mine.raw_terms, mine.euclid_nodes, mine.collisions) == (0, 0, 1)


def test_width_error_after_emitting_merges_nothing(monkeypatch):
    """A round whose term outgrows its layout after making terms is redone from nothing.

    Under this layout the round's one term makes one term below a Euclid
    node, then needs more than the layout's reach: the round's sink is
    dropped, and neither that term nor those Euclid nodes count.
    """
    table = _table(2, 0, 1)

    def mono(d):
        return exps_from_dict({table.vid_of(k): e for k, e in d.items()})

    t = oracles.make_term(RING, {mono({"y1": 1, "y2": 11, "x1": -2}): 1},
                          [mono({"y1": 2}), mono({"y1": 5, "y2": -1, "x1": 3}),
                           mono({"y2": 5, "x1": 2})])
    made_before_error = []
    ct_var = engine.ct_var

    def spy(ring, t, xvid, layout, emit, stats=None):
        try:
            return ct_var(ring, t, xvid, layout, emit, stats)
        except WidthError:
            made_before_error.append(emit.__self__.made)
            raise

    monkeypatch.setattr(engine, "ct_var", spy)
    narrow = Layout(table, 11, reach=352)
    mine, ref = Stats(), Stats()
    got = ct_all(TermSum(narrow, RING, [pack_term(narrow, t)]), stats=mine)
    assert made_before_error == [1]
    assert got.layout.width > narrow.width
    _same_terms(got.unpacked(), oracles.ct_all(table, RING, [t], stats=ref))
    assert mine.as_dict() == ref.as_dict()
    assert (mine.raw_terms, mine.collected_terms, mine.euclid_nodes) == (2, 1, 4)


# the four reference knapsacks of the README and the acceptance tests
NAMED_KNAPSACKS = [(41, [1, 5, 14]), (149389505, [12223, 12224, 36671]),
                   (89643481, [12223, 12224, 36674, 61119, 85569]),
                   (89733124481, [12223, 12224, 36674, 61119, 85569])]


def test_stage_a_redoes_no_round(monkeypatch):
    """Magic-4's stage A and the named knapsacks never outgrow a layout.

    A round that does is redone whole, which costs nothing only while no
    workload takes that path.
    """
    calls, width_errors = [], []
    ct_var = engine.ct_var

    def spy(ring, t, xvid, layout, emit, stats=None):
        calls.append(xvid)
        try:
            return ct_var(ring, t, xvid, layout, emit, stats)
        except WidthError:
            width_errors.append(xvid)
            raise

    monkeypatch.setattr(engine, "ct_var", spy)
    ct_all(build_series_termsum(magic_square_system(4), VariableTable(), RING))
    for a0, weights in NAMED_KNAPSACKS:
        ct_all(build_count_termsum(knapsack_system(a0, weights), VariableTable(), RING))
    assert len(calls) == 899
    assert width_errors == []


def test_knapsack_input_term_holds_no_raw_terms():
    """The knapsack pool's instance with the most Euclid nodes traces 1.67 MB at peak.

    One input term is the whole round here.  When ct_var returned that
    term's 9,686 raw terms as one list, ct_all traced 4.43 MB; merged as
    they are made, they never exist side by side.
    """
    table = VariableTable()
    ts = build_count_termsum(knapsack_system(9605029289, [27853, 8897, 21816, 12574]),
                             table, RING)
    stats = Stats()
    done, peak = traced_peak(ct_all, ts, stats=stats)
    assert (stats.raw_terms, len(done), stats.euclid_nodes) == (9686, 1625, 17430)
    assert peak < 2_500_000


def test_magic5_round_peaks_stay_small():
    """The largest traced peak of magic-5 rounds 1-10, one ct_all each, is at most 13 MB.

    Round 9 peaks highest: 11.7 MB with packed numerators in flat tuples,
    cancelled buckets dropped and no monomial list in the layout bound,
    against 15.6 MB with a dict per numerator.
    """
    peaks, counts = [], []

    def rounds():
        table = VariableTable()
        ts = build_series_termsum(magic_square_system(5), table, RING)
        for v in table.vids_of_rank(CT)[:10]:
            stats = Stats()
            # traced from the first round on, each round's peak counts the
            # terms it starts from
            ts, peak = traced_peak(ct_all, ts, ct_vids=[v], stats=stats)
            peaks.append(peak)
            counts.append([stats.raw_terms, stats.collected_terms])

    traced_peak(rounds)
    assert counts == MAGIC5_ROUNDS + [[22200, 12600], [12600, 12600]]
    assert max(peaks) <= 13_000_000


def test_magic5_rounds_hold_no_raw_terms():
    """Rounds 1-8 trace about 9 MB at peak; keeping every raw term and factor int took 22 MB."""
    def rounds():
        table = VariableTable()
        ts = build_series_termsum(magic_square_system(5), table, RING)
        return ct_all(ts, ct_vids=table.vids_of_rank(CT)[:8])

    ts, peak = traced_peak(rounds)
    assert len(ts) == 3680
    assert peak < 15_000_000
