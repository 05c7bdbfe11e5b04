import gc
import sys
import weakref

import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

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
    WidthError,
    add_into,
    exps_from_dict,
    exps_get,
    srem_split,
)
from cteuclid.elimination import DEFAULT_PRIMES

from oracles import (
    LARGE,
    ONE,
    SMALL,
    RationalRing,
    compare_to_one,
    exps_content_primitive,
    exps_inv,
    exps_mul,
    exps_pow,
    exps_without,
    poly_add_inplace,
    poly_mul_monomial,
    poly_rem,
    rem_monomial,
    rem_split,
    substitute,
)


# ---------------------------------------------------------------------------
# rings


def test_exact_ring_basic():
    r = ExactRing()
    assert r.add(r.from_int(2), r.from_int(3)) == 5
    assert r.mul(r.from_int(-4), r.from_int(6)) == -24
    assert r.is_zero(r.sub(r.one(), r.one()))
    assert r.pow_int(r.from_int(2), 10) == 1024
    assert r.modulus is None
    # stage A never divides and stage B runs modulo primes, so the integers
    # keep no division; the rationals of the stage-B oracles have it
    assert not any(hasattr(r, name) for name in ("div", "inv", "from_fraction", "scale"))
    q = RationalRing()
    assert q.div(q.from_int(3), q.from_int(4)) == Fraction(3, 4)
    assert q.from_fraction(Fraction(8, 2)) == 4
    assert q.inv(q.from_int(5)) == Fraction(1, 5)
    assert q.pow_int(q.from_int(2), -3) == Fraction(1, 8)


def test_prime_field_basic():
    p = 636286597
    r = PrimeField(p)
    assert r.add(p - 1, 2) == 1
    assert r.mul(r.from_int(-1), r.from_int(-1)) == 1
    assert r.mul(r.inv(r.from_int(17)), r.from_int(17)) == 1
    assert r.from_fraction(Fraction(1, 2)) == (p + 1) // 2
    assert r.modulus == p


def test_prime_field_rejects_composites():
    with pytest.raises(InputError):
        PrimeField(10)
    with pytest.raises(InputError):
        PrimeField(2)
    with pytest.raises(InputError):
        PrimeField(561)  # Carmichael
    with pytest.raises(InputError, match="not an odd prime"):
        PrimeField(318665857834031151167461)  # strong pseudoprime to bases 2 to 37
    with pytest.raises(InputError, match="cannot be certified prime"):
        PrimeField(3317044064679887385961981)  # ... and to 41 as well


P1, P2 = 1152921504606847009, 2305843009213693951


def test_product_ring_reduces_to_each_prime():
    ring = PrimeField((7, P1))
    assert ring.primes == (7, P1) and ring.modulus == 7 * P1
    assert PrimeField(P1).primes == (P1,)
    x = ring.mul(ring.from_fraction(Fraction(-5, 3)), ring.inv(ring.from_int(11)))
    for p in ring.primes:
        assert x % p == PrimeField(p).from_fraction(Fraction(-5, 33))
    assert ring.pow_int(ring.from_int(2), -3) == ring.from_fraction(Fraction(1, 8))


@pytest.mark.parametrize("primes", [(3, P1), (P1, 3), (5, 3)])
def test_product_ring_refuses_a_multiple_of_one_prime(primes):
    # every inversion names the first prime that divides the denominator,
    # with the words of a one-prime field; no ValueError leaks from pow
    ring = PrimeField(primes)
    message = "modulus 3 divides the denominator 12; use a larger prime"
    for call in (
        lambda: ring.from_fraction(Fraction(1, 12)),
        lambda: ring.inv(12),
        lambda: ring.div(1, 12),
        lambda: ring.pow_int(12, -1),
    ):
        with pytest.raises(InputError) as excinfo:
            call()
        assert type(excinfo.value) is InputError
        assert str(excinfo.value) == message
    with pytest.raises(InputError, match="modulus 3 divides the denominator 12;"):
        PrimeField(3).inv(12)


def test_product_ring_refuses_zero_and_repeated_or_composite_primes():
    with pytest.raises(InputError, match=f"modulus {P1} divides the denominator 0;"):
        PrimeField((P1, P2)).inv(0)
    with pytest.raises(InputError, match="pairwise distinct"):
        PrimeField((P1, P1))
    with pytest.raises(InputError, match="modulus 9 is not an odd prime"):
        PrimeField((P1, 9))
    with pytest.raises(InputError):
        PrimeField(())


@given(st.integers(min_value=3, max_value=10**6))
def test_prime_field_constructor_matches_trial_division(n):
    is_prime = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
    try:
        PrimeField(n)
        accepted = True
    except InputError:
        accepted = False
    assert accepted == (is_prime and n != 2)


# ---------------------------------------------------------------------------
# variable table


def test_variable_table_roles_and_order():
    t = VariableTable()
    y = t.add("y", FREE)
    x = t.add("x", CT)
    z = t.fresh_slack()
    assert y[0] == FREE and x[0] == CT and z[0] == SLACK
    assert t.name_of(z) == "z1"
    assert t.vid_of("x") == x
    assert "y" in t and "nope" not in t
    names = [name for _, name in t.ordered()]
    assert names == ["y", "z1", "x"]  # free, then slack, then ct
    assert t.vids_of_rank(CT) == [x]
    assert len(t) == 3
    # free < slack < ct in the series ordering
    assert y < z < x


def test_variable_table_rejects_duplicates():
    t = VariableTable()
    t.add("y", FREE)
    with pytest.raises(InputError):
        t.add("y", CT)


# ---------------------------------------------------------------------------
# exponent vectors

Y1, Y2, X = (FREE, 0), (FREE, 1), (CT, 0)


def E(**kw):
    names = {"y1": Y1, "y2": Y2, "x": X}
    return exps_from_dict({names[k]: v for k, v in kw.items()})


def test_exps_ops():
    a = E(y1=2, x=-1)
    b = E(y1=-2, y2=3)
    assert exps_mul(a, b) == E(y2=3, x=-1)
    assert exps_pow(a, 3) == E(y1=6, x=-3)
    assert exps_pow(a, 0) == EXPS_ONE
    assert exps_inv(a) == E(y1=-2, x=1)
    assert exps_get(a, X) == -1 and exps_get(a, Y2) == 0
    assert exps_without(a, X) == E(y1=2)


def test_compare_to_one():
    assert compare_to_one(E(y1=1, x=-5)) is SMALL
    assert compare_to_one(E(y1=-1, y2=9, x=9)) is LARGE
    assert compare_to_one(E(x=2)) is SMALL
    assert compare_to_one(E(x=-2)) is LARGE
    assert compare_to_one(EXPS_ONE) is ONE


def test_exps_content_primitive():
    assert exps_content_primitive(E(y1=4, x=-6)) == E(y1=2, x=-3)
    assert exps_content_primitive(E(y1=-4, x=-6)) == E(y1=-2, x=-3)
    assert exps_content_primitive(E(y1=3, x=-5)) == E(y1=3, x=-5)


exp_ints = st.integers(min_value=-30, max_value=30)


@given(exp_ints, exp_ints, exp_ints)
def test_exps_mul_is_componentwise_addition(a, b, c):
    e1, e2 = E(y1=a, x=b), E(y1=c, x=-b)
    prod = exps_mul(e1, e2)
    assert exps_get(prod, Y1) == a + c
    assert exps_get(prod, X) == 0


# ---------------------------------------------------------------------------
# remainder maps


@given(st.integers(min_value=-200, max_value=200), st.integers(min_value=1, max_value=17))
def test_rem_split_invariants(e, a):
    l, r = rem_split(e, a)
    assert e == l * a + r and 0 <= r < a
    l, r = srem_split(e, a)
    assert e == l * a + r and -a < 2 * r <= a


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=-3, max_value=3),
)
def test_rem_monomial_congruence(e, a, uy):
    """rem substitutes x^a -> u^-1; evaluating u = x^a must undo it."""
    u = E(y1=uy)
    m = E(y1=1, x=e) if e else E(y1=1)
    mapped = rem_monomial(m, u, a, X)
    # undo: replace u-power change by the x-power it stands for
    dy = exps_get(mapped, Y1) - 1
    dx = exps_get(mapped, X)
    # dy extra y-exponent means dy/uy factors of u were paid (if uy != 0)
    if uy:
        assert dy % uy == 0
        paid = dy // uy
        assert dx - paid * a == e
    else:
        assert dx == e or (dx - e) % a == 0
    assert 0 <= dx < a
    # the symmetric window that euclid_contribution uses
    _, sr = srem_split(e, a)
    assert -a < 2 * sr <= a


# ---------------------------------------------------------------------------
# Laurent polynomials


def P(ring, *monos):
    out = {}
    for c, e in monos:
        out[e] = ring.add(out.get(e, ring.zero()), ring.from_int(c))
    return {e: c for e, c in out.items() if not ring.is_zero(c)}


def test_poly_ops():
    r = ExactRing()
    p = P(r, (2, E(y1=1)), (1, EXPS_ONE))
    q = dict(p)
    for e, c in p.items():
        add_into(r.reduce, q, e, -c)
    assert q == {}
    shifted = poly_mul_monomial(r, p, r.from_int(3), E(x=1))
    assert shifted == P(r, (6, E(y1=1, x=1)), (3, E(x=1)))


ADD_RINGS = [ExactRing(), RationalRing(), PrimeField(11), PrimeField(DEFAULT_PRIMES)]


@pytest.mark.parametrize("ring", ADD_RINGS, ids=["int", "fraction", "mod11", "mod-default-primes"])
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-12, 12), st.sampled_from([1, 2, 3])),
                max_size=16))
@example([(0, 1, 1), (1, 5, 1), (0, -1, 1), (0, 2, 1)])  # a key cancels and comes back last
@example([(2, 11, 1), (2, 3, 2), (2, -3, 2)])  # 11 vanishes mod 11
def test_add_into_matches_poly_add_inplace(ring, adds):
    """add_into, one key at a time, gives the dict of poly_add_inplace, in its key order."""
    got, want = {}, {}
    for key, n, d in adds:
        if isinstance(ring, RationalRing):
            c = ring.from_fraction(Fraction(n, d))
        else:
            c = ring.from_int(n)
        add_into(ring.reduce, got, key, c)
        poly_add_inplace(ring, want, {key: c})
        assert list(got.items()) == list(want.items())


def test_substitute():
    r = ExactRing()
    p = P(r, (1, E(x=2)), (4, E(x=1, y1=1)), (7, EXPS_ONE))
    # x := 5*y2
    got = substitute(r, p, X, r.from_int(5), E(y2=1))
    assert got == P(r, (25, E(y2=2)), (20, E(y1=1, y2=1)), (7, EXPS_ONE))


def test_poly_rem_collects_images():
    r = ExactRing()
    # modulo 1 - y1*x: x^2 -> y1^-2, x -> y1^-1
    p = P(r, (1, E(x=2)), (1, E(x=1)), (1, E(y1=-1)))
    got = poly_rem(r, p, E(y1=1), 1, X)
    assert got == P(r, (1, E(y1=-2)), (2, E(y1=-1)))


# ---------------------------------------------------------------------------
# packed monomials: the Layout codec against the tuple form


def codec_table():
    table = VariableTable()
    for name in ("q", "y"):
        table.add(name, FREE)
    for _ in range(3):
        table.fresh_slack()
    for name in ("c1", "c2", "c3"):
        table.add(name, CT)
    return table


CODEC_TABLE = codec_table()
CODEC_VIDS = [v for v, _ in CODEC_TABLE.ordered()]


@st.composite
def layouts(draw):
    bound = draw(st.sampled_from([1, 3, 64, 1000, 2**20, 2**40]))
    reach = draw(st.sampled_from([None, bound, 5 * bound]))
    return Layout(CODEC_TABLE, bound, reach)


@st.composite
def sparse_exps(draw, layout, limit=None):
    """A sparse exponent vector within the layout's reach, often at its edge."""
    top = layout.reach if limit is None else limit
    vids = draw(st.lists(st.sampled_from(CODEC_VIDS), unique=True, max_size=len(CODEC_VIDS)))
    edge = st.sampled_from([top, -top, top - 1, 1 - top, 1, -1])
    return exps_from_dict({v: draw(st.integers(-top, top) | edge) for v in vids})


@given(st.data())
def test_layout_round_trip(data):
    layout = data.draw(layouts())
    e = data.draw(sparse_exps(layout))
    assert layout.unpack(layout.pack(e)) == e
    # the digits themselves hold everything up to B/2 - 1, past the reach
    wide = data.draw(sparse_exps(layout, limit=layout.half - 1))
    m = sum(k << layout.shift[v] for v, k in wide)
    assert layout.unpack(m) == wide


@given(st.data())
def test_layout_arithmetic_is_int_arithmetic(data):
    layout = data.draw(layouts())
    half_reach = max(1, layout.reach // 2)
    a = data.draw(sparse_exps(layout, limit=half_reach))
    b = data.draw(sparse_exps(layout, limit=half_reach))
    pa, pb = layout.pack(a), layout.pack(b)
    assert layout.unpack(pa + pb) == exps_mul(a, b)
    assert layout.unpack(-pa) == exps_inv(a)
    assert layout.unpack(2 * pa) == exps_pow(a, 2)
    assert layout.unpack(0 * pa) == EXPS_ONE
    for v in CODEC_VIDS:
        assert layout.unpack(pa - exps_get(a, v) * layout.pack(((v, 1),))) == exps_without(a, v)


@given(st.data())
def test_layout_sign_is_compare_to_one(data):
    layout = data.draw(layouts())
    e = data.draw(sparse_exps(layout))
    m = layout.pack(e)
    side = SMALL if m > 0 else LARGE if m < 0 else ONE
    assert side is compare_to_one(e)


@given(st.data())
def test_layout_digit_read_is_exps_get(data):
    layout = data.draw(layouts())
    e = data.draw(sparse_exps(layout))
    m = layout.pack(e)
    for v in CODEC_VIDS:
        assert layout.get(m, v) == exps_get(e, v)


@given(st.data())
def test_layout_magnitude_bounds_every_exponent(data):
    layout = data.draw(layouts())
    monos = data.draw(st.lists(sparse_exps(layout), min_size=1, max_size=8))
    t = layout.magnitude(lambda: (layout.pack(e) for e in monos))
    biggest = max((abs(k) for e in monos for _, k in e), default=0)
    assert t >= layout.bound
    assert biggest <= t
    if t > layout.bound:
        assert biggest >= t // 2  # the least such power of two


def _magnitude_of_list(layout, monomials):
    """Layout.magnitude as it was when it took one list of the monomials."""
    t = layout.bound
    while t < layout.half:
        offset = sum(t << s for s in layout.shift.values())
        low = sum((2 * t - 1) << s for s in layout.shift.values())
        acc = 0
        for m in monomials:
            acc |= offset + m
        if acc >= 0 and not acc & ~low:
            break
        t <<= 1
    return t


@given(st.data())
def test_layout_magnitude_matches_the_list_walk(data):
    """Re-walking the monomials per candidate bound gives the one-list answer.

    The exponents run up to B/2 - 1, past the reach, where the walk stops at
    B/2 without a bound; no list of the monomials is handed over.
    """
    layout = data.draw(layouts())
    top = data.draw(st.sampled_from([layout.reach, layout.half - 1]))
    monos = data.draw(st.lists(sparse_exps(layout, limit=top), max_size=8))
    packed = [sum(k << layout.shift[v] for v, k in e) for e in monos]
    walks = []

    def monomials():
        walks.append(1)
        return iter(packed)

    t = layout.magnitude(monomials)
    assert t == _magnitude_of_list(layout, packed)
    assert len(walks) == (t // layout.bound).bit_length() - (t >= layout.half)


def test_narrow_layout_refuses_what_it_cannot_hold():
    layout = Layout(CODEC_TABLE, 1, reach=2)
    assert layout.width == 8
    with pytest.raises(WidthError):
        layout.pack(((CODEC_VIDS[0], 3),))
    m = layout.pack(((CODEC_VIDS[0], -2), (CODEC_VIDS[-1], 2)))
    assert layout.unpack(m) == ((CODEC_VIDS[0], -2), (CODEC_VIDS[-1], 2))


def test_layout_width_follows_the_bound():
    assert Layout(CODEC_TABLE, 1).width == 16
    assert Layout(CODEC_TABLE, 40).width == 24  # bound 64, reach 2**20
    assert Layout(CODEC_TABLE, 2**34).width == 80
    assert Layout(CODEC_TABLE, 40).reach == 64 * 64 * 256


def test_layout_and_memos_freed_without_the_cycle_collector():
    # a layout keeps only its intern table, which a layout packing the same
    # way takes over; neither may hang on a reference cycle until gc ran
    gc.disable()
    try:
        exps = ((CODEC_VIDS[0], 2), (CODEC_VIDS[-1], -4))
        first = Layout(CODEC_TABLE, 4)
        held = first.pack(exps)
        assert first.intern(held, held) is held
        second = Layout(CODEC_TABLE, 4, like=first)
        gone = weakref.ref(first)
        del first
        assert gone() is None
        twin = second.pack(exps)
        assert twin is not held and second.intern(twin, twin) is held
        assert second.unpack(twin + twin) == ((CODEC_VIDS[0], 4), (CODEC_VIDS[-1], -8))
        refs = sys.getrefcount(held)
        gone = weakref.ref(second)
        del second
        assert gone() is None
        assert sys.getrefcount(held) == refs - 2  # the table held it as key and value
    finally:
        gc.enable()
