import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from cteuclid.algebra import (
    CT,
    EXPS_ONE,
    FREE,
    LARGE,
    ONE,
    SLACK,
    SMALL,
    ExactRing,
    InputError,
    PrimeField,
    VariableTable,
    compare_to_one,
    exps_content_primitive,
    exps_from_dict,
    exps_get,
    exps_inv,
    exps_mul,
    exps_pow,
    exps_without,
    poly_add_inplace,
    poly_mul_monomial,
    poly_neg,
    poly_rem,
    rem_monomial,
    rem_split,
    srem_split,
    substitute,
)


# ---------------------------------------------------------------------------
# rings


def test_exact_ring_basic():
    r = ExactRing()
    assert r.add(r.from_int(2), r.from_int(3)) == 5
    assert r.mul(r.from_int(-4), r.from_int(6)) == -24
    assert r.div(r.from_int(3), r.from_int(4)) == Fraction(3, 4)
    assert r.from_fraction(Fraction(8, 2)) == 4
    assert r.inv(r.from_int(5)) == Fraction(1, 5)
    assert r.is_zero(r.sub(r.one(), r.one()))
    assert r.pow_int(r.from_int(2), 10) == 1024
    assert r.modulus is None


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
    assert poly_add_inplace(r, dict(p), poly_neg(r, p)) == {}
    shifted = poly_mul_monomial(r, p, r.from_int(3), E(x=1))
    assert shifted == P(r, (6, E(y1=1, x=1)), (3, E(x=1)))


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
