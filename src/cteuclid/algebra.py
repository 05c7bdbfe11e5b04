"""Exact sparse Laurent arithmetic over an ordered variable table.

The working coefficient domain is an iterated Laurent series field fixed by
a total order on the variables.  We never materialize series: everything in
this module is exact arithmetic on monomials and Laurent polynomials, plus
the order test that decides whether a monomial expands "forward" (small) or
"backward" (large) in that field.

Representation choices, used by every other module:

* a variable id is a pair ``(rank, seq)`` where rank encodes the role
  (free=0, slack=1, ct=2) and seq is the creation index within the role.
  Sorting ids therefore *is* the working order: free variables first, then
  slack variables in creation order, then constant-term variables.  Growing
  the table never disturbs the relative order of existing variables.
* an exponent vector ("exps") is a tuple of (vid, exp) pairs, sorted by vid,
  with no zero exponents stored.  The empty tuple is the monomial 1.
* a Laurent polynomial is a dict mapping exps tuples to nonzero ring
  coefficients.  The empty dict is 0.
"""

from __future__ import annotations

from fractions import Fraction

FREE, SLACK, CT = 0, 1, 2
ROLE_NAMES = {FREE: "free", SLACK: "slack", CT: "ct"}
RANK_OF_ROLE = {"free": FREE, "slack": SLACK, "ct": CT}

SMALL, LARGE, ONE = "small", "large", "one"


class InputError(ValueError):
    """Malformed problem input (bad file, bad flag combination, bad system)."""


# ---------------------------------------------------------------------------
# coefficient rings


def _mr_is_prime(n):
    # deterministic Miller-Rabin for n < 3.3e24 (covers 64-bit comfortably)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ExactRing:
    """Arbitrary-precision rationals (ints kept as ints when possible)."""

    modulus = None

    def from_int(self, n):
        return n

    def from_fraction(self, fr):
        return fr.numerator if fr.denominator == 1 else fr

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        q = Fraction(a) / Fraction(b)
        return q.numerator if q.denominator == 1 else q

    def inv(self, a):
        return self.div(1, a)

    def pow_int(self, a, k):
        """a**k for integer k (k may be negative)."""
        if k >= 0:
            return a ** k
        return self.div(1, a ** (-k))

    def is_zero(self, a):
        return a == 0

    def one(self):
        return 1

    def zero(self):
        return 0

    def __repr__(self):
        return "ExactRing()"


class PrimeField:
    """Z/pZ for an odd prime p.  Elements are plain ints in [0, p)."""

    def __init__(self, p):
        if not _mr_is_prime(p) or p == 2:
            raise InputError(f"modulus {p} is not an odd prime")
        self.modulus = p

    def from_int(self, n):
        return n % self.modulus

    def from_fraction(self, fr):
        if fr.denominator % self.modulus == 0:
            raise InputError(
                f"modulus {self.modulus} divides the denominator {fr.denominator}; "
                "use a larger prime"
            )
        return fr.numerator * pow(fr.denominator, -1, self.modulus) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def div(self, a, b):
        return a * pow(b, -1, self.modulus) % self.modulus

    def inv(self, a):
        return pow(a, -1, self.modulus)

    def pow_int(self, a, k):
        return pow(a, k, self.modulus)

    def is_zero(self, a):
        return a % self.modulus == 0

    def one(self):
        return 1

    def zero(self):
        return 0

    def __repr__(self):
        return f"PrimeField({self.modulus})"


# ---------------------------------------------------------------------------
# variable table


class VariableTable:
    """Append-only registry of named variables with roles.

    The order of the working field is the sort order of the ids handed out:
    all free variables precede all slack variables precede all ct variables,
    and within a role creation order decides.  Appends never change the
    order of existing variables, which is what makes delayed slack insertion
    (raw ct runs only) safe mid-computation.  Pipeline runs add every
    variable when they build the starting term, so their table is fixed
    before the first constant term is taken.
    """

    def __init__(self):
        self._by_vid = {}
        self._by_name = {}
        self._counts = [0, 0, 0]

    def add(self, name, role):
        rank = RANK_OF_ROLE[role] if isinstance(role, str) else role
        if name in self._by_name:
            raise InputError(f"duplicate variable name {name!r}")
        vid = (rank, self._counts[rank])
        self._counts[rank] += 1
        self._by_vid[vid] = name
        self._by_name[name] = vid
        return vid

    def fresh_slack(self, prefix="z"):
        n = self._counts[SLACK]
        name = f"{prefix}{n + 1}"
        while name in self._by_name:
            n += 1
            name = f"{prefix}{n + 1}"
        return self.add(name, SLACK)

    def name_of(self, vid):
        return self._by_vid[vid]

    def vid_of(self, name):
        return self._by_name[name]

    def __contains__(self, name):
        return name in self._by_name

    def ordered(self):
        """All (vid, name) pairs in working order."""
        return sorted(self._by_vid.items())

    def vids_of_rank(self, rank):
        return sorted(v for v in self._by_vid if v[0] == rank)

    def __len__(self):
        return len(self._by_vid)


# ---------------------------------------------------------------------------
# monomial exponent vectors

EXPS_ONE = ()


def exps_from_dict(d):
    return tuple(sorted((v, e) for v, e in d.items() if e != 0))


def exps_get(exps, vid):
    for v, e in exps:
        if v == vid:
            return e
    return 0


def exps_mul(e1, e2):
    """Product of two monomials (merge sorted exponent tuples)."""
    if not e1:
        return e2
    if not e2:
        return e1
    out = []
    i = j = 0
    n1, n2 = len(e1), len(e2)
    while i < n1 and j < n2:
        v1, a = e1[i]
        v2, b = e2[j]
        if v1 == v2:
            c = a + b
            if c:
                out.append((v1, c))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(e1[i])
            i += 1
        else:
            out.append(e2[j])
            j += 1
    out.extend(e1[i:])
    out.extend(e2[j:])
    return tuple(out)


def exps_pow(exps, k):
    if k == 0:
        return EXPS_ONE
    return tuple((v, e * k) for v, e in exps)


def exps_inv(exps):
    return tuple((v, -e) for v, e in exps)


def exps_without(exps, vid):
    return tuple((v, e) for v, e in exps if v != vid)


def compare_to_one(exps):
    """Place a monomial relative to 1 in the iterated-series order.

    The earliest variable (in the working order) carrying a nonzero exponent
    decides: positive exponent means the monomial is small (its geometric
    series expands forward), negative means large.
    """
    if not exps:
        return ONE
    # exps is sorted by vid, so the first entry is the earliest variable
    return SMALL if exps[0][1] > 0 else LARGE


def exps_content_primitive(exps):
    """Primitive direction vector of a monomial: exps // gcd(|exponents|).

    Two denominator monomials generate non-coprime binomials (1-M), (1-M')
    exactly when their exponent vectors are positive multiples of a common
    vector; comparing primitive parts detects that.
    """
    from math import gcd

    g = 0
    for _, e in exps:
        g = gcd(g, abs(e))
    if g <= 1:
        return exps
    return tuple((v, e // g) for v, e in exps)


# ---------------------------------------------------------------------------
# Laurent polynomials: dict {exps: coeff}


def poly_add_inplace(ring, p, q):
    for e, c in q.items():
        if e in p:
            s = ring.add(p[e], c)
            if ring.is_zero(s):
                del p[e]
            else:
                p[e] = s
        else:
            p[e] = c
    return p


def poly_neg(ring, p):
    return {e: ring.neg(c) for e, c in p.items()}


def poly_mul_monomial(ring, p, coeff, exps):
    if ring.is_zero(coeff):
        return {}
    if not exps and coeff == ring.one():
        return dict(p)
    return {exps_mul(e, exps): ring.mul(c, coeff) for e, c in p.items()}


def substitute(ring, p, vid, m_coeff, m_exps):
    """Replace vid by the monomial m everywhere in p.  m must not contain vid."""
    if exps_get(m_exps, vid) != 0:
        raise ValueError("substitution monomial contains the replaced variable")
    out = {}
    for e, c in p.items():
        k = exps_get(e, vid)
        if k == 0:
            ne, nc = e, c
        else:
            ne = exps_mul(exps_without(e, vid), exps_pow(m_exps, k))
            nc = c if m_coeff == ring.one() else ring.mul(c, ring.pow_int(m_coeff, k))
        if ne in out:
            s = ring.add(out[ne], nc)
            if ring.is_zero(s):
                del out[ne]
            else:
                out[ne] = s
        elif not ring.is_zero(nc):
            out[ne] = nc
    return out


def split_by_sign(p, vid):
    """Split p into (monomials with positive vid-exponent, the rest)."""
    pos, rest = {}, {}
    for e, c in p.items():
        (pos if exps_get(e, vid) > 0 else rest)[e] = c
    return pos, rest


def poly_slice_zero(p, vid):
    """The part of p with vid-exponent 0 (the vid-constant slice)."""
    return {e: c for e, c in p.items() if exps_get(e, vid) == 0}


# ---------------------------------------------------------------------------
# remainder maps modulo a binomial 1 - u*x^a
#
# x^e is congruent to u^-l * x^r whenever e = l*a + r, because u*x^a ~ 1
# modulo the ideal generated by the binomial.  rem_split picks 0 <= r < a,
# srem_split the symmetric window -a/2 < r <= a/2 (which is what keeps the
# recursion exponents shrinking by at least half).


def rem_split(e, a):
    return e // a, e % a


def srem_split(e, a):
    l, r = e // a, e % a
    if 2 * r > a:
        return l + 1, r - a
    return l, r


def rem_monomial(exps, u_exps, a, xvid):
    """Image of a single monomial under rem against 1 - u*x^a."""
    e = exps_get(exps, xvid)
    l, r = rem_split(e, a)
    if l == 0:
        return exps
    ne = exps_mul(exps_without(exps, xvid), exps_pow(u_exps, -l))
    if r:
        ne = exps_mul(ne, ((xvid, r),))
    return ne


def poly_rem(ring, p, u_exps, a, xvid):
    """rem applied to every monomial of p (images collected, zeros dropped)."""
    out = {}
    for e, c in p.items():
        ne = rem_monomial(e, u_exps, a, xvid)
        if ne in out:
            s = ring.add(out[ne], c)
            if ring.is_zero(s):
                del out[ne]
            else:
                out[ne] = s
        else:
            out[ne] = c
    return out


def poly_str(table, p, ring=None):
    """Human-readable form, deterministic order (debugging/diagnostics)."""
    if not p:
        return "0"
    bits = []
    for e in sorted(p):
        c = p[e]
        vars_part = "*".join(
            f"{table.name_of(v)}^{k}" if k != 1 else table.name_of(v) for v, k in e
        )
        if not vars_part:
            bits.append(str(c))
        elif c == 1:
            bits.append(vars_part)
        else:
            bits.append(f"{c}*{vars_part}")
    return " + ".join(bits)
