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
  with no zero exponents stored.  The empty tuple is the monomial 1.  This
  is the form terms take outside stage A: in checkpoint files, in rendered
  output and in stage B.
* inside stage A a monomial is packed into one signed int by a ``Layout``:
  sum of e_v * B**pos(v), the earliest variable in the working order in the
  most significant place, every digit balanced in (-B/2, B/2).  Then a
  product is ``+``, an inverse is unary ``-``, a power is ``* k``, the
  monomial is small exactly when the int is positive, and one exponent is
  one shift and mask away.  The empty product is 0.
* the width rule: B = 2**w, and w is the least multiple of 8 for which
  B/2 exceeds the layout's ``reach``.  A layout promises that the terms it
  stores have every exponent at most ``bound`` (a power of two) in absolute
  value, and ``reach`` defaults to bound**2 * 2**ROOM_BITS, the room a
  round of stage A gets to grow in.  Nothing user-facing sets either.
* the guard: packed arithmetic is exact integer arithmetic, but a digit
  that left (-B/2, B/2) would be read back wrong.  So stage A derives,
  before it forms a value, an a-priori bound on its exponents from the
  bounds of the operands, and raises ``WidthError`` when that bound passes
  ``reach``; the caller moves the terms to a wider layout and redoes the
  work.  ``Layout.pack`` refuses an exponent above ``reach`` the same way.
  Nothing ever wraps.
* a Laurent polynomial is a dict mapping monomials (exps tuples, or packed
  ints in stage A) to nonzero ring coefficients.  The empty dict is 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

FREE, SLACK, CT = 0, 1, 2
ROLE_NAMES = {FREE: "free", SLACK: "slack", CT: "ct"}
RANK_OF_ROLE = {"free": FREE, "slack": SLACK, "ct": CT}

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

    A ``Layout`` packs monomials for the table as it was when the layout was
    built: a new slack variable takes a digit in the middle of the order, so
    a table that grew needs a new layout, and terms packed by the old one
    are carried over through their tuple form.
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


# ---------------------------------------------------------------------------
# packed monomials

ROOM_BITS = 8


class WidthError(RuntimeError):
    """A value could outgrow the digits of its Layout; ``need`` is the reach it asks for."""

    def __init__(self, need):
        super().__init__(f"an exponent may reach {need}, past the layout's digit width")
        self.need = need


class _Memo(dict):
    """A dict that fills in a missing key from a function of the key."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Digits:
    """The digit geometry of a layout, and the decoders its memos fill from.

    The memos hold this, not the layout: a memo whose fill was a method of
    the layout would close a reference cycle, and the layout with every
    factor in its memos would then outlive its last use until the cyclic
    garbage collector came round.  Without the cycle both go as soon as
    the last term sum packed by them does.
    """

    __slots__ = ("vids", "width", "half", "mask", "shift", "bias")

    def __init__(self, vids, width):
        self.vids = vids
        self.width = width
        self.half = 1 << (width - 1)
        self.mask = (1 << width) - 1
        n = len(vids)
        self.shift = {v: (n - 1 - i) * width for i, v in enumerate(vids)}
        self.bias = sum(self.half << s for s in self.shift.values())

    def digits(self, m):
        """(index in working order, biased digit e + B/2) of every nonzero exponent of m."""
        u = m + self.bias
        mask, half, shift = self.mask, self.half, self.shift
        return [(i, c) for i, v in enumerate(self.vids) if (c := (u >> shift[v]) & mask) != half]

    def unpack(self, m):
        vids, half = self.vids, self.half
        return tuple((vids[i], c - half) for i, c in self.digits(m))

    def order_key(self, m):
        # exps tuples compare pair by pair, a prefix first; pair j of m gets
        # the code i*B + e + B/2 >= 1 in slot j, and unused slots stay 0
        n, w = len(self.vids), self.width
        size = (n << w).bit_length()
        key = 0
        for j, (i, c) in enumerate(self.digits(m)):
            key |= ((i << w) + c) << ((n - 1 - j) * size)
        return key

    def primitive(self, m):
        g = gcd(*(c - self.half for _, c in self.digits(m)))
        return m // g if g > 1 else m


class Layout:
    """Packs the exponent vectors of one VariableTable into signed ints.

    Variable v sits in digit pos(v), counted from the least significant
    end, with the earliest variable of the working order in the most
    significant digit.  ``bound`` (rounded up to a power of two) bounds the
    exponents of the terms the layout stores, ``reach`` (at least ``bound``,
    by default bound**2 * 2**ROOM_BITS) those of any value formed from them;
    the width is the least multiple of 8 bits whose digits hold ``reach``.

    ``unpack(m)`` gives the exps tuple of a packed monomial,
    ``order_key(m)`` an int that sorts packed monomials the way their exps
    tuples sort, and ``primitive(m)`` m divided by the gcd of its exponents,
    which is equal for positive multiples of one vector.  All three are memo
    lookups; the memos live as long as the layout, and a layout that packs
    the same way takes them over.
    """

    def __init__(self, table, bound=1, reach=None, like=None):
        self.table = table
        self.bound = 1 << (max(bound, 1) - 1).bit_length()
        self.reach = max(self.bound, reach or self.bound * self.bound << ROOM_BITS)
        width = -(-(self.reach.bit_length() + 1) // 8) * 8
        # working order, earliest first: the earliest variable is most significant
        digits = _Digits([v for v, _ in table.ordered()], width)
        self.vids, self.width, self.half = digits.vids, digits.width, digits.half
        self.mask, self.shift, self.bias = digits.mask, digits.shift, digits.bias
        if like is not None and self.packs_like(like):
            self._memos = like._memos
        else:
            self._memos = [_Memo(digits.unpack), _Memo(digits.order_key), _Memo(digits.primitive)]
        self.unpack, self.order_key, self.primitive = (memo.__getitem__ for memo in self._memos)

    def packs_like(self, other):
        """True when other packs every monomial into the same int."""
        return self.width == other.width and self.vids == other.vids

    def pack(self, exps):
        """The int of an exps tuple; WidthError for an exponent above ``reach``."""
        m = 0
        for v, e in exps:
            if abs(e) > self.reach:
                raise WidthError(abs(e))
            m += e << self.shift[v]
        return m

    def get(self, m, vid):
        """The exponent of vid in m: one add, shift and mask."""
        return (((m + self.bias) >> self.shift[vid]) & self.mask) - self.half

    def magnitude(self, monomials):
        """The least power of two T, at least ``bound``, with every exponent in [-T, T).

        m + sum_v T*B**pos(v) has every digit in [0, 2T) exactly when every
        exponent of m is in [-T, T); one pass ORs that over all monomials.
        """
        monomials = list(monomials)
        t = self.bound
        while t < self.half:  # past that, every digit is in (-B/2, B/2) already
            offset = sum(t << s for s in self.shift.values())
            low = sum((2 * t - 1) << s for s in self.shift.values())
            acc = reduce(or_, map(offset.__add__, monomials), 0)
            if acc >= 0 and not acc & ~low:
                break
            t <<= 1
        return t


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


# ---------------------------------------------------------------------------
# remainder maps modulo a binomial 1 - u*x^a
#
# x^e is congruent to u^-l * x^r whenever e = l*a + r, because u*x^a ~ 1
# modulo the ideal generated by the binomial.  Numerators take the floor
# window 0 <= r < a (divmod); denominator factors take srem_split's
# symmetric window -a/2 < r <= a/2, which is what keeps the recursion
# exponents shrinking by at least half.


def srem_split(e, a):
    l, r = e // a, e % a
    if 2 * r > a:
        return l + 1, r - a
    return l, r


def poly_str(table, p):
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
