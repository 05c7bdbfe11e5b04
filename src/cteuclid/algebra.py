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
* packed ints sort as plain ints, which is the order of their dense
  exponent vectors in the working order, not that of their exps tuples.
  Stage A sorts by the int alone; the tuple order is decided once, where
  terms leave it in tuple form.
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
* a coefficient is a plain Python number.  Modules add, negate and
  multiply coefficients with Python's operators and bring each result
  into its ring with ``ring.reduce`` (x % P in Z/PZ, x itself in Z);
  ``add_into`` is the one sparse adder.  Beside ``reduce`` the package
  calls only stage B's division of a ring; its arithmetic serves the oracles.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from operator import or_

FREE, SLACK, CT = 0, 1, 2
ROLE_NAMES = {FREE: "free", SLACK: "slack", CT: "ct"}
RANK_OF_ROLE = {"free": FREE, "slack": SLACK, "ct": CT}

class InputError(ValueError):
    """Malformed problem input (bad file, bad flag combination, bad system)."""


# ---------------------------------------------------------------------------
# coefficient rings


# Miller-Rabin with the first thirteen primes as bases is deterministic
# below this (Sorenson and Webster 2015).  Twelve are too few:
# 318665857834031151167461 is a strong pseudoprime to bases 2 to 37.
MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _mr_is_prime(n):
    """Whether n < MR_LIMIT is prime, decided by Miller-Rabin with fixed bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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
    """Arbitrary-precision integers, the ring of stage A, which never divides."""

    modulus = None

    @staticmethod
    def reduce(n):
        """n itself: every number is its own element of an exact ring."""
        return n

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow_int(self, a, k):
        """a**k for an integer k >= 0."""
        return a**k

    def is_zero(self, a):
        return a == 0

    def one(self):
        return 1

    def zero(self):
        return 0

    def __repr__(self):
        return "ExactRing()"


class PrimeField:
    """Z/PZ for one odd prime or the product P of several distinct ones.

    Elements are plain ints in [0, P).  ``PrimeField(p)`` is the field of
    one prime; ``PrimeField((p1, p2, ...))`` is the product ring, in which
    an element is a unit exactly when no prime divides it, and whose
    residues mod each p are those the field of p would compute.  Every
    inversion checks the primes in order and refuses a non-unit with an
    InputError naming the first prime that divides it.  ``product(fields)``
    is the product ring of fields already built: their primes are
    certified, so they are not tested again.
    """

    def __init__(self, primes):
        primes = (primes,) if isinstance(primes, int) else tuple(primes)
        if not primes:
            raise InputError("a prime field needs at least one modulus")
        for p in primes:
            if p >= MR_LIMIT:
                raise InputError(f"modulus {p} cannot be certified prime: it must be below "
                                 f"{MR_LIMIT}")
            if not _mr_is_prime(p) or p == 2:
                raise InputError(f"modulus {p} is not an odd prime")
        self._set_primes(primes)

    @classmethod
    def product(cls, fields):
        """The ring of the primes of fields, PrimeFields; it checks only that they are distinct."""
        ring = cls.__new__(cls)
        ring._set_primes(tuple(p for f in fields for p in f.primes))
        return ring

    def _set_primes(self, primes):
        if len(set(primes)) != len(primes):
            raise InputError("moduli must be pairwise distinct")
        self.primes = primes
        self.modulus = prod(primes)
        self.reduce = self.modulus.__rmod__

    def _inverse(self, den):
        """den**-1 mod P for an int den, or the InputError naming a prime that divides it."""
        for p in self.primes:
            if den % p == 0:
                raise InputError(
                    f"modulus {p} divides the denominator {den}; use a larger prime"
                )
        return pow(den, -1, self.modulus)

    def from_int(self, n):
        return n % self.modulus

    def from_fraction(self, fr):
        return fr.numerator * self._inverse(fr.denominator) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def scale(self, num, x):
        """The sparse numerator {degree: coeff} with each coefficient times x."""
        p = self.modulus
        return {d: c * x % p for d, c in num.items()}

    def neg(self, a):
        return -a % self.modulus

    def div(self, a, b):
        return a * self._inverse(b) % self.modulus

    def inv(self, a):
        return self._inverse(a)

    def pow_int(self, a, k):
        """a**k for integer k; a negative k needs a unit."""
        if k < 0:
            a, k = self._inverse(a), -k
        return pow(a, k, self.modulus)

    def is_zero(self, a):
        return a % self.modulus == 0

    def one(self):
        return 1

    def zero(self):
        return 0

    def __repr__(self):
        return f"PrimeField({self.primes[0] if len(self.primes) == 1 else self.primes})"


# ---------------------------------------------------------------------------
# variable table


class VariableTable:
    """Append-only registry of named variables with roles.

    The order of the working field is the sort order of the ids handed out:
    all free variables precede all slack variables precede all ct variables,
    and within a role creation order decides.  Appends never change the
    order of existing variables.  Every run adds all its variables, slack
    included, when it builds the starting term, so the table is fixed before
    the first constant term is taken and never grows mid-run.

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


class Layout:
    """Packs the exponent vectors of one VariableTable into signed ints.

    Variable v sits in digit pos(v), counted from the least significant
    end, with the earliest variable of the working order in the most
    significant digit.  ``bound`` (rounded up to a power of two) bounds the
    exponents of the terms the layout stores, ``reach`` (at least ``bound``,
    by default bound**2 * 2**ROOM_BITS) those of any value formed from them;
    the width is the least multiple of 8 bits whose digits hold ``reach``.

    ``unpack(m)`` decodes a packed monomial into its exps tuple; the order
    of exps tuples is no concern of a layout (see the module docstring).
    ``intern(f, f)`` (a dict's setdefault) gives the layout's one int
    object of value f: a stored denominator factor is always that object,
    so the many terms sharing a factor hold one int between them.  The
    intern table is the only state a layout keeps per monomial; it lives as
    long as the layout, and a layout that packs the same way takes it over.
    """

    def __init__(self, table, bound=1, reach=None, like=None):
        self.table = table
        self.bound = 1 << (max(bound, 1) - 1).bit_length()
        self.reach = max(self.bound, reach or self.bound * self.bound << ROOM_BITS)
        self.width = -(-(self.reach.bit_length() + 1) // 8) * 8
        # working order, earliest first: the earliest variable is most significant
        self.vids = [v for v, _ in table.ordered()]
        self.half = 1 << (self.width - 1)
        self.mask = (1 << self.width) - 1
        n = len(self.vids)
        self.shift = {v: (n - 1 - i) * self.width for i, v in enumerate(self.vids)}
        self.bias = sum(self.half << s for s in self.shift.values())
        self.intern = like.intern if like is not None and self.packs_like(like) else {}.setdefault

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

    def unpack(self, m):
        """The exps tuple of a packed monomial.

        A digit of u = m + bias differs from B/2 exactly where u ^ bias has
        a bit in it, so the top bit of that names the next nonzero digit.
        """
        u = m + self.bias
        d = u ^ self.bias
        vids, w, mask, half = self.vids, self.width, self.mask, self.half
        last = len(vids) - 1
        out = []
        while d:
            k = (d.bit_length() - 1) // w
            s = k * w
            out.append((vids[last - k], ((u >> s) & mask) - half))
            d &= (1 << s) - 1
        return tuple(out)

    def get(self, m, vid):
        """The exponent of vid in m: one add, shift and mask."""
        return (((m + self.bias) >> self.shift[vid]) & self.mask) - self.half

    def magnitude(self, monomials):
        """The least power of two T, at least ``bound``, with every exponent in [-T, T).

        monomials is a function that gives a fresh iterator over the packed
        monomials each time it is called.  m + sum_v T*B**pos(v) has every
        digit in [0, 2T) exactly when every exponent of m is in [-T, T); one
        pass over the monomials ORs that for each candidate T, so no list of
        them is ever held.
        """
        t = self.bound
        while t < self.half:  # past that, every digit is in (-B/2, B/2) already
            offset = sum(t << s for s in self.shift.values())
            low = sum((2 * t - 1) << s for s in self.shift.values())
            acc = reduce(or_, map(offset.__add__, monomials()), 0)
            if acc >= 0 and not acc & ~low:
                break
            t <<= 1
        return t


# ---------------------------------------------------------------------------
# Laurent polynomials: dict {exps: coeff}


def add_into(reduce, poly, key, c):
    """Add the ring element c at key of poly, deleting the key if the sum vanishes.

    A key that comes back is appended anew: keys keep the order of the additions.
    """
    s = poly.get(key)
    if s is None:
        poly[key] = c
    else:
        s = reduce(s + c)
        if s:
            poly[key] = s
        else:
            del poly[key]


# ---------------------------------------------------------------------------
# remainder maps modulo a binomial 1 - u*x^a
#
# x^e is congruent to u^-l * x^r whenever e = l*a + r, because u*x^a ~ 1
# modulo the ideal generated by the binomial.  Numerators take the floor
# window 0 <= r < a (divmod); denominator factors take srem_split's
# symmetric window -a/2 < r <= a/2, which is what keeps the recursion
# exponents shrinking by at least half.  The engine's Euclid node forms
# the same split inline, in its one pass over a denominator.


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
