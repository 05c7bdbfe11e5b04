"""Constant-term extraction for Elliott-rational terms, one variable at a time.

A term is L / prod_i (1 - M_i) with L a Laurent polynomial and the M_i pure
monomials.  Taking the constant term in a variable x splits, by partial
fractions, into one contribution per denominator factor containing x; the
contributions are computed by a remainder recursion whose pivot exponent at
least halves at every level, so no polynomial division ever happens.

The decomposition used throughout: write L = L1 + L2 with L1 the monomials
of positive x-exponent.  Then

    CT_x  E  =  sum over small factors  <L2/D, f|   -   sum over large factors  <L1/D, f|

where <E, f| denotes the constant coefficient A(0) of the partial-fraction
numerator attached to f.  Small/large refers to the iterated-series order
after the factor has been normalized to positive x-exponent; both sums need
no polynomial part and no principal part at x = 0, which is the whole point
of splitting the numerator rather than dividing.

Every monomial here is packed into an int by the term sum's ``Layout`` (see
the algebra module), so with f = u*x^a the pivot, reducing a monomial e by
l whole steps of the binomial is ``e - l*f``, and a factor is small exactly
when it is positive.  Each function carries one bound for the exponents of
the denominator factors (kd) and one for those of the numerator (kn); before
it forms a value it checks the value's bound against the layout's reach and
raises WidthError past it.  Stage B reads packed terms alone, through
their digits and ``num_items``; only a checkpoint's chunk files hold tuple
form, written in the order of ``TermSum.in_tuple_order`` and packed again
as they load.

A packed term stores its numerator as one immutable flat tuple
(e1, c1, e2, c2, ...), which costs a fraction of a dict's shell: most
stored numerators hold one monomial.  The working numerators of ct_var and
the Euclid recursion take the same form, so a numerator of one monomial
travels as its (monomial, coefficient) pair from the stored term to the
terms it makes.  A dict is built only where several monomials can meet and
must be summed: reducing a numerator modulo a pivot (``_merged``), merging
bucket numerators, and packing tuple-form terms.  A stored term never
changes, so a round that keeps a term as it is hands on the term itself.
Coefficients are plain numbers, and ``ring.reduce`` brings each sum or
negation of them into the term sum's ring.

Each Euclid node takes one pass over its denominator, forming every
factor's split, reduced and flipped value and the units at once, and then
checks, in this order, the factor bound, a collision and the numerator
bounds, so what it raises does not depend on where in the pass a factor
sits.  The linear leaf makes its canonical factors (substituted, flipped,
interned) in its own one pass.

Inside the engine a denominator is its factors sorted as ints, which is
all that collecting needs, and two factors have a common binomial divisor
exactly when their fractions f/a, factor over x-exponent, are equal in
lowest terms.  The order of exps tuples is applied once, as terms leave:
the result file, the checkpoint's term chunks and stage B's chunks see
only that order.

Each exponent is decoded once: ct_var reads the x-exponent of every
denominator factor and hands the normalized list down with the factors, and
each Euclid node passes on the reduced exponents it computed.  A round pays
only for what it changes: when no term needs a Euclid node, every term keeps
its denominator and a slice of its numerator (the term itself when no
monomial holds x), so a round over collected terms (a dependent equation,
say) stays collected without being ordered again.

A round holds only what it keeps.  Every stored denominator factor is the
layout's one int object of its value (``Layout.intern``).  ct_var and the
Euclid recursion hand each term they make to a sink as it is made: ct_all
gives each round one sink, which merges the term into the round's buckets,
one term per denominator, and drops a bucket whose numerator cancels.  So a
round's raw terms never exist side by side, and each is merged once.

Stage A has one slack policy: every denominator factor gets its own slack
variable before the first round (a pipeline run when it builds its starting
term, the raw ct command through add_slack), which keeps the factors of a
term pairwise coprime in every ct variable.  So the variable table is fixed
while ct_all runs, and a collision is a broken invariant that raises.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import gcd

from .algebra import (
    CT,
    ROOM_BITS,
    Layout,
    WidthError,
    add_into,
)


class CollisionError(RuntimeError):
    """Non-coprime denominator factors met during elimination.

    Every run gives each factor its own slack variable before stage A,
    which keeps the factors pairwise coprime, so this signals a broken
    invariant, and ct_all raises it.
    """


class Stats:
    """Counters reported in diagnostics (never consulted for results)."""

    __slots__ = (
        "raw_terms",
        "collected_terms",
        "euclid_nodes",
        "collisions",
        "ct_s_calls",
        "summand_max",
        "summand_bound_ok",
    )

    def __init__(self):
        self.raw_terms = 0
        self.collected_terms = 0
        self.euclid_nodes = 0
        self.collisions = 0
        self.ct_s_calls = 0
        self.summand_max = 0
        self.summand_bound_ok = True

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}

    def load(self, d):
        """Take the counters saved in d, a dict; keys that name none are ignored.

        ValueError unless every counter is an int >= 0 and summand_bound_ok
        a bool.
        """
        if not isinstance(d, dict):
            raise ValueError("the counters are not a JSON object")
        for k, v in d.items():
            if k not in self.__slots__:
                continue
            ok = isinstance(v, bool) if k == "summand_bound_ok" else type(v) is int and v >= 0
            if not ok:
                raise ValueError(f"counter {k} holds {v!r}")
            setattr(self, k, v)

    def merge(self, other):
        """Add the counters of another run part (max and all() for the summand checks)."""
        for k in ("raw_terms", "collected_terms", "euclid_nodes", "collisions", "ct_s_calls"):
            setattr(self, k, getattr(self, k) + getattr(other, k))
        self.summand_max = max(self.summand_max, other.summand_max)
        self.summand_bound_ok = self.summand_bound_ok and other.summand_bound_ok


class ElliottTerm:
    """One summand L / prod(1 - M_i), factors kept small-oriented and sorted.

    A packed term holds its numerator as a flat tuple (see the module
    docstring) and its factors sorted as ints; a tuple-form term holds a
    dict {exps: coeff} and its factors sorted as exps tuples.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return f"ElliottTerm(num={self.num!r}, den={self.den!r})"


def _check(layout, bound):
    if bound > layout.reach:
        raise WidthError(bound)


def num_items(num):
    """The (monomial, coefficient) pairs of a packed numerator."""
    it = iter(num)
    return zip(it, it)


def _packed(num):
    """The packed numerator of a dict {monomial: coefficient}."""
    if len(num) == 1:
        # the one (monomial, coefficient) pair is the packed numerator itself
        (pair,) = num.items()
        return pair
    return tuple(chain.from_iterable(num.items()))


def _merged(reduce, monomials, coeffs):
    """The packed sum of the monomials with their coefficients.

    Monomials that meet are summed by add_into, so they keep the order in
    which they first come and a sum that vanishes drops out.
    """
    acc = {}
    for e, c in zip(monomials, coeffs):
        add_into(reduce, acc, e, c)
    return _packed(acc)


def _push_units(reduce, num, unit, flips):
    """The packed numerator num times (-1)**flips * unit.

    Those are the units that inverting flips factors pushes into it.
    Multiplying by a monomial moves every monomial alike, so none meet.
    """
    out = list(num)
    out[::2] = [e + unit for e in num[::2]]
    if flips % 2:
        out[1::2] = [reduce(-c) for c in num[1::2]]
    return tuple(out)


def make_term(ring, num, factors, layout):
    """Build a term in canonical form; returns None for the zero term.

    num is a packed numerator.  Large factor monomials are inverted,
    1/(1-M) = -M^-1/(1-M^-1), with the unit pushed into the numerator.  A
    factor monomial equal to 1 means the denominator vanished: that is the
    non-coprime collision.  The caller has checked that the numerator has
    room for the unit.
    """
    intern = layout.intern
    unit = 0
    flips = 0
    canon = []
    for f in factors:
        if f < 0:
            unit -= f
            flips += 1
            f = -f
        elif not f:
            raise CollisionError("denominator factor monomial equals 1")
        canon.append(intern(f, f))
    if flips:
        num = _push_units(ring.reduce, num, unit, flips)
    if not num:
        return None
    canon.sort()
    return ElliottTerm(num, tuple(canon))


def pack_term(layout, t):
    """The tuple-form term t packed by layout."""
    intern = layout.intern
    return ElliottTerm(_packed({layout.pack(e): c for e, c in t.num.items()}),
                       tuple(sorted(intern(f, f) for f in map(layout.pack, t.den))))


def unpack_term(unpack, t):
    """t in tuple form, its factors sorted as exps tuples; unpack decodes one monomial."""
    return ElliottTerm({unpack(e): c for e, c in num_items(t.num)},
                       tuple(sorted(map(unpack, t.den))))


def _largest_exponent(terms):
    return max((abs(e) for t in terms for m in chain(t.num, t.den) for _, e in m), default=1)


class TermSum:
    """Stage-A terms in one coefficient ring, packed by one Layout.

    ``collected`` is set by ct_all alone: its terms have distinct
    denominators in int order, and the layout bound covers every exponent.
    """

    def __init__(self, layout, ring, terms=None, collected=False):
        self.layout = layout
        self.ring = ring
        self.terms = list(terms) if terms else []
        self.collected = collected

    @property
    def table(self):
        return self.layout.table

    @classmethod
    def pack(cls, table, ring, terms):
        """A term sum of tuple-form terms, under a layout bounded by their exponents."""
        layout = Layout(table, _largest_exponent(terms))
        return cls(layout, ring, [pack_term(layout, t) for t in terms])

    def tuple_terms(self):
        """The terms in tuple form, one at a time, ordered by denominator when collected.

        Numerator monomials seldom recur and are decoded as they come, so
        the pass holds no decoded term but the one it yields.
        """
        unpack = self.layout.unpack
        factors, terms = self.in_tuple_order()
        for t, den in terms:
            yield ElliottTerm({unpack(e): c for e, c in num_items(t.num)},
                              tuple(map(factors.__getitem__, den)))

    def in_tuple_order(self):
        """(factors, terms): the packed terms in the order of tuple_terms, and their factors.

        factors maps each distinct packed factor to its exps tuple: the
        factors recur from term to term, so each is decoded once for the
        whole pass.  terms yields (t, den) for each packed term t, den its
        packed factors in the order of their exps tuples.
        """
        unpack = self.layout.unpack
        factors = {f: unpack(f) for f in {f for t in self.terms for f in t.den}}
        rank = {f: r for r, f in enumerate(sorted(factors, key=factors.__getitem__), 1)}
        terms = ((t, sorted(t.den, key=rank.__getitem__)) for t in self._tuple_order(rank))
        return factors, terms

    def _tuple_order(self, rank):
        """The packed terms by their tuple-form denominators when collected.

        rank maps each distinct factor to its place among them by exps
        tuple, from 1.  A term's key packs the ranks of its factors, in
        rising order, into one int, one digit each, zero digits filling up
        to the longest denominator; so the keys compare as the sorted exps
        tuples of the denominators do, a prefix first, and only factors are
        decoded.
        """
        if not self.collected:
            return self.terms
        width = len(rank).bit_length()
        longest = max((len(t.den) for t in self.terms), default=0)

        def key(t):
            k = 0
            for r in sorted(map(rank.__getitem__, t.den)):
                k = k << width | r
            return k << width * (longest - len(t.den))

        return sorted(self.terms, key=key)

    def unpacked(self):
        """The terms in tuple form, as a list (see tuple_terms)."""
        return list(self.tuple_terms())

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def start_termsum(table, ring, num, factors):
    """The term sum of num / prod(1 - f), from tuple-form monomials.

    The layout bound leaves room for the unit that flipping large factors
    pushes into the numerator.
    """
    bound = _largest_exponent([ElliottTerm(num, factors)])
    layout = Layout(table, bound * (1 + len(factors)))
    t = make_term(ring, _packed({layout.pack(e): c for e, c in num.items()}),
                  [layout.pack(f) for f in factors], layout)
    return TermSum(layout, ring, [t] if t is not None else [])


def add_slack(ts):
    """Multiply every denominator factor by a fresh slack variable.

    Afterwards the factors of each term are pairwise coprime (each carries
    its own slack), and setting all slacks to 1 formally recovers the input.
    The table grows, so the result has a new layout.
    """
    table = ts.table
    out = []
    for t in ts.unpacked():
        # f never holds the fresh slack variable, so sorting the pairs places it
        den = sorted(tuple(sorted((*f, (table.fresh_slack(), 1)))) for f in t.den)
        # slack lead keeps every factor small-oriented
        out.append(ElliottTerm(t.num, tuple(den)))
    return TermSum.pack(table, ts.ring, out)


def normalize_for_var(ring, t, xs, layout):
    """Rewrite every denominator factor to nonnegative x-exponent.

    xs holds the x-exponents of t.den.  1/(1 - u*x^-a) =
    (-u^-1 x^a) / (1 - u^-1 x^a); the units collect into the numerator.
    Returns (num, den_list): a packed numerator and a den list in working
    form, not canonical orientation.  t is a stored term, within the
    layout bound.
    """
    unit = 0
    flips = 0
    den = []
    for f, x in zip(t.den, xs):
        if x < 0:
            den.append(-f)
            unit -= f
            flips += 1
        else:
            den.append(f)
    if flips:
        _check(layout, layout.bound * (1 + flips))
        return _push_units(ring.reduce, t.num, unit, flips), den
    return t.num, den


def _check_pairwise_coprime(den, xs, layout):
    """Non-coprime x-factors (positively proportional after normalization) collide.

    den is canonical and xs holds its x-exponents; a factor with a negative
    one normalizes to its inverse.  Normalized f and g with x-exponents
    a, b > 0 are positively proportional exactly when f*b == g*a, that is
    when their fractions f/a and g/b in lowest terms are equal, so one set
    of those fractions finds every such pair.  The layout bound squared
    bounds the exponents of the cross multiples f*b.
    """
    _check(layout, layout.bound ** 2)
    seen = set()
    for f, a in zip(den, xs):
        if a == 0:
            continue
        if a < 0:
            f, a = -f, -a
        g = gcd(f, a)
        key = (f // g, a // g)
        if key in seen:
            raise CollisionError("denominator factors share a common binomial divisor")
        seen.add(key)


def linear_contribution(ring, num, den, xs, i, xvid, layout, kd, kn, emit):
    """<E, 1-u*x| for a linear pivot: drop the factor and set x = u^-1.

    xs holds the x-exponents of den, all nonnegative.  With f = u*x, a
    monomial with x-exponent k becomes e - k*f.  One pass over den makes
    the term's canonical factors: each is substituted, flipped when large
    (its unit joins the numerator) and interned.  The canonical term goes
    to emit unless its numerator vanishes.  A surviving factor monomial
    collapsing to 1 is a non-coprime collision, raised once the factor
    bound has been checked.
    """
    f = den[i]
    intern = layout.intern
    unit = 0
    flips = 0
    collided = False
    canon = []
    for j, (g, k) in enumerate(zip(den, xs)):
        if j == i:
            continue
        if k:
            g -= k * f
        if g < 0:
            unit -= g
            flips += 1
            g = -g
        elif not g:
            collided = True
        canon.append(intern(g, g))
    kd1 = kd * (1 + max(xs))
    _check(layout, kd1)
    if collided:
        raise CollisionError("factor monomial became 1 after linear substitution")
    bias, s, mask, half = layout.bias, layout.shift[xvid], layout.mask, layout.half
    room = len(canon) * kd1
    reduce = ring.reduce
    if len(num) == 2:
        e, c = num
        k = (((e + bias) >> s) & mask) - half
        _check(layout, kn + abs(k) * kd + room)
        num = (e - k * f + unit, reduce(-c) if flips % 2 else c)
    else:
        es = num[::2]
        ks = [(((e + bias) >> s) & mask) - half for e in es]
        _check(layout, kn + max(map(abs, ks)) * kd + room)
        cs = [reduce(-c) for c in num[1::2]] if flips % 2 else num[1::2]
        num = _merged(reduce, [e - k * f + unit for e, k in zip(es, ks)], cs)
        if not num:
            return
    canon.sort()
    emit(ElliottTerm(num, tuple(canon)))


def euclid_contribution(ring, num, den, xs, i, xvid, layout, kd, kn, emit, stats=None):
    """<E, 1-u*x^a| by the halving remainder recursion.

    xs holds the x-exponents of den, all nonnegative, so a = xs[i].  Every
    other factor's x-power is reduced symmetrically modulo the pivot (new
    exponents lie in [0, a/2]); the numerator is reduced to x-degrees in
    [0, a).  If no reduced factor keeps an x-power the answer can be read
    off directly; otherwise the numerator is shifted into x * L' and the
    bracket re-expressed through the reduced factors, whose exponents are at
    most half the pivot's.  kd and kn bound the exponents of den and num; a
    reduction by l steps multiplies the factor bound by at most 1 + |l|.
    Each canonical term of the answer goes to emit as it is made.

    One pass over den forms each factor's split, its reduced and possibly
    flipped value and the units; the bounds are checked after it, in the
    order kd1, a collision, kn1, kn2.  A numerator of one monomial is
    reduced without a dict: only several monomials can meet.
    """
    if stats is not None:
        stats.euclid_nodes += 1
    a = xs[i]
    if a <= 0:
        raise ValueError("pivot factor must have positive x-exponent")
    if a == 1:
        linear_contribution(ring, num, den, xs, i, xvid, layout, kd, kn, emit)
        return

    f = den[i]
    h = a >> 1  # r > h exactly when 2r > a: the split takes the symmetric window
    top = 1  # the largest step; the pivot's own split is (1, 0)
    unit = 0
    flips = 0
    collided = False
    reduced = []
    rxs = []
    for j, (g, x) in enumerate(zip(den, xs)):
        if j == i:
            continue
        l, r = divmod(x, a)
        if r > h:
            l += 1
            r -= a
        if l:
            if l > top:
                top = l
            g -= l * f
        if r < 0:
            # negative power: flip, unit -v^-1 x^-r joins the numerator
            unit -= g
            flips += 1
            g = -g
            r = -r
        elif not (r or g):
            collided = True
        reduced.append(g)
        rxs.append(r)
    kd1 = kd * (1 + top)
    _check(layout, kd1)
    if collided:
        raise CollisionError("factor reduced to 1 modulo the pivot")
    kn1 = kn + flips * kd1
    if flips:
        _check(layout, kn1)

    bias, s, mask, half = layout.bias, layout.shift[xvid], layout.mask, layout.half
    reduce = ring.reduce
    if len(num) == 2:
        e, c = num
        if flips:
            e += unit
            if flips % 2:
                c = reduce(-c)
        l = ((((e + bias) >> s) & mask) - half) // a
        kn2 = kn1 + abs(l) * kd
        _check(layout, kn2)
        rem = (e - l * f, c)
    else:
        if flips:
            num = _push_units(reduce, num, unit, flips)
        es = num[::2]
        ls = [((((e + bias) >> s) & mask) - half) // a for e in es]
        kn2 = kn1 + max(map(abs, ls)) * kd
        _check(layout, kn2)
        rem = _merged(reduce, [e - l * f for e, l in zip(es, ls)], num[1::2])
        if not rem:
            return

    if not any(rxs):
        # the bracket is the x^0 coefficient of the reduced numerator over
        # the x-free reduced factors
        l0 = tuple(chain.from_iterable(
            p for p in num_items(rem) if (((p[0] + bias) >> s) & mask) == half))
        if not l0:
            return
        _check(layout, kn2 + len(reduced) * kd1)
        t = make_term(ring, l0, reduced, layout)
        if t is not None:
            emit(t)
        return

    # shift: numerator = x * L'(x) with deg L' < a, then expand through the
    # reduced factors; the pivot contribution equals minus the sum of theirs.
    # Only the monomials of x-degree 0 move, to degree a, so none meet, and
    # the brackets are linear in the numerator: negate it once, not every term
    kn3 = kn2 + kd
    _check(layout, kn3)
    if len(rem) == 2:
        e, c = rem
        shifted = (e + f if (((e + bias) >> s) & mask) == half else e, reduce(-c))
    else:
        shifted = []
        for e, c in num_items(rem):
            shifted += (e + f if (((e + bias) >> s) & mask) == half else e, reduce(-c))
        shifted = tuple(shifted)
    reduced.append(f)
    rxs.append(a)
    for idx in range(len(rxs) - 1):
        if rxs[idx]:
            euclid_contribution(ring, shifted, reduced, rxs, idx, xvid, layout, kd1, kn3, emit,
                                stats)


def ct_var(ring, t, xvid, layout, emit, stats=None):
    """Constant term of one stored term in one variable, free of x.

    Its terms go to emit one at a time, as they are made.  A term with no
    x in its denominator keeps its x-free monomials: when that is all of
    them, the term itself is emitted.
    """
    bias, s, mask, half = layout.bias, layout.shift[xvid], layout.mask, layout.half
    xs = [(((f + bias) >> s) & mask) - half for f in t.den]
    if not any(xs):
        kept = [p for p in num_items(t.num) if (((p[0] + bias) >> s) & mask) == half]
        if 2 * len(kept) == len(t.num):
            emit(t)
        elif kept:
            emit(ElliottTerm(tuple(chain.from_iterable(kept)), t.den))
        return

    num, den = normalize_for_var(ring, t, xs, layout)
    _check_pairwise_coprime(t.den, xs, layout)
    # l1 (positive x-exponents) enters the large-factor brackets negated
    reduce = ring.reduce
    l1, l2 = [], []
    for e, c in num_items(num):
        if (((e + bias) >> s) & mask) > half:
            l1 += (e, reduce(-c))
        else:
            l2 += (e, c)
    l1, l2 = tuple(l1), tuple(l2)
    kd = layout.bound
    kn = kd * (1 + sum(1 for x in xs if x < 0))
    # the x-exponents of the normalized den, handed down to every bracket
    xs = [abs(x) for x in xs]
    for i, f in enumerate(den):
        if xs[i] == 0:
            continue
        if f > 0:
            if l2:
                euclid_contribution(ring, l2, den, xs, i, xvid, layout, kd, kn, emit, stats)
        elif l1:
            euclid_contribution(ring, l1, den, xs, i, xvid, layout, kd, kn, emit, stats)


def _num_sum(ring, a, b):
    """The packed numerator a + b, in the order a dict would keep its monomials."""
    reduce = ring.reduce
    if len(b) == 2:
        # b is one monomial, as in most merges: no dict is built
        e, c = b
        es = a[::2]
        if e not in es:
            return a + b
        i = 2 * es.index(e)
        c = reduce(a[i + 1] + c)
        if not c:
            return a[:i] + a[i + 2:]
        return a[:i + 1] + (c,) + a[i + 2:]
    acc = dict(num_items(a))
    for e, c in num_items(b):
        add_into(reduce, acc, e, c)
    return _packed(acc)


class TermSink:
    """The buckets {den: term} of one stage-A round, merging each term handed to ``add``.

    ``made`` counts those terms: the round's raw terms.  The first term of
    a denominator opens its bucket as it is; a later one replaces it by the
    sum, and a bucket whose numerator cancels to zero is dropped until a
    term with its denominator comes again.
    """

    __slots__ = ("ring", "buckets", "made")

    def __init__(self, ring):
        self.ring = ring
        self.buckets = {}
        self.made = 0

    def add(self, t):
        self.made += 1
        buckets = self.buckets
        n = len(buckets)
        old = buckets.setdefault(t.den, t)
        if len(buckets) > n:
            return
        num = _num_sum(self.ring, old.num, t.num)
        if num:
            buckets[t.den] = ElliottTerm(num, t.den)
        else:
            del buckets[t.den]


def collect_terms(layout, buckets):
    """The terms of buckets {den: term} packed by layout, every numerator nonzero.

    They are ordered by denominator as tuples of ints, so the order does
    not depend on the order of merging.
    """
    return [buckets[den] for den in sorted(buckets)]


def _occurrence_counts(terms, vids, layout):
    bias, mask, half = layout.bias, layout.mask, layout.half
    shifts = [(v, layout.shift[v]) for v in vids]
    counts = {v: 0 for v in vids}
    for t in terms:
        for f in t.den:
            u = f + bias
            for v, s in shifts:
                if (u >> s) & mask != half:
                    counts[v] += 1
    return counts


def _monomials(terms):
    """A function giving a fresh iterator over every monomial and factor of terms."""
    return lambda: chain.from_iterable(chain(t.num[::2], t.den) for t in terms)


def _relayout(old, new):
    """A function that moves a term packed by old to new, each distinct monomial once."""
    if new.packs_like(old):
        return lambda t: t
    move = cache(lambda m: new.pack(old.unpack(m)))
    intern = new.intern
    return lambda t: ElliottTerm(_packed({move(e): c for e, c in num_items(t.num)}),
                                 tuple(sorted(intern(f, f) for f in map(move, t.den))))


def ct_all(ts, ct_vids=None, order="given", stats=None):
    """Eliminate every ct variable, collecting each round as it goes.

    order "sparse-first" greedily picks the variable occurring in the fewest
    denominator factors.  The factors of every term must be pairwise coprime
    in each ct variable, as a slack variable on each factor makes them; the
    table does not change here.  A collision raises CollisionError.

    Each round gets one TermSink, which merges the terms ct_var makes as
    they come; collect_terms orders its buckets once the round is done.  A
    round in which a term needs more room than the layout's reach
    (WidthError) is redone from its first term under a layout with the
    reach asked for: the round's sink is dropped and its input terms move
    to the new layout.  After each round the layout bound grows to cover
    the collected terms.  raw-terms and euclid-nodes count the attempt of
    each round that finished; a round that raises counts none of its own,
    so no counter depends on the order in which a round meets its terms.

    A round that makes no Euclid node and starts from collected terms
    (those of an earlier round, or a TermSum ct_all returned) passes
    through: every bucket holds one sliced term, in input order, or the
    input term itself when it has no x, and neither collect_terms nor the
    layout bound runs again.  The result is the one collecting would give,
    and the round's counters are unchanged.
    """
    ring = ts.ring
    layout = ts.layout
    table = layout.table
    stats = stats if stats is not None else Stats()
    if ct_vids is None:
        ct_vids = table.vids_of_rank(CT)
    remaining = list(ct_vids)
    terms = list(ts.terms)
    collected = ts.collected
    while remaining:
        if order == "sparse-first":
            counts = _occurrence_counts(terms, remaining, layout)
            xvid = min(remaining, key=lambda v: (counts[v], v))
            remaining.remove(xvid)
        else:
            xvid = remaining.pop(0)
        src = layout
        nodes_before = stats.euclid_nodes
        while True:
            sink = TermSink(ring)
            try:
                for t in terms:
                    ct_var(ring, t, xvid, layout, sink.add, stats)
                break
            except WidthError as exc:
                grown = Layout(table, layout.bound, exc.need << ROOM_BITS, like=layout)
            except CollisionError:
                stats.collisions += 1
                stats.euclid_nodes = nodes_before
                raise
            del sink  # the round is redone from its first term
            stats.euclid_nodes = nodes_before
            terms = list(map(_relayout(layout, grown), terms))
            layout = grown
        stats.raw_terms += sink.made
        if collected and layout is src and stats.euclid_nodes == nodes_before:
            # only a Euclid node makes a new denominator: every term kept
            # its own and a slice of its numerator, or vanished, so the
            # terms stay collected and inside the layout bound
            terms = list(sink.buckets.values())
            continue
        terms = collect_terms(layout, sink.buckets)
        del sink  # else its buckets would keep the old terms alive through a relayout
        collected = True
        bound = layout.magnitude(_monomials(terms))
        if bound > layout.bound:
            room = max(layout.reach, bound * bound << ROOM_BITS)
            grown = Layout(table, bound, room, like=layout)
            terms = list(map(_relayout(layout, grown), terms))
            layout = grown
    stats.collected_terms = len(terms)
    return TermSum(layout, ring, terms, collected)
