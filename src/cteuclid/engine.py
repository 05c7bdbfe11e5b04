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
raises WidthError past it.  Stage B reads the packed terms as they are,
through the layout's ``unpack``; only a checkpoint writes them in tuple form,
through ``TermSum.unpacked``.

Inside the engine a denominator is its factors sorted as ints, which is
all that collecting needs, and two factors are tested for a common
binomial divisor by cross-multiplying them with each other's x-exponent.
The order of exps tuples is applied once, as terms leave: the result file,
the checkpoint's term chunks and stage B's chunks see only that order.

Each exponent is decoded once: ct_var reads the x-exponent of every
denominator factor and hands the normalized list down with the factors, and
each Euclid node passes on the reduced exponents it computed.  A round pays
only for what it changes: when no term needs a Euclid node, every term keeps
its denominator and a slice of its numerator, so a round over collected
terms (a dependent equation, say) stays collected without being ordered
again.

A round holds only what it keeps.  Every stored denominator factor is the
layout's one int object of its value (``Layout.intern``).  ct_var and the
Euclid recursion hand each term they make to a sink as it is made: ct_all
gives each round one sink, which merges the term into the round's buckets,
one numerator per denominator.  So a round's raw terms never exist side by
side, and each is merged once.

Stage A has one slack policy: every denominator factor gets its own slack
variable before the first round (a pipeline run when it builds its starting
term, the raw ct command through add_slack), which keeps the factors of a
term pairwise coprime in every ct variable.  So the variable table is fixed
while ct_all runs, and a collision is a broken invariant that raises.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .algebra import (
    CT,
    ROOM_BITS,
    Layout,
    WidthError,
    poly_add_inplace,
    poly_neg,
    srem_split,
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

    Packed factors are sorted as ints, tuple-form factors as exps tuples.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return f"ElliottTerm(num={len(self.num)} monomials, den={len(self.den)} factors)"


def _check(layout, bound):
    if bound > layout.reach:
        raise WidthError(bound)


def _xdigit(layout, xvid):
    """(bias, shift, mask, half): the exponent of x in m is ((m + bias) >> shift & mask) - half."""
    return layout.bias, layout.shift[xvid], layout.mask, layout.half


def _push_units(ring, num, unit, flips):
    """num times (-1)**flips * unit, the units that inverting flips factors pushes into it."""
    if flips % 2:
        return {e + unit: ring.neg(c) for e, c in num.items()}
    return {e + unit: c for e, c in num.items()}


def _add_into(ring, out, e, c):
    if e in out:
        s = ring.add(out[e], c)
        if ring.is_zero(s):
            del out[e]
        else:
            out[e] = s
    else:
        out[e] = c


def make_term(ring, num, factors, layout):
    """Build a term in canonical form; returns None for the zero term.

    Large factor monomials are inverted, 1/(1-M) = -M^-1/(1-M^-1), with the
    unit pushed into the numerator.  A factor monomial equal to 1 means the
    denominator vanished: that is the non-coprime collision.  The caller
    has checked that the numerator has room for the unit.
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
        num = _push_units(ring, num, unit, flips)
    if not num:
        return None
    canon.sort()
    return ElliottTerm(num, tuple(canon))


def pack_term(layout, t):
    intern = layout.intern
    return ElliottTerm({layout.pack(e): c for e, c in t.num.items()},
                       tuple(sorted(intern(f, f) for f in map(layout.pack, t.den))))


def unpack_term(unpack, t):
    """t in tuple form, its factors sorted as exps tuples; unpack decodes one monomial."""
    return ElliottTerm({unpack(e): c for e, c in t.num.items()},
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

    def unpacked(self):
        """The terms in tuple form, ordered by denominator when collected."""
        # a cache local to this pass decodes each distinct monomial once
        unpack = cache(self.layout.unpack)
        terms = [unpack_term(unpack, t) for t in self.terms]
        if self.collected:
            terms.sort(key=lambda t: t.den)
        return terms

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
    t = make_term(ring, {layout.pack(e): c for e, c in num.items()},
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
    Returns (num, den_list); the den list is working form, not canonical
    orientation.  t is a stored term, within the layout bound.
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
    num = t.num
    if flips:
        _check(layout, layout.bound * (1 + flips))
        num = _push_units(ring, num, unit, flips)
    return num, den


def _check_pairwise_coprime(den, xs, layout):
    """Non-coprime x-factors (positively proportional after normalization) collide.

    den is canonical and xs holds its x-exponents; a factor with a negative
    one normalizes to its inverse.  Normalized f and g with x-exponents
    a, b > 0 are positively proportional exactly when f*b == g*a, values
    whose exponents the layout bound squared bounds.
    """
    _check(layout, layout.bound ** 2)
    seen = []
    for f, a in zip(den, xs):
        if a == 0:
            continue
        if a < 0:
            f, a = -f, -a
        for g, b in seen:
            if f * b == g * a:
                raise CollisionError("denominator factors share a common binomial divisor")
        seen.append((f, a))


def linear_contribution(ring, num, den, xs, i, xvid, layout, kd, kn):
    """<E, 1-u*x| for a linear pivot: drop the factor and set x = u^-1.

    xs holds the x-exponents of den, all nonnegative.  With f = u*x, a
    monomial with x-exponent k becomes e - k*f.  Returns a canonical term or
    None (zero).  A surviving factor monomial collapsing to 1 is a
    non-coprime collision.
    """
    bias, s, mask, half = _xdigit(layout, xvid)
    f = den[i]
    kd1 = kd * (1 + max(xs))
    _check(layout, kd1)
    new_factors = [g - k * f if k else g for j, (g, k) in enumerate(zip(den, xs)) if j != i]
    if not all(new_factors):
        raise CollisionError("factor monomial became 1 after linear substitution")
    ks = [(((e + bias) >> s) & mask) - half for e in num]
    kn1 = kn + max(map(abs, ks), default=0) * kd
    _check(layout, kn1 + len(new_factors) * kd1)
    new_num = {}
    for (e, c), k in zip(num.items(), ks):
        _add_into(ring, new_num, e - k * f, c)
    return make_term(ring, new_num, new_factors, layout)


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
    """
    if stats is not None:
        stats.euclid_nodes += 1
    bias, s, mask, half = _xdigit(layout, xvid)
    f = den[i]
    a = xs[i]
    if a <= 0:
        raise ValueError("pivot factor must have positive x-exponent")
    if a == 1:
        t = linear_contribution(ring, num, den, xs, i, xvid, layout, kd, kn)
        if t is not None:
            emit(t)
        return

    splits = [srem_split(x, a) for x in xs]
    kd1 = kd * (1 + max(abs(l) for l, _ in splits))
    _check(layout, kd1)
    unit = 0
    flips = 0
    reduced = []
    rxs = []
    for j, (g, (l, r)) in enumerate(zip(den, splits)):
        if j == i:
            continue
        nf = g - l * f
        if r >= 0:
            if r == 0 and not nf:
                raise CollisionError("factor reduced to 1 modulo the pivot")
            reduced.append(nf)
            rxs.append(r)
        else:
            # negative power: flip, unit -v^-1 x^-r joins the numerator
            reduced.append(-nf)
            rxs.append(-r)
            unit -= nf
            flips += 1

    kn1 = kn + flips * kd1
    if flips:
        _check(layout, kn1)
        num = _push_units(ring, num, unit, flips)
    ls = [((((e + bias) >> s) & mask) - half) // a for e in num]
    kn2 = kn1 + max(map(abs, ls), default=0) * kd
    _check(layout, kn2)
    rem = {}
    for (e, c), l in zip(num.items(), ls):
        _add_into(ring, rem, e - l * f, c)
    if not rem:
        return

    if not any(rxs):
        # the bracket is the x^0 coefficient of the reduced numerator over
        # the x-free reduced factors
        l0 = {e: c for e, c in rem.items() if (((e + bias) >> s) & mask) == half}
        if not l0:
            return
        _check(layout, kn2 + len(reduced) * kd1)
        t = make_term(ring, l0, reduced, layout)
        if t is not None:
            emit(t)
        return

    # shift: numerator = x * L'(x) with deg L' < a, then expand through the
    # reduced factors; the pivot contribution equals minus the sum of theirs
    kn3 = kn2 + kd
    _check(layout, kn3)
    shifted = {}
    for e, c in rem.items():
        _add_into(ring, shifted, e + f if (((e + bias) >> s) & mask) == half else e, c)
    # the brackets are linear in the numerator: negate it once, not every term
    shifted = poly_neg(ring, shifted)
    den2 = tuple(reduced) + (f,)
    xs2 = rxs + [a]
    for idx, x in enumerate(rxs):
        if x > 0:
            euclid_contribution(ring, shifted, den2, xs2, idx, xvid, layout, kd1, kn3, emit, stats)


def ct_var(ring, t, xvid, layout, emit, stats=None):
    """Constant term of one stored term in one variable, free of x.

    Its terms go to emit one at a time, as they are made.
    """
    bias, s, mask, half = _xdigit(layout, xvid)
    xs = [(((f + bias) >> s) & mask) - half for f in t.den]
    if not any(xs):
        sliced = {e: c for e, c in t.num.items() if (((e + bias) >> s) & mask) == half}
        if sliced:
            emit(ElliottTerm(sliced, t.den))
        return

    num, den = normalize_for_var(ring, t, xs, layout)
    _check_pairwise_coprime(t.den, xs, layout)
    # l1 (positive x-exponents) enters the large-factor brackets negated
    l1, l2 = {}, {}
    for e, c in num.items():
        if (((e + bias) >> s) & mask) > half:
            l1[e] = ring.neg(c)
        else:
            l2[e] = c
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


class TermSink:
    """The buckets {den: num} of one stage-A round, merging each term handed to ``add``.

    ``made`` counts those terms: the round's raw terms.  A numerator that
    opens a bucket is handed over to it, so it must not be used afterwards;
    the terms the engine makes qualify.
    """

    __slots__ = ("ring", "buckets", "made")

    def __init__(self, ring):
        self.ring = ring
        self.buckets = {}
        self.made = 0

    def add(self, t):
        self.made += 1
        old = self.buckets.setdefault(t.den, t.num)
        if old is not t.num:
            poly_add_inplace(self.ring, old, t.num)


def collect_terms(layout, buckets):
    """The terms of buckets {den: num} packed by layout whose numerator is not zero.

    They are ordered by denominator as tuples of ints, so the order does
    not depend on the order of merging.
    """
    return [ElliottTerm(buckets[den], den) for den in sorted(buckets) if buckets[den]]


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
    return chain.from_iterable(chain(t.num, t.den) for t in terms)


def _relayout(old, new):
    """A function that moves a term packed by old to new, each distinct monomial once."""
    if new.packs_like(old):
        return lambda t: t
    move = cache(lambda m: new.pack(old.unpack(m)))
    intern = new.intern
    return lambda t: ElliottTerm({move(e): c for e, c in t.num.items()},
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
    through: every bucket holds one sliced term, in input order, and
    neither collect_terms nor the layout bound runs again.  The result is
    the one collecting would give, and the round's counters are unchanged.
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
            terms = [ElliottTerm(num, den) for den, num in sink.buckets.items()]
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
