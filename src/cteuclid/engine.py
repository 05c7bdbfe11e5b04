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
"""

from __future__ import annotations

from .algebra import (
    CT,
    EXPS_ONE,
    LARGE,
    ONE,
    SMALL,
    compare_to_one,
    exps_content_primitive,
    exps_get,
    exps_inv,
    exps_mul,
    exps_pow,
    exps_without,
    poly_add_inplace,
    poly_mul_monomial,
    poly_neg,
    poly_rem,
    poly_slice_zero,
    split_by_sign,
    srem_split,
    substitute,
)


class CollisionError(RuntimeError):
    """Non-coprime denominator factors met during elimination.

    With eager slack insertion, the only policy of pipeline runs, this
    signals a broken invariant.  In delayed mode, which only the raw ct
    command offers, ct_all restarts the offending term with slack variables.
    """


class Stats:
    """Counters reported in diagnostics (never consulted for results)."""

    __slots__ = (
        "raw_terms",
        "collected_terms",
        "euclid_nodes",
        "collisions",
        "restarts",
        "ct_s_calls",
        "summand_max",
        "summand_bound_ok",
    )

    def __init__(self):
        self.raw_terms = 0
        self.collected_terms = 0
        self.euclid_nodes = 0
        self.collisions = 0
        self.restarts = 0
        self.ct_s_calls = 0
        self.summand_max = 0
        self.summand_bound_ok = True

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}

    def load(self, d):
        for k, v in d.items():
            if k in self.__slots__:
                setattr(self, k, v)

    def merge(self, other):
        """Add the counters of another run part (max and all() for the summand checks)."""
        for k in ("raw_terms", "collected_terms", "euclid_nodes", "collisions", "restarts",
                  "ct_s_calls"):
            setattr(self, k, getattr(self, k) + getattr(other, k))
        self.summand_max = max(self.summand_max, other.summand_max)
        self.summand_bound_ok = self.summand_bound_ok and other.summand_bound_ok


class ElliottTerm:
    """One summand L / prod(1 - M_i), factors kept small-oriented and sorted."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return f"ElliottTerm(num={len(self.num)} monomials, den={len(self.den)} factors)"


def make_term(ring, num, factors):
    """Build a term in canonical form; returns None for the zero term.

    Large factor monomials are inverted, 1/(1-M) = -M^-1/(1-M^-1), with the
    unit pushed into the numerator.  A factor monomial equal to 1 means the
    denominator vanished: that is the non-coprime collision.
    """
    unit = EXPS_ONE
    flips = 0
    canon = []
    for f in factors:
        side = compare_to_one(f)
        if side is ONE:
            raise CollisionError("denominator factor monomial equals 1")
        if side is LARGE:
            fi = exps_inv(f)
            canon.append(fi)
            unit = exps_mul(unit, fi)
            flips += 1
        else:
            canon.append(f)
    if flips:
        sign = ring.from_int(-1) if flips % 2 else ring.one()
        num = poly_mul_monomial(ring, num, sign, unit)
    if not num:
        return None
    canon.sort()
    return ElliottTerm(num, tuple(canon))


def term_neg(ring, t):
    return ElliottTerm(poly_neg(ring, t.num), t.den)


class TermSum:
    """A list of terms sharing one variable table and coefficient ring."""

    def __init__(self, table, ring, terms=None):
        self.table = table
        self.ring = ring
        self.terms = list(terms) if terms else []

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


def add_slack(ts):
    """Multiply every denominator factor by a fresh slack variable.

    Afterwards the factors of each term are pairwise coprime (each carries
    its own slack), and setting all slacks to 1 formally recovers the input.
    """
    out = []
    for t in ts.terms:
        out.append(add_slack_term(ts.table, t))
    return TermSum(ts.table, ts.ring, out)


def add_slack_term(table, t):
    den = []
    for f in t.den:
        z = table.fresh_slack()
        den.append(exps_mul(f, ((z, 1),)))
    den.sort()  # slack lead keeps every factor small-oriented
    return ElliottTerm(dict(t.num), tuple(den))


def normalize_for_var(ring, t, xvid):
    """Rewrite every denominator factor to nonnegative x-exponent.

    1/(1 - u*x^-a) = (-u^-1 x^a) / (1 - u^-1 x^a); the units collect into
    the numerator.  Returns (num, den_list); the den list is working form,
    not canonical orientation.
    """
    unit = EXPS_ONE
    flips = 0
    den = []
    for f in t.den:
        if exps_get(f, xvid) < 0:
            fi = exps_inv(f)
            den.append(fi)
            unit = exps_mul(unit, fi)
            flips += 1
        else:
            den.append(f)
    num = t.num
    if flips:
        sign = ring.from_int(-1) if flips % 2 else ring.one()
        num = poly_mul_monomial(ring, num, sign, unit)
    return num, den


def _check_pairwise_coprime(den, xvid):
    """Non-coprime x-factors (proportional monomials) raise a collision."""
    seen = {}
    for f in den:
        if exps_get(f, xvid) == 0:
            continue
        p = exps_content_primitive(f)
        if p in seen:
            raise CollisionError("denominator factors share a common binomial divisor")
        seen[p] = f


def linear_contribution(ring, num, den, i, xvid):
    """<E, 1-u*x| for a linear pivot: drop the factor and set x = u^-1.

    Returns a canonical term or None (zero).  A surviving factor monomial
    collapsing to 1 is a non-coprime collision.
    """
    f = den[i]
    u = exps_without(f, xvid)
    uinv = exps_inv(u)
    new_factors = []
    for j, g in enumerate(den):
        if j == i:
            continue
        k = exps_get(g, xvid)
        if k == 0:
            new_factors.append(g)
            continue
        ng = exps_mul(exps_without(g, xvid), exps_pow(uinv, k))
        if not ng:
            raise CollisionError("factor monomial became 1 after linear substitution")
        new_factors.append(ng)
    new_num = substitute(ring, num, xvid, ring.one(), uinv)
    return make_term(ring, new_num, new_factors)


def euclid_contribution(ring, num, den, i, xvid, stats=None):
    """<E, 1-u*x^a| by the halving remainder recursion.

    Every other factor's x-power is reduced symmetrically modulo the pivot
    (new exponents lie in [0, a/2]); the numerator is reduced to x-degrees
    in [0, a).  If no reduced factor keeps an x-power the answer can be read
    off directly; otherwise the numerator is shifted into x * L' and the
    bracket re-expressed through the reduced factors, whose exponents are at
    most half the pivot's.  Returns a list of canonical terms.
    """
    if stats is not None:
        stats.euclid_nodes += 1
    f = den[i]
    a = exps_get(f, xvid)
    if a <= 0:
        raise ValueError("pivot factor must have positive x-exponent")
    if a == 1:
        t = linear_contribution(ring, num, den, i, xvid)
        return [t] if t is not None else []

    u = exps_without(f, xvid)
    unit = EXPS_ONE
    flips = 0
    reduced = []
    for j, g in enumerate(den):
        if j == i:
            continue
        k = exps_get(g, xvid)
        if k == 0:
            reduced.append(g)
            continue
        w = exps_without(g, xvid)
        l, r = srem_split(k, a)
        v = exps_mul(w, exps_pow(u, -l))
        if r == 0 and not v:
            raise CollisionError("factor reduced to 1 modulo the pivot")
        if r >= 0:
            nf = exps_mul(v, ((xvid, r),)) if r else v
            reduced.append(nf)
        else:
            # negative power: flip, unit -v^-1 x^-r joins the numerator
            nf = exps_mul(exps_inv(v), ((xvid, -r),))
            reduced.append(nf)
            unit = exps_mul(unit, nf)
            flips += 1

    if flips or unit:
        sign = ring.from_int(-1) if flips % 2 else ring.one()
        num = poly_mul_monomial(ring, num, sign, unit)
    num = poly_rem(ring, num, u, a, xvid)
    if not num:
        return []

    if all(exps_get(g, xvid) == 0 for g in reduced):
        # the bracket is the x^0 coefficient of the reduced numerator over
        # the x-free reduced factors
        l0 = poly_slice_zero(num, xvid)
        if not l0:
            return []
        t = make_term(ring, l0, reduced)
        return [t] if t is not None else []

    # shift: numerator = x * L'(x) with deg L' < a, then expand through the
    # reduced factors; the pivot contribution equals minus the sum of theirs
    shifted = {}
    ua = exps_mul(u, ((xvid, a),))
    for e, c in num.items():
        ne = exps_mul(e, ua) if exps_get(e, xvid) == 0 else e
        if ne in shifted:
            s = ring.add(shifted[ne], c)
            if ring.is_zero(s):
                del shifted[ne]
            else:
                shifted[ne] = s
        else:
            shifted[ne] = c
    den2 = tuple(reduced) + (f,)
    out = []
    for idx, g in enumerate(reduced):
        if exps_get(g, xvid) > 0:
            for t in euclid_contribution(ring, shifted, den2, idx, xvid, stats):
                out.append(term_neg(ring, t))
    return out


def bracket(ring, t, f_exps, xvid, stats=None):
    """Single-factor contribution <t, 1-f| in x; zero if f is absent."""
    num, den = normalize_for_var(ring, t, xvid)
    nf = f_exps if exps_get(f_exps, xvid) >= 0 else exps_inv(f_exps)
    if exps_get(nf, xvid) == 0:
        return []
    for i, g in enumerate(den):
        if g == nf:
            return euclid_contribution(ring, num, den, i, xvid, stats)
    return []


def ct_var(ring, t, xvid, stats=None):
    """Constant term of one term in one variable; result is free of x."""
    if all(exps_get(f, xvid) == 0 for f in t.den):
        sliced = poly_slice_zero(t.num, xvid)
        if not sliced:
            return []
        kept = make_term(ring, sliced, t.den)
        return [kept] if kept is not None else []

    num, den = normalize_for_var(ring, t, xvid)
    _check_pairwise_coprime(den, xvid)
    l1, l2 = split_by_sign(num, xvid)
    out = []
    for i, f in enumerate(den):
        if exps_get(f, xvid) <= 0:
            continue
        if compare_to_one(f) is SMALL:
            if l2:
                out.extend(euclid_contribution(ring, l2, den, i, xvid, stats))
        else:
            if l1:
                for r in euclid_contribution(ring, l1, den, i, xvid, stats):
                    out.append(term_neg(ring, r))
    return out


def collect_terms(ring, terms):
    """Merge terms with identical denominators; drop zero numerators.

    The output order is the sort order of the canonical denominator keys,
    so it does not depend on the input order.
    """
    buckets = {}
    for t in terms:
        if t.den in buckets:
            poly_add_inplace(ring, buckets[t.den], t.num)
        else:
            buckets[t.den] = dict(t.num)
    out = []
    for den in sorted(buckets):
        num = buckets[den]
        if num:
            out.append(ElliottTerm(num, den))
    return out


def _occurrence_counts(terms, vids):
    counts = {v: 0 for v in vids}
    for t in terms:
        for f in t.den:
            for v, _ in f:
                if v in counts:
                    counts[v] += 1
    return counts


def ct_all(ts, ct_vids=None, order="given", delayed=False, stats=None):
    """Eliminate every ct variable, collecting after each round.

    order "sparse-first" greedily picks the variable occurring in the fewest
    denominator factors.  With delayed=True (the raw ct command's delayed
    slack mode) a collision restarts just the offending term with fresh
    slack variables on all its factors; pipeline runs start with slack on
    every factor and pass delayed=False, so a collision there raises.
    """
    ring = ts.ring
    stats = stats if stats is not None else Stats()
    if ct_vids is None:
        ct_vids = ts.table.vids_of_rank(CT)
    remaining = list(ct_vids)
    terms = list(ts.terms)
    while remaining:
        if order == "sparse-first":
            counts = _occurrence_counts(terms, remaining)
            xvid = min(remaining, key=lambda v: (counts[v], v))
            remaining.remove(xvid)
        else:
            xvid = remaining.pop(0)
        new_terms = []
        for t in terms:
            try:
                new_terms.extend(ct_var(ring, t, xvid, stats))
            except CollisionError:
                stats.collisions += 1
                if not delayed:
                    raise
                cur = t
                for _ in range(4):
                    stats.restarts += 1
                    cur = add_slack_term(ts.table, cur)
                    try:
                        new_terms.extend(ct_var(ring, cur, xvid, stats))
                        break
                    except CollisionError:
                        stats.collisions += 1
                else:
                    raise
        stats.raw_terms += len(new_terms)
        terms = collect_terms(ring, new_terms)
    stats.collected_terms = len(terms)
    return TermSum(ts.table, ring, terms)
