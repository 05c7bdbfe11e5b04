"""Reference computations that the shipped code no longer needs.

Each routine here is a slower or more literal route to something the
package computes another way; the tests compare the two.

* The tuple-form stage A, ``make_term`` through ``ct_all``, with the
  tuple helpers it needs: monomials are sorted (vid, exp) tuples and every
  monomial operation walks them.  The ``engine`` computes the same on
  packed ints and must reproduce it term for term, counters included.
* ``ct_via_proper`` and ``ct_via_at_zero`` are the two closed forms of a
  one-variable constant term, each valid on its own class of terms;
  ``engine.ct_var`` must agree with both where they apply.
* ``term_y_series`` expands a sum of y-only terms as a plain y-series.
* ``enumerate_pieces`` is stage B with one leaf per composition of the
  pole order over the mixed factors, each mixed factor expanded on its own
  through Stirling subset numbers; ``elimination.ct_s_term`` groups the
  mixed factors by their q-exponent instead.
* ``FractionTables``, ``ordinary_base_series`` and ``ordinary_ct_s_term``
  are stage B in ordinary coefficients, every series entry the s^n
  coefficient itself over ``Fraction`` tables of 1/n! and B_n/n!, the
  groups' from ``reference_group_rows``.  ``elimination`` keeps integer
  exponential rows and divides once per piece; its pieces must match these
  in order and value, and in coefficient type wherever no pure pairing is
  +-1.  A count divides once per chunk, and its sum must match these
  pieces summed.
* ``reference_pure_row`` and ``reference_group_rows`` are stage B's
  integer rows multiplied out one pairing at a time, in O(r^3) and
  O(j r^3/6) int operations; ``elimination`` forms the same integers from
  the power sums of the pairings by the exponential formula, whatever j.
* ``RationalRing`` is the ring of arbitrary-precision rationals in which
  those two forms of stage B are compared; the package runs stage B only
  modulo primes.
* ``poly_add_inplace``, ``poly_neg``, ``sparse_mul``,
  ``sparse_mul_binomial``, ``pmul`` and ``power_series_div`` add, negate
  and multiply through the methods of a ring.  The package forms the same
  sums with plain numbers reduced by ``ring.reduce`` (``algebra.add_into``
  and ``univariate``), and over Z alone in stage C.
* ``homogeneous_nonzero_exists`` searches a box for a nonzero solution
  x >= 0 of A x = 0, which ``bruteforce.certify_bounded`` must find
  exactly when it refuses a system.
* ``reduce_series`` is stage C by one general integer gcd, the
  subresultant PRS ``gcd_int``, on the dense denominator, which
  ``factored_denominator`` then factors into binomials by trial division;
  ``univariate.reduce_factored`` cancels the cyclotomic factors of the
  known {k: e} instead.
"""

from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd

from cteuclid.algebra import (
    CT,
    EXPS_ONE,
    ExactRing,
    exps_get,
    srem_split,
)
from cteuclid.bruteforce import OracleRefusal, _suffix_extremes, naive_ct
from cteuclid.elimination import (
    integer_rows,
    lambda_pairing,
    split_factors,
)
from cteuclid.engine import CollisionError, ElliottTerm, Stats
from cteuclid.univariate import divexact_int, trim

SMALL, LARGE, ONE = "small", "large", "one"


# ---------------------------------------------------------------------------
# tuple-form monomials and Laurent polynomials


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


def rem_split(e, a):
    return e // a, e % a


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


# ---------------------------------------------------------------------------
# tuple-form stage A


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


def ct_all(table, ring, terms, ct_vids=None, order="given", stats=None):
    """Eliminate every ct variable, collecting after each round.

    order "sparse-first" greedily picks the variable occurring in the fewest
    denominator factors.  A collision raises, and the round it ends counts
    none of its raw terms or Euclid nodes.
    """
    stats = stats if stats is not None else Stats()
    if ct_vids is None:
        ct_vids = table.vids_of_rank(CT)
    remaining = list(ct_vids)
    terms = list(terms)
    while remaining:
        if order == "sparse-first":
            counts = _occurrence_counts(terms, remaining)
            xvid = min(remaining, key=lambda v: (counts[v], v))
            remaining.remove(xvid)
        else:
            xvid = remaining.pop(0)
        nodes = stats.euclid_nodes
        new_terms = []
        try:
            for t in terms:
                new_terms.extend(ct_var(ring, t, xvid, stats))
        except CollisionError:
            stats.collisions += 1
            stats.euclid_nodes = nodes
            raise
        stats.raw_terms += len(new_terms)
        terms = collect_terms(ring, new_terms)
    stats.collected_terms = len(terms)
    return terms



# ---------------------------------------------------------------------------
# closed-form constant terms in one variable


def ct_via_proper(ring, t, xvid, stats=None):
    """Sum of small-factor brackets: valid when t is proper in x."""
    num, den = normalize_for_var(ring, t, xvid)
    out = []
    for i, f in enumerate(den):
        if exps_get(f, xvid) > 0 and compare_to_one(f) is SMALL:
            out.extend(euclid_contribution(ring, num, den, i, xvid, stats))
    return out


def ct_via_at_zero(ring, t, xvid, stats=None):
    """Evaluation at x=0 minus large-factor brackets: valid when t is finite at x=0."""
    num, den = normalize_for_var(ring, t, xvid)
    if any(exps_get(e, xvid) < 0 for e in num):
        raise ValueError("term has a pole at x = 0")
    out = []
    at_zero = poly_slice_zero(num, xvid)
    if at_zero:
        kept = make_term(ring, at_zero, [g for g in den if exps_get(g, xvid) == 0])
        if kept is not None:
            out.append(kept)
    for i, f in enumerate(den):
        if exps_get(f, xvid) > 0 and compare_to_one(f) is LARGE:
            for r in euclid_contribution(ring, num, den, i, xvid, stats):
                out.append(term_neg(ring, r))
    return out


# ---------------------------------------------------------------------------
# plain series expansion


def term_y_series(ring, terms, yvid, ymax, budget=10**7):
    """Exact y-expansion (through degree ymax) of a sum of y-only terms."""
    out = {}
    for t in terms:
        for d, c in naive_ct(ring, t, None, yvid, ymax, budget).items():
            prev = out.get(d)
            s = c if prev is None else ring.add(prev, c)
            if ring.is_zero(s):
                out.pop(d, None)
            else:
                out[d] = s
    return out


# ---------------------------------------------------------------------------
# stage B, one leaf per composition


def stirling_row(n):
    """Stirling subset numbers S(n, 0..n)."""
    row = [1]
    for i in range(1, n + 1):
        row = [(k * row[k] if k < i else 0) + (row[k - 1] if k else 0) for k in range(i + 1)]
    return row


def mixed_series_numerator(ring, tables, m, n):
    """P_n(q^m) with the s^n coefficient of 1/(1 - q^m e^{bs}) = b^n P_n/(1-q^m)^(n+1).

    P_n(M) = sum_k k! S(n,k) M^k (1-M)^(n-k) / n!, returned as a sparse
    numerator {degree: coeff} in q.
    """
    acc = {}
    for k, s2 in enumerate(stirling_row(n)):
        if not s2:
            continue
        c = ring.mul(ring.from_int(s2 * factorial(k)), tables.inv_fact(n))
        if ring.is_zero(c):
            continue
        poly_add_inplace(ring, acc, sparse_mul_binomial(ring, {m * k: c}, m, n - k))
    return acc


def enumerate_pieces(ring, term, lam_map, tables=None):
    """(pieces, leaves) of one term, distributing the pole order factor by factor.

    Walks every way to give each mixed factor an order n_i, with the n_i
    summing to at most r; a factor whose pairing vanishes in the ring only
    takes n_i = 0.  Every such composition is a leaf, counted in ``leaves``;
    a leaf whose base series coefficient is nonzero emits one piece
    (num, den_counts), in the format of ``ct_s_term``.
    """
    if tables is None:
        tables = FractionTables(ring)
    pure_b, mixed = split_factors(ring, term, partial(lambda_pairing, lam_map))
    r = len(pure_b)
    tables.ensure(r)
    base = ordinary_base_series(ring, tables, term, lam_map, pure_b)

    pieces = []
    leaves = 0
    cache = {}
    chosen = []

    def mixed_num(m, n):
        if (m, n) not in cache:
            cache[m, n] = mixed_series_numerator(ring, tables, m, n)
        return cache[m, n]

    def descend(idx, used, mult):
        nonlocal leaves
        if idx == len(mixed):
            leaves += 1
            lead = base[r - used]
            if not lead:
                return
            num = sparse_mul(ring, lead, mult) if mult is not None else lead
            if not num:
                return
            den_counts = {}
            for (m, _), n in zip(mixed, chosen):
                den_counts[m] = den_counts.get(m, 0) + n + 1
            pieces.append((num, den_counts))
            return
        m, b = mixed[idx]
        top = (r - used) if b != 0 else 0
        for n in range(top + 1):
            fnum = mixed_num(m, n)
            if n:
                # sparse_mul drops the zeros of a pairing that vanishes mod p
                fnum = sparse_mul(ring, fnum, {0: ring.pow_int(ring.from_int(b), n)})
            nm = fnum if mult is None else sparse_mul(ring, mult, fnum)
            if not nm:
                continue
            chosen.append(n)
            descend(idx + 1, used + n, nm)
            chosen.pop()

    descend(0, 0, None)
    return pieces, leaves


# ---------------------------------------------------------------------------
# the rationals, and the homogeneous search behind the boundedness certificate


class RationalRing(ExactRing):
    """Arbitrary-precision rationals, ints kept as ints when possible."""

    def from_fraction(self, fr):
        return fr.numerator if fr.denominator == 1 else fr

    def scale(self, num, x):
        """The sparse numerator {degree: coeff} with each coefficient times x."""
        out = {}
        for d, c in num.items():
            c *= x
            out[d] = c.numerator if c.denominator == 1 else c
        return out

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

    def __repr__(self):
        return "RationalRing()"


def homogeneous_nonzero_exists(A, box, budget=10**7):
    """Whether A x = 0 has a nonzero nonnegative solution inside the box."""
    m = len(A)
    n = len(A[0]) if m else 0
    minadd, maxadd = _suffix_extremes(A, box)
    nodes = 0

    def rec(j, resid, nonzero):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OracleRefusal("homogeneous search budget exceeded")
        lo, hi = minadd[j], maxadd[j]
        for i in range(m):
            if not lo[i] <= resid[i] <= hi[i]:
                return False
        if j == n:
            return nonzero
        col = [A[i][j] for i in range(m)]
        for v in range(box[j] + 1):
            if rec(j + 1, [resid[i] - col[i] * v for i in range(m)], nonzero or v > 0):
                return True
        return False

    return rec(0, [0] * m, False)


# ---------------------------------------------------------------------------
# stage B in ordinary coefficients


class FractionTables:
    """Inverse factorials and pole-series coefficients in one coefficient ring.

    The recurrence for s/(e^s - 1) = sum t_n s^n runs over exact rationals,
    so a prime field receives the reduced image of the true rational value.
    """

    def __init__(self, ring):
        self.ring = ring
        self._inv_fact = [ring.one()]
        self._t = [Fraction(1)]
        self._pole = [ring.from_int(-1)]  # [s^n] s/(1 - e^s) = -t_n

    def ensure(self, r):
        while len(self._inv_fact) <= r:
            n = len(self._inv_fact)
            self._inv_fact.append(self.ring.from_fraction(Fraction(1, factorial(n))))
        while len(self._t) <= r:
            n = len(self._t)
            acc = Fraction(0)
            for j in range(n):
                acc += self._t[j] / factorial(n - j + 1)
            self._t.append(-acc)
            self._pole.append(self.ring.from_fraction(acc))

    def inv_fact(self, n):
        return self._inv_fact[n]

    def pole_coeff(self, n):
        return self._pole[n]


def ordinary_base_series(ring, tables, term, lam_map, pure_b):
    """The numerator series times the pure-factor product, truncated at s^r.

    Entry n, the s^n coefficient, is a sparse numerator {degree: coeff} in
    q; r = len(pure_b), and tables must already cover r.
    """
    r = len(pure_b)

    # numerator series: sum over monomials of c * q^d * e^{ms}
    lnum = [{} for _ in range(r + 1)]
    for e, c in term.num.items():
        m, d = lambda_pairing(lam_map, e)
        mint = ring.from_int(m)
        mp = c
        for n in range(r + 1):
            coeff = ring.mul(mp, tables.inv_fact(n))
            if not ring.is_zero(coeff):
                poly_add_inplace(ring, lnum[n], {d: coeff})
            if n < r:
                mp = ring.mul(mp, mint)

    # product of the pure-factor series s/(1 - e^{bs})
    pp = [ring.one()]
    for b in pure_b:
        bl = ring.from_int(b)
        fac = [ring.mul(tables.pole_coeff(n), ring.pow_int(bl, n - 1)) for n in range(r + 1)]
        npp = [ring.zero()] * (r + 1)
        for i, x in enumerate(pp):
            if ring.is_zero(x):
                continue
            for j in range(r + 1 - i):
                npp[i + j] = ring.add(npp[i + j], ring.mul(x, fac[j]))
        pp = npp

    out = [{} for _ in range(r + 1)]
    for i in range(r + 1):
        if not lnum[i]:
            continue
        for j in range(r + 1 - i):
            x = pp[j] if j < len(pp) else ring.zero()
            if ring.is_zero(x):
                continue
            poly_add_inplace(ring, out[i + j], {d: ring.mul(c, x) for d, c in lnum[i].items()})
    return out


def reference_pure_row(pure_b):
    """The pure-factor row of ``elimination.pure_row`` over Z, one factor at a time.

    Entry n <= r = len(pure_b) is the binomial convolution of the rows
    -L_r B_n b^n, one per pairing: O(r^3) int operations.
    """
    r = len(pure_b)
    pole, binom, _ = integer_rows(r)
    pp = [1] + [0] * r
    for b in pure_b:
        fac = [x * b**j for j, x in enumerate(pole)]
        npp = [0] * (r + 1)
        for i, x in enumerate(pp):
            for j, y in enumerate(fac[: r + 1 - i]):
                npp[i + j] += binom[i + j][i] * x * y
        pp = npp
    return pp


def reference_group_rows(bs, r):
    """The rows of ``elimination.group_series`` over Z, one factor at a time, dense in M.

    Entry N lists the coefficients of M^0..M^N in sum_K h_K M^K (1 - M)^(N - K),
    h_K = N! [s^N] of the complete homogeneous polynomial in the
    u_i = e^{b_i s} - 1.  The table of h_K is built over Z one factor at a
    time, h_K <- h_K + u_i h_(K-1) for rising K so that h_(K-1) already
    includes u_i, with products of EGFs taken as binomial convolutions:
    O(j r^3/6) int operations for j pairings.  Entries run to N = r, or
    only to N = 0 when bs is empty.
    """
    binom = integer_rows(r)[1]
    top = r if bs else 0
    h = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(top)]
    for b in bs:
        pw = [b**n for n in range(top + 1)]
        for k in range(1, top + 1):
            lower, cur = h[k - 1], h[k]
            for n in range(k, top + 1):
                row = binom[n]
                for i in range(1, n - k + 2):
                    cur[n] += row[i] * pw[i] * lower[n - i]
    out = []
    for n in range(top + 1):
        # sum_K h_K M^K (1 - M)^(n - K) by Horner's rule in (1 - M)
        poly = [h[0][n]]
        for k in range(1, n + 1):
            poly = [poly[0]] + [poly[i] - poly[i - 1] for i in range(1, k)] + [h[k][n] - poly[-1]]
        out.append(poly)
    return out


def ordinary_ct_s_term(ring, term, lam_map, tables=None, stats=None):
    """The ordinary-coefficient form of ``elimination.ct_s_term``, piece for piece.

    Every base and group entry is the s^n coefficient itself: the group
    series are ``reference_group_rows`` divided by N!.  Each piece
    coefficient is returned as from_fraction gives it, an int when integral.
    """
    if tables is None:
        tables = FractionTables(ring)
    pure_b, mixed = split_factors(ring, term, partial(lambda_pairing, lam_map))
    r = len(pure_b)
    tables.ensure(r)
    base = ordinary_base_series(ring, tables, term, lam_map, pure_b)

    by_m = {}
    for m, b in mixed:
        by_m.setdefault(m, []).append(b)
    live = {m: [b for b in bs if not ring.is_zero(ring.from_int(b))] for m, bs in by_m.items()}
    groups = []
    for m in sorted(by_m):
        series = [{e * m: ring.from_int(c) for e, c in enumerate(row)
                   if not ring.is_zero(ring.from_int(c))}
                  for row in reference_group_rows(live[m], r)]
        series = [{q: ring.mul(c, tables.inv_fact(n)) for q, c in g.items()} for n, g in enumerate(series)]
        groups.append((m, len(by_m[m]), series))

    pieces = []
    den_counts = {}

    def descend(idx, used, mult):
        if idx == len(groups):
            lead = base[r - used]
            if lead:
                num = lead if mult is None else sparse_mul(ring, lead, mult)
                num = {q: ring.from_fraction(Fraction(c)) for q, c in num.items()}
                pieces.append((num, dict(den_counts)))
            return
        m, j, series = groups[idx]
        for n in range(min(len(series) - 1, r - used) + 1):
            den_counts[m] = n + j
            if n == 0:
                nm = mult
            elif mult is None:
                nm = series[n]
            else:
                nm = sparse_mul(ring, mult, series[n])
            descend(idx + 1, used + n, nm)
        del den_counts[m]

    descend(0, 0, None)
    # descend refers to itself through its closure; dropping the name breaks
    # that cycle, so the base and group series go now, not at the next gc pass
    del descend

    if stats is not None:
        stats.ct_s_calls += 1
        live_count = sum(len(bs) for bs in live.values())
        leaves = comb(r + live_count, live_count)
        if leaves > stats.summand_max:
            stats.summand_max = leaves
        d = len(term.den)
        if leaves > comb(d + 1, (d + 1) // 2):
            stats.summand_bound_ok = False
    return pieces


# ---------------------------------------------------------------------------
# univariate arithmetic through ring methods


def sparse_mul(ring, a, b):
    """Product of two sparse numerators {degree: coeff}."""
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            c = ring.mul(c1, c2)
            out[d] = ring.add(out[d], c) if d in out else c
    return {d: c for d, c in out.items() if not ring.is_zero(c)}


def sparse_mul_binomial(ring, num, k, e):
    """Multiply a sparse Laurent numerator by (1 - q^k)^e."""
    for _ in range(e):
        num = poly_add_inplace(ring, {d + k: ring.neg(c) for d, c in num.items()}, num)
    return num


def pmul(ring, a, b):
    if not a or not b:
        return []
    out = [ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return trim(out)


def power_series_div(ring, num, den, count):
    """First `count` series coefficients of num/den; den[0] must be one."""
    if not den or den[0] != ring.one():
        raise ArithmeticError("the denominator's constant coefficient is not 1")
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else ring.zero()
        for i in range(1, min(n, len(den) - 1) + 1):
            acc = ring.sub(acc, ring.mul(den[i], out[n - i]))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# stage C by one integer gcd via the subresultant PRS (no rational arithmetic)


def content_int(a):
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g if g else 1


def primitive_int(a):
    g = content_int(a)
    if g == 1:
        return list(a)
    return [c // g for c in a]


def pseudo_rem_int(a, b):
    """Remainder of lc(b)^(deg a - deg b + 1) * a modulo b, integer arithmetic."""
    r = list(a)
    d = len(b) - 1
    lc = b[-1]
    while len(r) - 1 >= d and r:
        if not r[-1]:
            r.pop()
            continue
        shift = len(r) - 1 - d
        top = r[-1]
        r = [c * lc for c in r]
        for i in range(d + 1):
            r[shift + i] -= top * b[i]
        trim(r)
    return r


def gcd_int(a, b):
    """Primitive gcd in Z[q] with positive leading coefficient."""
    a = primitive_int(trim(list(a)))
    b = primitive_int(trim(list(b)))
    if not a:
        g = b
    elif not b:
        g = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = pseudo_rem_int(a, b)
            a, b = b, primitive_int(r)
        g = a
    if g and g[-1] < 0:
        g = [-c for c in g]
    return g


def reduce_fraction_int(num, den):
    """Cancel the gcd; make the result primitive with den's leading coeff > 0."""
    num = trim(list(num))
    den = trim(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return [], [1]
    g = gcd_int(num, den)
    if len(g) > 1 or g[0] != 1:
        num = divexact_int(num, g)
        den = divexact_int(den, g)
    cn, cd = content_int(num), content_int(den)
    c = gcd(cn, cd)
    if c > 1:
        num = [x // c for x in num]
        den = [x // c for x in den]
    if den[-1] < 0:
        num = [-x for x in num]
        den = [-x for x in den]
    return num, den


def factored_denominator(den):
    """{k: e} with den = prod (1 - q^k)^e, or None if there is none.

    Greedy from the largest k is exact: the largest k with Phi_k dividing
    a product of such binomials is itself one of its factors.
    """
    rem = list(den)
    if not rem or rem[0] != 1:
        return None
    out = {}
    for k in range(len(rem) - 1, 0, -1):
        binom = [1] + [0] * (k - 1) + [-1]
        while len(rem) - 1 >= k:
            try:
                rem = divexact_int(rem, binom)
            except ArithmeticError:
                break
            out[k] = out.get(k, 0) + 1
    if rem == [1]:
        return out
    return None


def reduce_series(num, den):
    """(num, den, factors) of the dense integer num / den in lowest terms, den[0] = 1."""
    num_r, den_r = reduce_fraction_int(num, den)
    if den_r and den_r[0] < 0:
        num_r = [-c for c in num_r]
        den_r = [-c for c in den_r]
    return num_r, den_r, factored_denominator(den_r)
