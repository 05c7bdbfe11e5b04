"""Reference computations that the shipped code no longer needs.

Each routine here is a slower or more literal route to something the
package computes another way; the tests compare the two.

* ``ct_via_proper`` and ``ct_via_at_zero`` are the two closed forms of a
  one-variable constant term, each valid on its own class of terms;
  ``engine.ct_var`` must agree with both where they apply.
* ``term_y_series`` expands a sum of y-only terms as a plain y-series.
* ``enumerate_pieces`` is stage B with one leaf per composition of the
  pole order over the mixed factors, each mixed factor expanded on its own
  through Stirling subset numbers; ``elimination.ct_s_term`` groups the
  mixed factors by their q-exponent instead.
"""

from math import factorial

from cteuclid.algebra import (
    LARGE,
    SMALL,
    compare_to_one,
    exps_get,
    poly_add_inplace,
    poly_slice_zero,
)
from cteuclid.bruteforce import naive_ct
from cteuclid.elimination import SeriesTables, base_series, split_factors
from cteuclid.engine import euclid_contribution, make_term, normalize_for_var, term_neg
from cteuclid.univariate import sparse_mul, sparse_mul_binomial


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
        tables = SeriesTables(ring)
    pure_b, mixed = split_factors(ring, term, lam_map)
    r = len(pure_b)
    tables.ensure(r)
    base = base_series(ring, tables, term, lam_map, pure_b)

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
