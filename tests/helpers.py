"""Shared builders for the test suite.

Random Elliott terms are generated over free variables y1..ym plus one
extraction variable x.  A dominance collapse y_j -> y^(OMEGA^(m-j)) maps
any such term onto just two variables while preserving, factor by factor,
which way each geometric series expands; that turns the slow graded
expansion in bruteforce.naive_ct into an exact oracle for the engine.

Tests state terms in tuple form; ``Packed`` runs the per-term functions of
the packed engine on them, and ``tuple_pairing`` gives stage B's per-term
functions the pairings of their monomials.
"""

import tracemalloc
from functools import cache

from cteuclid import engine
from cteuclid.algebra import CT, FREE, VariableTable, exps_from_dict
from cteuclid.bruteforce import naive_ct
from cteuclid.elimination import lambda_pairing
from cteuclid.engine import CollisionError, TermSum, start_termsum, unpack_term
from cteuclid.univariate import trim

from oracles import make_term, pmul, term_y_series

OMEGA = 16  # dominance base; safe while every digit stays <= OMEGA - 2
YMAX = 2 * OMEGA  # comparison window for collapsed series


class DigitOverflow(Exception):
    """An exponent outruns the dominance base; the instance is skipped."""


def padd(ring, a, b):
    """Sum of two dense polynomials, trailing zeros trimmed."""
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ring.zero()
        y = b[i] if i < len(b) else ring.zero()
        out.append(ring.add(x, y))
    return trim(out)


def binomial_factor(ring, k, e):
    """(1 - q^k)^e as a dense list."""
    out = [ring.one()]
    step = [ring.zero()] * (k + 1)
    step[0] = ring.one()
    step[k] = ring.from_int(-1)
    for _ in range(e):
        out = pmul(ring, out, step)
    return out


def expand_factored(ring, den_counts):
    """prod_k (1 - q^k)^(e_k); constant coefficient is 1."""
    out = [ring.one()]
    for k in sorted(den_counts):
        out = pmul(ring, out, binomial_factor(ring, k, den_counts[k]))
    return out


class Packed:
    """The per-term engine functions on tuple-form terms of one table and ring.

    Each call packs its terms under a layout bounded by their own exponents
    (``TermSum.pack``), the promise the engine's exponent bounds start from,
    runs the packed engine and unpacks what it returns.
    """

    def __init__(self, table, ring):
        self.table = table
        self.ring = ring

    def _pack(self, terms):
        ts = TermSum.pack(self.table, self.ring, terms)
        return ts.layout, ts.terms

    def make_term(self, num, factors):
        ts = start_termsum(self.table, self.ring, num, factors)
        return ts.unpacked()[0] if ts.terms else None

    def ct_var(self, t, xvid, stats=None):
        layout, (p,) = self._pack([t])
        out = []
        engine.ct_var(self.ring, p, xvid, layout, out.append, stats)
        return [unpack_term(layout.unpack, r) for r in out]

    def normalize_for_var(self, t, xvid):
        layout, (p,) = self._pack([t])
        xs = [layout.get(f, xvid) for f in p.den]
        num, den = engine.normalize_for_var(self.ring, p, xs, layout)
        return {layout.unpack(e): c for e, c in num.items()}, [layout.unpack(f) for f in den]

    def collect_terms(self, terms):
        layout, packed = self._pack(terms)
        sink = engine.TermSink(self.ring)
        for t in packed:
            sink.add(t)
        return [unpack_term(layout.unpack, t) for t in engine.collect_terms(layout, sink.buckets)]

    def bracket(self, t, f_exps, xvid, stats=None):
        """Single-factor contribution <t, 1-f| in x; zero if f is absent."""
        layout, (p,) = self._pack([t])
        xs = [layout.get(f, xvid) for f in p.den]
        num, den = engine.normalize_for_var(self.ring, p, xs, layout)
        xs = [abs(x) for x in xs]
        f = layout.pack(f_exps)
        x = layout.get(f, xvid)
        if x == 0:
            return []
        nf = f if x > 0 else -f
        kn = layout.bound * (1 + len(den))
        for i, g in enumerate(den):
            if g == nf:
                out = []
                engine.euclid_contribution(self.ring, num, den, xs, i, xvid, layout,
                                           layout.bound, kn, out.append, stats)
                return [unpack_term(layout.unpack, r) for r in out]
        return []


def tuple_pairing(lam):
    """The pairing m -> lambda_pairing(lam, m) of tuple-form monomials, memoized.

    Stage B's pairing_function reads packed monomials; this one feeds
    ct_s_term and split_factors the tuple-form terms that tests state.
    """
    return cache(lambda m: lambda_pairing(lam, m))


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the largest traced size in bytes while it ran).

    Tracing starts here and stops on return, so the peak counts only what
    fn allocates.  Called while tracemalloc traces already, it resets the
    peak and leaves tracing on: the peak then also counts what is still
    held of the blocks traced before.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()


def table_xy(m=2):
    table = VariableTable()
    ys = [table.add(f"y{j + 1}", FREE) for j in range(m)]
    x = table.add("x", CT)
    return table, ys, x


def collapse_table():
    table = VariableTable()
    y = table.add("y", FREE)
    x = table.add("x", CT)
    return table, y, x


def random_term(rng, ring, ys, x, max_factors=3, emax=2, xmax=2,
                x_nonneg_num=False, need_x_factor=False):
    """Random term; every denominator factor touches some free variable."""
    den = []
    nfac = rng.randint(1, max_factors)
    for i in range(nfac):
        while True:
            e = {}
            a = rng.randint(-xmax, xmax)
            if need_x_factor and i == 0 and a == 0:
                continue
            if a:
                e[x] = a
            for y in ys:
                k = rng.randint(-emax, emax)
                if k and rng.random() < 0.75:
                    e[y] = k
            if any(y in e for y in ys):
                break
        den.append(exps_from_dict(e))
    num = {}
    for _ in range(rng.randint(1, 2)):
        e = {}
        a = 0 if x_nonneg_num else rng.randint(-xmax, xmax)
        if a:
            e[x] = a
        for y in ys:
            k = rng.randint(-1, 1)
            if k:
                e[y] = k
        c = rng.choice([-2, -1, 1, 2, 3])
        key = exps_from_dict(e)
        num[key] = num.get(key, 0) + c
    num = {e: ring.from_int(c) for e, c in num.items() if c}
    return make_term(ring, num, den)


def collapse_exps(e, ys, x, y_new, x_new):
    m = len(ys)
    W = 0
    a = 0
    for v, k in e:
        if v == x:
            a = k
        else:
            if abs(k) > OMEGA - 2:
                raise DigitOverflow
            j = ys.index(v)
            W += k * OMEGA ** (m - 1 - j)
    out = {}
    if W:
        out[y_new] = W
    if a:
        out[x_new] = a
    return exps_from_dict(out)


def collapse_term(ring, t, ys, x, y_new, x_new):
    """Image of one term under the collapse (None if the numerator cancels)."""
    den = []
    for f in t.den:
        nf = collapse_exps(f, ys, x, y_new, x_new)
        if not nf:
            raise DigitOverflow  # a factor collapsed to 1; never with sane digits
        den.append(nf)
    num = {}
    for e, c in t.num.items():
        ne = collapse_exps(e, ys, x, y_new, x_new)
        prev = num.get(ne)
        s = c if prev is None else ring.add(prev, c)
        if ring.is_zero(s):
            num.pop(ne, None)
        else:
            num[ne] = s
    return make_term(ring, num, den)


def collapsed_series(ring, terms, ys, x, y_new, x_new, ymax=YMAX, budget=10**7):
    """Exact y-series (through ymax) of a sum of x-free terms, collapsed."""
    flat = []
    for t in terms:
        ft = collapse_term(ring, t, ys, x, y_new, x_new)
        if ft is not None:
            flat.append(ft)
    return term_y_series(ring, flat, y_new, ymax, budget)


def engine_vs_naive(ring, t, ys, x, ymax=YMAX, budget=10**7):
    """Compare ct_var against the graded expansion; t is over table_xy(len(ys)).

    Returns (got, want) series dicts, or None when the instance must be
    skipped (factor collision or a digit outrunning the dominance base).
    """
    y_new = (FREE, 0)
    x_new = (CT, 0)
    try:
        res = Packed(table_xy(len(ys))[0], ring).ct_var(t, x)
        flat_in = collapse_term(ring, t, ys, x, y_new, x_new)
        got = collapsed_series(ring, res, ys, x, y_new, x_new, ymax, budget)
    except (CollisionError, DigitOverflow):
        return None
    if flat_in is None:
        return got, {}
    want = naive_ct(ring, flat_in, x_new, y_new, ymax, budget)
    return got, want
