"""Slack-variable elimination by the exponential direction substitution.

Once every constant-term variable is gone, each term is a Laurent numerator
over binomial factors in free and slack variables.  The slack variables all
disappear in one stroke: pick an integer direction vector lambda over the
slack variables, send each slack monomial z^B to e^{<lambda,B> s}, and take
the constant term at s = 0.  The direction is valid when no denominator
factor collapses: a factor whose non-slack part is trivial must keep a
nonzero pairing <lambda,B>.

With r factors turning into pure exponentials the term has a pole of order
exactly r at s = 0, so its constant term is the s^r coefficient of s^r * E,
assembled from truncated series in s:

* a numerator monomial c * F * z^B contributes c * F * sum_n (bs)^n / n!,
* a pure factor contributes s/(1 - e^{bs}), whose coefficients are Bernoulli
  numbers times b^(n-1); with the numerator this makes the base series,
* a mixed factor 1/(1 - M e^{bs}) stays rational in its free monomial
  M = q^m: its s^n coefficient is b^n P_n(M)/(1-M)^(n+1), with P_n a
  polynomial of degree n.

The s^n coefficient of the product of j mixed factors sharing one m thus
sits over (1 - q^m)^(n+j) whatever their b are, so each such group is
multiplied out once as a truncated series (``group_series``), and the order
r is split over the g distinct m values only: at most C(r + g, g) pieces
per term, each a sparse numerator {degree: coeff} in the one surviving free
variable q over prod_k (1 - q^k)^(e_k), with no q at all for a count.
A split yields its piece, and with it its denominator, whenever its base
coefficient is nonzero and every group given a positive order holds a
pairing nonzero in the ring; this is a structural test, because the group
coefficients may cancel (b and -b sharing one m) to an empty numerator.

The summand count in the result file is the number of ways to split r
factor by factor over the k' mixed factors with a pairing nonzero in the
ring, C(r + k', k'); it is computed in closed form, not enumerated.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from .algebra import FREE, SLACK, InputError, poly_add_inplace
from .univariate import FactoredAccumulator, sparse_mul

# moduli used when --crt is requested without explicit --mod values
DEFAULT_PRIMES = (2305843009213693951, 1152921504606847009, 1152921504606847067)


class LambdaExhaustion(RuntimeError):
    """No valid substitution direction found within the retry budget."""


class PrimeClash(RuntimeError):
    """A pure-factor pairing is divisible by a working modulus."""


def lambda_pairing(lam_map, exps):
    """Split a monomial into (<lambda, slack part>, degree in the free variable).

    The monomial has at most one free variable; the degree is 0 without it.
    """
    b = 0
    degree = 0
    for v, e in exps:
        rank = v[0]
        if rank == SLACK:
            try:
                b += lam_map[v] * e
            except KeyError:
                raise ValueError(f"no direction entry for slack variable {v}") from None
        elif rank == FREE:
            degree = e
        else:
            raise ValueError("constant-term variable present at slack-elimination time")
    return b, degree


def collect_slack_info(chunks):
    """Slack vids and factor descriptors that validate a direction, over term lists.

    Returns (sorted slack vids, sorted descriptor tuple); a descriptor is the
    slack part of a denominator factor plus a flag telling whether the rest of
    the factor is trivial (such factors must not collapse).  Both halves are
    sorted so retry loops walk them in the same order in every process.
    """
    slacks = set()
    descriptors = set()
    for chunk in chunks:
        for t in chunk:
            for e in t.num:
                for v, _ in e:
                    if v[0] == SLACK:
                        slacks.add(v)
            for f in t.den:
                bvec = tuple((v, e) for v, e in f if v[0] == SLACK)
                for v, _ in bvec:
                    slacks.add(v)
                descriptors.add((bvec, len(bvec) == len(f)))
    return sorted(slacks), tuple(sorted(descriptors))


def validate_lambda(descriptors, lam_map, moduli=()):
    """None if the direction works, else "zero" or "prime" for the failure kind."""
    for bvec, pure in descriptors:
        if not pure:
            continue
        b = sum(lam_map[v] * e for v, e in bvec)
        if b == 0:
            return "zero"
        for p in moduli:
            if b % p == 0:
                return "prime"
    return None


def pick_lambda(chunks, moduli=(), seed=0, max_retries=100, lam=None):
    """Choose a direction valid for every factor and every modulus at once.

    A user-supplied direction (dict over slack vids, or a sequence matching
    the slack variables in working order; zero entries are allowed) is
    validated and returned.  Otherwise seeded random directions are tried,
    then a deterministic moment-curve fallback k -> (1, k, k^2, ...).
    """
    slacks, descriptors = collect_slack_info(chunks)
    if lam is not None:
        lam_map = dict(lam) if isinstance(lam, dict) else dict(zip(slacks, lam))
        missing = [v for v in slacks if v not in lam_map]
        if missing:
            raise InputError("direction vector does not cover all slack variables")
        kind = validate_lambda(descriptors, lam_map, moduli)
        if kind == "zero":
            raise LambdaExhaustion("supplied direction collapses a denominator factor")
        if kind == "prime":
            raise PrimeClash("supplied direction pairs to a multiple of a modulus")
        return lam_map
    rng = random.Random(seed)
    saw_prime = False
    for _ in range(max_retries):
        lam_map = {v: rng.randint(1, 1 << 16) for v in slacks}
        kind = validate_lambda(descriptors, lam_map, moduli)
        if kind is None:
            return lam_map
        saw_prime = saw_prime or kind == "prime"
    for k in range(2, 2 + max_retries):
        lam_map = {v: k**i for i, v in enumerate(slacks)}
        kind = validate_lambda(descriptors, lam_map, moduli)
        if kind is None:
            return lam_map
        saw_prime = saw_prime or kind == "prime"
    if saw_prime:
        raise PrimeClash("every candidate direction hit a multiple of a modulus")
    raise LambdaExhaustion("no valid direction within the retry budget")


class SeriesTables:
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


def split_factors(ring, term, lam_map):
    """(pure pairings, mixed (m, b) pairs) of a term's denominator factors.

    A pure factor has no free variable and must keep a pairing b that is
    nonzero in the ring; a mixed factor q^m z^B has m > 0 and any b.
    """
    pure_b = []
    mixed = []
    for f in term.den:
        b, m = lambda_pairing(lam_map, f)
        if not m:
            if b == 0:
                raise LambdaExhaustion("direction collapses a pure denominator factor")
            if ring.modulus is not None and b % ring.modulus == 0:
                raise PrimeClash("pure factor pairing divisible by the modulus")
            pure_b.append(b)
        else:
            # canonical factors are small and q comes first, so m > 0
            mixed.append((m, b))
    return pure_b, mixed


def base_series(ring, tables, term, lam_map, pure_b):
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


def group_series(ring, tables, bs, m, r):
    """Numerators of one group of mixed factors sharing the q-exponent m.

    For the j factors 1/(1 - q^m e^{b_i s}) of the group, entry N is the
    numerator of their product's s^N coefficient over (1 - q^m)^(N + j),
    as a sparse numerator in q.  bs lists the pairings b_i that are nonzero
    in the ring; a factor with b = 0 is just 1/(1 - q^m) and only counts
    toward j.  Entries run to N = r, or only to N = 0 when bs is empty.

    With M = q^m, w = M/(1 - M) and u_i = e^{b_i s} - 1, each factor is
    1/((1 - M)(1 - w u_i)), so the product is (1 - M)^(-j) sum_K w^K h_K(u),
    h_K the complete homogeneous symmetric polynomial.  Since u_i = O(s),
    only K <= N reaches s^N, and the numerator of that coefficient is
    sum_K [s^N] h_K(u) * M^K (1 - M)^(N - K).  The u_i are exponential
    generating functions with integer coefficients b_i^n, so the table
    N! [s^N] h_K(u) is integral.  It is built over Z one factor at a time,
    h_K <- h_K + u_i h_(K-1) for rising K so that h_(K-1) already includes
    u_i, with products of EGFs taken as binomial convolutions, and mapped
    into the ring at the end.
    """
    top = r if bs else 0
    h = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(top)]
    for b in bs:
        pw = [b**n for n in range(top + 1)]
        for k in range(1, top + 1):
            lower, cur = h[k - 1], h[k]
            for n in range(k, top + 1):
                cur[n] += sum(comb(n, i) * pw[i] * lower[n - i] for i in range(1, n - k + 2))
    out = []
    for n in range(top + 1):
        num = {}
        for e in range(n + 1):
            c = sum((-1) ** (e - k) * comb(n - k, e - k) * h[k][n] for k in range(e + 1))
            c = ring.mul(ring.from_int(c), tables.inv_fact(n))
            if not ring.is_zero(c):
                num[m * e] = c
        out.append(num)
    return out


def ct_s_term(ring, term, lam_map, tables=None, stats=None):
    """Constant term at s = 0 of one term under the direction substitution.

    Returns a list of univariate pieces (num, den_counts), possibly empty:
    num is a sparse numerator {degree: coeff} in the free variable q, and
    den_counts is {k: e} for the denominator prod_k (1 - q^k)^(e_k).  A
    term with no free variable gives pieces ({0: c}, {}).

    With r pure factors, the pieces come from the s^r coefficient of the
    base series (numerator times pure factors) times one group_series per
    distinct q-exponent m of the mixed factors.  The order r is split over
    the g groups, not over the k mixed factors, so a term makes at most
    C(r + g, g) pieces.  A split (N_m) makes a piece exactly when the base
    coefficient of s^(r - sum N_m) is nonzero and every group with N_m > 0
    holds a pairing nonzero in the ring.  Its numerator may have cancelled
    to {} (b and -b in one group); the piece is kept so that its
    denominator still counts.

    The summand count in stats is the number of splits of r over the k'
    mixed factors whose pairing is nonzero in the ring, C(r + k', k'),
    checked against C(d + 1, floor((d + 1)/2)) for d = #factors.
    """
    if tables is None:
        tables = SeriesTables(ring)
    pure_b, mixed = split_factors(ring, term, lam_map)
    r = len(pure_b)
    tables.ensure(r)
    base = base_series(ring, tables, term, lam_map, pure_b)

    by_m = {}
    for m, b in mixed:
        by_m.setdefault(m, []).append(b)
    live = {m: [b for b in bs if not ring.is_zero(ring.from_int(b))] for m, bs in by_m.items()}
    groups = [(m, len(by_m[m]), group_series(ring, tables, live[m], m, r)) for m in sorted(by_m)]

    pieces = []
    den_counts = {}

    def descend(idx, used, mult):
        if idx == len(groups):
            lead = base[r - used]
            if lead:
                num = lead if mult is None else sparse_mul(ring, lead, mult)
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


def eliminate_slack(ring, table, terms, lam_map, stats=None):
    """Remove every slack variable from a sum of tuple-form terms over table.

    Returns one FactoredAccumulator in the free variable q holding every
    piece.  A count has no q: its denominator is {} and its value is the
    constant coefficient numerator().get(0, 0).  More than one free
    variable raises RuntimeError.
    """
    if len(table.vids_of_rank(FREE)) > 1:
        raise RuntimeError("terms kept several free variables")
    tables = SeriesTables(ring)
    acc = FactoredAccumulator(ring)
    for t in terms:
        for num, den_counts in ct_s_term(ring, t, lam_map, tables, stats):
            acc.add_piece(num, den_counts)
    return acc


# ---------------------------------------------------------------------------
# Chinese remaindering


def crt_pair(r1, m1, r2, m2):
    inv = pow(m1 % m2, -1, m2)
    t = (r2 - r1) % m2 * inv % m2
    return r1 + m1 * t, m1 * m2


def crt_combine(residues, moduli):
    """Symmetric-range reconstruction; returns (value, |value| / prod moduli).

    The second component is the confidence ratio: values close to 1 mean the
    reconstruction sits near the wrap boundary and more primes are needed.
    """
    x, m = residues[0] % moduli[0], moduli[0]
    for r2, m2 in zip(residues[1:], moduli[1:]):
        x, m = crt_pair(x, m, r2 % m2, m2)
    x %= m
    if 2 * x > m:
        x -= m
    return x, Fraction(abs(x), m)
