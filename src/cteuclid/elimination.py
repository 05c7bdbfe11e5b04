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
assembled from three ingredient series truncated at s^r:

* a numerator monomial c * F * z^B contributes c * F * sum_n (bs)^n / n!,
* a pure factor contributes s/(1 - e^{bs}), whose coefficients are Bernoulli
  numbers times b^(n-1),
* a mixed factor 1/(1 - M e^{bs}) stays rational in its free monomial M:
  the s^n coefficient is b^n P_n(M)/(1-M)^(n+1) with P_n a polynomial whose
  coefficients are Stirling subset numbers over n!.

Distributing the order r over the mixed factors enumerates at most
C(r + #mixed, #mixed) summands per term.  At most one free variable q
survives, so each summand is already univariate: a sparse numerator
{degree: coeff} over prod_k (1 - q^k)^(e_k), with no q at all for a count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from .algebra import FREE, SLACK, InputError, poly_add_inplace
from .univariate import FactoredAccumulator, sparse_mul, sparse_mul_binomial

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


def collect_slack_info(termsums):
    """Slack vids and factor descriptors needed to validate a direction.

    Returns (sorted slack vids, sorted descriptor tuple); a descriptor is the
    slack part of a denominator factor plus a flag telling whether the rest of
    the factor is trivial (such factors must not collapse).  Both halves are
    sorted so retry loops walk them in the same order in every process.
    """
    slacks = set()
    descriptors = set()
    for ts in termsums:
        for t in ts:
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


def pick_lambda(termsums, moduli=(), seed=0, max_retries=100, lam=None):
    """Choose a direction valid for every factor and every modulus at once.

    A user-supplied direction (dict over slack vids, or a sequence matching
    the slack variables in working order; zero entries are allowed) is
    validated and returned.  Otherwise seeded random directions are tried,
    then a deterministic moment-curve fallback k -> (1, k, k^2, ...).
    """
    slacks, descriptors = collect_slack_info(termsums)
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
    """Factorials, pole-series coefficients, and Stirling subset numbers.

    Values are cached as elements of one coefficient ring.  The recurrence
    for s/(e^s - 1) = sum t_n s^n runs over exact rationals, so a prime
    field receives the reduced image of the true rational value.
    """

    def __init__(self, ring):
        self.ring = ring
        self._fact_int = [1]
        self._fact = [ring.one()]
        self._inv_fact = [ring.one()]
        self._t = [Fraction(1)]
        self._pole = [ring.from_int(-1)]  # [s^n] s/(1 - e^s) = -t_n
        self._stirling = [[1]]

    def ensure(self, r):
        while len(self._fact_int) <= r:
            n = len(self._fact_int)
            f = self._fact_int[-1] * n
            self._fact_int.append(f)
            self._fact.append(self.ring.from_int(f))
            self._inv_fact.append(self.ring.from_fraction(Fraction(1, f)))
        while len(self._t) <= r:
            n = len(self._t)
            acc = Fraction(0)
            for j in range(n):
                acc += self._t[j] / factorial(n - j + 1)
            self._t.append(-acc)
            self._pole.append(self.ring.from_fraction(acc))
        while len(self._stirling) <= r:
            n = len(self._stirling)
            prev = self._stirling[-1]
            row = [0] * (n + 1)
            for k in range(1, n + 1):
                row[k] = k * (prev[k] if k < n else 0) + prev[k - 1]
            self._stirling.append(row)

    def fact(self, n):
        return self._fact[n]

    def inv_fact(self, n):
        return self._inv_fact[n]

    def pole_coeff(self, n):
        return self._pole[n]

    def stirling(self, n, k):
        return self._stirling[n][k]


def _mixed_series_numerator(ring, tables, m, n):
    """P_n(q^m) with the s^n coefficient of 1/(1 - q^m e^{bs}) = b^n P_n/(1-q^m)^(n+1).

    P_n(M) = sum_k k! S(n,k) M^k (1-M)^(n-k) / n!, returned as a sparse
    numerator {degree: coeff} in q.
    """
    acc = {}
    for k in range(n + 1):
        s2 = tables.stirling(n, k)
        if not s2:
            continue
        c = ring.mul(ring.mul(ring.from_int(s2), tables.fact(k)), tables.inv_fact(n))
        if ring.is_zero(c):
            continue
        poly_add_inplace(ring, acc, sparse_mul_binomial(ring, {m * k: c}, m, n - k))
    return acc


def ct_s_term(ring, term, lam_map, tables=None, stats=None):
    """Constant term at s = 0 of one term under the direction substitution.

    Returns a list of univariate pieces (num, den_counts), possibly empty:
    num is a sparse numerator {degree: coeff} in the free variable q, and
    den_counts is {k: e} for the denominator prod_k (1 - q^k)^(e_k).  A
    term with no free variable gives pieces ({0: c}, {}).  The summand
    count is recorded in stats and checked against C(d+1, ceil((d+1)/2))
    for d = #factors.
    """
    if tables is None:
        tables = SeriesTables(ring)
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
    r = len(pure_b)
    tables.ensure(r)

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

    # g_n: numerator times pure product, still truncated at s^r
    g = [{} for _ in range(r + 1)]
    for i in range(r + 1):
        if not lnum[i]:
            continue
        for j in range(r + 1 - i):
            x = pp[j] if j < len(pp) else ring.zero()
            if ring.is_zero(x):
                continue
            poly_add_inplace(ring, g[i + j], {d: ring.mul(c, x) for d, c in lnum[i].items()})

    # distribute the remaining order over the mixed factors
    pieces = []
    leaves = 0
    cache = {}
    chosen = []

    def mixed_num(m, n):
        if (m, n) not in cache:
            cache[m, n] = _mixed_series_numerator(ring, tables, m, n)
        return cache[m, n]

    def descend(idx, used, mult):
        nonlocal leaves
        if idx == len(mixed):
            leaves += 1
            base = g[r - used]
            if not base:
                return
            num = sparse_mul(ring, base, mult) if mult is not None else base
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
                scale = ring.pow_int(ring.from_int(b), n)
                fnum = {d: ring.mul(c, scale) for d, c in fnum.items()}
            nm = fnum if mult is None else sparse_mul(ring, mult, fnum)
            if not nm:
                continue
            chosen.append(n)
            descend(idx + 1, used + n, nm)
            chosen.pop()

    descend(0, 0, None)

    if stats is not None:
        stats.ct_s_calls += 1
        if leaves > stats.summand_max:
            stats.summand_max = leaves
        d = len(term.den)
        if leaves > comb(d + 1, (d + 1) // 2):
            stats.summand_bound_ok = False
    return pieces


def eliminate_slack(ts, lam_map, stats=None):
    """Remove every slack variable from a term sum.

    Every piece goes into one FactoredAccumulator.  With no free variable
    the result is ("scalar", ring element); with one free variable q it is
    ("series", FactoredAccumulator) in q.  More free variables raise
    RuntimeError.
    """
    ring = ts.ring
    free = ts.table.vids_of_rank(FREE)
    if len(free) > 1:
        raise RuntimeError("terms kept several free variables")
    tables = SeriesTables(ring)
    acc = FactoredAccumulator(ring)
    for t in ts:
        for num, den_counts in ct_s_term(ring, t, lam_map, tables, stats):
            acc.add_piece(num, den_counts)
    if free:
        return "series", acc
    return "scalar", acc.numerator().get(0, ring.zero())


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
