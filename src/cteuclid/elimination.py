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
formed once as a truncated series (``group_series``), and the order
r is split over the g distinct m values only: at most C(r + g, g) pieces
per term, each a sparse numerator {degree: coeff} in the one surviving free
variable q over prod_k (1 - q^k)^(e_k), with no q at all for a count.
A split yields its piece, and with it its denominator, whenever its base
coefficient is nonzero and every group given a positive order holds a
pairing nonzero in the ring; this is a structural test, because the group
coefficients may cancel (b and -b sharing one m) to an empty numerator.

Every series is kept in exponential form, its s^n entry times n!, and over
Z (or its image in a prime field), so no rational enters the products.
With L_r the lcm of the denominators of B_0..B_r, the pure factor scaled by
b L_r has the integer entries -L_r B_n b^n, the numerator monomial has
c m^n, and a mixed group has integer entries too; products of exponential
series are binomial convolutions.  The pure-factor product and a group are
symmetric in their pairings, so both rows come from the power sums
P_k = sum b^k alone, by the exponential formula of one integer plan per pole
order (``series_plan``): a group costs O(j r + r^4/24) int operations
however many factors j it holds, the pure row O(r len(b) + r^2).  The rows,
the base series and the products of the split descent are plain ints that
``ring.reduce`` brings into the ring, with no ring call per coefficient.
A piece is then scaled once, by the multinomial r!/((r - U)! prod N_m!)
of its split divided by r! L_r^r prod(b): one ring element per piece.
That divisor is the only one in stage B, and a pass inverts the divisors
of a batch of terms at once, by Montgomery's simultaneous inversion.  A
prime p dividing r! L_r^r, exactly when r >= p - 1, is refused.

A count has no q, hence no mixed factors and no groups: each term is the
one number sum_i C(r, i) S_i pp_(r-i) / (r! L_r^r prod(b)), with S_i =
sum c m^i the power sums of its numerator and pp the pure-factor row, the
Todd-type coefficient that LattE evaluates once per cone.  It is formed
with plain ints and reduced into the ring, and a chunk keeps the sum of
its terms as one fraction, so it makes one inversion, not one per term.

The ring may be Z/PZ for a product P of distinct primes, so that one pass
serves every modulus of a run: each step is int arithmetic that
``ring.reduce`` takes mod P, so the residues mod each p are those of a
pass in Z/pZ, and the one inversion needs a unit mod every p.  Only the
structural tests read the ring as a whole: a pairing or base coefficient
nonzero mod P but zero mod p keeps a piece that is zero mod p, whose
denominator still counts, and its pairing counts toward the summand count
below.

The summand count in the result file is the number of ways to split r
factor by factor over the k' mixed factors with a pairing nonzero in the
ring, C(r + k', k'); it is computed in closed form, not enumerated.

Stage B reads one form of input: a packed TermSum with integer
coefficients, in memory stage A's own, from a checkpoint one chunk file
packed under phase A's variable table as it loads.  A pass maps each
term's coefficients into its ring when it reaches the term, and reads
every monomial through one pairing function, m -> (<lambda, slack part>,
q-degree), which reads m's digits without decoding it and memoizes only
that pair.  So the pass makes no second copy of the terms, packed or
decoded.  The summary the direction search reads (``summarize``) takes
the slack digits the same way.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from typing import NamedTuple

from .algebra import FREE, SLACK, InputError, add_into
from .engine import ElliottTerm, num_items
from .univariate import FactoredAccumulator, sparse_mul

# moduli used when --crt is requested without explicit --mod values
DEFAULT_PRIMES = (2305843009213693951, 1152921504606847009, 1152921504606847067)

# series terms whose divisions share one inversion: a batch holds its terms'
# pieces until then, so it is bounded.  Modulo the product of the default
# primes one inversion costs about thirty products, and sharing it three
# products per term.
INVERSION_BATCH = 64


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


def pairing_function(lam_map, chunk):
    """The function m -> lambda_pairing(lam_map, m) of one pass over chunk, a packed TermSum.

    It reads the pair from the digits of the packed int, as Layout.get
    does, without decoding m: <lambda, slack part> is the sum of lam_v
    times the digit of v, and the q-degree is the digit of the free
    variable.  One mask test finds a nonzero digit of a ct variable or of
    a slack variable with no direction entry; such a monomial is decoded
    and refused by lambda_pairing, with its message.  It memoizes the pair
    (b, degree), never a decoded tuple, so the pass keeps one small pair
    per distinct monomial and factor.
    """
    layout = chunk.layout
    bias, mask, half, shift = layout.bias, layout.mask, layout.half, layout.shift
    weights = [(shift[v], lam_map[v]) for v in layout.vids if v[0] == SLACK and lam_map.get(v)]
    offset = half * sum(w for _, w in weights)
    frees = [shift[v] for v in layout.vids if v[0] == FREE]
    refused = sum(mask << shift[v] for v in layout.vids
                  if v[0] != FREE and not (v[0] == SLACK and v in lam_map))

    def pair(m):
        u = m + bias
        if (u ^ bias) & refused:
            return lambda_pairing(lam_map, layout.unpack(m))
        b = -offset
        for s, w in weights:
            b += w * ((u >> s) & mask)
        degree = 0
        for s in frees:
            # lambda_pairing keeps the last free variable it meets
            degree = ((u >> s) & mask) - half or degree
        return b, degree

    return cache(pair)


class Summary(NamedTuple):
    """What the direction search and the exact primes need of stage A's terms.

    terms counts the terms summarized.  slacks are the slack vids the terms
    hold, sorted; descriptors are the sorted pairs (bvec, pure) of their
    denominator factors, bvec a factor's slack part and pure telling
    whether the rest of it is trivial (such a factor must not collapse).
    den is {m: e} for the denominator prod_m (1 - q^m)^e_m of
    certified_primes.  None of it depends on a direction or a modulus: a
    factor's pairing <lambda, B> is that of its bvec.
    """

    terms: int
    slacks: list
    descriptors: tuple
    den: dict


def _factor_reader(chunk):
    """(slacks, describe) for the terms of chunk, a packed TermSum.

    slacks(monomials) is the set of slack vids with a nonzero exponent in
    any of them, and describe(f) gives a denominator factor's (bvec, pure,
    degree): its slack part as (vid, exponent) pairs in working order,
    whether it has no other variable, and the exponent of its first free
    variable, 0 without one.  Both read digits as pairing_function does,
    without decoding: a digit of u = m + bias differs from B/2 exactly
    where u ^ bias has a bit in it, so one OR over the monomials finds
    their slack digits, and the top bit of a factor's slack bits names its
    next slack digit, as in Layout.unpack.
    """
    layout = chunk.layout
    bias, mask, half, w, vids = layout.bias, layout.mask, layout.half, layout.width, layout.vids
    last = len(vids) - 1
    slack = [(layout.shift[v], v) for v in vids if v[0] == SLACK]
    slack_bits = sum(mask << s for s, _ in slack)
    frees = [layout.shift[v] for v in vids if v[0] == FREE]

    def slacks(monomials):
        d = 0
        for m in monomials:
            d |= (m + bias) ^ bias
        return {v for s, v in slack if d >> s & mask}

    def describe(f):
        u = f + bias
        d = u ^ bias
        ds = d & slack_bits
        bvec = []
        while ds:
            k = (ds.bit_length() - 1) // w
            s = k * w
            bvec.append((vids[last - k], ((u >> s) & mask) - half))
            ds &= (1 << s) - 1
        degree = next((((u >> s) & mask) - half for s in frees if d >> s & mask), 0)
        return tuple(bvec), not d & ~slack_bits, degree

    return slacks, describe


def summarize(chunks):
    """The Summary of the terms of chunks, packed TermSums, in one pass that holds one at a time.

    Each distinct factor of a chunk is described once, and the slack
    variables of its numerator monomials are read in one pass over them
    (_factor_reader), with no monomial decoded.  A term with j_m mixed
    factors at q-exponent m and r pure ones raises e_m to at least j_m + r.
    """
    terms = 0
    slacks = set()
    descriptors = set()
    den = {}
    for chunk in chunks:
        monomial_slacks, describe = _factor_reader(chunk)
        slacks |= monomial_slacks({e for t in chunk for e, _ in num_items(t.num)})
        degree = {}
        for f in {f for t in chunk for f in t.den}:
            bvec, pure, degree[f] = describe(f)
            slacks.update(v for v, _ in bvec)
            descriptors.add((bvec, pure))
        for t in chunk:
            terms += 1
            ms = [degree[f] for f in t.den]
            for m in set(ms) - {0}:
                den[m] = max(den.get(m, 0), ms.count(m) + ms.count(0))
    return Summary(terms, sorted(slacks), tuple(sorted(descriptors)), den)


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


def pick_lambda(summary, slack_vids, moduli=(), seed=0, max_retries=100, lam=None):
    """Choose a direction valid for every factor and every modulus at once.

    The factors are those of summary, the terms' Summary.  A user-supplied
    direction (dict over slack vids, or a sequence matching slack_vids, the
    run's slack variables in working order; zero entries are allowed) is
    validated and returned; a sequence of another length, or a dict naming
    a variable that is not among slack_vids, is refused.
    Otherwise seeded random directions are tried, then a deterministic
    moment-curve fallback k -> (1, k, k^2, ...).
    """
    slacks, descriptors = summary.slacks, summary.descriptors
    if lam is not None:
        if isinstance(lam, dict):
            known = set(slack_vids)
            foreign = [v for v in lam if v not in known]
            if foreign:
                raise InputError(
                    f"direction vector names {len(foreign)} variables that are not "
                    f"slack variables among its {len(lam)} entries"
                )
            lam_map = dict(lam)
        else:
            lam = list(lam)
            if len(lam) != len(slack_vids):
                raise InputError(
                    f"direction vector has {len(lam)} entries for {len(slack_vids)} slack variables"
                )
            lam_map = dict(zip(slack_vids, lam))
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


def bernoulli_numbers(r):
    """B_0..B_r, with B_1 = -1/2, from sum_(j <= n) C(n + 1, j) B_j = 0."""
    bs = [Fraction(1)]
    for n in range(1, r + 1):
        bs.append(-sum(comb(n + 1, j) * bs[j] for j in range(n)) / (n + 1))
    return bs


@lru_cache(maxsize=None)
def integer_rows(r):
    """(pole row, binomial rows, D_r) over Z for pole order r, in no ring.

    L_r is the lcm of the denominators of B_0..B_r.  Scaled by b L_r, the
    pure factor s/(1 - e^{bs}) has the integer exponential coefficients
    n! [s^n] = -L_r B_n b^n, and the pole row holds -L_r B_n for n <= r.
    The binomial rows C(n, 0..n), n <= r, multiply exponential series.
    D_r = r! L_r^r.
    """
    bs = bernoulli_numbers(r)
    lr = lcm(*(b.denominator for b in bs))
    pole = tuple(-lr * b.numerator // b.denominator for b in bs)
    binom = tuple(tuple(comb(n, i) for i in range(n + 1)) for n in range(r + 1))
    return pole, binom, factorial(r) * lr**r


class SeriesPlan(NamedTuple):
    """The rows of pole order r as flat integer steps over power sums (series_plan).

    pure lists, for each N = 1..r, the steps (c, k, N - k) of
    H_N = sum c P_k H_(N-k); pure_scale holds (-1)^r L_r^(r - n), n <= r.
    weights lists the pairs (w, k), w = C(N - 1, k - 1) A(k - 1, t - 1), of
    the group steps, and cells, for each coefficient Et_N[i] of a group row
    (M^i, 1 <= i <= N, in that order), the pairs (a, x) of
    Et_N[i] = sum w_a P_(k_a) Et[x]: x indexes the coefficients before it,
    Et_0 = 1 at 0 and Et_N[i] at N(N - 1)/2 + i.
    """

    pure: tuple
    pure_scale: tuple
    weights: tuple
    cells: tuple


@lru_cache(maxsize=None)
def series_plan(r):
    """The integer plan of pole order r: both kinds of row by the exponential formula.

    Both rows are symmetric in their pairings b, so each is exp(sum_k g_k
    s^k/k!) with g_k linear in the power sum P_k = sum b^k, and the
    exponential formula (Stanley, EC2 5.1) gives its entries as E_0 = 1,
    E_N = sum_(k <= N) C(N - 1, k - 1) g_k E_(N - k).

    Pure factors: log(x/(e^x - 1)) = sum_k a_k x^k/k! with a_1 = -1/2 and
    a_k = -B_k/k for k >= 2, zero for odd k >= 3.  Each c_k = L_r^k a_k,
    k <= r, is an integer, because every prime dividing k divides L_r.
    With g_k = c_k P_k the entries H_N are L_r^N times those of
    prod_b x/(e^x - 1) at x = bs, so the pure row is (-1)^r L_r^(r - N) H_N.

    Groups: -log(1 - M e^x) = sum_l M^l e^(lx)/l has the exponential
    coefficients sum_l l^(k - 1) M^l = G_k/(1 - M)^k for k >= 1, G_k = M
    A_(k-1)(M) with A_n the Eulerian polynomial (coefficients below); in
    w = M/(1 - M) that is G_k = (1 - M)^k sum_K (K - 1)! S(k, K) w^K.  So
    g_k = P_k G_k/(1 - M)^k, and Et_N = (1 - M)^N E_N is the polynomial
    sum_k C(N - 1, k - 1) P_k G_k Et_(N - k) of degree N in M, with no
    constant term for N >= 1: the numerator of the group's entry N over
    (1 - M)^(N + j).  A step list is O(r^4/24) long and the same for every
    group of order r, whatever its size j.
    """
    pole, binom, _ = integer_rows(r)
    lr = -pole[0]
    logc = [0, -lr // 2] + [lr ** (k - 1) * pole[k] // k for k in range(2, r + 1)]
    pure = tuple(tuple((binom[n - 1][k - 1] * logc[k], k, n - k)
                       for k in range(1, n + 1) if logc[k]) for n in range(1, r + 1))
    pure_scale = tuple((-1) ** r * lr ** (r - n) for n in range(r + 1))

    # Eulerian numbers A(n, t) = (t + 1) A(n - 1, t) + (n - t) A(n - 1, t - 1)
    euler = [[1]]
    for n in range(1, r):
        prev = euler[-1] + [0]
        euler.append([(t + 1) * prev[t] + (n - t) * (prev[t - 1] if t else 0) for t in range(n)])
    weights = []
    cells = []
    for n in range(1, r + 1):
        at = {}
        for k in range(1, n + 1):
            for t, a in enumerate(euler[k - 1], 1):
                at[k, t] = len(weights)
                weights.append((binom[n - 1][k - 1] * a, k))
        for i in range(1, n + 1):
            cell = []
            for (k, t), a in at.items():
                src, j = n - k, i - t
                if (src == j == 0) or 1 <= j <= src:
                    cell.append((a, src * (src - 1) // 2 + j if src else 0))
            cells.append(tuple(cell))
    return SeriesPlan(pure, pure_scale, tuple(weights), tuple(cells))


def power_sums(bs, r):
    """[0, P_1, ..., P_r] with P_k = sum b^k over bs, as ints."""
    sums = [0] * (r + 1)
    for b in bs:
        x = b
        for k in range(1, r + 1):
            sums[k] += x
            x *= b
    return sums


def pole_order(ring, r):
    """(binomial rows, D_r) of pole order r, once ring can divide by D_r.

    A prime p divides D_r exactly when r >= p - 1: p divides r! from r = p
    on, and the denominator of B_(p-1) (von Staudt-Clausen).  The field then
    has no inverse for the terms of that order, and ring.from_fraction
    refuses the first ordinary coefficient, 1/n! or B_n/n! for n <= r,
    whose denominator a prime divides.
    """
    _, binom, d = integer_rows(r)
    if ring.modulus is not None and gcd(d, ring.modulus) != 1:
        for n in range(r + 1):
            ring.from_fraction(Fraction(1, factorial(n)))
        for n, b in enumerate(bernoulli_numbers(r)):
            ring.from_fraction(b / factorial(n))
    return binom, d


def split_factors(ring, term, pair):
    """(pure pairings, mixed (m, b) pairs) of a term's denominator factors.

    pair is a pairing_function.  A pure factor has no free variable and
    must keep a pairing b that is nonzero in the ring; a mixed factor
    q^m z^B has m > 0 and any b.
    """
    pure_b = []
    mixed = []
    for f in term.den:
        b, m = pair(f)
        if not m:
            if b == 0:
                raise LambdaExhaustion("direction collapses a pure denominator factor")
            if ring.modulus is not None and gcd(b, ring.modulus) != 1:
                raise PrimeClash("pure factor pairing divisible by the modulus")
            pure_b.append(b)
        else:
            # canonical factors are small and q comes first, so m > 0
            mixed.append((m, b))
    return pure_b, mixed


def pure_row(reduce, pure_b):
    """The product of the scaled pure factors b L_r s/(1 - e^{bs}), as an exponential row.

    With r = len(pure_b), entry n <= r is n! L_r^r prod(b) times the s^n
    coefficient of prod_b s/(1 - e^{bs}), reduced into the ring.  It comes
    from the power sums P_k of pure_b by the pure steps of series_plan(r):
    O(r len(pure_b) + r^2) int operations, for any pairings.
    """
    r = len(pure_b)
    plan = series_plan(r)
    p = power_sums(pure_b, r)
    h = [1]
    for steps in plan.pure:
        h.append(sum([c * p[k] * h[x] for c, k, x in steps]))
    return [reduce(s * x) for s, x in zip(plan.pure_scale, h)]


def base_series(reduce, term, pair, pure_b, low):
    """The numerator series times the pure-factor product, as exponential rows.

    With r = len(pure_b), entry n <= r is n! L_r^r prod(b) times the s^n
    coefficient, a sparse numerator {degree: coeff} in q; the entries below
    low are left empty.  A numerator monomial c q^d z^B contributes c m^n
    with m = <lambda, B>, the pure factors contribute pure_row, and products
    are binomial convolutions.  Every coefficient is a plain int reduced
    into the ring as it is formed, and each sum is added in by add_into.
    """
    r = len(pure_b)
    binom = integer_rows(r)[1]

    # numerator series: sum over monomials of c * q^d * m^n
    lnum = [{} for _ in range(r + 1)]
    for e, c in term.num.items():
        m, d = pair(e)
        for row in lnum:
            if not c:
                break
            add_into(reduce, row, d, c)
            c = reduce(c * m)

    pp = pure_row(reduce, pure_b)
    out = [{} for _ in range(r + 1)]
    for i, row in enumerate(lnum):
        if not row:
            continue
        for j in range(max(0, low - i), r + 1 - i):
            x = pp[j]
            if not x:
                continue
            x *= binom[i + j][i]
            dst = out[i + j]
            for d, c in row.items():
                add_into(reduce, dst, d, reduce(c * x))
    return out


def group_series(reduce, bs, m, r):
    """Numerators of one group of mixed factors sharing the q-exponent m.

    For the j factors 1/(1 - q^m e^{b_i s}) of the group, entry N is N!
    times the numerator of their product's s^N coefficient over
    (1 - q^m)^(N + j), as a sparse numerator in q.  bs lists the pairings
    b_i that are nonzero in the ring; a factor with b = 0 is just
    1/(1 - q^m) and only counts toward j.  Entries run to N = r, or only to
    N = 0 when bs is empty.

    With M = q^m, entry N is the polynomial Et_N(M) of series_plan(r),
    formed from the power sums P_k of bs alone: O(j r) int operations for
    the power sums and O(r^4/24) for the plan's steps, so the cost of a
    group no longer grows with its size j.
    """
    if not bs:
        return [{0: 1}]
    plan = series_plan(r)
    p = [reduce(x) for x in power_sums(bs, r)]
    cp = [w * p[k] for w, k in plan.weights]
    et = [1]
    for cell in plan.cells:
        et.append(reduce(sum([cp[a] * et[x] for a, x in cell])))
    out = [{0: 1}]
    for n in range(1, r + 1):
        start = n * (n - 1) // 2
        out.append({m * i: c for i, c in enumerate(et[start + 1:start + n + 1], 1) if c})
    return out


def ct_s_term(ring, term, pair, stats=None):
    """Constant term at s = 0 of one term under the direction substitution.

    pair is the pass's pairing_function, which gives each monomial and
    factor of the term its (<lambda, slack part>, q-degree).

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

    Both series are exponential rows over Z (or its image), so a split
    with U = sum N_m is the product of base entry r - U and the group
    entries N_m over (r - U)! prod N_m! D_r/r! prod(b).  The piece takes
    that one denominator as a single ring element: the multinomial
    r!/((r - U)! prod N_m!) times the inverse of D_r prod(b), which
    ring.scale multiplies into each coefficient.

    The summand count in stats is the number of splits of r over the k'
    mixed factors whose pairing is nonzero in the ring, C(r + k', k'),
    checked against C(d + 1, floor((d + 1)/2)) for d = #factors.
    """
    pieces, d = _unscaled_pieces(ring, term, pair, stats)
    return _scaled(ring, pieces, ring.inv(d))


def _unscaled_pieces(ring, term, pair, stats=None):
    """(pieces, d): ct_s_term's pieces before the one division, which d = D_r prod(b) makes.

    Each piece is (num, multinomial, den_counts); ct_s_term's piece is
    num times multinomial / d.  d is a unit of the ring: split_factors
    refuses a pairing that is not, and pole_order a D_r that is not.
    Everything else, the refusals and stats included, is ct_s_term's.
    """
    reduce = ring.reduce
    pure_b, mixed = split_factors(ring, term, pair)
    r = len(pure_b)
    binom, d_r = pole_order(ring, r)

    by_m = {}
    for m, b in mixed:
        by_m.setdefault(m, []).append(b)
    live = {m: [b for b in bs if reduce(b)] for m, bs in by_m.items()}
    groups = [(m, len(by_m[m]), group_series(reduce, live[m], m, r)) for m in sorted(by_m)]
    # the groups take at most this much of the order; a count has no groups
    # and reads base entry r alone
    reach = min(r, sum(len(series) - 1 for _, _, series in groups))
    base = base_series(reduce, term, pair, pure_b, r - reach)

    pieces = []
    den_counts = {}

    def descend(idx, used, mult, multinomial):
        if idx == len(groups):
            lead = base[r - used]
            if lead:
                num = lead if mult is None else sparse_mul(reduce, lead, mult)
                pieces.append((num, multinomial, dict(den_counts)))
            return
        m, j, series = groups[idx]
        for n in range(min(len(series) - 1, r - used) + 1):
            den_counts[m] = n + j
            if n == 0:
                nm = mult
            elif mult is None:
                nm = series[n]
            else:
                nm = sparse_mul(reduce, mult, series[n])
            descend(idx + 1, used + n, nm, multinomial * binom[r - used][n])
        del den_counts[m]

    descend(0, 0, None, 1)
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
    return pieces, reduce(d_r * prod(pure_b))


def _scaled(ring, pieces, inv):
    """The pieces (num, den_counts) of _unscaled_pieces' pieces, inv the inverse of their d."""
    reduce = ring.reduce
    return [(ring.scale(num, reduce(multinomial * inv)), den_counts)
            for num, multinomial, den_counts in pieces]


def batch_inverses(ring, units):
    """The inverses of units, a list of units of ring, from one inversion.

    Montgomery's simultaneous inversion (Math. Comp. 48, 1987): with Q_k
    the product of the units before unit k, 1/u_k = Q_k / Q_n, and 1/Q_k
    follows from 1/Q_(k+1) by one product.  So n inverses cost one
    ring.inv and 3(n - 1) products mod P.
    """
    reduce = ring.reduce
    before = []
    q = 1
    for u in units:
        before.append(q)
        q = reduce(q * u)
    inv = ring.inv(q)
    out = [0] * len(units)
    for k in range(len(units) - 1, -1, -1):
        out[k] = reduce(inv * before[k])
        inv = reduce(inv * units[k])
    return out


def count_terms(ring, chunk, pair, stats=None):
    """(tn, td): the sum of the constant terms of chunk, a count's terms, as tn/td.

    A count term has no free variable, so every factor is pure, there are
    no groups, and ct_s_term's one piece is base entry r over D_r prod(b).
    The numerator's power sums S_i = sum c m^i and the pure_row pp give
    that entry as sum_i C(r, i) S_i pp_(r - i), so a term is one ring
    element, summed into tn/td with plain ints that ring.reduce brings
    into the ring.  td is a unit: split_factors refuses a pairing that is
    not, and pole_order a pole order whose D_r is not.  Terms are read,
    skipped, refused and counted in stats as ct_s_term would.
    """
    reduce = ring.reduce
    tn, td = 0, 1
    for t in chunk:
        num = [(e, c) for e, c in num_items(t.num) if reduce(c)]
        if not num:
            continue
        pure_b, _ = split_factors(ring, t, pair)
        r = len(pure_b)
        binom, d_r = pole_order(ring, r)
        pp = pure_row(reduce, pure_b)
        sums = [0] * (r + 1)
        for e, c in num:
            m = pair(e)[0]
            for i in range(r + 1):
                sums[i] += c
                c *= m
        value = sum(x * s * y for x, s, y in zip(binom[r], sums, reversed(pp)))
        den = d_r * prod(pure_b)
        tn = reduce(tn * den + value * td)
        td = reduce(td * den)
        if stats is not None:
            stats.ct_s_calls += 1
            stats.summand_max = max(stats.summand_max, 1)
    return tn, td


def eliminate_slack(ring, table, chunk, lam_map, stats=None):
    """Remove every slack variable from one chunk of stage-A terms over table.

    The chunk is a packed TermSum with integer coefficients: stage A's
    own, or a checkpoint's chunk packed as it loads.  Each term's
    coefficients are mapped into the ring as the pass reaches it, and a term
    whose numerator vanishes there is skipped; one pairing_function serves
    the whole pass, reading the pairings from the packed digits.
    Returns one FactoredAccumulator in the free variable q.  A count's
    table has no q: each term is one ring element (count_terms), the chunk
    makes one inversion for their sum, and the accumulator holds it as
    its one piece, with denominator {}, unless it is 0, so that the value
    is numerator().get(0, 0).  A series adds every piece of ct_s_term in
    order, but the terms of a batch of at most INVERSION_BATCH share one
    inversion (batch_inverses); a term that makes no piece joins none.  A
    ring that cannot divide, such as stage A's ExactRing, raises
    TypeError; more than one free variable raises RuntimeError.
    """
    if not hasattr(ring, "inv"):
        raise TypeError(f"stage B divides, which {ring!r} cannot; "
                        "eliminate slack in a PrimeField")
    free = table.vids_of_rank(FREE)
    if len(free) > 1:
        raise RuntimeError("terms kept several free variables")
    acc = FactoredAccumulator(ring)
    pair = pairing_function(lam_map, chunk)
    if not free:
        tn, td = count_terms(ring, chunk, pair, stats)
        inv = ring.inv(td)
        if tn:
            acc.add_piece(ring.scale({0: tn}, inv), {})
        return acc
    reduce = ring.reduce
    batch = []
    for t in chunk:
        num = {e: r for e, c in num_items(t.num) if (r := reduce(c))}
        if num:
            pieces, d = _unscaled_pieces(ring, ElliottTerm(num, t.den), pair, stats)
            if pieces:
                batch.append((pieces, d))
                if len(batch) == INVERSION_BATCH:
                    _add_batch(ring, acc, batch)
                    batch = []
    _add_batch(ring, acc, batch)
    return acc


def _add_batch(ring, acc, batch):
    """Add the pieces of batch, [(pieces, d)] of _unscaled_pieces, to acc in order: one inversion."""
    if batch:
        for (pieces, _), inv in zip(batch, batch_inverses(ring, [d for _, d in batch])):
            for piece, den_counts in _scaled(ring, pieces, inv):
                acc.add_piece(piece, den_counts)


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
