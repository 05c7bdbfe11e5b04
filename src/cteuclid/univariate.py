"""Dense univariate polynomial helpers for the single-free-variable endgame.

After slack elimination the surviving values live in at most one variable
(the series variable q for lattice-point generating functions, or nothing
at all for plain counts).  The pieces num / prod_k (1 - q^k)^(e_k) are summed
per distinct denominator {k: e}, and each of those sums is brought onto the
common factored denominator once, by FactoredAccumulator, which is the only
code that knows this format.  The final reduction runs one integer gcd via
the subresultant PRS, so coefficients never leave Z.

Dense polynomials are plain lists, index = degree, over a coefficient ring
(exact integers or a prime field).  Sparse Laurent numerators are dicts
{degree: coeff} and may hold negative degrees while accumulation runs.
"""

from __future__ import annotations

from math import gcd

from .algebra import poly_add_inplace


# ---------------------------------------------------------------------------
# dense arithmetic over a ring


def trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    del cs[n:]
    return cs


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
# integer gcd via the subresultant PRS (no rational arithmetic)


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


def divexact_int(a, b):
    """Exact quotient a/b in Z[q]; raises if the division leaves a remainder."""
    a = trim(list(a))
    b = trim(list(b))
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return []
    q = [0] * (len(a) - len(b) + 1)
    r = a
    d = len(b) - 1
    while r and len(r) - 1 >= d:
        if r[-1] % b[-1]:
            raise ArithmeticError("inexact polynomial division")
        c = r[-1] // b[-1]
        shift = len(r) - 1 - d
        q[shift] = c
        for i in range(d + 1):
            r[shift + i] -= c * b[i]
        trim(r)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


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


# ---------------------------------------------------------------------------
# accumulation over a common factored denominator


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


def dense_from_sparse(ring, num):
    """A sparse numerator as a dense list; raises if a negative degree survived."""
    if not num:
        return []
    if min(num) < 0:
        raise ArithmeticError("accumulated numerator kept a negative degree")
    out = [ring.zero()] * (max(num) + 1)
    for d, c in num.items():
        out[d] = c
    return trim(out)


class FactoredAccumulator:
    """Running sum of pieces num / prod_k (1 - q^k)^(e_k).

    Pieces are summed per distinct denominator {k: e} as they arrive, with
    no multiplication.  ``den`` is the common denominator: the largest e for
    each k over every denominator ever added, including those whose summed
    numerator has cancelled to zero.  ``numerator`` multiplies each
    per-denominator sum by its missing binomial powers once and adds them up.
    Negative degrees in the numerator are allowed while accumulating and
    must cancel by the end for a genuine power series.
    """

    def __init__(self, ring):
        self.ring = ring
        self.den = {}
        self.sums = {}  # sorted ((k, e), ...) -> sparse numerator over that denominator

    def add_piece(self, num_sparse, den_counts):
        self._add_sum(tuple(sorted(den_counts.items())), num_sparse)

    def merge(self, other):
        """Add every per-denominator sum of another accumulator into this one."""
        for key, num in other.sums.items():
            self._add_sum(key, num)

    def _add_sum(self, key, num):
        for k, e in key:
            if e > self.den.get(k, 0):
                self.den[k] = e
        poly_add_inplace(self.ring, self.sums.setdefault(key, {}), num)

    def split(self, rings):
        """One accumulator per ring, each a quotient of self.ring.

        For a product ring Z/PZ these are the Z/pZ of its primes.  The
        numerator over den is taken once and reduced into every ring, zeros
        dropped, as one piece over den; den stays as it is, also where a
        numerator becomes zero in a ring.  An accumulator split into its own
        ring alone is itself.
        """
        if len(rings) == 1 and rings[0] is self.ring:
            return [self]
        num = self.numerator()
        parts = []
        for ring in rings:
            reduced = {}
            for d, c in num.items():
                c = ring.from_int(c)
                if not ring.is_zero(c):
                    reduced[d] = c
            part = FactoredAccumulator(ring)
            part.add_piece(reduced, self.den)
            parts.append(part)
        return parts

    def numerator(self, den=None):
        """Sparse numerator of the sum over den (default self.den); den must cover self.den."""
        ring = self.ring
        target = self.den if den is None else den
        out = {}
        for key, num in self.sums.items():
            have = dict(key)
            for k, e in target.items():
                deficit = e - have.get(k, 0)
                if deficit > 0:
                    num = sparse_mul_binomial(ring, num, k, deficit)
            poly_add_inplace(ring, out, num)
        return out
