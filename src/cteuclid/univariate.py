"""Dense univariate polynomial helpers for the single-free-variable endgame.

After slack elimination the surviving values live in at most one variable
(the series variable q for lattice-point generating functions, or nothing
at all for plain counts).  Terms are accumulated over a common factored
denominator prod_k (1 - q^k)^(e_k); the final reduction runs one integer
gcd via the subresultant PRS, so coefficients never leave Z.

Dense polynomials are plain lists, index = degree, over a coefficient ring
(exact integers or a prime field).  Sparse Laurent numerators are dicts
{degree: coeff} and may hold negative degrees while accumulation runs.
"""

from __future__ import annotations

from math import gcd


# ---------------------------------------------------------------------------
# dense arithmetic over a ring


def trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    del cs[n:]
    return cs


def padd(ring, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ring.zero()
        y = b[i] if i < len(b) else ring.zero()
        out.append(ring.add(x, y))
    return trim(out)


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
    """First `count` series coefficients of num/den; den must be a unit at 0."""
    if not den:
        raise ZeroDivisionError("denominator is zero")
    inv0 = ring.inv(den[0])
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else ring.zero()
        for i in range(1, min(n, len(den) - 1) + 1):
            acc = ring.sub(acc, ring.mul(den[i], out[n - i]))
        out.append(ring.mul(acc, inv0))
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


def sparse_mul_binomial(ring, num, k, e):
    """Multiply a sparse Laurent numerator by (1 - q^k)^e."""
    for _ in range(e):
        out = {}
        for d, c in num.items():
            if d in out:
                s = ring.add(out[d], c)
                if ring.is_zero(s):
                    del out[d]
                else:
                    out[d] = s
            else:
                out[d] = c
            d2 = d + k
            nc = ring.neg(c)
            if d2 in out:
                s = ring.add(out[d2], nc)
                if ring.is_zero(s):
                    del out[d2]
                else:
                    out[d2] = s
            else:
                out[d2] = nc
        num = out
    return num


class FactoredAccumulator:
    """Running sum of pieces num / prod_k (1 - q^k)^(e_k).

    The common denominator only ever grows; each piece is brought onto it by
    multiplying with the missing binomial powers.  Negative degrees in the
    numerator are allowed while accumulating and must cancel by the end for
    a genuine power series.
    """

    def __init__(self, ring):
        self.ring = ring
        self.den = {}
        self.num = {}

    def add_piece(self, num_sparse, den_counts):
        ring = self.ring
        for k, e in den_counts.items():
            have = self.den.get(k, 0)
            if e > have:
                self.num = sparse_mul_binomial(ring, self.num, k, e - have)
                self.den[k] = e
        piece = dict(num_sparse)
        for k, e in self.den.items():
            deficit = e - den_counts.get(k, 0)
            if deficit > 0:
                piece = sparse_mul_binomial(ring, piece, k, deficit)
        for d, c in piece.items():
            if d in self.num:
                s = ring.add(self.num[d], c)
                if ring.is_zero(s):
                    del self.num[d]
                else:
                    self.num[d] = s
            else:
                self.num[d] = c

    def numerator_dense(self):
        """Numerator as a dense list; raises if a negative degree survived."""
        if not self.num:
            return []
        lo = min(self.num)
        if lo < 0:
            raise ArithmeticError("accumulated numerator kept a negative degree")
        hi = max(self.num)
        out = [self.ring.zero()] * (hi + 1)
        for d, c in self.num.items():
            out[d] = c
        return trim(out)
