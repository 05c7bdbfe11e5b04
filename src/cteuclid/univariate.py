"""Dense univariate polynomial helpers for the single-free-variable endgame.

After slack elimination the surviving values live in at most one variable
(the series variable q for lattice-point generating functions, or nothing
at all for plain counts).  The pieces num / prod_k (1 - q^k)^(e_k) are summed
per distinct denominator {k: e}, and each of those sums is brought onto the
common factored denominator once, by FactoredAccumulator, which is the only
code that knows this format.  The final reduction, reduce_factored, cancels
the cyclotomic factors of that known denominator from the integer
numerator by exact division, so coefficients never leave Z.

Dense polynomials are plain lists, index = degree, over Z.  Sparse
Laurent numerators are dicts {degree: coeff} of plain ints that a ring's
``reduce`` brings into the ring (a prime field while stage B accumulates),
and may hold negative degrees while accumulation runs.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import add_into


# ---------------------------------------------------------------------------
# dense arithmetic over Z


def trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    del cs[n:]
    return cs


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def power_series_div(num, den, count):
    """First `count` series coefficients of num/den; den[0] must be one."""
    if not den or den[0] != 1:
        raise ArithmeticError("the denominator's constant coefficient is not 1")
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# exact division in Z[q]


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


# ---------------------------------------------------------------------------
# accumulation over a common factored denominator


def sparse_mul(reduce, a, b):
    """Product of two sparse numerators {degree: coeff}, each coefficient reduced once."""
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            out[d] = out.get(d, 0) + c1 * c2
    return {d: c for d, c in zip(out, map(reduce, out.values())) if c}


def sparse_mul_binomial(reduce, num, k, e):
    """Multiply a sparse Laurent numerator by (1 - q^k)^e."""
    for _ in range(e):
        shifted = {d + k: reduce(-c) for d, c in num.items()}
        for d, c in num.items():
            add_into(reduce, shifted, d, c)
        num = shifted
    return num


def dense_from_sparse(num):
    """A sparse numerator as a dense list; raises if a negative degree survived."""
    if not num:
        return []
    if min(num) < 0:
        raise ArithmeticError("accumulated numerator kept a negative degree")
    out = [0] * (max(num) + 1)
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
        reduce = self.ring.reduce
        out = self.sums.setdefault(key, {})
        for d, c in num.items():
            add_into(reduce, out, d, c)

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
            reduced = {d: c for d, c in zip(num, map(ring.reduce, num.values())) if c}
            part = FactoredAccumulator(ring)
            part.add_piece(reduced, self.den)
            parts.append(part)
        return parts

    def numerator(self, den=None):
        """Sparse numerator of the sum over den (default self.den); den must cover self.den."""
        reduce = self.ring.reduce
        target = self.den if den is None else den
        out = {}
        for key, num in self.sums.items():
            have = dict(key)
            for k, e in target.items():
                deficit = e - have.get(k, 0)
                if deficit > 0:
                    num = sparse_mul_binomial(reduce, num, k, deficit)
            for d, c in num.items():
                add_into(reduce, out, d, c)
        return out


@lru_cache(maxsize=None)
def cyclotomic(d):
    """Phi_d over Z as a dense tuple, with Phi_1 = 1 - q, so Phi_d(0) = 1.

    1 - q^d is the product of Phi_e over the divisors e of d.
    """
    out = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            out = divexact_int(out, cyclotomic(e))
    return tuple(out)


def reduce_factored(num, den_counts):
    """(num, den, factors): the integer num / prod_k (1 - q^k)^(e_k) in lowest terms.

    num is sparse and comes back dense.  The denominator is
    prod_d Phi_d^(m_d), m_d the sum of e_k over the multiples k of d.  The
    Phi_d are irreducible and pairwise coprime, so the gcd with num is the
    Phi_d that divide num exactly, each at most m_d times.  den is the
    product of the rest, den[0] = 1.  factors is den as {k: e} with
    den = prod_k (1 - q^k)^e, or None if it is no such product: from the
    largest k down, e_k is m_k less the e_j of the multiples j of k
    already taken.
    """
    num = dense_from_sparse(num)
    mult = {}
    for k, e in den_counts.items():
        for d in range(1, k + 1):
            if k % d == 0:
                mult[d] = mult.get(d, 0) + e
    den = [1]
    for d in sorted(mult):
        phi = cyclotomic(d)
        while mult[d]:
            try:
                num = divexact_int(num, phi)
            except ArithmeticError:
                break
            mult[d] -= 1
        for _ in range(mult[d]):
            den = pmul(den, phi)
    factors = {}
    for k in sorted(mult, reverse=True):
        e = mult[k] - sum(f for j, f in factors.items() if j % k == 0)
        if e < 0:
            return num, den, None
        if e:
            factors[k] = e
    return num, den, factors
