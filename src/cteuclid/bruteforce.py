"""Independent reference computations: table counting, pruned search, and
direct series expansion.

Everything here is deliberately simple and bounded: each routine refuses
inputs whose work estimate exceeds its budget instead of running open-ended.
None of this shares code with the elimination engine; that is the point.
The boundedness certificate, an exact simplex that always ends, is the
one routine here that every run calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import InputError, exps_get


class OracleRefusal(RuntimeError):
    """The reference computation would exceed its work budget."""


def dp_knapsack(a0, weights, budget=10**7):
    """Number of nonnegative integer combinations of the weights summing to a0."""
    if a0 < 0:
        return 0
    if a0 > budget:
        raise OracleRefusal(f"target {a0} exceeds the table budget {budget}")
    for w in weights:
        if w <= 0:
            raise InputError("weights must be positive")
    dp = [0] * (a0 + 1)
    dp[0] = 1
    for w in weights:
        for v in range(w, a0 + 1):
            dp[v] += dp[v - w]
    return dp[a0]


def column_bounds(A, b):
    """Per-variable caps derived from rows with all-nonnegative coefficients."""
    n = len(A[0]) if A else 0
    ub = [None] * n
    for i, row in enumerate(A):
        if b[i] < 0 or any(c < 0 for c in row):
            continue
        for j, c in enumerate(row):
            if c > 0:
                cap = b[i] // c
                if ub[j] is None or cap < ub[j]:
                    ub[j] = cap
    return ub


def _suffix_extremes(A, ub):
    m = len(A)
    n = len(A[0]) if m else 0
    minadd = [[0] * m for _ in range(n + 1)]
    maxadd = [[0] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        for i in range(m):
            c = A[i][j]
            minadd[j][i] = minadd[j + 1][i] + (c * ub[j] if c < 0 else 0)
            maxadd[j][i] = maxadd[j + 1][i] + (c * ub[j] if c > 0 else 0)
    return minadd, maxadd


def brute_count(A, b, box=None, budget=10**8):
    """Count nonnegative integer solutions of A x = b by pruned column search.

    box overrides the derived per-variable caps; if neither source yields a
    finite cap for some variable the search refuses.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return 1 if not any(b) else 0
    if m == 0:
        raise OracleRefusal("system with variables but no equations is unbounded")
    ub = list(box) if box is not None else column_bounds(A, b)
    if len(ub) != n:
        raise InputError("box length does not match the number of variables")
    if any(u is None or u < 0 for u in ub):
        raise OracleRefusal("no finite search box could be derived; pass one explicitly")
    minadd, maxadd = _suffix_extremes(A, ub)
    nodes = 0

    def rec(j, resid):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OracleRefusal("search budget exceeded")
        lo, hi = minadd[j], maxadd[j]
        for i in range(m):
            if not lo[i] <= resid[i] <= hi[i]:
                return 0
        if j == n:
            return 1
        total = 0
        col = [A[i][j] for i in range(m)]
        for v in range(ub[j] + 1):
            total += rec(j + 1, [resid[i] - col[i] * v for i in range(m)])
        return total

    return rec(0, list(b))


def certify_bounded(A):
    """An integer y with y^T A > 0 for a nonempty matrix A, or None when there is none.

    By Gordan's theorem either such a y exists, and every solution of
    A x = b, x >= 0 has x_j <= y^T b / (y^T A)_j, or A x = 0 has a nonzero
    solution x >= 0, and every nonempty solution set is infinite.  The sum
    of the rows with no negative entry is tried first (knapsacks, magic
    squares).  Otherwise a Phase-I simplex (Bland's rule, over Fraction)
    seeks x >= 0 with A x = 0 and sum(x) = 1, from one artificial variable
    per row.  A positive optimum w has duals pi_k = 1 - (reduced cost of
    artificial k) with pi^T A_j + w <= 0 for every column j: y = -pi.
    """
    m, n = len(A), len(A[0])
    y = [int(min(row) >= 0) for row in A]
    if all(sum(yi * row[j] for yi, row in zip(y, A)) > 0 for j in range(n)):
        return y
    # the rows of A x = 0 and sum(x) = 1, one artificial column each, then the right side
    rows = [list(map(Fraction, row + [int(k == i) for k in range(m + 1)] + [int(i == m)]))
            for i, row in enumerate(A + [[1] * n])]
    basis = list(range(n, n + m + 1))
    # reduced costs of the sum of the artificials, then minus its value
    cost = [-sum(c) for c in zip(*rows)]
    cost[n:-1] = [0] * (m + 1)
    while True:
        col = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if col is None:
            break
        # the objective is bounded below by 0, so some entry of col is positive
        _, _, i = min((row[-1] / row[col], basis[i], i)
                      for i, row in enumerate(rows) if row[col] > 0)
        pivot = rows[i]
        pivot[:] = [c / pivot[col] for c in pivot]
        for other in rows + [cost]:
            f = other[col]
            if other is not pivot and f:
                other[:] = [c - f * d for c, d in zip(other, pivot)]
        basis[i] = col
    if not cost[-1]:
        return None
    y = [c - 1 for c in cost[n:n + m]]
    scale = lcm(*(c.denominator for c in y))
    return [int(c * scale) for c in y]


def naive_ct(ring, term, xvid, yvid, ymax, budget=10**7):
    """Exact y-expansion of CT_x(term) through y-degree ymax.

    Preconditions: the term involves only the variables y and x, and every
    denominator factor carries a nonzero y-exponent.  Each factor expansion
    then strictly raises the y-degree, so the cutoff at ymax is exact.
    Returns {y_degree: coefficient}; negative degrees are kept.

    With xvid=None the same machinery expands an x-free term as a plain
    y-series.
    """
    steps = []
    for f in term.den:
        if any(v not in (xvid, yvid) for v, _ in f):
            raise ValueError("naive expansion expects a two-variable term")
        w = exps_get(f, yvid)
        a = exps_get(f, xvid) if xvid is not None else 0
        if w == 0:
            raise OracleRefusal("denominator factor with no y-part; expansion is not graded")
        steps.append((w, a))
    min_future = [0] * (len(steps) + 1)
    for i in range(len(steps) - 1, -1, -1):
        w, _ = steps[i]
        min_future[i] = min_future[i + 1] + (-w if w < 0 else 0)
    out = {}
    nodes = 0

    def rec(i, dy, dx, coeff):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OracleRefusal("expansion budget exceeded")
        if dy + min_future[i] > ymax:
            return
        if i == len(steps):
            if dx == 0:
                prev = out.get(dy)
                s = coeff if prev is None else ring.add(prev, coeff)
                if ring.is_zero(s):
                    out.pop(dy, None)
                else:
                    out[dy] = s
            return
        w, a = steps[i]
        if w > 0:
            k = 0
            while dy + k * w + min_future[i + 1] <= ymax:
                rec(i + 1, dy + k * w, dx + k * a, coeff)
                k += 1
        else:
            k = 1
            while dy - k * w + min_future[i + 1] <= ymax:
                rec(i + 1, dy - k * w, dx - k * a, ring.neg(coeff))
                k += 1

    for e, c in term.num.items():
        if any(v not in (xvid, yvid) for v, _ in e):
            raise ValueError("naive expansion expects a two-variable term")
        rec(0, exps_get(e, yvid), exps_get(e, xvid) if xvid is not None else 0, c)
    return out
