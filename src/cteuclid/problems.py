"""Linear-Diophantine counting problems driven by constant-term extraction.

A system A x = b over nonnegative integers x becomes the constant term

    [prod_i c_i^0]  c^{-b} * prod_j 1 / (1 - z_j c^{A_j})

with one ct variable c_i per equation, A_j the j-th column, and one slack
variable z_j marking x_j.  Extracting all c_i leaves a sum of terms in the
slack variables whose joint value at z = 1 is the solution count; that value
is read off by the exponential substitution of the elimination module.  The
dilation series sum_t #solutions(A x = t b) q^t needs one extra factor
1/(1 - q c^{-b}) and a free series variable q instead of a fixed right-hand
side.

The ct phase runs over exact integer coefficients in every mode (no
divisions happen there); prime moduli only enter the elimination phase.
An exact run is a CRT run over primes it picks from a bound on the answer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import prod

from .algebra import (
    CT,
    EXPS_ONE,
    FREE,
    SLACK,
    ExactRing,
    InputError,
    PrimeField,
    VariableTable,
    _mr_is_prime,
    exps_from_dict,
)
from .bruteforce import certify_bounded
from .checkpoint import DirectoryStore, config_hash, config_payload, lam_hash
from .elimination import (
    DEFAULT_PRIMES,
    crt_combine,
    eliminate_slack,
    pick_lambda,
    summarize,
)
from .engine import Stats, ct_all, start_termsum
from .univariate import FactoredAccumulator, power_series_div, reduce_factored


# ---------------------------------------------------------------------------
# problem model


@dataclass
class DiophantineSystem:
    """A x = b over nonnegative integers; columns are the counted variables."""

    matrix: list
    rhs: list

    def __post_init__(self):
        if not self.matrix or not self.matrix[0]:
            raise InputError("the system needs at least one equation and one variable")
        n = len(self.matrix[0])
        for row in self.matrix:
            if len(row) != n:
                raise InputError("ragged matrix")
            for c in row:
                if type(c) is not int:
                    raise InputError("matrix entries must be integers")
        if len(self.rhs) != len(self.matrix):
            raise InputError("right-hand side length does not match the equation count")
        for c in self.rhs:
            if type(c) is not int:
                raise InputError("right-hand side entries must be integers")
        for j in range(n):
            if all(row[j] == 0 for row in self.matrix):
                raise InputError(f"column {j} is zero: that variable is unconstrained")

    @property
    def m(self):
        return len(self.matrix)

    @property
    def n(self):
        return len(self.matrix[0])

    def scaled(self, t):
        return DiophantineSystem(self.matrix, [t * v for v in self.rhs])


def json_int(value, what):
    """A JSON integer, or a string of decimal digits with an optional sign, as an int.

    Anything else (a float, an exponent, a bool, other text) is an InputError.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    raise InputError(f"{what} {json.dumps(value)} is not an integer")


def _json_list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list")
    return value


def system_from_json(text):
    try:
        obj = json.loads(text)
        matrix = [
            [json_int(c, "matrix entry") for c in _json_list(row, "a matrix row")]
            for row in _json_list(obj["matrix"], "the matrix")
        ]
        rhs = [json_int(c, "right-hand side entry") for c in _json_list(obj["rhs"], "rhs")]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"bad system file: {exc}") from None
    return DiophantineSystem(matrix, rhs)


def magic_square_system(n):
    """Row, column, and both diagonal sum conditions on an n x n grid."""
    if n < 1:
        raise InputError("grid size must be positive")
    n2 = n * n
    rows = []
    for r in range(n):
        row = [0] * n2
        for c in range(n):
            row[r * n + c] = 1
        rows.append(row)
    for c in range(n):
        row = [0] * n2
        for r in range(n):
            row[r * n + c] = 1
        rows.append(row)
    diag = [0] * n2
    anti = [0] * n2
    for i in range(n):
        diag[i * n + i] = 1
        anti[i * n + (n - 1 - i)] = 1
    rows.append(diag)
    rows.append(anti)
    return DiophantineSystem(rows, [1] * (2 * n + 2))


# ---------------------------------------------------------------------------
# term-sum builders (phase A input)


def _start_termsum(system, table, ring, series):
    """The one starting term; every column factor carries its own slack variable.

    A count term has numerator c^{-b}; a series term has numerator 1 and
    the extra factor 1/(1 - q c^{-b}) in a free variable q.
    """
    qvid = table.add("q", FREE) if series else None
    cvids = [table.add(f"c{i + 1}", CT) for i in range(system.m)]
    den = []
    for j in range(system.n):
        col = {cvids[i]: system.matrix[i][j] for i in range(system.m)}
        col[table.fresh_slack()] = 1
        den.append(exps_from_dict(col))
    shift = {cvids[i]: -system.rhs[i] for i in range(system.m)}  # c^{-b}
    if series:
        den.append(exps_from_dict({**shift, qvid: 1}))
        num = EXPS_ONE
    else:
        num = exps_from_dict(shift)
    return start_termsum(table, ring, {num: 1}, den)


def build_count_termsum(system, table, ring):
    """Single starting term whose iterated constant term is the count."""
    return _start_termsum(system, table, ring, series=False)


def build_series_termsum(system, table, ring):
    """Starting term for the dilation series: free q, no fixed right side."""
    return _start_termsum(system, table, ring, series=True)


# ---------------------------------------------------------------------------
# outcome assembly


@dataclass
class RunOutcome:
    task: str                     # "count" | "series"
    exact: bool
    value: int = None             # count (exact or CRT-reconstructed)
    residues: dict = None         # count mode: {p: residue}
    num: list = None              # series mode: reduced numerator over Z
    den: list = None              # series mode: reduced denominator, den[0] = 1
    den_factors: dict = None      # {k: e} display when den = prod (1 - q^k)^e
    series_residues: dict = None  # series mode without CRT: {p: {...}}
    confidence: Fraction = None   # |value| / prod(moduli) for CRT lifts
    lam: dict = None              # direction used, keyed by variable name
    stats: Stats = None
    table: object = None          # VariableTable of the run
    config_hash: str = None       # hash of the run configuration

    def value_str(self):
        if self.task == "count":
            if self.value is not None:
                return str(self.value)
            return ", ".join(f"{v} (mod {p})" for p, v in sorted(self.residues.items()))
        if self.num is None and self.series_residues:
            primes = ",".join(str(p) for p in sorted(self.series_residues))
            return f"series residues mod {primes}"
        return format_series(self.num, self.den, self.den_factors)


def format_series(num, den, den_factors=None):
    nstr = poly_str_1var(num)
    if den_factors:
        bits = []
        for k, e in sorted(den_factors.items()):
            base = "(1 - q)" if k == 1 else f"(1 - q^{k})"
            bits.append(f"{base}^{e}" if e > 1 else base)
        d = " * ".join(bits)
    else:
        d = poly_str_1var(den)
    return f"({nstr}) / ({d})"


def poly_str_1var(cs):
    if not cs:
        return "0"
    out = []
    for d, c in enumerate(cs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if d == 0:
            body = str(a)
        elif d == 1:
            body = f"{a}*q" if a != 1 else "q"
        else:
            body = f"{a}*q^{d}" if a != 1 else f"q^{d}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out) if out else "0"


def series_coeffs(num, den, count):
    """First `count` power-series coefficients of num/den as exact integers.

    den[0] must be 1, as in every reduced series.  A solution count is never
    negative, so a negative coefficient raises ArithmeticError.
    """
    out = power_series_div(num, den, count)
    if any(c < 0 for c in out):
        raise ArithmeticError("series coefficient went negative")
    return out


# ---------------------------------------------------------------------------
# the pipeline


def check_boundedness(system):
    """The certificate y of certify_bounded; InputError when the solution set is infinite."""
    y = certify_bounded(system.matrix)
    if y is None:
        raise InputError("the homogeneous system has a nonzero nonnegative solution; "
                         "the solution set is infinite")
    return y


def solution_box(system, y, t):
    """Caps on each x_j over the solutions of A x = t b, from y with y^T A > 0.

    y^T A x = t y^T b and x >= 0 keep each x_j within t y^T b / (y^T A)_j.
    """
    ytb = t * sum(yi * bi for yi, bi in zip(y, system.rhs))
    return [max(0, ytb // sum(yi * c for yi, c in zip(y, col))) for col in zip(*system.matrix)]


def dilation_bound(system, y, t):
    """A bound on the number of solutions of A x = t b, from y with y^T A > 0."""
    return prod(u + 1 for u in solution_box(system, y, t))


def certified_primes(system, y, summary, lam_map):
    """(primes, den) of an exact run: enough primes to lift the numerator over den.

    den = prod_m (1 - q^m)^e_m is the summary's (see summarize): e_m is
    the largest j_m + r of a term with j_m mixed factors at q-exponent m
    and r pure ones, which covers every piece of ct_s_term in any ring.
    The series is N/den with f_t a quasi-polynomial for t >= 1 (Stanley,
    EC1, 4.6), so deg N <= deg den and |N_d| <= ||den||_1 max(f_t : t <=
    d) <= 2^(sum e) dilation_bound(deg den); a count has den = 1 and is
    f_1.  The primes are the fewest whose product exceeds twice that,
    DEFAULT_PRIMES first and then the primes above them, skipping those
    that divide a nonzero pairing, so that every structural test of stage
    B reads as over Z.  A factor's pairing is that of its slack part, so
    the summary's descriptors give every one.
    """
    den = dict(summary.den)
    pairings = {sum(lam_map[v] * e for v, e in bvec) for bvec, _ in summary.descriptors}
    pairings.discard(0)
    degree = sum(m * e for m, e in den.items())
    bound = 2 ** sum(den.values()) * dilation_bound(system, y, max(1, degree))
    primes, product = [], 1
    for p in chain(DEFAULT_PRIMES, filter(_mr_is_prime, count(DEFAULT_PRIMES[-1] + 2, 2))):
        if product > 2 * bound:
            return primes, den
        if all(b % p for b in pairings):
            primes.append(p)
            product *= p


class MemoryStore:
    """Keeps every stage result as a Python object: nothing is serialized.

    Stage B gets one chunk, stage A's packed TermSum itself, so all rings
    are eliminated in one call and no other copy of the terms is made.
    The summary that the direction and the exact primes come from is one
    pass over it.
    """

    def stage_a(self, compute):
        table, self.done, stats = compute()
        return table, 1, stats, summarize([self.done])

    def partials(self, rings, i, lhash, compute):
        acc, stats = compute(rings, self.done)
        return [(part, stats) for part in acc.split(rings)]


def run_pipeline(
    system,
    task,
    ckpt_dir=None,
    *,
    moduli=(),
    crt=False,
    order="given",
    seed=0,
    lam=None,
    chunk_size=1000,
    max_units=None,
    log=None,
    stats=None,
):
    """Count solutions (task="count") or compute the dilation series
    (task="series") for one system.

    Stage B runs once per chunk for all moduli that still need it, modulo
    their product, and is split into one partial per modulus.  Without
    moduli the run is exact: its moduli are those of certified_primes, its
    stats count each chunk once, and the numerator is lifted by CRT.  Without
    ckpt_dir every stage stays in memory.  With it, stage A and each
    per-ring per-chunk stage-B partial are kept in that directory (see the
    checkpoint module): a second call resumes where the first one stopped,
    and max_units makes a call raise CheckpointPause once that many units
    are newly completed.  The outcome carries the configuration hash.
    """
    if task not in ("count", "series"):
        raise InputError(f"unknown task {task!r}")
    if chunk_size < 1:
        raise InputError("chunk size must be at least 1")
    if len(set(moduli)) != len(moduli):
        raise InputError("moduli must be pairwise distinct")
    rings = [PrimeField(p) for p in moduli]
    y = check_boundedness(system)
    payload = config_payload(task, system, seed, order, chunk_size)
    chash = config_hash(payload)
    if ckpt_dir is None:
        store = MemoryStore()
    else:
        store = DirectoryStore(ckpt_dir, payload, chash, max_units, log)

    def stage_a():
        table = VariableTable()
        build = build_count_termsum if task == "count" else build_series_termsum
        ts = build(system, table, ExactRing())
        st = Stats()
        return table, ct_all(ts, order=order, stats=st), st

    # the product ring of each set of moduli a chunk lacks, built once per run
    products = {}

    def stage_b(todo, chunk):
        # one pass for all of todo: the ring itself, or Z/PZ for the product
        # P of their primes, which FactoredAccumulator.split reduces mod each
        key = tuple(r.modulus for r in todo)
        ring = todo[0] if len(todo) == 1 else products.get(key)
        if ring is None:
            ring = products[key] = PrimeField.product(todo)
        st = Stats()
        return eliminate_slack(ring, table, chunk, lam_map, st), st

    table, nchunks, stats_a, summary = store.stage_a(stage_a)
    stats = stats if stats is not None else Stats()
    stats.merge(stats_a)
    lam_map = pick_lambda(summary, table.vids_of_rank(SLACK), moduli=moduli, seed=seed, lam=lam)
    lhash = lam_hash(lam_map)
    den = None
    if not moduli:
        primes, den = certified_primes(system, y, summary, lam_map)
        rings = [PrimeField(p) for p in primes]
    del summary  # a tuple per distinct factor, which stage B need not hold

    # a chunk's stats count once per modulus, so ct-s-calls is terms x
    # moduli, and once in an exact run
    results = [FactoredAccumulator(ring) for ring in rings]
    for i in range(nchunks):
        parts = store.partials(rings, i, lhash, stage_b)
        for k, (acc, (part, st)) in enumerate(zip(results, parts)):
            if moduli or not k:
                stats.merge(st)
            acc.merge(part)

    out = _assemble(task, results, moduli, crt, den)
    out.lam = {table.name_of(v): w for v, w in lam_map.items()}
    out.stats = stats
    out.table = table
    out.config_hash = chash
    return out


def _assemble(task, results, moduli, crt, target=None):
    """The outcome of a run from its stage-B accumulators, one per prime.

    Every prime's numerator is taken over target, by default the common
    denominator of all of them; a count's is {}, and its value is the
    constant coefficient.  Modular runs keep that numerator as residues;
    CRT runs and exact runs (no moduli) lift it coefficient by
    coefficient, and CRT runs report the worst confidence.
    """
    if target is None:
        target = {k: max(a.den.get(k, 0) for a in results) for acc in results for k in acc.den}
    out = RunOutcome(task=task, exact=not moduli)
    residues = {acc.ring.modulus: dict(sorted(acc.numerator(target).items())) for acc in results}
    if moduli:
        if task == "count":
            out.residues = {p: r.get(0, 0) for p, r in residues.items()}
        if not crt:
            if task == "series":
                out.series_residues = {
                    p: {"num": r, "den_counts": dict(target)} for p, r in residues.items()
                }
            return out
        out.confidence = Fraction(0)
    num = {}
    for d in sorted({d for r in residues.values() for d in r}):
        v, conf = crt_combine([r.get(d, 0) for r in residues.values()], list(residues))
        out.confidence = max(out.confidence, conf) if moduli else None
        if v:
            num[d] = v
    if task == "count":
        out.value = num.get(0, 0)
    else:
        out.num, out.den, out.den_factors = reduce_factored(num, target)
    return out


# ---------------------------------------------------------------------------
# convenience wrappers


def knapsack_system(a0, weights):
    if a0 < 0:
        raise InputError("the target must be nonnegative")
    if not weights or any(w <= 0 for w in weights):
        raise InputError("weights must be positive integers")
    return DiophantineSystem([list(weights)], [a0])


def knapsack_count(a0, weights, **kw):
    out = run_pipeline(knapsack_system(a0, weights), "count", **kw)
    return out.value if out.value is not None else out.residues


def diophantine_count(system, **kw):
    return run_pipeline(system, "count", **kw)


def ehrhart_series(system, **kw):
    return run_pipeline(system, "series", **kw)
