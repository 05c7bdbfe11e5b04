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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CT,
    EXPS_ONE,
    FREE,
    ExactRing,
    InputError,
    PrimeField,
    VariableTable,
    exps_from_dict,
)
from .bruteforce import certify_bounded
from .checkpoint import DirectoryStore, config_hash, config_payload, lam_hash
from .elimination import crt_combine, eliminate_slack, pick_lambda
from .engine import ElliottTerm, Stats, ct_all, start_termsum
from .univariate import (
    FactoredAccumulator,
    dense_from_sparse,
    divexact_int,
    expand_factored,
    power_series_div,
    reduce_fraction_int,
)


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
    return start_termsum(table, ring, {num: ring.one()}, den)


def build_count_termsum(system, table, ring):
    """Single starting term whose iterated constant term is the count."""
    return _start_termsum(system, table, ring, series=False)


def build_series_termsum(system, table, ring):
    """Starting term for the dilation series: free q, no fixed right side."""
    return _start_termsum(system, table, ring, series=True)


def convert_terms(terms, ring):
    """Reinterpret integer-coefficient terms in another coefficient ring."""
    out = []
    for t in terms:
        num = {}
        for e, c in t.num.items():
            rc = ring.from_int(c)
            if not ring.is_zero(rc):
                num[e] = rc
        if num:
            out.append(ElliottTerm(num, t.den))
    return out


# ---------------------------------------------------------------------------
# outcome assembly


def _as_int(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    raise ArithmeticError(f"expected an integer, got {c!r}")


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
    nstr = poly_str_1var(num, "q")
    if den_factors is not None:
        bits = []
        for k, e in sorted(den_factors.items()):
            base = "(1 - q)" if k == 1 else f"(1 - q^{k})"
            bits.append(f"{base}^{e}" if e > 1 else base)
        d = " * ".join(bits)
    else:
        d = poly_str_1var(den, "q")
    return f"({nstr}) / ({d})"


def poly_str_1var(cs, name):
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
            body = f"{a}*{name}" if a != 1 else name
        else:
            body = f"{a}*{name}^{d}" if a != 1 else f"{name}^{d}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out) if out else "0"


def factored_denominator(den):
    """{k: e} with den = prod (1 - q^k)^e, or None if there is none.

    Greedy from the largest k is exact: the largest k with Phi_k dividing
    a product of such binomials is itself one of its factors.
    """
    rem = list(den)
    if not rem or rem[0] != 1:
        return None
    out = {}
    for k in range(len(rem) - 1, 0, -1):
        binom = [1] + [0] * (k - 1) + [-1]
        while len(rem) - 1 >= k:
            try:
                rem = divexact_int(rem, binom)
            except ArithmeticError:
                break
            out[k] = out.get(k, 0) + 1
    if rem == [1]:
        return out
    return None


def series_coeffs(num, den, count):
    """First `count` power-series coefficients of num/den as exact integers.

    A solution count is never negative, so a negative coefficient raises
    ArithmeticError.
    """
    out = []
    for c in power_series_div(ExactRing(), num, den, count):
        v = _as_int(c)
        if v < 0:
            raise ArithmeticError("series coefficient went negative")
        out.append(v)
    return out


def _reduce_series(num, den_counts):
    """Reduce the sparse integer numerator num over prod (1 - q^k)^e to lowest terms."""
    ring = ExactRing()
    num_dense = [_as_int(c) for c in dense_from_sparse(ring, num)]
    den_dense = expand_factored(ring, den_counts)
    num_r, den_r = reduce_fraction_int(num_dense, den_dense)
    if den_r and den_r[0] < 0:
        num_r = [-c for c in num_r]
        den_r = [-c for c in den_r]
    return num_r, den_r, factored_denominator(den_r)


# ---------------------------------------------------------------------------
# the pipeline


def elimination_rings(moduli):
    return [PrimeField(p) for p in moduli] if moduli else [ExactRing()]


def check_boundedness(system, assume_bounded=False):
    if assume_bounded:
        return
    if not certify_bounded(system.matrix):
        raise InputError(
            "the homogeneous system has a nonzero nonnegative solution; "
            "the solution set is infinite"
        )


class MemoryStore:
    """Keeps every stage result as a Python object: nothing is serialized.

    Stage B gets one chunk holding every term, so each ring is eliminated
    in one call.
    """

    def stage_a(self, compute):
        table, terms, stats = compute()
        return table, [terms], stats

    def partial(self, ring, i, lhash, compute):
        return compute()


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
    assume_bounded=False,
    max_units=None,
    log=None,
    stats=None,
):
    """Count solutions (task="count") or compute the dilation series
    (task="series") for one system.

    Without ckpt_dir every stage stays in memory.  With it, stage A and each
    per-ring per-chunk stage-B partial are kept in that directory (see the
    checkpoint module): a second call resumes where the first one stopped,
    and max_units makes a call raise CheckpointPause after that many newly
    completed units.  The outcome carries the configuration hash.
    """
    if task not in ("count", "series"):
        raise InputError(f"unknown task {task!r}")
    if chunk_size < 1:
        raise InputError("chunk size must be at least 1")
    rings = elimination_rings(moduli)
    payload = config_payload(task, system, seed, order, chunk_size)
    chash = config_hash(payload)
    if ckpt_dir is None:
        store = MemoryStore()
    else:
        store = DirectoryStore(ckpt_dir, payload, chash, max_units, log)

    def stage_a():
        check_boundedness(system, assume_bounded)
        table = VariableTable()
        build = build_count_termsum if task == "count" else build_series_termsum
        ts = build(system, table, ExactRing())
        st = Stats()
        done = ct_all(ts, order=order, stats=st)
        return table, done.unpacked(), st

    def stage_b(ring, chunk):
        st = Stats()
        return eliminate_slack(ring, table, convert_terms(chunk, ring), lam_map, st), st

    table, chunks, stats_a = store.stage_a(stage_a)
    stats = stats if stats is not None else Stats()
    stats.merge(stats_a)
    lam_map = pick_lambda(chunks, moduli=moduli, seed=seed, lam=lam)
    lhash = lam_hash(lam_map)

    results = []
    for ring in rings:
        acc = FactoredAccumulator(ring)
        for i, chunk in enumerate(chunks):
            part, st = store.partial(ring, i, lhash, lambda: stage_b(ring, chunk))
            stats.merge(st)
            acc.merge(part)
        results.append(acc)

    out = _assemble(task, results, moduli, crt)
    out.lam = {table.name_of(v): w for v, w in lam_map.items()}
    out.stats = stats
    out.table = table
    out.config_hash = chash
    return out


def _assemble(task, results, moduli, crt):
    """The outcome of a run from its stage-B accumulators, one per ring.

    Every ring's numerator is taken over the common denominator of all of
    them; a count's is {}, and its value is the constant coefficient.
    Exact runs read that numerator, modular runs keep it as residues, and
    CRT runs lift it coefficient by coefficient with the worst confidence.
    """
    target = {}
    for acc in results:
        for k, e in acc.den.items():
            target[k] = max(e, target.get(k, 0))
    out = RunOutcome(task=task, exact=not moduli)
    if not moduli:
        num = results[0].numerator(target)
    else:
        residues = {}
        for acc in results:
            p = acc.ring.modulus
            residues[p] = {d: c % p for d, c in sorted(acc.numerator(target).items())}
        if task == "count":
            out.residues = {p: r.get(0, 0) for p, r in residues.items()}
        if not crt:
            if task == "series":
                out.series_residues = {
                    p: {"num": r, "den_counts": dict(target)} for p, r in residues.items()
                }
            return out
        num = {}
        out.confidence = Fraction(0)
        for d in sorted({d for r in residues.values() for d in r}):
            v, conf = crt_combine([r.get(d, 0) for r in residues.values()], list(residues))
            out.confidence = max(out.confidence, conf)
            if v:
                num[d] = v
    if task == "count":
        out.value = _as_int(num.get(0, 0))
    else:
        out.num, out.den, out.den_factors = _reduce_series(num, target)
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
