"""On-disk checkpoint store: resumable runs with atomic state files.

A checkpoint directory holds:

    meta.json              configuration, hash, phase-A state, variable table
    terms-NNNN.jsonl       extracted terms, chunk_size per file (phase A)
    partial-P-NNNN.json    one elimination result per prime P per chunk (phase B)
    result.txt             final rendered result (phase C)

Phase A's state in meta.json is its term and chunk counts, its counters,
the variable table and the stage-B summary of its terms
(elimination.Summary): the slack variables, the slack part of every
denominator factor, and the denominator an exact run takes its numerators
over.  A direction and the exact primes are drawn from that summary alone,
so no chunk is read before stage B, and stage B reads one chunk at a time,
only when a partial of it is missing.  Stage A writes its chunks one at a
time too, straight from its packed terms, and a chunk is packed as it
loads, each distinct row of it once, so neither side builds a tuple-form
term and stage B reads a packed TermSum here too.  A meta.json without a summary,
as older versions wrote it, gets one from a pass over the chunks.

A work unit is stage A, or the partial of one chunk modulo one prime.
Stage B eliminates a chunk once for all the primes that lack its partial,
modulo their product, and then writes one file per prime, as a run modulo
that prime alone does; the chunk's units count only once all of those
files are on disk.  An exact run is a run over primes it picks itself, so
it writes and reads the same files as a --crt run over those primes.

Every file is written to a temp name, synced, and atomically renamed, so a
killed run leaves only complete units.  The configuration hash covers the
task, the system, the seed, and the structural knobs -- but not the prime
set: saved term chunks are ring-independent, so a resume may switch moduli
and only the missing per-ring partials are computed, in one pass per
chunk.  The substitution direction is re-derived deterministically from
the seed on every resume; each partial records the direction hash it was
computed under and is recomputed if that hash moved (it only can when the
prime set changed).

The stages themselves run in ``problems.run_pipeline``; this module only
decides what is already on disk and stores what is not.  The rendered
result contains no wall-clock data, so a fresh run and an
interrupted-and-resumed run with the same configuration produce
byte-identical result files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
from itertools import chain, islice

from . import __version__
from .algebra import CT, SLACK, ExactRing, Layout, VariableTable
from .elimination import Summary, summarize
from .engine import ElliottTerm, Stats, TermSum, num_items
from .univariate import FactoredAccumulator

TOOL_NAME = "ct-euclid"

# Pipeline runs always insert slack eagerly.  The mode is still written into
# config hashes and result files, so that neither moves.
SLACK_MODE = "eager"


class CheckpointError(RuntimeError):
    """Checkpoint directory does not match the requested run."""


class CheckpointPause(Exception):
    """Deliberate stop after the configured number of work units."""


# ---------------------------------------------------------------------------
# serialization helpers


def config_payload(task, system, seed, order, chunk_size):
    return {
        "task": task,
        "matrix": [[str(c) for c in row] for row in system.matrix],
        "rhs": [str(c) for c in system.rhs],
        "seed": seed,
        "order": order,
        "slack": SLACK_MODE,
        "chunk_size": chunk_size,
    }


def config_hash(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def system_from_payload(payload):
    from .problems import DiophantineSystem  # problems imports this module

    matrix = [[int(c) for c in row] for row in payload["matrix"]]
    rhs = [int(c) for c in payload["rhs"]]
    return DiophantineSystem(matrix, rhs)


def load_meta(path):
    """The parsed meta.json at path; CheckpointError unless it is one this module wrote."""
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from None
    if not (
        isinstance(meta, dict)
        and isinstance(meta.get("config"), dict)
        and isinstance(meta.get("phase_a"), dict)
    ):
        raise CheckpointError(f"{path} is not a checkpoint description")
    return meta


def _write_atomic(path, text):
    """Write text to path through path.tmp, which a failed write removes."""
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _exps_json(exps, memo):
    """The JSON text [[rank,seq,exponent],...] of an exps tuple; memo keeps each pair's text."""
    out = []
    for pair in exps:
        text = memo.get(pair)
        if text is None:
            (rank, seq), e = pair
            text = memo[pair] = f"[{rank},{seq},{e}]"
        out.append(text)
    return "[" + ",".join(out) + "]"


def _exps_from_obj(obj, memo):
    exps = []
    for r, s, e in obj:
        key = (r, s, e)
        pair = memo.get(key)
        if pair is None:
            pair = memo[key] = ((int(r), int(s)), int(e))
        exps.append(pair)
    exps = tuple(exps)
    return memo.setdefault(exps, exps)


def term_to_line(t, memo=None):
    """One line of a term chunk: the JSON object {"d": factors, "n": [[monomial, "coeff"], ...]}.

    The text is that of json.dumps(..., sort_keys=True, separators=(",",
    ":")), monomials as [[rank, seq, exponent], ...], coefficients as
    decimal strings and numerator monomials in sorted order, but put
    together from strings, which is several times faster.  memo, a dict
    kept over a pass, holds the text of each factor and (vid, exponent)
    pair met, since factors recur from term to term.
    """
    memo = {} if memo is None else memo
    den = []
    for f in t.den:
        text = memo.get(f)
        if text is None:
            text = memo[f] = _exps_json(f, memo)
        den.append(text)
    num = ",".join([f'[{_exps_json(e, memo)},"{c}"]' for e, c in sorted(t.num.items())])
    return '{"d":[' + ",".join(den) + '],"n":[' + num + "]}"


def term_from_line(line, memo=None):
    """The tuple-form term of a term_to_line line.

    memo, a dict, gives the terms read through it one object for each equal
    monomial and (vid, exponent) pair, which it keys by the pair's JSON
    row: a chunk's terms share most of their factors, and each pair is
    built once.
    """
    memo = {} if memo is None else memo
    obj = json.loads(line)
    num = {_exps_from_obj(e, memo): int(c) for e, c in obj["n"]}
    den = tuple(sorted(_exps_from_obj(f, memo) for f in obj["d"]))
    return ElliottTerm(num, den)


def _packed_line(num, den, text, unpack, memo):
    """term_to_line's line, with its newline, of a packed term with numerator num and factors den.

    den is in the order of the factors' exps tuples and text gives each
    factor's JSON text; unpack decodes a numerator monomial, which are put
    in the order of their exps tuples, and memo is term_to_line's.
    """
    if len(num) == 2:
        items = ((unpack(num[0]), num[1]),)
    else:
        items = sorted([(unpack(e), c) for e, c in num_items(num)])
    n = ",".join([f'[{_exps_json(e, memo)},"{c}"]' for e, c in items])
    return '{"d":[' + ",".join([text[f] for f in den]) + '],"n":[' + n + "]}\n"


# every byte a chunk file may hold: term_to_line writes JSON arrays, the
# keys "d" and "n", decimal strings and ints, never a float, bool or null
_CHUNK_BYTES = b'[]{}",:-0123456789dn \t\r\n'


def _row_top(row, kept):
    """The largest |exponent|, 0 for none, of a row ((rank, index, exponent), ...) of a chunk line.

    ValueError unless each entry holds three ints, names a variable of
    kept once, in working order, and has a nonzero exponent, as
    term_to_line writes every monomial.
    """
    top = 0
    last = None
    for entry in row:
        r, s, e = entry
        if not (type(r) is type(s) is type(e) is int and e):
            raise ValueError(f"{json.dumps(entry)} is no [rank, index, exponent] "
                             "with a nonzero exponent")
        v = (r, s)
        if v not in kept:
            raise ValueError(f"a monomial names [{r},{s}], no slack or free variable")
        if last is not None and v <= last:
            raise ValueError(f"monomial {json.dumps(row)} does not name its variables "
                             "once each in working order")
        last = v
        if abs(e) > top:
            top = abs(e)
    return top


def _read_chunk(table, data):
    """The TermSum of a chunk file's bytes, packed under table by a layout bounded by its exponents.

    It packs what TermSum.pack packs from the lines' term_from_line terms,
    but checks and packs each distinct monomial or factor row once per
    chunk: a row is memoized as the tuple of its entries, and the byte
    check keeps those to ints and strings, so no row stands for another
    of equal value and other type.  ValueError (or KeyError, TypeError)
    unless every line is one term_to_line writes over the slack and free
    variables of table: a row that repeats a variable or leaves working
    order, a float, bool or string where an int belongs, a coefficient
    that is no decimal string, an empty factor or a numerator monomial
    written twice.
    """
    if data.translate(None, _CHUNK_BYTES):
        raise ValueError("a line holds a float, a bool, a null or a name that no term holds")
    kept = {v for v, _ in table.ordered() if v[0] != CT}
    rows = {}
    top = 1

    def row_key(row):
        # the memo's own key object, so a term keeps no copy of a row; the
        # list makes a tuple of the right size at once, where tuple(map())
        # grows and shrinks one and fragments the heap
        nonlocal top
        key = tuple([*map(tuple, row)])
        seen = rows.get(key)
        if seen is None:
            top = max(top, _row_top(key, kept))
            seen = rows[key] = key
        return seen

    read = []
    for line in data.decode().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        den, num = obj["d"], obj["n"]
        if not (len(obj) == 2 and type(den) is list and type(num) is list):
            raise ValueError('a line is no {"d": factors, "n": [[monomial, "coeff"], ...]}')
        keys = list(map(row_key, den))
        if () in keys:
            raise ValueError("a denominator factor is the monomial 1")
        pairs = []
        for row, c in num:
            v = int(c) if type(c) is str else None
            if v is None or str(v) != c:
                raise ValueError(f"coefficient {json.dumps(c)} is no decimal string")
            pairs += row_key(row), v
        read.append((keys, pairs))
    layout = Layout(table, top)
    shift = layout.shift
    packed = {key: sum([e << shift[r, s] for r, s, e in key]) for key in rows}
    terms = []
    for keys, pairs in read:
        pairs[::2] = map(packed.__getitem__, pairs[::2])
        if len(pairs) > 2 and len(set(pairs[::2])) != len(pairs) // 2:
            raise ValueError("a numerator names one monomial twice")
        terms.append(ElliottTerm(tuple(pairs), tuple(sorted(map(packed.__getitem__, keys)))))
    return TermSum(layout, ExactRing(), terms)


def table_to_obj(table):
    return [[v[0], v[1], name] for v, name in table.ordered()]


def table_from_obj(obj):
    """The VariableTable of table_to_obj's rows [rank, index, name].

    ValueError unless obj is a list of such rows; CheckpointError when
    they do not rebuild the table they describe.
    """
    if not isinstance(obj, list):
        raise ValueError("the variable table is not a list")
    table = VariableTable()
    for row in obj:
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError(f"variable table row {json.dumps(row)} does not have three fields")
        r, s, name = row
        vid = table.add(name, int(r))
        if vid != (int(r), int(s)):
            raise CheckpointError("variable table snapshot is inconsistent")
    return table


def summary_to_obj(summary):
    """The JSON form of a Summary: slack variables by their index among the slacks.

    A descriptor (bvec, pure) becomes [pure, s1, e1, s2, e2, ...] for
    bvec = ((z_s1, e1), (z_s2, e2), ...), and den {m: e} maps "m" to e.
    """
    return {
        "terms": summary.terms,
        "slacks": [v[1] for v in summary.slacks],
        "descriptors": [[pure, *chain.from_iterable((v[1], e) for v, e in bvec)]
                        for bvec, pure in summary.descriptors],
        "den": {str(m): e for m, e in sorted(summary.den.items())},
    }


def summary_from_obj(obj, table):
    """The Summary of summary_to_obj's obj over table; ValueError unless obj is one."""
    slack_vids = set(table.vids_of_rank(SLACK))

    def index(s):
        if not (type(s) is int and (SLACK, s) in slack_vids):
            raise ValueError(f"the summary names {json.dumps(s)}, no slack variable")
        return s

    if not isinstance(obj, dict):
        raise ValueError("the summary is not a JSON object")
    terms, slacks, descriptors, den = (obj[k] for k in ("terms", "slacks", "descriptors", "den"))
    if not (type(terms) is int and terms >= 0):
        raise ValueError(f"the summary counts {json.dumps(terms)} terms")
    if not (isinstance(slacks, list) and isinstance(descriptors, list) and isinstance(den, dict)):
        raise ValueError("the summary's slacks and descriptors are not lists, or its den "
                         "not a JSON object")
    slacks = {(SLACK, index(s)) for s in slacks}
    out = set()
    for d in descriptors:
        if not (isinstance(d, list) and d and isinstance(d[0], bool) and len(d) % 2):
            raise ValueError(f"descriptor {json.dumps(d)} is not [pure, s1, e1, ...]")
        bvec = tuple(((SLACK, index(s)), e) for s, e in zip(d[1::2], d[2::2]))
        if not all(v in slacks and type(e) is int and e for v, e in bvec):
            raise ValueError(f"descriptor {json.dumps(d)} holds no slack part of a factor")
        out.add((bvec, d[0]))
    for m, e in den.items():
        if not (re.fullmatch(r"[1-9][0-9]*", m) and type(e) is int and e >= 1):
            raise ValueError(f"den holds {json.dumps(m)}: {json.dumps(e)}, "
                             "no factor (1 - q^m)^e, m, e >= 1")
    return Summary(terms, sorted(slacks), tuple(sorted(out)),
                   {int(m): e for m, e in den.items()})


def lam_to_obj(lam_map):
    return {f"{v[0]}:{v[1]}": w for v, w in lam_map.items()}


def lam_hash(lam_map):
    blob = json.dumps(lam_to_obj(lam_map), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _chunk_count(nterms, size):
    """The number of term chunk files of nterms terms in chunks of size: at least one."""
    return max(1, -(-nterms // size))


# ---------------------------------------------------------------------------
# the store


class DirectoryStore:
    """Stage A and the stage-B partials of one run, kept in a directory.

    max_units bounds the number of work units completed by this process
    (stage A counts as one, each per-ring per-chunk partial as one);
    reaching it raises CheckpointPause once the current stage A, or all
    partials of the current chunk, are safely on disk.
    """

    def __init__(self, path, payload, chash, max_units=None, log=None):
        os.makedirs(path, exist_ok=True)
        self.path = path
        self.max_units = max_units
        self.log = log or (lambda msg: None)
        self.units = 0
        self.meta_path = os.path.join(path, "meta.json")
        if os.path.exists(self.meta_path):
            self.meta = load_meta(self.meta_path)
            if self.meta.get("config_hash") != chash:
                raise CheckpointError(
                    "checkpoint directory was created for a different configuration"
                )
        else:
            self.meta = {
                "tool": TOOL_NAME,
                "version": __version__,
                "config_hash": chash,
                "config": payload,
                "phase_a": {"done": False},
            }
            self._write_meta()

    def _write_meta(self):
        # not indented: indenting takes json's pure-Python encoder, which
        # makes a string for every number of the summary before joining them
        text = json.dumps(self.meta, sort_keys=True, separators=(",", ":"))
        _write_atomic(self.meta_path, text + "\n")

    def _spend_units(self, n):
        self.units += n
        if self.max_units is not None and self.units >= self.max_units:
            raise CheckpointPause(f"paused after {self.units} unit(s)")

    def stage_a(self, compute):
        """(table, number of term chunks, stage-A stats, Summary); compute() runs once per directory.

        compute() gives stage A's TermSum.  Its Summary goes into meta.json
        with the rest of phase A, and its terms are written in tuple form,
        one chunk file at a time, straight from the packed sum; then it is
        dropped.  Stage B reads each chunk back only when a partial of it
        is missing (see partials).  A directory whose meta.json holds no
        Summary, as older versions wrote it, gets one from a pass that
        reads the chunks one at a time.
        """
        size = self.meta["config"]["chunk_size"]
        if not self.meta["phase_a"].get("done"):
            self.log("phase A: extracting constant terms")
            table, done, stats = compute()
            self.meta["phase_a"] = {
                "done": True,
                "chunks": self._write_chunks(done, size),
                "terms": len(done),
                "stats": stats.as_dict(),
                "table": table_to_obj(table),
                "summary": summary_to_obj(summarize([done])),
            }
            del done
            self._write_meta()
            self._spend_units(1)
        phase_a = self.meta["phase_a"]
        stats = Stats()
        try:
            stats.load(phase_a["stats"])
            table = table_from_obj(phase_a["table"])
            nterms, nchunks = phase_a["terms"], phase_a["chunks"]
            if not (type(nterms) is int and nterms >= 0):
                raise ValueError(f"terms holds {nterms!r}")
            if not (type(nchunks) is int and nchunks == _chunk_count(nterms, size)):
                raise ValueError(f"chunks holds {nchunks!r} for {nterms} terms "
                                 f"in chunks of {size}")
            summary = phase_a.get("summary")
            if summary is not None:
                summary = summary_from_obj(summary, table)
                if summary.terms != nterms:
                    raise ValueError(f"the summary counts {summary.terms} terms "
                                     f"where terms holds {nterms}")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"damaged stage-A state in {self.meta_path} ({exc}); "
                "delete the directory and rerun"
            ) from None
        self.table = table
        if summary is None:
            summary = summarize(map(self._load_chunk, range(nchunks)))
        return table, nchunks, stats, summary

    def _write_chunks(self, done, size):
        """Save the terms of done, size to a file, as term_to_line writes them; the number of files.

        The lines come straight from the packed terms, in the order of
        TermSum.tuple_terms: each distinct factor's text is made once for
        the whole pass, each numerator monomial's as it comes, and one
        chunk's lines at a time are held.
        """
        factors, terms = done.in_tuple_order()
        memo = {}
        text = {f: _exps_json(e, memo) for f, e in factors.items()}
        del factors
        unpack = done.layout.unpack
        nchunks = _chunk_count(len(done), size)
        for i in range(nchunks):
            lines = "".join(_packed_line(t.num, den, text, unpack, memo)
                            for t, den in islice(terms, size))
            _write_atomic(os.path.join(self.path, f"terms-{i:04d}.jsonl"), lines)
        return nchunks

    def _load_chunk(self, i):
        """Chunk i, packed under phase A's table as the TermSum that stage B reads.

        It must hold its share of phase A's terms, each a line as
        term_to_line writes it (see _read_chunk).
        """
        path = os.path.join(self.path, f"terms-{i:04d}.jsonl")
        try:
            with open(path, "rb") as fh:
                chunk = _read_chunk(self.table, fh.read())
        except FileNotFoundError:
            raise CheckpointError(f"missing term chunk {i}; delete the directory and rerun")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"damaged term chunk {i} ({exc}); delete the directory and rerun"
            ) from None
        size = self.meta["config"]["chunk_size"]
        share = min(size, self.meta["phase_a"]["terms"] - i * size)
        if len(chunk) != share:
            raise CheckpointError(
                f"term chunk {i} holds {len(chunk)} terms where {self.meta_path} "
                f"gives it {share}; delete the directory and rerun"
            )
        return chunk

    def partials(self, rings, i, lhash, compute):
        """[(FactoredAccumulator, stats)] of chunk i, one per ring, under direction hash lhash.

        A ring whose partial file was saved under lhash reads it.  The rings
        left are eliminated together: compute(rings left, chunk i) gives one
        accumulator over their product ring and the chunk's stats, which
        FactoredAccumulator.split reduces into each of them.  Chunk i is
        read only then, and dropped on return.  All their files are written
        before their units count, so a pause never falls between the rings
        of one chunk.

        The file body follows the run's task: a count is saved as the
        constant coefficient ("scalar"), a series as its numerator over its
        denominator ("series"); either is read back as a one-piece
        accumulator.  A saved partial computed under another direction is
        recomputed.
        """
        paths = [os.path.join(self.path, f"partial-{r.modulus}-{i:04d}.json") for r in rings]
        out = [self._saved_partial(r, path, lhash) for r, path in zip(rings, paths)]
        todo = [k for k, got in enumerate(out) if got is None]
        if not todo:
            return out
        left = [rings[k] for k in todo]
        chunk = self._load_chunk(i)
        tags = "+".join(str(r.modulus) for r in left)
        self.log(f"phase B: ring {tags}, chunk {i + 1}/{self.meta['phase_a']['chunks']}")
        acc, stats = compute(left, chunk)
        for k, part in zip(todo, acc.split(left)):
            obj = _partial_to_obj(self.meta["config"]["task"], part, stats, lhash)
            _write_atomic(paths[k], json.dumps(obj, sort_keys=True))
            out[k] = part, stats
        self._spend_units(len(todo))
        return out

    def _saved_partial(self, ring, path, lhash):
        """The partial saved at path under lhash, or None when there is none."""
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                obj = json.load(fh)
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            if obj.get("lam_hash") != lhash:
                return None
            return _partial_from_obj(ring, obj)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"damaged partial file {path} ({exc}); delete it and resume"
            ) from None


def _partial_to_obj(task, acc, stats, lhash):
    if task == "count":
        body = {"kind": "scalar", "value": str(acc.numerator().get(0, 0))}
    else:
        body = {
            "kind": "series",
            "den": {str(k): e for k, e in sorted(acc.den.items())},
            "num": {str(d): str(c) for d, c in sorted(acc.numerator().items())},
        }
    return {
        "lam_hash": lhash,
        "body": body,
        "stats": {
            "ct_s_calls": stats.ct_s_calls,
            "summand_max": stats.summand_max,
            "summand_bound_ok": stats.summand_bound_ok,
        },
    }


def _partial_from_obj(ring, obj):
    body = obj["body"]
    stats = Stats()
    stats.load(obj["stats"])
    if body["kind"] == "scalar":
        num, den = {"0": body["value"]}, {}
    else:
        num, den = body["num"], body["den"]
        if not (isinstance(num, dict) and isinstance(den, dict)):
            raise ValueError("num and den are not JSON objects")
    # a numerator term is saved as "d": "c", a signed decimal degree d (a
    # piece's numerator may hold powers of q below 0) and a residue c in [0, p)
    p = ring.modulus
    for d, c in num.items():
        if not re.fullmatch(r"-?[0-9]+", d):
            raise ValueError(f"{json.dumps(d)} is not a degree")
        if not (re.fullmatch(r"[0-9]+", c) and int(c) < p):
            raise ValueError(f"{json.dumps(c)} is not a residue mod {p}")
    # and a denominator (1 - q^k)^e as "k": e with k >= 1 and an int e >= 1
    for k, e in den.items():
        if not (re.fullmatch(r"[1-9][0-9]*", k) and type(e) is int and e >= 1):
            raise ValueError(f"{json.dumps(k)}: {json.dumps(e)} is no factor (1 - q^k)^e, k, e >= 1")
    acc = FactoredAccumulator(ring)
    acc.add_piece({int(d): int(c) for d, c in num.items() if int(c)},
                  {int(k): e for k, e in den.items()})
    return acc, stats
