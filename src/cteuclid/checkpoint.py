"""On-disk checkpoint store: resumable runs with atomic state files.

A checkpoint directory holds:

    meta.json              configuration, hash, phase-A state, variable table
    terms-NNNN.jsonl       extracted terms, chunk_size per file (phase A)
    partial-TAG-NNNN.json  one elimination result per ring per chunk (phase B)
    result.txt             final rendered result (phase C)

Every file is written to a temp name, synced, and atomically renamed, so a
killed run leaves only complete units.  The configuration hash covers the
task, the system, the seed, and the structural knobs -- but not the prime
set: saved term chunks are ring-independent, so a resume may switch moduli
and only the affected per-ring partials are recomputed.  The substitution
direction is re-derived deterministically from the seed on every resume;
each partial records the direction hash it was computed under and is
recomputed if that hash moved (it only can when the prime set changed).

The stages themselves run in ``problems.run_pipeline``; this module only
decides what is already on disk and stores what is not.  The rendered
result contains no wall-clock data, so a fresh run and an
interrupted-and-resumed run with the same configuration produce
byte-identical result files.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from . import __version__
from .algebra import VariableTable
from .engine import ElliottTerm, Stats
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
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _exps_to_obj(exps):
    return [[v[0], v[1], e] for v, e in exps]


def _exps_from_obj(obj):
    return tuple(((int(r), int(s)), int(e)) for r, s, e in obj)


def term_to_line(t):
    obj = {
        "n": [[_exps_to_obj(e), str(c)] for e, c in sorted(t.num.items())],
        "d": [_exps_to_obj(f) for f in t.den],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def term_from_line(line):
    obj = json.loads(line)
    num = {_exps_from_obj(e): int(c) for e, c in obj["n"]}
    den = tuple(sorted(_exps_from_obj(f) for f in obj["d"]))
    return ElliottTerm(num, den)


def table_to_obj(table):
    return [[v[0], v[1], name] for v, name in table.ordered()]


def table_from_obj(obj):
    table = VariableTable()
    for r, s, name in obj:
        vid = table.add(name, int(r))
        if vid != (int(r), int(s)):
            raise CheckpointError("variable table snapshot is inconsistent")
    return table


def lam_to_obj(lam_map):
    return {f"{v[0]}:{v[1]}": w for v, w in lam_map.items()}


def lam_hash(lam_map):
    blob = json.dumps(lam_to_obj(lam_map), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def ring_tag(ring):
    return "exact" if ring.modulus is None else str(ring.modulus)


# ---------------------------------------------------------------------------
# the store


class DirectoryStore:
    """Stage A and the stage-B partials of one run, kept in a directory.

    max_units bounds the number of work units completed by this process
    (stage A counts as one, each per-ring per-chunk partial as one);
    hitting the bound raises CheckpointPause after the current unit is
    safely on disk.
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
        _write_atomic(self.meta_path, json.dumps(self.meta, sort_keys=True, indent=1))

    def _spend_unit(self):
        self.units += 1
        if self.max_units is not None and self.units >= self.max_units:
            raise CheckpointPause(f"paused after {self.units} unit(s)")

    def stage_a(self, compute):
        """(table, term chunks, stage-A stats); compute() runs only once per directory."""
        if not self.meta["phase_a"].get("done"):
            self.log("phase A: extracting constant terms")
            table, terms, stats = compute()
            size = self.meta["config"]["chunk_size"]
            nchunks = max(1, (len(terms) + size - 1) // size)
            for i in range(nchunks):
                lines = "".join(term_to_line(t) + "\n" for t in terms[i * size : (i + 1) * size])
                _write_atomic(os.path.join(self.path, f"terms-{i:04d}.jsonl"), lines)
            self.meta["phase_a"] = {
                "done": True,
                "chunks": nchunks,
                "terms": len(terms),
                "stats": stats.as_dict(),
                "table": table_to_obj(table),
            }
            self._write_meta()
            self._spend_unit()
        phase_a = self.meta["phase_a"]
        stats = Stats()
        stats.load(phase_a["stats"])
        chunks = [self._load_chunk(i) for i in range(phase_a["chunks"])]
        return table_from_obj(phase_a["table"]), chunks, stats

    def _load_chunk(self, i):
        path = os.path.join(self.path, f"terms-{i:04d}.jsonl")
        try:
            with open(path) as fh:
                return [term_from_line(line) for line in fh if line.strip()]
        except FileNotFoundError:
            raise CheckpointError(f"missing term chunk {i}; delete the directory and rerun")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"damaged term chunk {i} ({exc}); delete the directory and rerun"
            ) from None

    def partial(self, ring, i, lhash, compute):
        """(FactoredAccumulator, stats) of chunk i in ring, saved under direction hash lhash.

        The file body follows the run's task: a count is saved as the
        constant coefficient ("scalar") and read back as a one-piece
        accumulator over {}, a series as its numerator over its denominator
        ("series").  A saved partial computed under another direction is
        recomputed.
        """
        tag = ring_tag(ring)
        path = os.path.join(self.path, f"partial-{tag}-{i:04d}.json")
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    obj = json.load(fh)
                if not isinstance(obj, dict):
                    raise ValueError("not a JSON object")
                if obj.get("lam_hash") == lhash:
                    return _partial_from_obj(ring, obj)
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"damaged partial file {path} ({exc}); delete it and resume"
                ) from None
        self.log(f"phase B: ring {tag}, chunk {i + 1}/{self.meta['phase_a']['chunks']}")
        acc, stats = compute()
        obj = _partial_to_obj(self.meta["config"]["task"], acc, stats, lhash)
        _write_atomic(path, json.dumps(obj, sort_keys=True))
        self._spend_unit()
        return acc, stats


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
    acc = FactoredAccumulator(ring)
    num = {int(d): ring.from_fraction(Fraction(c)) for d, c in num.items() if Fraction(c)}
    acc.add_piece(num, {int(k): e for k, e in den.items()})
    return acc, stats
