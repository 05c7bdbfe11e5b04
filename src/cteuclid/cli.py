"""Command-line front end.

Subcommands
    knapsack   count nonnegative solutions of w . x = a0
    count      count solutions of a system file (JSON matrix/rhs)
    ehrhart    dilation series of {x >= 0 : A x = b} as a rational function
    magic      dilation series for the n x n magic-square conditions
    ct         raw constant-term extraction from a term description file
    resume     continue a checkpointed run

Every run writes a deterministic plain-text result file (header with tool
version, config hash and variable table, then value and diagnostics) and
mirrors it to stdout.  Wall-clock times are printed to stdout only, so that
result files from a fresh run and an interrupted+resumed run are
byte-identical.

Exit codes: 0 ok, 1 oracle mismatch, closed stdout or unexpected failure,
2 bad input, 3 unresolved collision, 4 direction search exhausted, 5 prime
clash, 6 --oracle-check refusal (instance too large to verify),
7 checkpoint/resume mismatch.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .algebra import (
    CT,
    EXPS_ONE,
    FREE,
    RANK_OF_ROLE,
    ROLE_NAMES,
    SLACK,
    ExactRing,
    InputError,
    PrimeField,
    VariableTable,
    exps_from_dict,
    poly_str,
)
from .bruteforce import OracleRefusal, brute_count, dp_knapsack
from .checkpoint import (
    SLACK_MODE,
    TOOL_NAME,
    CheckpointError,
    CheckpointPause,
    _write_atomic,
    load_meta,
    system_from_payload,
)
from .elimination import DEFAULT_PRIMES, LambdaExhaustion, PrimeClash
from .engine import CollisionError, Stats, add_slack, ct_all, start_termsum
from .problems import (
    check_boundedness,
    format_series,
    json_int,
    knapsack_system,
    magic_square_system,
    run_pipeline,
    series_coeffs,
    solution_box,
    system_from_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_COLLISION = 3
EXIT_LAMBDA = 4
EXIT_PRIME = 5
EXIT_ORACLE = 6
EXIT_RESUME = 7


def _weights(text):
    try:
        ws = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("weights must be comma-separated integers")
    if not ws:
        raise argparse.ArgumentTypeError("at least one weight is required")
    return ws


def _int_at_least(low):
    """argparse type for an integer >= low."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n

    return parse


def _add_common(sp):
    sp.add_argument("--mod", action="append", type=int, default=[], metavar="P",
                    help="work modulo the odd prime P (repeatable)")
    sp.add_argument("--crt", action="store_true",
                    help="reconstruct the integer from the moduli (default primes if no --mod)")
    sp.add_argument("--seed", type=int, default=0, help="seed for direction search")
    sp.add_argument("--order", choices=["given", "sparse-first"], default="given",
                    help="elimination order for the extraction variables")
    sp.add_argument("--oracle-check", action="store_true",
                    help="verify the result against brute-force enumeration")
    sp.add_argument("--output", metavar="PATH", help="result file path")
    sp.add_argument("--checkpoint-dir", metavar="DIR",
                    help="directory for resumable on-disk state")
    sp.add_argument("--chunk-size", type=_int_at_least(1), default=1000, metavar="K",
                    help="terms per checkpoint chunk (default 1000)")
    sp.add_argument("--max-units", type=_int_at_least(1), default=None, metavar="N",
                    help="pause after N completed work units (testing)")


def build_parser():
    p = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="exact lattice-point counting via constant-term extraction",
    )
    p.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("knapsack", help="count solutions of w . x = a0 over x >= 0")
    sp.add_argument("--a0", type=int, required=True, help="right-hand side")
    sp.add_argument("--weights", type=_weights, required=True,
                    help="comma-separated positive weights, e.g. 1,5,14")
    _add_common(sp)

    sp = sub.add_parser("count", help="count solutions of a system file")
    sp.add_argument("--input", required=True, help="JSON file with matrix and rhs")
    _add_common(sp)

    sp = sub.add_parser("ehrhart", help="dilation series of a system file")
    sp.add_argument("--input", required=True, help="JSON file with matrix and rhs")
    sp.add_argument("--coeffs", type=_int_at_least(0), default=None, metavar="K",
                    help="also print series coefficients up to degree K")
    _add_common(sp)

    sp = sub.add_parser("magic", help="dilation series for n x n magic squares")
    sp.add_argument("--n", type=int, required=True, help="grid size")
    sp.add_argument("--coeffs", type=_int_at_least(0), default=None, metavar="K",
                    help="also print series coefficients up to degree K")
    _add_common(sp)

    sp = sub.add_parser("ct", help="raw constant-term extraction from a term file")
    sp.add_argument("--input", required=True, help="JSON term description")
    sp.add_argument("--mod", action="append", type=int, default=[], metavar="P",
                    help="work modulo the odd prime P (at most one for raw runs)")
    sp.add_argument("--order", choices=["given", "sparse-first"], default="given")
    sp.add_argument("--output", metavar="PATH", help="result file path")

    sp = sub.add_parser("resume", help="continue a checkpointed run")
    sp.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    sp.add_argument("--input", default=None,
                    help="original problem file; refused if it no longer matches")
    sp.add_argument("--mod", action="append", type=int, default=[], metavar="P")
    sp.add_argument("--crt", action="store_true")
    sp.add_argument("--coeffs", type=_int_at_least(0), default=None, metavar="K")
    sp.add_argument("--oracle-check", action="store_true")
    sp.add_argument("--output", metavar="PATH")
    sp.add_argument("--max-units", type=_int_at_least(1), default=None, metavar="N")

    return p


# ---------------------------------------------------------------------------
# result rendering


def _variables_line(table):
    groups = {FREE: [], SLACK: [], CT: []}
    for vid, name in table.ordered():
        groups[vid[0]].append(name)
    parts = []
    for rank in (FREE, SLACK, CT):
        names = ",".join(groups[rank]) if groups[rank] else "-"
        parts.append(f"{ROLE_NAMES[rank]}={names}")
    return "variables: " + "; ".join(parts)


def _lambda_line(lam):
    items = sorted(lam.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return "lambda: " + ",".join(f"{k}={v}" for k, v in items)


def _den_factors_str(den_counts):
    return " * ".join(
        f"(1-q^{k})^{e}" if e > 1 else f"(1-q^{k})" for k, e in sorted(den_counts.items())
    )


def _counter_lines(st):
    """The stage-A counters, shared by pipeline and raw constant-term results."""
    return [
        f"raw-terms: {st.raw_terms}",
        f"collected-terms: {st.collected_terms}",
        f"euclid-nodes: {st.euclid_nodes}",
        f"collisions: {st.collisions}",
        # no term is restarted since stage A has one slack policy; the line
        # stays because tests/golden/ and perfbench/golden/ pin it
        "restarts: 0",
    ]


def _header_lines(task, table, order, seed, moduli, config=None):
    """The head of every result file: tool, run configuration, variables."""
    lines = [f"tool: {TOOL_NAME} {__version__}"]
    if config is not None:
        lines.append(f"config: {config}")
    return lines + [
        f"task: {task}",
        _variables_line(table),
        f"order: {order}",
        f"slack-mode: {SLACK_MODE}",
        f"seed: {seed}",
        "moduli: " + (",".join(str(p) for p in moduli) if moduli else "none"),
    ]


def render_result(out, cfg, coeff_list=None):
    """Deterministic plain-text result block (no wall times)."""
    lines = _header_lines(out.task, out.table, cfg["order"], cfg["seed"], cfg["moduli"],
                          config=out.config_hash)
    lines.append("crt: " + ("yes" if cfg.get("crt") else "no"))
    if out.lam:
        lines.append(_lambda_line(out.lam))
    lines.append("exact: " + ("yes" if out.exact else "no"))

    if out.task == "count":
        if out.residues:
            for p in sorted(out.residues):
                lines.append(f"residue[{p}]: {out.residues[p]}")
        if out.value is not None:
            lines.append(f"value: {out.value}")
    else:
        if out.num is not None:
            lines.append("numerator: " + ",".join(str(c) for c in out.num))
            lines.append("denominator: " + ",".join(str(c) for c in out.den))
            if out.den_factors:
                lines.append("denominator-factors: " + _den_factors_str(out.den_factors))
            lines.append("series: " + format_series(out.num, out.den, out.den_factors))
        if out.series_residues:
            den_counts = None
            for p in sorted(out.series_residues):
                body = out.series_residues[p]
                den_counts = body["den_counts"]
                num = ",".join(f"{d}:{c}" for d, c in sorted(body["num"].items()))
                lines.append(f"residue-numerator[{p}]: {num}")
            if den_counts:
                lines.append("residue-denominator: " + _den_factors_str(den_counts))
    if out.confidence is not None:
        lines.append("crt-confidence: %.6e" % float(out.confidence))
    if coeff_list is not None:
        lines.append("coefficients: " + ",".join(str(c) for c in coeff_list))

    st = out.stats
    if st is not None:
        lines.extend(_counter_lines(st))
        lines.append(f"ct-s-calls: {st.ct_s_calls}")
        lines.append(f"summand-max: {st.summand_max}")
        lines.append("summand-bound-ok: " + ("yes" if st.summand_bound_ok else "NO"))
    return "\n".join(lines) + "\n"


def _publish(path, text, wall, value_line=None):
    """Write the result file, then echo it to stdout with the wall time and path."""
    _write_atomic(path, text)
    if value_line is not None:
        print(value_line)
    sys.stdout.write(text)
    print(f"# wall-time: {wall:.3f} s")
    print(f"# result-file: {path}")


def _result_path(args):
    """Where the run writes its result, refused before any work if no file can go there.

    That is a path which is a directory, or whose parent is not one.  The
    parent may be a checkpoint directory that the run is about to make.
    """
    ckdir = getattr(args, "checkpoint_dir", None)
    if args.output:
        path = args.output
    elif ckdir:
        path = os.path.join(ckdir, "result.txt")
    else:
        path = "ct-result.txt"
    if os.path.isdir(path):
        raise InputError(f"the result path {path} is a directory")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(parent):
        return path
    if not os.path.exists(parent):
        if ckdir and os.path.normpath(parent) == os.path.normpath(ckdir):
            return path
        raise InputError(f"the directory of the result path {path} does not exist")
    raise InputError(f"the result path {path} lies in {parent}, which is not a directory")


def _read_text(path):
    """The text of an input file; InputError unless it is UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


# ---------------------------------------------------------------------------
# oracle checks
#
# Both searches take their region from the boundedness certificate y, with
# y^T A > 0: one row becomes the knapsack y*a x = y*b, and otherwise x lies
# in solution_box.


def _oracle_check_count(system, out):
    y = check_boundedness(system)
    if len(system.matrix) == 1:
        (yi,) = y
        want = dp_knapsack(yi * system.rhs[0], [yi * c for c in system.matrix[0]])
    else:
        want = brute_count(system.matrix, system.rhs, box=solution_box(system, y, 1))
    if out.value is not None:
        ok = out.value == want
        got = out.value
    else:
        ok = all(want % p == r for p, r in out.residues.items())
        got = out.residues
    return ok, want, got


def _oracle_check_series(system, out, kcheck):
    if out.num is None:
        raise OracleRefusal(
            "series oracle check needs an exact or CRT-reconstructed series"
        )
    got = series_coeffs(out.num, out.den, kcheck + 1)
    y = check_boundedness(system)
    want = [brute_count(system.matrix, [k * b for b in system.rhs], box=solution_box(system, y, k))
            for k in range(kcheck + 1)]
    return got == want, want, got


def _run_oracle(system, task, out, kcheck):
    if task == "count":
        ok, want, got = _oracle_check_count(system, out)
    else:
        ok, want, got = _oracle_check_series(system, out, kcheck)
    if ok:
        print(f"# oracle-check: ok ({want})")
        return EXIT_OK
    print(f"# oracle-check: MISMATCH (brute force {want}, pipeline {got})", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# pipeline commands


def _moduli_of(args):
    moduli = tuple(args.mod)
    if args.crt and not moduli:
        moduli = DEFAULT_PRIMES
    return moduli


def run_task(system, task, args, coeffs=None):
    moduli = _moduli_of(args)
    path = _result_path(args)
    t0 = time.time()
    out = run_pipeline(
        system,
        task,
        args.checkpoint_dir,
        moduli=moduli,
        crt=args.crt,
        order=args.order,
        seed=args.seed,
        chunk_size=args.chunk_size,
        max_units=args.max_units,
        log=lambda msg: print(f"# {msg}", file=sys.stderr),
    )
    wall = time.time() - t0

    coeff_list = None
    if task == "series" and coeffs is not None and out.num is not None:
        coeff_list = series_coeffs(out.num, out.den, coeffs + 1)

    cfg = {"order": args.order, "seed": args.seed, "moduli": moduli, "crt": args.crt}
    _publish(path, render_result(out, cfg, coeff_list), wall, out.value_str())

    if args.oracle_check:
        kcheck = coeffs if coeffs is not None else 4
        return _run_oracle(system, task, out, kcheck)
    return EXIT_OK


def cmd_knapsack(args):
    return run_task(knapsack_system(args.a0, args.weights), "count", args)


def cmd_count(args):
    system = system_from_json(_read_text(args.input))
    return run_task(system, "count", args)


def cmd_ehrhart(args):
    system = system_from_json(_read_text(args.input))
    return run_task(system, "series", args, coeffs=args.coeffs)


def cmd_magic(args):
    return run_task(magic_square_system(args.n), "series", args, coeffs=args.coeffs)


def cmd_resume(args):
    meta_path = os.path.join(args.checkpoint_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise CheckpointError(f"no checkpoint at {args.checkpoint_dir}")
    cfg = load_meta(meta_path)["config"]
    try:
        system = system_from_payload(cfg)
        task = cfg["task"]
        # the saved configuration stands in for the flags resume does not take
        for key in ("seed", "order", "chunk_size"):
            setattr(args, key, cfg[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint configuration ({type(exc).__name__}: {exc})"
        ) from None
    if args.input is not None:
        other = system_from_json(_read_text(args.input))
        if (other.matrix, other.rhs) != (system.matrix, system.rhs):
            raise CheckpointError("input file does not match the checkpoint")
    return run_task(system, task, args, coeffs=args.coeffs)


# ---------------------------------------------------------------------------
# raw constant-term command


def load_raw_term(text):
    """Parse the raw term format.

    {"variables": [["y", "free"], ["x", "ct"]],
     "numerator": [[1, {"x": 2}], [-1, {}]],      # optional, default 1
     "denominator": [{"x": 1, "y": 1}, {"x": -1, "y": 3}]}
    """
    def monomial(mono):
        return exps_from_dict(
            {table.vid_of(nm): json_int(k, "exponent") for nm, k in mono.items()}
        )

    try:
        obj = json.loads(text)
        table = VariableTable()
        for name, role in obj["variables"]:
            if role not in RANK_OF_ROLE:
                raise InputError(f"unknown variable role {role!r}")
            table.add(name, RANK_OF_ROLE[role])
        num = {}
        for coeff, mono in obj.get("numerator", [[1, {}]]):
            e = monomial(mono)
            num[e] = num.get(e, 0) + json_int(coeff, "numerator coefficient")
        den = [monomial(mono) for mono in obj["denominator"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad term file: {exc}") from None
    if EXPS_ONE in den:
        raise InputError("bad term file: a denominator monomial is 1, so its factor 1 - 1 is 0")
    return table, num, den


def _term_str(table, t):
    num = poly_str(table, t.num)
    if not t.den:
        return num
    den = " ".join(
        "(1 - " + "*".join(
            f"{table.name_of(v)}^{k}" if k != 1 else table.name_of(v) for v, k in f
        ) + ")"
        for f in t.den
    )
    return f"({num}) / {den}"


def cmd_ct(args):
    if len(args.mod) > 1:
        raise InputError("raw constant-term runs take at most one modulus")
    path = _result_path(args)
    table, num, den = load_raw_term(_read_text(args.input))
    ring = PrimeField(args.mod[0]) if args.mod else ExactRing()
    num_r = {e: r for e, c in num.items() if (r := ring.reduce(c))}
    ts = add_slack(start_termsum(table, ring, num_r, den))
    stats = Stats()
    t0 = time.time()
    done = ct_all(ts, order=args.order, stats=stats)
    wall = time.time() - t0

    # a raw run draws no direction, so its seed is always 0
    lines = _header_lines("ct", table, args.order, 0, args.mod)
    lines.append(f"terms: {len(done.terms)}")
    for i, term in enumerate(done.unpacked()):
        lines.append(f"term[{i}]: {_term_str(table, term)}")
    lines.extend(_counter_lines(stats))
    _publish(path, "\n".join(lines) + "\n", wall)
    return EXIT_OK


# ---------------------------------------------------------------------------


COMMANDS = {
    "knapsack": cmd_knapsack,
    "count": cmd_count,
    "ehrhart": cmd_ehrhart,
    "magic": cmd_magic,
    "ct": cmd_ct,
    "resume": cmd_resume,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Any result file is already in place.  Pointing stdout at devnull
        # keeps the flush at interpreter exit from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return EXIT_FAIL
    except CheckpointPause as exc:
        print(f"# paused: {exc}", file=sys.stderr)
        return EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # a missing or unreadable input file, a result path or checkpoint
        # directory that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CollisionError as exc:
        print(f"error: unresolved collision: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except LambdaExhaustion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LAMBDA
    except PrimeClash as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRIME
    except OracleRefusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUME
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
