#!/usr/bin/env python3
"""Pin the benchmark's reference answers and cross-check them once.

Run from the repository root on the commit whose answers are to be pinned:

    python3 perfbench/make_goldens.py

It writes ``perfbench/golden/knapsack.json`` and ``perfbench/golden/magic.json``
with the byte-exact result files the CLI produces for every benchmark input,
and refuses to write anything unless every answer passes its cross-check:

* knapsack: ``dp_knapsack`` where it accepts the instance, the published
  value for the four reference instances, and for every other instance the
  same count under two different direction seeds;
* magic-4: the Beck-Cohen-Cuomo-Gribelin numerator 1,4,18,36,50,36,18,4,1
  over (1-q)^4 (1-q^2)^4, and ``brute_count`` for dilations 0-4 (0-8 for
  the magic-3 series used by the tiny size);
* the CRT-resumed series: the same numerator and denominator as the exact
  series;
* magic5-head: the per-round raw/collected term counts pinned below.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cteuclid.bruteforce import OracleRefusal, brute_count, dp_knapsack  # noqa: E402
from cteuclid.problems import magic_square_system  # noqa: E402

import workloads as wl  # noqa: E402

BECK_MAGIC4_NUMERATOR = [1, 4, 18, 36, 50, 36, 18, 4, 1]
BECK_MAGIC4_DEN_FACTORS = "(1-q^1)^4 * (1-q^2)^4"
MAGIC5_HEAD_ROUNDS = [
    [1, 1], [5, 5], [25, 25], [125, 125], [625, 625], [1024, 1024],
    [1620, 1620], [6360, 3680], [22200, 12600], [12600, 12600],
]


def field(text, key):
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    raise ValueError(f"no {key!r} line in result file")


def cli_result(argv, tmp):
    path = str(Path(tmp) / "golden.txt")
    rc, _, err = wl.call_cli(argv + ["--output", path])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err}")
    with open(path) as fh:
        return fh.read()


def series_head(num, den, count):
    """Power-series coefficients of num/den over the integers (den[0] = 1)."""
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc)
    return out


def parse_ints(text):
    return [int(c) for c in text.split(",")]


def knapsack_entry(a0, weights, tmp, published=None):
    text = cli_result(wl.knapsack_argv(a0, weights, 0), tmp)
    value = int(field(text, "value"))
    other = int(field(cli_result(wl.knapsack_argv(a0, weights, 1), tmp), "value"))
    if other != value:
        raise SystemExit(f"{a0} {weights}: direction seeds disagree ({value} vs {other})")
    if published is not None and value != published:
        raise SystemExit(f"{a0} {weights}: {value}, published {published}")
    oracles = ["two direction seeds"]
    if published is not None:
        oracles.append("published value")
    try:
        want = dp_knapsack(a0, weights)
    except OracleRefusal:
        pass
    else:
        if want != value:
            raise SystemExit(f"{a0} {weights}: dp_knapsack says {want}, pipeline {value}")
        oracles.append("dp_knapsack")
    oracle = ", ".join(oracles)
    entry = {
        "a0": a0,
        "weights": weights,
        "value": str(value),
        "euclid_nodes": int(field(text, "euclid-nodes")),
        "oracle": oracle,
        "result": text,
    }
    print(f"knapsack a0={a0} weights={weights}: {value} [{oracle}]", flush=True)
    return entry


def check_series(n, text, dilations):
    num = parse_ints(field(text, "numerator"))
    den = parse_ints(field(text, "denominator"))
    if n == 4:
        if num != BECK_MAGIC4_NUMERATOR:
            raise SystemExit(f"magic-4 numerator {num} is not Beck et al.'s")
        if field(text, "denominator-factors") != BECK_MAGIC4_DEN_FACTORS:
            raise SystemExit("magic-4 denominator is not (1-q)^4 (1-q^2)^4")
    system = magic_square_system(n)
    want = [brute_count(system.matrix, [k * b for b in system.rhs]) for k in range(dilations + 1)]
    got = series_head(num, den, dilations + 1)
    if got != want:
        raise SystemExit(f"magic-{n} series head {got}, brute force {want}")
    print(f"magic-{n} series: numerator {num}; dilations 0..{dilations} = {want} [brute_count]")


def magic_goldens(tmp):
    series, crt = {}, {}
    for n, dilations in ((4, 4), (3, 8)):
        text = cli_result(["magic", "--n", str(n)], tmp)
        check_series(n, text, dilations)
        series[str(n)] = text
        work = wl.MagicCrtResume(0, "full", None, tmp)
        rc1, paused, rc2, ckdir, path = work.run((n, None))
        if rc1 != 0 or not paused or rc2 != 0:
            raise SystemExit(f"magic-{n} CRT pause/resume failed ({rc1}, {paused}, {rc2})")
        with open(path) as fh:
            crt_text = fh.read()
        for key in ("numerator", "denominator"):
            if field(crt_text, key) != field(text, key):
                raise SystemExit(f"magic-{n} CRT {key} differs from the exact series")
        crt[str(n)] = crt_text
        print(f"magic-{n} CRT-resumed series matches the exact series")
    head = wl.Magic5Head(0, "full", None, tmp)
    counts, _ = head.run((len(MAGIC5_HEAD_ROUNDS), None))
    if counts != MAGIC5_HEAD_ROUNDS:
        raise SystemExit(f"magic-5 round counts {counts} differ from {MAGIC5_HEAD_ROUNDS}")
    print(f"magic-5 head rounds: {counts}")
    return {"series": series, "crt": crt, "magic5_head_rounds": counts}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pool-seed", type=int, default=wl.POOL_SEED,
                    help=f"seed of the knapsack pool (default {wl.POOL_SEED})")
    args = ap.parse_args()
    out_dir = wl.GOLDEN_DIR
    with tempfile.TemporaryDirectory() as tmp:
        magic = magic_goldens(tmp)
        reference = [knapsack_entry(a0, ws, tmp, val) for a0, ws, val in wl.REFERENCE_KNAPSACK]
        pool = [knapsack_entry(a0, ws, tmp) for a0, ws in wl.knapsack_pool(args.pool_seed)]
    out_dir.mkdir(exist_ok=True)
    knapsack = {"pool_seed": args.pool_seed, "reference": reference, "pool": pool}
    with open(out_dir / "knapsack.json", "w") as fh:
        json.dump(knapsack, fh, indent=1)
        fh.write("\n")
    with open(out_dir / "magic.json", "w") as fh:
        json.dump(magic, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_dir / 'knapsack.json'} and {out_dir / 'magic.json'}")


if __name__ == "__main__":
    main()
