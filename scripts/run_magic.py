#!/usr/bin/env python3
"""Compute the dilation series of the n x n magic-square polytope.

Prints the rational-function form, the first coefficients, per-phase
timing, and (for small n) a brute-force cross-check of the coefficients.
n = 3 and 4 are fast; n = 5 is the long reference run (order of an hour,
depending on hardware); n = 6 is far beyond desk scale.

    python3 scripts/run_magic.py --n 3 --coeffs 8
    python3 scripts/run_magic.py --n 4
    python3 scripts/run_magic.py --n 5 --checkpoint-dir ms5-ck   # resumable
"""

import argparse
import time

from cteuclid.bruteforce import OracleRefusal, brute_count
from cteuclid.engine import Stats
from cteuclid.problems import (
    format_series,
    magic_square_system,
    run_pipeline,
    series_coeffs,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3, help="grid size (default 3)")
    ap.add_argument("--coeffs", type=int, default=8,
                    help="print series coefficients up to this degree")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", choices=["given", "sparse-first"], default="given")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="make the run resumable (recommended for n >= 5)")
    ap.add_argument("--brute-check", type=int, default=None, metavar="K",
                    help="also brute-force dilations 0..K (default: K=coeffs "
                         "when n <= 4, off otherwise)")
    args = ap.parse_args()

    system = magic_square_system(args.n)
    print(f"{args.n} x {args.n} grid: {system.m} conditions, {system.n} cells")

    stats = Stats()
    t0 = time.perf_counter()
    out = run_pipeline(system, "series", args.checkpoint_dir, order=args.order,
                       seed=args.seed, chunk_size=200, stats=stats)
    wall = time.perf_counter() - t0

    print(f"series     {format_series(out.num, out.den, out.den_factors)}")
    cs = series_coeffs(out.num, out.den, args.coeffs + 1)
    print(f"coeffs     {', '.join(map(str, cs))}")
    if stats.raw_terms:
        print(f"terms      {stats.raw_terms} raw / {stats.collected_terms} "
              f"collected, {stats.euclid_nodes} recursion nodes")
    print(f"wall       {wall:.1f} s")

    kcheck = args.brute_check
    if kcheck is None and args.n <= 4:
        kcheck = min(args.coeffs, 8 if args.n == 3 else 4)
    if kcheck is not None:
        t0 = time.perf_counter()
        try:
            want = [
                brute_count(system.matrix, [k * b for b in system.rhs])
                for k in range(kcheck + 1)
            ]
        except OracleRefusal as exc:
            print(f"brute      refused: {exc}")
            return
        ok = cs[: kcheck + 1] == want
        print(f"brute      {', '.join(map(str, want))} "
              f"[{'ok' if ok else 'MISMATCH'}] ({time.perf_counter() - t0:.1f} s)")
        if not ok:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
