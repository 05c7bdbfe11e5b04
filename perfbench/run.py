#!/usr/bin/env python3
"""ct-euclid benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload knapsack --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` it makes an untraced pass, a traced pass
(spans recorded by ``tracing.Tracer``) and a ``cProfile`` pass, and reports
the per-layer metrics.  Every op's answer is checked against the golden
files, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from BENCHMARK.json; the run fails if it does
not produce every declared metric.  Result files and checkpoint directories
go to a temporary directory under ``.perfbench_tmp/`` that is removed at
exit; traced runs leave their spans in ``.perfbench_out/``.
"""

import argparse
import contextlib
import cProfile
import hashlib
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_OPS = 3
PROFILED_OPS = 12
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cteuclid.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ct-euclid benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every input, for the benchmark's self-test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD of the repository at ROOT, or None when ROOT is not a checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest():
    """sha256 over the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cteuclid").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_meta(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


class Loop:
    """Closed loop over whole passes of the inputs; records every op."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def one(self, inp, profile=None):
        t0 = time.perf_counter()
        try:
            if profile is not None:
                profile.enable()
            try:
                outcome = self.workload.run(inp)
            finally:
                if profile is not None:
                    profile.disable()
            dt = time.perf_counter() - t0
            error = self.workload.check(inp, outcome)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            dt = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.first_error is None:
                self.first_error = error
                print(f"# failed op on {self.workload.name}: {error}", file=sys.stderr)
        return dt

    def timed(self, seconds, tracer=None, min_ops=MIN_OPS):
        """Ops until `seconds` have gone, at least `min_ops` and one whole pass.

        Returns (op times, wall time of the loop).
        """
        times = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.op = len(times)
            times.append(self.one(self.inputs[len(times) % len(self.inputs)]))
            wall = time.perf_counter() - start
            if wall >= seconds and len(times) >= max(min_ops, len(self.inputs)):
                return times, wall


def tail(times):
    """Highest percentile with min(10, n // 4) ops beyond it: (value, pct, n).

    From 40 ops on that is 10 ops; shorter runs keep a quarter of their ops
    beyond it, so the tail stays at or above p75, and below 4 ops it is the
    maximum.
    """
    xs = sorted(times)
    n = len(xs)
    beyond = min(10, n // 4)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def setup(workload):
    """Medians of import and input-generation time; returns (seconds, inputs).

    The caller adds one untimed warm-up op to complete the set-up time.
    """
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    gens = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.inputs()
        gens.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(gens), inputs


def end_to_end(loop, seconds, setup_s):
    times, wall = loop.timed(seconds)
    value, pct, n = tail(times)
    print(f"# op_s_tail is p{pct:.1f} of n={n} ops")
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "ops_per_s": len(times) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
    }


def per_layer(loop, seconds, meta, out_dir):
    import tracing

    untraced, _ = loop.timed(seconds / 2, min_ops=1)
    base = statistics.median(untraced)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = loop.timed(seconds / 2, tracer, min_ops=1)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"# trace: no longer found, their metrics read 0: {', '.join(tracer.missing)}")
    metrics = tracing.span_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / base

    # profile every k-th input of the pass, at most PROFILED_OPS of them
    step = -(-len(loop.inputs) // PROFILED_OPS)
    picked = range(0, len(loop.inputs), step)
    profile = cProfile.Profile()
    profiled = [loop.one(loop.inputs[i], profile) for i in picked]
    metrics.update(tracing.profile_metrics(pstats.Stats(profile).stats, len(profiled)))
    metrics["trace.profile_overhead_ratio"] = sum(profiled) / sum(untraced[i] for i in picked)

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{meta['workload']}-seed{meta['seed']}.jsonl"
    tracer.write(spans_path, meta)
    print(f"# spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cteuclid" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    specs = declared("per_layer" if args.trace else "end_to_end")
    meta = run_meta(args)
    print("# meta " + json.dumps(meta, sort_keys=True))

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        work = workloads.WORKLOADS[args.workload](
            args.seed, args.size, workloads.load_goldens(), tmpdir
        )
        setup_s, inputs = setup(work)
        loop = Loop(work, inputs)
        setup_s += loop.one(work.warmup_input())
        if args.trace:
            values = per_layer(loop, args.seconds, meta, ROOT / ".perfbench_out")
        else:
            values = end_to_end(loop, args.seconds, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no other run is using it

    missing = [s["name"] for s in specs if s["name"] not in values]
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if missing or bad:
        print(f"error: metrics missing {missing}, not finite {bad}", file=sys.stderr)
        return 1
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"# {spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
