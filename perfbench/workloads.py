"""The four benchmark workloads: seeded inputs, one timed op each, and the
check of every answer against a reference pinned in ``golden/``.

A workload is a closed loop with one client: the runner calls ``run`` on
one input, waits for it, times it, then calls ``check``.  ``run`` is the
timed part and only calls the package's public entry points; ``check``
compares the outcome with the golden and cleans up, untimed.

The caller must put the package's ``src`` directory on ``sys.path`` before
importing this module.
"""

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
from pathlib import Path

from cteuclid import cli, engine, problems
from cteuclid.algebra import CT, ExactRing, VariableTable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The knapsack pool is drawn once from POOL_SEED and pinned, answers
# included, in the golden file.  Every run measures the whole pool in an
# order set by the run's seed, so that runs differ only by machine noise.
POOL_SEED = 1208
POOL_SIZE = 32

# The four reference instances of the README and the acceptance tests,
# with their published values.
REFERENCE_KNAPSACK = [
    (41, [1, 5, 14], 18),
    (149389505, [12223, 12224, 36671], 0),
    (89643481, [12223, 12224, 36674, 61119, 85569], 0),
    (89643481 * 1001, [12223, 12224, 36674, 61119, 85569], 94267024658624993843),
]

CRT_CHUNK_SIZE = 12
MAGIC5_ROUNDS = {"full": 10, "tiny": 6}
MAGIC5_WARMUP_ROUNDS = 8


def knapsack_instance(rng):
    """One random single-equation count: 4 weights, a large right side."""
    weights = [rng.randint(100, 30000) for _ in range(4)]
    return rng.randint(10**8, 10**10), weights


def knapsack_pool(pool_seed=POOL_SEED):
    rng = random.Random(pool_seed)
    return [knapsack_instance(rng) for _ in range(POOL_SIZE)]


def knapsack_argv(a0, weights, direction_seed=0):
    return ["knapsack", "--a0", str(a0), "--weights", ",".join(map(str, weights)),
            "--seed", str(direction_seed)]


def magic_n(size):
    return 4 if size == "full" else 3


def call_cli(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def load_goldens():
    with open(GOLDEN_DIR / "knapsack.json") as fh:
        knapsack = json.load(fh)
    with open(GOLDEN_DIR / "magic.json") as fh:
        magic = json.load(fh)
    return {"knapsack": knapsack, "magic": magic}


def _read_and_remove(path):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


class Workload:
    """Base: ``inputs()`` is one pass; ``run`` is timed; ``check`` is not."""

    name = None

    def __init__(self, seed, size, goldens, tmpdir):
        self.seed = seed
        self.size = size
        self.goldens = goldens
        self.tmpdir = tmpdir

    def inputs(self):
        raise NotImplementedError

    def warmup_input(self):
        """The input of the untimed warm-up op; the same for every seed."""
        return self.inputs()[0]

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, outcome):
        """None when the outcome matches the reference, else a message."""
        raise NotImplementedError

    def result_path(self):
        return os.path.join(self.tmpdir, "result.txt")


def _compare_result(path, rc, want):
    got = _read_and_remove(path)
    if rc != 0:
        return f"exit code {rc}"
    if got is None:
        return "no result file"
    if got != want:
        return "result file differs from the golden"
    return None


class Knapsack(Workload):
    """``ct-euclid knapsack`` in exact mode over the pinned pool, in seeded order."""

    name = "knapsack"

    def _entries(self):
        gold = self.goldens["knapsack"]
        return gold["reference"] if self.size == "tiny" else gold["pool"] + gold["reference"]

    def inputs(self):
        chosen = [(r["a0"], r["weights"], r["result"]) for r in self._entries()]
        random.Random(self.seed).shuffle(chosen)
        return chosen

    def warmup_input(self):
        """The entry of median Euclid node count."""
        entries = sorted(self._entries(), key=lambda r: (r["euclid_nodes"], r["a0"]))
        r = entries[len(entries) // 2]
        return r["a0"], r["weights"], r["result"]

    def run(self, inp):
        a0, weights, _ = inp
        path = self.result_path()
        rc, _, _ = call_cli(knapsack_argv(a0, weights) + ["--output", path])
        return rc, path

    def check(self, inp, outcome):
        rc, path = outcome
        return _compare_result(path, rc, inp[2])


class MagicSeries(Workload):
    """``ct-euclid magic --n 4``: exact series, in memory."""

    name = "magic4-series"

    def inputs(self):
        n = magic_n(self.size)
        return [(n, self.goldens["magic"]["series"][str(n)])]

    def run(self, inp):
        path = self.result_path()
        rc, _, _ = call_cli(["magic", "--n", str(inp[0]), "--output", path])
        return rc, path

    def check(self, inp, outcome):
        rc, path = outcome
        return _compare_result(path, rc, inp[1])


def crt_pause_argv(n, ckdir, output):
    return ["magic", "--n", str(n), "--crt", "--checkpoint-dir", ckdir,
            "--chunk-size", str(CRT_CHUNK_SIZE), "--max-units", "1", "--output", output]


def crt_resume_argv(ckdir, output):
    return ["resume", "--checkpoint-dir", ckdir, "--crt", "--output", output]


class MagicCrtResume(Workload):
    """The magic series with ``--crt``: pause after stage A, then resume."""

    name = "magic4-crt-resume"

    def inputs(self):
        n = magic_n(self.size)
        return [(n, self.goldens["magic"]["crt"][str(n)])]

    def run(self, inp):
        ckdir = tempfile.mkdtemp(prefix="ck-", dir=self.tmpdir)
        path = self.result_path()
        rc1, _, err1 = call_cli(crt_pause_argv(inp[0], ckdir, path))
        rc2, _, _ = call_cli(crt_resume_argv(ckdir, path))
        return rc1, "# paused:" in err1, rc2, ckdir, path

    def check(self, inp, outcome):
        rc1, paused, rc2, ckdir, path = outcome
        shutil.rmtree(ckdir, ignore_errors=True)
        if rc1 != 0 or not paused:
            _read_and_remove(path)
            return f"first call did not pause cleanly (exit code {rc1})"
        return _compare_result(path, rc2, inp[1])


class Magic5Head(Workload):
    """The first stage-A rounds of magic-5, one ``engine.ct_all`` per round."""

    name = "magic5-head"

    def inputs(self):
        return [self._rounds(MAGIC5_ROUNDS[self.size])]

    def warmup_input(self):
        """Rounds 1-8 run every code path of an op at a fifth of its cost."""
        return self._rounds(min(MAGIC5_WARMUP_ROUNDS, MAGIC5_ROUNDS[self.size]))

    def _rounds(self, rounds):
        return rounds, self.goldens["magic"]["magic5_head_rounds"][:rounds]

    def run(self, inp):
        table = VariableTable()
        ts = problems.build_series_termsum(problems.magic_square_system(5), table, ExactRing())
        counts = []
        for v in table.vids_of_rank(CT)[:inp[0]]:
            stats = engine.Stats()
            ts = engine.ct_all(ts, ct_vids=[v], stats=stats)
            counts.append([stats.raw_terms, stats.collected_terms])
        return counts, len(ts)

    def check(self, inp, outcome):
        counts, final = outcome
        if counts != inp[1]:
            return f"round term counts {counts} differ from the pinned {inp[1]}"
        if final != inp[1][-1][1]:
            return f"{final} terms left, pinned {inp[1][-1][1]}"
        return None


WORKLOADS = {w.name: w for w in (Knapsack, MagicSeries, MagicCrtResume, Magic5Head)}
