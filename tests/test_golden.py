"""Result files pinned byte for byte, on every run path.

golden/ holds the result file of three small instances in exact, modular
and CRT mode.  The same bytes must come out of an in-memory run, a fresh run
with a checkpoint directory, and a run paused after every work unit and
resumed until done.  NAME.txt is the file at the default chunk size;
NAME-chunk2.txt the file at --chunk-size 2, which differs only in the
config hash.  The hash covers --chunk-size on every path, in-memory runs
included.

golden/partials/INSTANCE-MODE/ holds every stage-B partial file that a
fresh checkpointed run writes at --chunk-size 2, so the per-chunk series
numerators and denominators are pinned too, not only their merged sum.
An exact run is a CRT run over primes it picks itself, the first ones of
the --crt run, so its partials are pinned by the files of those primes in
golden/partials/INSTANCE-crt/.
The ehrhart instance (golden/ehrhart.json) has 24 stage-B pieces over 5
distinct denominators, (1 - q^2) among them.

golden/ct-eager.txt holds the result file of a raw constant-term run on
golden/ct.json; eager slack, a slack variable on every factor before the
first round, is the one policy of every run.

golden/NAME.txt, for each NAME in ORDER_PINS, pins what no other file
does: the choices of --order sparse-first on a pipeline run, and a raw run
on golden/ct-collide.json in either order.  Its two equal factors would
collide in x1 without their slack variables; under sparse-first x1 is
taken after x2 is gone.

The benchmark's knapsack pool, perfbench/golden/knapsack.json, pins the
result file of each of its 32 seeded instances (right sides near 1e9, deep
Euclid recursions) and of the four reference instances, counters included;
each is run here as the benchmark runs it and compared byte for byte.

Every run echoes its result file to stdout (after the value line on a
pipeline run), followed by its wall time and the result-file path.
"""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest

from cteuclid import cli
from cteuclid.elimination import DEFAULT_PRIMES

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_KNAPSACK = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "knapsack.json"

# instance -> (run arguments, arguments a resume must repeat)
INSTANCES = {
    "knapsack": (["knapsack", "--a0", "41", "--weights", "1,5,14"], []),
    "magic3": (["magic", "--n", "3", "--coeffs", "8"], ["--coeffs", "8"]),
    "ehrhart": (
        ["ehrhart", "--input", str(GOLDEN / "ehrhart.json"), "--coeffs", "8"],
        ["--coeffs", "8"],
    ),
}
MODES = {
    "exact": [],
    "mod": ["--mod", "1152921504606847009"],
    "crt": ["--crt"],
}
CHUNKS = {"": [], "-chunk2": ["--chunk-size", "2"]}


def call(argv):
    """Run the CLI in-process; returns its standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def echo_pattern(text, path):
    """What a run prints after its value line: the result file, wall time, path."""
    return (re.escape(text) + r"# wall-time: \d+\.\d{3} s\n# result-file: "
            + re.escape(str(path)) + r"\n")


def run_memory(tmp, argv, resume_argv):
    return call(argv + ["--output", str(tmp / "r.txt")])[0]


def run_fresh(tmp, argv, resume_argv):
    return call(argv + ["--checkpoint-dir", str(tmp / "ck"), "--output", str(tmp / "r.txt")])[0]


def run_paused(tmp, argv, resume_argv):
    out = ["--max-units", "1", "--output", str(tmp / "r.txt")]
    stdout, err = call(argv + ["--checkpoint-dir", str(tmp / "ck")] + out)
    pauses = 0
    while "# paused:" in err:
        pauses += 1
        assert pauses < 100
        stdout, err = call(["resume", "--checkpoint-dir", str(tmp / "ck")] + resume_argv + out)
    assert pauses >= 1
    return stdout


PATHS = {"memory": run_memory, "fresh": run_fresh, "paused": run_paused}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("instance", INSTANCES)
def test_result_file_matches_golden(tmp_path, instance, mode, chunk, path):
    argv, resume_extra = INSTANCES[instance]
    stdout = PATHS[path](tmp_path, argv + MODES[mode] + CHUNKS[chunk],
                         MODES[mode] + resume_extra)
    want = (GOLDEN / f"{instance}-{mode}{chunk}.txt").read_bytes()
    assert (tmp_path / "r.txt").read_bytes() == want
    assert re.fullmatch(r"[^\n]*\n" + echo_pattern(want.decode(), tmp_path / "r.txt"), stdout)
    if path == "fresh" and chunk == "-chunk2":
        got = sorted((tmp_path / "ck").glob("partial-*.json"))
        if mode == "exact":
            primes = {int(p.name.split("-")[1]) for p in got}
            assert primes and primes == set(DEFAULT_PRIMES[:len(primes)])
            pinned = sorted(p for p in (GOLDEN / "partials" / f"{instance}-crt").iterdir()
                            if int(p.name.split("-")[1]) in primes)
        else:
            pinned = sorted((GOLDEN / "partials" / f"{instance}-{mode}").iterdir())
        assert [p.name for p in got] == [p.name for p in pinned]
        for p, want in zip(got, pinned):
            assert p.read_bytes() == want.read_bytes(), p.name


@pytest.mark.parametrize("instance", INSTANCES)
def test_exact_resume_reads_the_partials_of_a_crt_run(tmp_path, instance):
    argv, resume_extra = INSTANCES[instance]
    ck, out = tmp_path / "ck", ["--output", str(tmp_path / "r.txt")]
    call(argv + MODES["crt"] + CHUNKS["-chunk2"] + ["--checkpoint-dir", str(ck)] + out)
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in ck.glob("partial-*")}
    _, err = call(["resume", "--checkpoint-dir", str(ck)] + resume_extra + out)
    assert "# phase B:" not in err
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in ck.glob("partial-*")} \
        == before
    want = (GOLDEN / f"{instance}-exact-chunk2.txt").read_bytes()
    assert (tmp_path / "r.txt").read_bytes() == want


def test_exact_resume_ignores_partial_exact_files(tmp_path):
    # earlier versions saved exact partials as partial-exact-NNNN.json; a
    # checkpoint paused after stage A recomputes stage B from its terms
    shutil.copytree(GOLDEN / "paused" / "magic3-crt-chunk2", tmp_path / "ck")
    stale = tmp_path / "ck" / "partial-exact-0000.json"
    stale.write_text('{"lam_hash": "not read"')
    _, err = call(["resume", "--checkpoint-dir", str(tmp_path / "ck"), "--coeffs", "8",
                   "--output", str(tmp_path / "r.txt")])
    assert len([line for line in err.splitlines() if line.startswith("# phase B:")]) == 4
    assert stale.read_text() == '{"lam_hash": "not read"'
    want = (GOLDEN / "magic3-exact-chunk2.txt").read_bytes()
    assert (tmp_path / "r.txt").read_bytes() == want


def test_resume_that_adds_primes_computes_only_theirs(tmp_path):
    argv, resume_extra = INSTANCES["ehrhart"]
    ck, out = tmp_path / "ck", ["--output", str(tmp_path / "r.txt")]
    call(argv + MODES["mod"] + CHUNKS["-chunk2"] + ["--checkpoint-dir", str(ck)] + out)
    first = {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
             for p in ck.glob("partial-*.json")}
    assert first and all(name.startswith("partial-1152921504606847009-") for name in first)
    _, err = call(["resume", "--checkpoint-dir", str(ck)] + MODES["crt"] + resume_extra + out)
    assert (tmp_path / "r.txt").read_bytes() == (GOLDEN / "ehrhart-crt-chunk2.txt").read_bytes()
    # the first prime's partials are left as they were
    for name, (data, ino, mtime) in first.items():
        st = (ck / name).stat()
        assert ((ck / name).read_bytes(), st.st_ino, st.st_mtime_ns) == (data, ino, mtime)
    # one stage-B pass per chunk, over the two primes the first run lacked
    passes = [line for line in err.splitlines() if line.startswith("# phase B:")]
    assert len(passes) == len(first)
    assert all(" ring 2305843009213693951+1152921504606847067, " in line for line in passes)


@pytest.mark.parametrize("slack", ["eager"])  # the one policy, named by its golden file
def test_ct_result_file_matches_golden(tmp_path, slack):
    result = tmp_path / "r.txt"
    stdout, _ = call(["ct", "--input", str(GOLDEN / "ct.json"), "--output", str(result)])
    want = (GOLDEN / f"ct-{slack}.txt").read_bytes()
    assert result.read_bytes() == want
    assert re.fullmatch(echo_pattern(want.decode(), result), stdout)


# result file name -> run arguments
ORDER_PINS = {
    "magic3-sparse-first": ["magic", "--n", "3", "--order", "sparse-first"],
    "knapsack-sparse-first": ["knapsack", "--a0", "89733124481", "--weights",
                              "12223,12224,36674,61119,85569", "--order", "sparse-first"],
    "ct-collide": ["ct", "--input", str(GOLDEN / "ct-collide.json")],
    "ct-collide-sparse-first": ["ct", "--input", str(GOLDEN / "ct-collide.json"),
                                "--order", "sparse-first"],
}


@pytest.mark.parametrize("name", ORDER_PINS)
def test_order_pins_match_golden(tmp_path, name):
    argv = ORDER_PINS[name]
    result = tmp_path / "r.txt"
    stdout, _ = call(argv + ["--output", str(result)])
    want = (GOLDEN / f"{name}.txt").read_bytes()
    assert result.read_bytes() == want
    value_line = "" if argv[0] == "ct" else r"[^\n]*\n"
    assert re.fullmatch(value_line + echo_pattern(want.decode(), result), stdout)


def knapsack_pool():
    """One param per entry of the benchmark's knapsack golden file."""
    gold = json.loads(BENCH_KNAPSACK.read_text())
    return [pytest.param(entry, id=f"{part}-{i:02d}") for part in ("pool", "reference")
            for i, entry in enumerate(gold[part])]


@pytest.mark.parametrize("entry", knapsack_pool())
def test_benchmark_knapsack_pool_matches_golden(tmp_path, entry):
    # the benchmark's command line: direction seed 0, exact mode
    result = tmp_path / "r.txt"
    call(["knapsack", "--a0", str(entry["a0"]), "--weights", ",".join(map(str, entry["weights"])),
          "--seed", "0", "--output", str(result)])
    assert result.read_bytes() == entry["result"].encode()
