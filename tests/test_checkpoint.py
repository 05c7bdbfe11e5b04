import gc
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from cteuclid.algebra import CT, FREE, SLACK, ExactRing, InputError, VariableTable
from cteuclid.bruteforce import dp_knapsack
from cteuclid import checkpoint
from cteuclid.checkpoint import (
    CheckpointError,
    CheckpointPause,
    DirectoryStore,
    _write_atomic,
    config_hash,
    config_payload,
    summary_from_obj,
    system_from_payload,
    table_from_obj,
    table_to_obj,
    term_from_line,
    term_to_line,
)
from cteuclid.elimination import (
    DEFAULT_PRIMES,
    LambdaExhaustion,
    PrimeClash,
    pairing_function,
    pick_lambda,
    summarize,
)
from cteuclid.engine import ElliottTerm, Stats, TermSum, ct_all
from cteuclid.problems import (
    DiophantineSystem,
    build_count_termsum,
    build_series_termsum,
    certified_primes,
    check_boundedness,
    ehrhart_series,
    magic_square_system,
    run_pipeline,
    series_coeffs,
)

from helpers import random_term, table_xy, traced_peak

KNAP = DiophantineSystem([[1, 5, 14]], [41])


def drive_to_completion(tmp, system, task, **kw):
    """Resume in 1-unit slices until the run finishes, counting pauses."""
    pauses = 0
    while True:
        try:
            return run_pipeline(system, task, tmp, max_units=1, **kw), pauses
        except CheckpointPause:
            pauses += 1
            assert pauses < 500


# ---------------------------------------------------------------------------
# serialization round trips


def test_term_line_round_trip():
    rng = random.Random(5)
    table, ys, x = table_xy(3)
    ring = ExactRing()
    for _ in range(60):
        t = random_term(rng, ring, ys, x)
        u = term_from_line(term_to_line(t))
        assert u.num == t.num and u.den == t.den


def _json_term(t):
    """term_to_line's text as json.dumps writes the object it stands for."""
    obj = {
        "n": [[[[v[0], v[1], e] for v, e in m], str(c)] for m, c in sorted(t.num.items())],
        "d": [[[v[0], v[1], e] for v, e in f] for f in t.den],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_vids = st.tuples(st.sampled_from([FREE, SLACK, CT]), st.integers(0, 12))
_exps = st.dictionaries(_vids, st.integers(-10**6, 10**6).filter(bool), max_size=5).map(
    lambda d: tuple(sorted(d.items())))
_terms = st.builds(
    lambda num, den: ElliottTerm(num, tuple(sorted(den))),
    st.dictionaries(_exps, st.integers(-10**40, 10**40).filter(bool), max_size=4),
    st.lists(_exps, max_size=5),
)


@given(st.lists(_terms, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_term_line_is_the_json_dumps_text(terms):
    # one memo over several terms, as a chunk write keeps it, and none
    memo = {}
    for t in terms:
        want = _json_term(t)
        assert term_to_line(t, memo) == want
        assert term_to_line(t) == want


def test_failed_atomic_write_leaves_no_tmp(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        _write_atomic(str(target), "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_table_snapshot_round_trip():
    table = VariableTable()
    table.add("b", FREE)
    table.add("a", FREE)
    table.fresh_slack()
    table.add("x", CT)
    again = table_from_obj(table_to_obj(table))
    assert again.ordered() == table.ordered()
    assert again.vid_of("z1") == table.vid_of("z1")
    assert again.vids_of_rank(SLACK) == table.vids_of_rank(SLACK)


def test_table_snapshot_rejects_gaps():
    obj = [[FREE, 1, "a"]]  # sequence numbers must start at 0
    with pytest.raises(CheckpointError):
        table_from_obj(obj)


def test_config_hash_ignores_nothing_it_covers():
    base = config_payload("count", KNAP, 0, "given", 1000)
    assert config_hash(base) == config_hash(
        config_payload("count", KNAP, 0, "given", 1000)
    )
    tweaked = [
        config_payload("series", KNAP, 0, "given", 1000),
        config_payload("count", KNAP, 1, "given", 1000),
        config_payload("count", KNAP, 0, "sparse-first", 1000),
        config_payload("count", KNAP, 0, "given", 7),
        config_payload("count", DiophantineSystem([[1, 5, 14]], [42]), 0,
                       "given", 1000),
    ]
    assert len({config_hash(t) for t in tweaked} | {config_hash(base)}) == 6
    assert system_from_payload(base).matrix == KNAP.matrix


# ---------------------------------------------------------------------------
# orchestration


def test_fresh_run_matches_direct_pipeline(tmp_path):
    out, _ = drive_to_completion(str(tmp_path), KNAP, "count")
    direct = run_pipeline(KNAP, "count")
    assert out.value == direct.value == dp_knapsack(41, [1, 5, 14]) == 18
    assert out.lam == direct.lam
    assert out.config_hash == config_hash(config_payload("count", KNAP, 0, "given", 1000))


def test_pause_then_resume_same_answer(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    fresh = run_pipeline(KNAP, "count", a, chunk_size=2)
    resumed, pauses = drive_to_completion(b, KNAP, "count", chunk_size=2)
    assert pauses > 1  # several units -> several real interruptions
    assert resumed.value == fresh.value == 18
    assert resumed.lam == fresh.lam
    assert resumed.stats.as_dict() == fresh.stats.as_dict()


def test_series_checkpointed_in_small_chunks(tmp_path):
    out = run_pipeline(magic_square_system(3), "series", str(tmp_path), chunk_size=2)
    direct = ehrhart_series(magic_square_system(3))
    assert (out.num, out.den) == (direct.num, direct.den)
    assert series_coeffs(out.num, out.den, 9) == [1, 0, 0, 5, 0, 0, 13, 0, 0]
    # the directory really was chunked
    chunks = [f for f in os.listdir(tmp_path) if f.startswith("terms-")]
    assert len(chunks) > 1


def test_prime_switch_reuses_phase_a(tmp_path):
    d = str(tmp_path)
    run_pipeline(KNAP, "count", d)
    with open(os.path.join(d, "meta.json")) as fh:
        before = json.load(fh)
    # the exact run's partials are those of its own primes
    exact_partials = sorted(f for f in os.listdir(d) if f.startswith("partial-"))
    assert exact_partials == [f"partial-{DEFAULT_PRIMES[0]}-0000.json"]

    p = 636286597
    out = run_pipeline(KNAP, "count", d, moduli=(p,))
    assert out.residues == {p: 18}
    with open(os.path.join(d, "meta.json")) as fh:
        after = json.load(fh)
    # phase A untouched; the exact partials survive next to the new ones
    assert after["phase_a"] == before["phase_a"]
    assert set(exact_partials) < set(os.listdir(d))
    assert any(f.startswith(f"partial-{p}") for f in os.listdir(d))


def test_prime_switch_skips_phase_a_work(tmp_path):
    d = str(tmp_path)
    run_pipeline(KNAP, "count", d)
    # with phase A done, a new ring needs exactly nchunks more units
    with open(os.path.join(d, "meta.json")) as fh:
        nchunks = json.load(fh)["phase_a"]["chunks"]
    with pytest.raises(CheckpointPause):
        run_pipeline(KNAP, "count", d, moduli=(636286597,), max_units=nchunks)
    out = run_pipeline(KNAP, "count", d, moduli=(636286597,))
    assert out.residues == {636286597: 18}


def test_pause_never_splits_a_chunk_between_primes(tmp_path):
    # a chunk's three partials are written before their units count
    d = str(tmp_path)
    system = magic_square_system(3)
    pauses = 0
    while True:
        try:
            out = run_pipeline(system, "series", d, moduli=DEFAULT_PRIMES, crt=True,
                               chunk_size=2, max_units=1)
            break
        except CheckpointPause:
            pauses += 1
            names = set(os.listdir(d))
            with open(os.path.join(d, "meta.json")) as fh:
                nchunks = json.load(fh)["phase_a"]["chunks"]
            for i in range(nchunks):
                have = [f"partial-{p}-{i:04d}.json" in names for p in DEFAULT_PRIMES]
                assert all(have) or not any(have), (pauses, i)
    # one pause after stage A, then one after each chunk's three primes
    assert nchunks > 1 and pauses == 1 + nchunks
    assert (out.num, out.den) == (ehrhart_series(system).num, ehrhart_series(system).den)


def test_config_mismatch_is_refused(tmp_path):
    d = str(tmp_path)
    run_pipeline(KNAP, "count", d)
    other = DiophantineSystem([[1, 5, 14]], [42])
    with pytest.raises(CheckpointError):
        run_pipeline(other, "count", d)
    with pytest.raises(CheckpointError):
        run_pipeline(KNAP, "count", d, seed=1)
    with pytest.raises(CheckpointError):
        run_pipeline(KNAP, "series", d)


def test_missing_chunk_is_refused(tmp_path):
    d = str(tmp_path)
    run_pipeline(KNAP, "count", d)
    os.remove(os.path.join(d, "terms-0000.jsonl"))
    with pytest.raises(CheckpointError, match="chunk"):
        run_pipeline(KNAP, "count", d, moduli=(636286597,))


def test_chunk_size_validated(tmp_path):
    d = tmp_path / "ck"
    with pytest.raises(InputError, match="chunk size"):
        run_pipeline(KNAP, "count", str(d), chunk_size=0)
    assert not d.exists()
    with pytest.raises(InputError, match="chunk size"):
        run_pipeline(KNAP, "count", chunk_size=0)


def test_crt_through_checkpoints(tmp_path):
    out = run_pipeline(
        KNAP,
        "count",
        str(tmp_path),
        moduli=(1152921504606847009, 2305843009213693951),
        crt=True,
    )
    assert out.value == 18
    assert out.exact is False
    assert out.confidence is not None


# ---------------------------------------------------------------------------
# one chunk at a time


def _pause_after_stage_a(d, system, task, **kw):
    with pytest.raises(CheckpointPause):
        run_pipeline(system, task, d, max_units=1, **kw)


def test_resume_traces_under_two_megabytes(tmp_path):
    """A magic-4 --crt --chunk-size 12 resume holds one chunk of parsed terms.

    It traced 3.2 MB at peak when it parsed all 33 chunks before stage B
    and held them to the end, and traces 0.6 MB reading one at a time.
    """
    system = magic_square_system(4)
    kw = dict(moduli=DEFAULT_PRIMES, crt=True, chunk_size=12)
    d = str(tmp_path / "ck")
    _pause_after_stage_a(d, system, "series", **kw)
    out, peak = traced_peak(run_pipeline, system, "series", d, **kw)
    want = run_pipeline(system, "series", **kw)
    assert (out.num, out.den) == (want.num, want.den)
    assert peak <= 2_000_000


def _tuple_form_terms():
    return sum(1 for o in gc.get_objects()
               if isinstance(o, ElliottTerm) and isinstance(o.num, dict))


def test_stage_a_write_unpacks_one_chunk_at_a_time(tmp_path, monkeypatch):
    """No more than one chunk of terms is in tuple form when a chunk file is written."""
    system, size = magic_square_system(4), 50
    table, stats = VariableTable(), Stats()
    done = ct_all(build_series_termsum(system, table, ExactRing()), stats=stats)
    payload = config_payload("series", system, 0, "given", size)
    store = DirectoryStore(str(tmp_path), payload, config_hash(payload))
    before = _tuple_form_terms()
    held = []
    write = checkpoint._write_atomic

    def spy(path, text):
        if os.path.basename(path).startswith("terms-"):
            held.append(_tuple_form_terms() - before)
        write(path, text)

    monkeypatch.setattr(checkpoint, "_write_atomic", spy)
    store.stage_a(lambda: (table, done, stats))
    assert len(held) == -(-len(done) // size) > 1
    assert max(held) <= size


STAGE_B_RUNS = {
    "knapsack": (DiophantineSystem([[12223, 12224, 36671]], [149389505]), "count", 3),
    "magic3": (magic_square_system(3), "series", 2),
    "magic4": (magic_square_system(4), "series", 12),
    "ehrhart": (DiophantineSystem([[1, 1, 1, 1], [1, 2, 3, 4]], [2, 5]), "series", 2),
}


def _reference_den_and_pairings(lam, chunks):
    """den and the nonzero pairings of certified_primes, read term by term through pair."""
    den, pairings = {}, set()
    for chunk in chunks:
        pair = pairing_function(lam, chunk)
        for t in chunk:
            ms = [pair(f)[1] for f in t.den]
            for m in set(ms) - {0}:
                den[m] = max(den.get(m, 0), ms.count(m) + ms.count(0))
            pairings.update(b for b, _ in map(pair, t.den) if b)
    return den, pairings


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (LambdaExhaustion, PrimeClash) as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(STAGE_B_RUNS))
def test_saved_summary_matches_the_chunks(tmp_path, name):
    """Phase A's saved summary is the one its chunk files, reloaded, and stage A's sum give.

    A chunk file reloads as the checkpoint packs it, under a layout bounded
    by its own exponents; so does the whole sum in one chunk.
    pick_lambda and certified_primes answer alike from each, and the
    summary's descriptors give the pairings and den read from the terms.
    """
    system, task, size = STAGE_B_RUNS[name]
    d = tmp_path / "ck"
    _pause_after_stage_a(str(d), system, task, chunk_size=size)
    phase_a = json.loads((d / "meta.json").read_text())["phase_a"]
    table = table_from_obj(phase_a["table"])
    files = [TermSum.pack(table, ExactRing(),
                          [term_from_line(line) for line in (d / f"terms-{i:04d}.jsonl").open()])
             for i in range(phase_a["chunks"])]
    build = build_count_termsum if task == "count" else build_series_termsum
    packed = ct_all(build(system, VariableTable(), ExactRing()))
    plain = TermSum.pack(table, ExactRing(), packed.unpacked())
    saved = summary_from_obj(phase_a["summary"], table)
    assert saved == summarize(files) == summarize([packed]) == summarize([plain])
    assert saved.terms == phase_a["terms"] == len(plain)

    y = check_boundedness(system)
    zs = table.vids_of_rank(SLACK)
    for seed in range(4):
        for moduli in [(), DEFAULT_PRIMES, (3,), (5, 7)]:
            lam = _outcome(pick_lambda, saved, zs, moduli=moduli, seed=seed)
            for chunks in (files, [packed], [plain]):
                assert _outcome(pick_lambda, summarize(chunks), zs, moduli=moduli,
                                seed=seed) == lam
            if isinstance(lam, dict):
                primes, den = certified_primes(system, y, saved, lam)
                for chunks in (files, [packed]):
                    assert certified_primes(system, y, summarize(chunks), lam) == (primes, den)
                    want_den, pairings = _reference_den_and_pairings(lam, chunks)
                    assert den == want_den
                    assert {sum(lam[v] * e for v, e in bvec)
                            for bvec, _ in saved.descriptors} - {0} == pairings


def test_resume_does_not_open_a_chunk_whose_partials_exist(tmp_path):
    d = str(tmp_path / "ck")
    system, kw = magic_square_system(3), dict(moduli=(DEFAULT_PRIMES[1],), chunk_size=2)
    first = run_pipeline(system, "series", d, **kw)
    part = tmp_path / "ck" / f"partial-{DEFAULT_PRIMES[1]}-0001.json"
    saved = part.read_bytes()
    # chunk 0 is gone but all its partials are on disk; chunk 1 lacks its one
    os.remove(os.path.join(d, "terms-0000.jsonl"))
    part.unlink()
    again = run_pipeline(system, "series", d, **kw)
    assert again.series_residues == first.series_residues
    assert part.read_bytes() == saved
