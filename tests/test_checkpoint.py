import json
import os
import random

import pytest

from cteuclid.algebra import CT, FREE, SLACK, ExactRing, InputError, VariableTable
from cteuclid.bruteforce import dp_knapsack
from cteuclid.checkpoint import (
    CheckpointError,
    CheckpointPause,
    _write_atomic,
    config_hash,
    config_payload,
    system_from_payload,
    table_from_obj,
    table_to_obj,
    term_from_line,
    term_to_line,
)
from cteuclid.elimination import DEFAULT_PRIMES
from cteuclid.problems import (
    DiophantineSystem,
    ehrhart_series,
    magic_square_system,
    run_pipeline,
    series_coeffs,
)

from helpers import random_term, table_xy

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
