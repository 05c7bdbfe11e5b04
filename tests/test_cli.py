import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cteuclid import cli, problems
from cteuclid.algebra import ExactRing, PrimeField
from cteuclid.bruteforce import OracleRefusal, brute_count
from cteuclid.checkpoint import CheckpointError, CheckpointPause, config_hash
from cteuclid.elimination import DEFAULT_PRIMES, LambdaExhaustion, PrimeClash
from cteuclid.engine import CollisionError, TermSum


def run_main(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# happy paths


def test_knapsack_prints_count_first(in_tmp, capsys):
    rc, out, _ = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14")
    assert rc == 0
    assert out.splitlines()[0] == "18"
    assert "value: 18" in out
    assert "# wall-time:" in out
    text = (in_tmp / "ct-result.txt").read_text()
    assert "value: 18" in text
    assert "wall-time" not in text  # result file carries no clock data


def test_result_file_rerun_identical(in_tmp, capsys):
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--output", "a.txt")
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--output", "b.txt")
    assert (in_tmp / "a.txt").read_bytes() == (in_tmp / "b.txt").read_bytes()


@pytest.mark.parametrize("name", [5, "y\nvalue: 9", "a,b", ""],
                         ids=["int", "newline", "comma", "empty"])
def test_ct_refuses_a_variable_name_that_is_no_identifier(in_tmp, capsys, name):
    """A name goes into the variables line, so it must be one token there."""
    (in_tmp / "t.json").write_text(json.dumps(
        {"variables": [[name, "free"], ["x", "ct"]], "denominator": [{"x": 1}]}))
    rc, out, err = run_main(capsys, "ct", "--input", "t.json", "--output", "r.txt")
    assert rc == 2
    assert out == ""
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: bad term file: ")
    assert not (in_tmp / "r.txt").exists()


@pytest.mark.parametrize("mode", [[], ["--mod", "1000003"], ["--crt"]],
                         ids=["exact", "mod", "crt"])
@pytest.mark.parametrize("argv", [
    ["magic", "--n", "4"],
    ["knapsack", "--a0", "9605029289", "--weights", "27853,8897,21816,12574"],
], ids=["magic4", "knapsack"])
def test_result_ignores_the_order_of_stage_a_terms(in_tmp, capsys, monkeypatch, argv, mode):
    """An in-memory run whose stage A hands its terms on reversed writes the same result."""
    rc, _, _ = run_main(capsys, *argv, *mode, "--output", "a.txt")
    assert rc == 0
    ct_all = problems.ct_all
    reversed_terms = []

    def reversing(*args, **kw):
        done = ct_all(*args, **kw)
        reversed_terms.append(len(done))
        return TermSum(done.layout, done.ring, done.terms[::-1])

    monkeypatch.setattr(problems, "ct_all", reversing)
    rc, _, _ = run_main(capsys, *argv, *mode, "--output", "b.txt")
    assert rc == 0
    assert len(reversed_terms) == 1 and reversed_terms[0] > 1
    assert (in_tmp / "a.txt").read_bytes() == (in_tmp / "b.txt").read_bytes()


def test_oracle_check_ok(in_tmp, capsys):
    rc, out, _ = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--oracle-check")
    assert rc == 0
    assert "# oracle-check: ok (18)" in out


def test_crt_run_reports_confidence(in_tmp, capsys):
    rc, out, _ = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--crt")
    assert rc == 0
    assert out.splitlines()[0] == "18"
    assert "crt: yes" in out
    assert "crt-confidence:" in out


def test_magic_series_with_coefficients(in_tmp, capsys):
    rc, out, _ = run_main(capsys, "magic", "--n", "3", "--coeffs", "8")
    assert rc == 0
    assert out.splitlines()[0] == "(1 + 2*q^3 + q^6) / ((1 - q^3)^3)"
    assert "coefficients: 1,0,0,5,0,0,13,0,0" in out
    assert "denominator-factors: (1-q^3)^3" in out


def test_count_command_reads_system_file(in_tmp, capsys):
    path = in_tmp / "sys.json"
    path.write_text(json.dumps({"matrix": [[1, 5, 14]], "rhs": [41]}))
    rc, out, _ = run_main(capsys, "count", "--input", str(path))
    assert rc == 0
    assert out.splitlines()[0] == "18"


def test_ehrhart_command(in_tmp, capsys):
    path = in_tmp / "sys.json"
    path.write_text(json.dumps({"matrix": [[1, 1, 1]], "rhs": [1]}))
    rc, out, _ = run_main(capsys, "ehrhart", "--input", str(path), "--coeffs", "4",
                          "--oracle-check")
    assert rc == 0
    assert "coefficients: 1,3,6,10,15" in out
    assert "# oracle-check: ok" in out


def test_ct_command_closed_form(in_tmp, capsys):
    path = in_tmp / "term.json"
    path.write_text(json.dumps({
        "variables": [["y", "free"], ["x", "ct"]],
        "denominator": [{"x": 1}, {"x": -1, "y": 1}],
    }))
    # the reported term keeps the slack variables of its factors
    rc, out, _ = run_main(capsys, "ct", "--input", str(path))
    assert rc == 0
    assert "terms: 1" in out
    assert "term[0]: (1) / (1 - y*z1*z2)" in out
    assert (in_tmp / "ct-result.txt").exists()


@pytest.mark.parametrize("one", [{}, {"y": 0}], ids=["empty", "zero-exponent"])
def test_term_file_zero_factor_refused(in_tmp, capsys, one):
    """A denominator monomial equal to 1 makes the factor 1 - 1 = 0: bad input, not a collision."""
    path = in_tmp / "term.json"
    path.write_text(json.dumps({
        "variables": [["y", "free"], ["x", "ct"]],
        "denominator": [{"x": 1}, one],
    }))
    rc, out, err = run_main(capsys, "ct", "--input", str(path))
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: bad term file:")
    assert out == ""
    assert not (in_tmp / "ct-result.txt").exists()


def test_ct_command_mod_drops_vanishing_coefficients(in_tmp, capsys):
    path = in_tmp / "term.json"
    term = {
        "variables": [["y", "free"], ["x", "ct"]],
        "numerator": [[3, {}], [1, {"x": 1}]],
        "denominator": [{"x": 1}, {"x": -1, "y": 1}],
    }
    path.write_text(json.dumps(term))
    rc, out, _ = run_main(capsys, "ct", "--input", str(path), "--mod", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "terms: 1" in lines
    assert "term[0]: (y*z1) / (1 - y*z1*z2)" in lines
    # a numerator that vanishes mod 3 leaves no term and no work
    term["numerator"] = [[3, {}]]
    path.write_text(json.dumps(term))
    rc, out, _ = run_main(capsys, "ct", "--input", str(path), "--mod", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "terms: 0" in lines
    assert not any(line.startswith("term[") for line in lines)
    for counter in ("raw-terms", "collected-terms", "euclid-nodes", "collisions", "restarts"):
        assert f"{counter}: 0" in lines


RING_ARITHMETIC = ("add", "sub", "mul", "neg", "is_zero", "one", "zero", "pow_int", "div",
                   "from_int")


def test_runs_make_no_ring_arithmetic_calls(in_tmp, capsys, monkeypatch):
    """Stages A, B and C add, negate and multiply plain numbers that ring.reduce brings into the ring.

    Only stage B's division (inv, scale, from_fraction) is a ring method,
    so none of the arithmetic methods is called by any of these runs.
    """
    calls = {}
    for cls in (ExactRing, PrimeField):
        # ExactRing never divides, so it has no div
        for name in [n for n in RING_ARITHMETIC if hasattr(cls, n)]:
            def spy(self, *args, _key=f"{cls.__name__}.{name}", _method=getattr(cls, name)):
                calls[_key] = calls.get(_key, 0) + 1
                return _method(self, *args)
            monkeypatch.setattr(cls, name, spy)
    (in_tmp / "term.json").write_text(json.dumps({
        "variables": [["y", "free"], ["x", "ct"]],
        "numerator": [[3, {}], [1, {"x": 1}]],
        "denominator": [{"x": 1}, {"x": -1, "y": 1}],
    }))
    runs = [
        ["magic", "--n", "4"],
        ["magic", "--n", "3", "--crt", "--chunk-size", "2", "--checkpoint-dir", "ck"],
        ["resume", "--checkpoint-dir", "ck"],
        ["knapsack", "--a0", "89643481", "--weights", "12223,12224,36674,61119,85569",
         "--mod", "1000003"],
        ["magic", "--n", "3", "--coeffs", "8"],
        ["ct", "--input", "term.json", "--mod", "3"],
    ]
    for argv in runs:
        rc, _, err = run_main(capsys, *argv)
        assert rc == 0, err
        assert calls == {}, argv


# ---------------------------------------------------------------------------
# checkpoint / resume through the CLI


def test_pause_and_resume_cycle(in_tmp, capsys):
    rc, _, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--checkpoint-dir", "ck", "--max-units", "1")
    assert rc == 0 and "# paused:" in err
    for _ in range(60):
        rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck",
                                "--max-units", "1")
        assert rc == 0
        if "# paused:" not in err:
            break
    else:
        pytest.fail("resume never finished")
    assert out.splitlines()[0] == "18"
    assert (in_tmp / "ck" / "result.txt").read_text().count("value: 18") == 1


def test_fresh_vs_resumed_result_files_identical(in_tmp, capsys):
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--checkpoint-dir", "full")
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--checkpoint-dir", "part", "--max-units", "1")
    for _ in range(60):
        _, _, err = run_main(capsys, "resume", "--checkpoint-dir", "part",
                             "--max-units", "1")
        if "# paused:" not in err:
            break
    assert (in_tmp / "full" / "result.txt").read_bytes() == \
           (in_tmp / "part" / "result.txt").read_bytes()


def test_series_paused_inside_stage_b_resumes_to_the_fresh_files(in_tmp, capsys):
    """A partial saved mid stage B holds powers of q below 0, and resume reads it back."""
    argv = ["magic", "--n", "4", "--crt", "--chunk-size", "12"]
    rc, _, _ = run_main(capsys, *argv, "--checkpoint-dir", "full")
    assert rc == 0
    rc, _, err = run_main(capsys, *argv, "--checkpoint-dir", "part", "--max-units", "40")
    assert rc == 0 and "# paused:" in err
    partials = sorted((in_tmp / "part").glob("partial-*.json"))
    assert 0 < len(partials) < len(list((in_tmp / "full").glob("partial-*.json")))
    assert any(d.startswith("-") for p in partials
               for d in json.loads(p.read_text())["body"]["num"])
    rc, _, _ = run_main(capsys, "resume", "--checkpoint-dir", "part", "--crt")
    assert rc == 0
    names = sorted(p.name for p in (in_tmp / "full").iterdir())
    assert names == sorted(p.name for p in (in_tmp / "part").iterdir())
    for name in names:
        assert (in_tmp / "full" / name).read_bytes() == (in_tmp / "part" / name).read_bytes()


def test_resume_matching_input_accepted(in_tmp, capsys):
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--checkpoint-dir", "ck")
    good = in_tmp / "same.json"
    good.write_text(json.dumps({"matrix": [[1, 5, 14]], "rhs": [41]}))
    rc, out, _ = run_main(capsys, "resume", "--checkpoint-dir", "ck",
                          "--input", str(good))
    assert rc == 0 and out.splitlines()[0] == "18"


def test_resume_altered_input_refused(in_tmp, capsys):
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--checkpoint-dir", "ck")
    bad = in_tmp / "other.json"
    bad.write_text(json.dumps({"matrix": [[1, 5, 14]], "rhs": [42]}))
    rc, _, err = run_main(capsys, "resume", "--checkpoint-dir", "ck",
                          "--input", str(bad))
    assert rc == 7
    assert "does not match" in err


def test_resume_with_new_prime_set(in_tmp, capsys):
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--checkpoint-dir", "ck")
    rc, out, _ = run_main(capsys, "resume", "--checkpoint-dir", "ck",
                          "--mod", "636286597")
    assert rc == 0
    assert "residue[636286597]: 18" in out


def test_resume_missing_directory(in_tmp, capsys):
    rc, _, err = run_main(capsys, "resume", "--checkpoint-dir", "nowhere")
    assert rc == 7
    assert "no checkpoint" in err


def test_resume_of_delayed_slack_checkpoint_refused(in_tmp, capsys):
    # the meta.json an older version wrote for a run with --slack delayed
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
             "--checkpoint-dir", "ck", "--max-units", "1")
    meta_path = in_tmp / "ck" / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["config"]["slack"] == "eager"
    meta["config"]["slack"] = "delayed"
    meta["config_hash"] = config_hash(meta["config"])
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=1))
    rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck")
    assert rc == 7
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "different configuration" in errors[0]
    assert out == ""
    assert not (in_tmp / "ck" / "result.txt").exists()


@pytest.mark.parametrize("damage", [
    '{"config": ',                      # truncated
    '["config"]',                       # not an object
    '{}',                               # no configuration
    '{"config": {}, "phase_a": {}}',    # a configuration without its keys
    ("raw_terms", "5"),                 # a string for a stage-A counter
    ("euclid_nodes", -1),               # a negative counter
    ("collisions", True),               # a bool for a counter
    ("summand_bound_ok", 1),            # an int for a flag
    # stage-A state of a magic-3 run paused with 8 terms in 4 chunks
    {"chunks": 1},                      # resumed from one chunk, it gave a wrong answer
    {"chunks": "1"},                    # a string for the chunk count
    {"chunks": 5},                      # more chunks than the terms fill
    {"terms": 7},                       # the chunks hold 8 terms
    {"terms": -1},                      # a negative term count
    {"terms": "8"},                     # a string for the term count
    {"table": [[0, 0]]},                # a table row without its name
    {"table": "q"},                     # a table that is not a list
    # the stage-B summary saved with it
    {"summary": "q"},                   # not an object
    {"summary": {"terms": 7}},          # the chunks hold 8 terms
    {"summary": {"slacks": [9]}},       # a slack variable the table lacks
    {"summary": {"slacks": ["0"]}},     # a string for a slack variable
    {"summary": {"descriptors": [[1, 0, 1]]}},     # an int for the pure flag
    {"summary": {"descriptors": [[True, 0]]}},     # a slack index without its exponent
    {"summary": {"descriptors": [[True, 0, 0]]}},  # a zero exponent
    {"summary": {"den": {"0": 1}}},     # a factor (1 - q^0) = 0
    {"summary": {"den": {"1": "2"}}},   # a string for a power
    {"summary": {"den": None}},         # no den
    {"table": [[0, 1, "y\nvalue: 9"]]},  # a name that is no identifier
    # the configuration saved with it
    {"config": {"chunk_size": "5"}},    # a string for the chunk size
    {"config": {"chunk_size": 0}},      # no terms per chunk
    {"config": {"task": "bogus"}},      # neither a count nor a series
    {"config": {"seed": "1"}},          # a string for the seed
    {"config": {"order": "bogus"}},     # no elimination order
], ids=["truncated", "list", "empty", "no-keys", "counter-string", "counter-negative",
        "counter-bool", "flag-int", "chunks-short", "chunks-string", "chunks-long",
        "terms-short", "terms-negative", "terms-string", "table-row", "table-string",
        "summary-string", "summary-terms", "summary-slack-unknown", "summary-slack-string",
        "summary-pure-int", "summary-descriptor-odd", "summary-exponent-zero",
        "summary-den-zero", "summary-den-string", "summary-den-none", "table-name",
        "config-chunk-string", "config-chunk-zero", "config-task", "config-seed",
        "config-order"])
def test_resume_of_damaged_meta_refused(in_tmp, capsys, damage):
    meta = in_tmp / "ck" / "meta.json"
    if isinstance(damage, str):
        (in_tmp / "ck").mkdir()
        meta.write_text(damage)
    elif isinstance(damage, dict):
        rc, _, _ = run_main(capsys, "magic", "--n", "3", "--mod", "1152921504606847009",
                            "--chunk-size", "2", "--checkpoint-dir", "ck", "--max-units", "1")
        assert rc == 0
        obj = json.loads(meta.read_text())
        assert (obj["phase_a"]["terms"], obj["phase_a"]["chunks"]) == (8, 4)
        for key, value in damage.items():
            if key == "table" and isinstance(value, list):
                value = obj["phase_a"]["table"] + value
            if key == "summary" and isinstance(value, dict):
                value = {**obj["phase_a"]["summary"], **value}
            if key == "config":
                obj["config"].update(value)
            else:
                obj["phase_a"][key] = value
        meta.write_text(json.dumps(obj))
    else:
        # a run paused after stage A, whose counters the resume reads back
        rc, _, _ = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                            "--checkpoint-dir", "ck", "--max-units", "1")
        assert rc == 0
        obj = json.loads(meta.read_text())
        key, value = damage
        obj["phase_a"]["stats"][key] = value
        meta.write_text(json.dumps(obj))
    rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck")
    assert rc == 7
    assert out == ""
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    if isinstance(damage, dict) and "config" in damage:
        assert errors[0].startswith("error: malformed checkpoint configuration")
    assert not (in_tmp / "ck" / "result.txt").exists()


def test_run_into_damaged_meta_refused(in_tmp, capsys):
    (in_tmp / "ck").mkdir()
    (in_tmp / "ck" / "meta.json").write_text('{"config": ')
    rc, out, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                            "--checkpoint-dir", "ck")
    assert rc == 7
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert not (in_tmp / "ck" / "result.txt").exists()


P = 1152921504606847009


@pytest.mark.parametrize("moduli, damage", [
    ([], '{"lam_hash": '),                          # truncated
    ([], '["lam_hash"]'),                           # not an object
    ([P], ("body", "den", {"3": -1})),              # a negative power
    ([P], ("body", "den", {"3": 1.5})),             # a fractional power
    ([P], ("body", "den", {"3": True})),            # a bool for a power
    ([P], ("body", "den", {"0": 3})),               # a factor (1 - q^0) = 0
    ([P], ("body", "den", [3])),                    # not an object
    ([P], ("body", "num", {"1.5": "1", "0": "1"})), # a fractional degree
    ([P], ("body", "num", {"-": "1", "0": "1"})),   # a sign with no digits
    ([P], ("stats", "ct_s_calls", "8")),            # a string for a counter
    ([P], ("stats", "summand_bound_ok", "no")),     # a string for a flag
], ids=["truncated", "list", "den-negative", "den-fraction", "den-bool", "den-k-zero",
        "den-list", "num-fraction-degree", "num-bare-sign", "counter-string", "flag-string"])
def test_resume_with_damaged_partial_refused(in_tmp, capsys, moduli, damage):
    if moduli:
        argv = ["magic", "--n", "3", "--mod", str(P)]
    else:
        argv = ["knapsack", "--a0", "41", "--weights", "1,5,14"]
    rc, _, _ = run_main(capsys, *argv, "--checkpoint-dir", "ck")
    assert rc == 0
    (in_tmp / "ck" / "result.txt").unlink()
    # an exact run of this knapsack needs one prime, the first default one
    name = f"partial-{moduli[0] if moduli else DEFAULT_PRIMES[0]}-0000.json"
    path = in_tmp / "ck" / name
    if isinstance(damage, str):
        path.write_text(damage)
    else:
        section, key, value = damage
        obj = json.loads(path.read_text())
        obj[section][key] = value
        path.write_text(json.dumps(obj))
    mods = [arg for p in moduli for arg in ("--mod", str(p))]
    rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck", *mods)
    assert rc == 7
    assert out == ""
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert name in errors[0]
    assert not (in_tmp / "ck" / "result.txt").exists()


@pytest.mark.parametrize("value", ["0.5", "1e3", str(P)])
def test_resume_with_partial_holding_no_residue_refused(in_tmp, capsys, value):
    # a saved residue is a decimal integer in [0, p), never a rational to invert
    run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14", "--mod", str(P),
             "--checkpoint-dir", "ck")
    (in_tmp / "ck" / "result.txt").unlink()
    path = in_tmp / "ck" / f"partial-{P}-0000.json"
    obj = json.loads(path.read_text())
    obj["body"]["value"] = value
    path.write_text(json.dumps(obj))
    rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck", "--mod", str(P))
    assert rc == 7
    assert out == ""
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert path.name in errors[0]
    assert not (in_tmp / "ck" / "result.txt").exists()


# edits of the first term chunk of knapsack 41 1,5,14, whose table holds
# the slack variables [1,0], [1,1], [1,2] and the ct variable [2,0]
DAMAGED_TERM_CHUNKS = {
    "truncated-line": lambda text: text + '{"n": [\n',
    # a factor's slack variable [1,2] renamed [1,7], which the table lacks
    "unknown-slack": lambda text: text.replace("[1,2,1]", "[1,7,1]", 1),
    # the ct variable, which stage A removed, back in a numerator monomial
    "ct-variable": lambda text: text.replace("[1,1,8]]", "[1,1,8],[2,0,2]]", 1),
    # a free variable q, which a count's table does not have
    "free-variable": lambda text: text.replace('"n":[[[[', '"n":[[[[0,0,2],[', 1),
    # a factor that names [1,0] twice, which int() reading packed as [1,0,2]
    "repeated-variable": lambda text: text.replace("[[1,0,1],[1,1,-3]",
                                                   "[[1,0,1],[1,0,1],[1,1,-3]", 1),
    # exponents that int() coerced: a float, a bool and a numeric string
    "float-exponent": lambda text: text.replace("[1,0,4],", "[1,0,4.9],", 1),
    "bool-exponent": lambda text: text.replace("[[1,0,1],[1,1,8]]", "[[1,0,true],[1,1,8]]", 1),
    "string-exponent": lambda text: text.replace("[1,1,8]]", '[1,1,"8"]]', 1),
    # a coefficient as a JSON number, not the decimal string the writer emits
    "number-coefficient": lambda text: text.replace(',"-1"]', ",-1]", 1),
    # a factor that is the monomial 1, which ended in exit 4
    "empty-factor": lambda text: text.replace('{"d":[', '{"d":[[],', 1),
}


@pytest.mark.parametrize("edit", sorted(DAMAGED_TERM_CHUNKS))
def test_resume_with_damaged_term_chunk_refused(in_tmp, capsys, edit):
    rc, _, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--checkpoint-dir", "ck", "--max-units", "1")
    assert rc == 0 and "# paused:" in err
    chunk = in_tmp / "ck" / "terms-0000.jsonl"
    text = chunk.read_text()
    damaged = DAMAGED_TERM_CHUNKS[edit](text)
    assert damaged != text
    chunk.write_text(damaged)
    rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck")
    assert rc == 7
    assert out == ""
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert "term chunk 0" in errors[0]
    assert not (in_tmp / "ck" / "result.txt").exists()


def test_resume_with_a_term_chunk_one_term_short_refused(in_tmp, capsys):
    rc, _, _ = run_main(capsys, "magic", "--n", "3", "--mod", "1152921504606847009",
                        "--chunk-size", "2", "--checkpoint-dir", "ck", "--max-units", "1")
    assert rc == 0
    chunk = in_tmp / "ck" / "terms-0002.jsonl"
    chunk.write_text(chunk.read_text().splitlines(keepends=True)[0])
    rc, out, err = run_main(capsys, "resume", "--checkpoint-dir", "ck")
    assert rc == 7 and out == "" and _one_error_line(err), err
    assert "term chunk 2 holds 1 terms" in err
    assert not (in_tmp / "ck" / "result.txt").exists()


def test_checkpoint_paused_by_older_version_resumes(in_tmp, capsys):
    """A magic-3 --crt --chunk-size 2 run paused after stage A by the version
    that still took --slack resumes to the fresh run's result file."""
    golden = Path(__file__).resolve().parent / "golden"
    shutil.copytree(golden / "paused" / "magic3-crt-chunk2", in_tmp / "ck")
    rc, _, err = run_main(capsys, "resume", "--checkpoint-dir", "ck", "--crt",
                          "--coeffs", "8")
    assert rc == 0 and "error:" not in err
    assert (in_tmp / "ck" / "result.txt").read_bytes() == \
        (golden / "magic3-crt-chunk2.txt").read_bytes()


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_missing_input_file(in_tmp, capsys):
    rc, _, err = run_main(capsys, "count", "--input", "nope.json")
    assert rc == 2 and "error:" in err


def _one_error_line(err):
    """Whether stderr holds one error: line, besides # progress lines, and no traceback."""
    lines = [line for line in err.splitlines() if not line.startswith("# ")]
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_input_that_is_a_directory(in_tmp, capsys):
    (in_tmp / "system").mkdir()
    rc, _, err = run_main(capsys, "count", "--input", "system")
    assert rc == 2 and _one_error_line(err), err


def test_input_that_is_not_utf8(in_tmp, capsys):
    (in_tmp / "system.json").write_bytes(b'\xff\xfe{"matrix": [[1, 2]], "rhs": [3]}')
    rc, _, err = run_main(capsys, "ehrhart", "--input", "system.json")
    assert rc == 2 and _one_error_line(err) and "UTF-8" in err, err


def test_result_path_that_is_a_directory(in_tmp, capsys):
    (in_tmp / "out").mkdir()
    rc, out, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                            "--output", "out")
    assert rc == 2 and _one_error_line(err) and out == "", err
    assert sorted(p.name for p in in_tmp.iterdir()) == ["out"]
    assert list((in_tmp / "out").iterdir()) == []


def test_result_path_in_a_missing_directory(in_tmp, capsys):
    rc, out, err = run_main(capsys, "magic", "--n", "3", "--output", "nodir/x.txt")
    assert rc == 2 and _one_error_line(err) and out == "", err
    assert "nodir/x.txt " in err and ".tmp" not in err
    assert list(in_tmp.iterdir()) == []


def test_result_path_under_a_file(in_tmp, capsys):
    argv = ["knapsack", "--a0", "41", "--weights", "1,5,14", "--checkpoint-dir", "c1"]
    rc, _, _ = run_main(capsys, *argv, "--max-units", "1")
    assert rc == 0
    names = sorted(p.name for p in (in_tmp / "c1").iterdir())
    rc, out, err = run_main(capsys, *argv, "--output", "c1/meta.json/x")
    assert rc == 2 and _one_error_line(err) and out == "", err
    assert "c1/meta.json/x " in err and ".tmp" not in err
    # refused before stage B: no partial was written
    assert sorted(p.name for p in (in_tmp / "c1").iterdir()) == names


def test_checkpoint_dir_that_is_a_file(in_tmp, capsys):
    (in_tmp / "ck").write_text("not a directory\n")
    rc, _, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--checkpoint-dir", "ck")
    assert rc == 2 and _one_error_line(err), err
    assert sorted(p.name for p in in_tmp.iterdir()) == ["ck"]
    assert (in_tmp / "ck").read_text() == "not a directory\n"


def test_garbage_system_file(in_tmp, capsys):
    path = in_tmp / "bad.json"
    path.write_text("{]")
    rc, _, err = run_main(capsys, "count", "--input", str(path))
    assert rc == 2 and "bad system file" in err


def test_bad_term_role(in_tmp, capsys):
    path = in_tmp / "term.json"
    path.write_text(json.dumps({"variables": [["y", "banana"]], "denominator": []}))
    rc, _, err = run_main(capsys, "ct", "--input", str(path))
    assert rc == 2 and "role" in err


NOT_INTEGERS = {"float": "2.7", "bool": "true", "exponent": "1e1"}


@pytest.mark.parametrize("command", ["count", "ehrhart"])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
@pytest.mark.parametrize("kind", NOT_INTEGERS)
def test_system_file_entries_must_be_integers(in_tmp, capsys, command, where, kind):
    matrix, rhs = "[[1, 2]]", "[5]"
    if where == "matrix":
        matrix = f"[[1, {NOT_INTEGERS[kind]}]]"
    else:
        rhs = f"[{NOT_INTEGERS[kind]}]"
    path = in_tmp / "sys.json"
    path.write_text(f'{{"matrix": {matrix}, "rhs": {rhs}}}')
    rc, _, err = run_main(capsys, command, "--input", str(path))
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: bad system file:") and "is not an integer" in err


def test_system_file_accepts_decimal_integer_strings(in_tmp, capsys):
    path = in_tmp / "sys.json"
    path.write_text('{"matrix": [["1", "5", "14"]], "rhs": ["+41"]}')
    rc, out, _ = run_main(capsys, "count", "--input", str(path))
    assert rc == 0 and out.splitlines()[0] == "18"


@pytest.mark.parametrize("where", ["coefficient", "exponent"])
@pytest.mark.parametrize("kind", NOT_INTEGERS)
def test_term_file_entries_must_be_integers(in_tmp, capsys, where, kind):
    coeff, exponent = "1", "1"
    if where == "coefficient":
        coeff = NOT_INTEGERS[kind]
    else:
        exponent = NOT_INTEGERS[kind]
    path = in_tmp / "term.json"
    path.write_text(
        '{"variables": [["y", "free"], ["x", "ct"]], '
        f'"numerator": [[{coeff}, {{"x": {exponent}}}]], '
        '"denominator": [{"x": 1, "y": 1}]}'
    )
    rc, _, err = run_main(capsys, "ct", "--input", str(path))
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: bad term file:") and "is not an integer" in err


@pytest.mark.parametrize("argv,flag", [
    (["knapsack", "--a0", "41", "--weights", "1,5,14", "--chunk-size", "0"], "--chunk-size"),
    (["knapsack", "--a0", "41", "--weights", "1,5,14", "--chunk-size", "0",
      "--checkpoint-dir", "ck"], "--chunk-size"),
    (["knapsack", "--a0", "41", "--weights", "1,5,14", "--max-units", "0",
      "--checkpoint-dir", "ck"], "--max-units"),
    (["magic", "--n", "3", "--coeffs", "-3"], "--coeffs"),
    (["resume", "--checkpoint-dir", "ck", "--max-units", "0"], "--max-units"),
    (["resume", "--checkpoint-dir", "ck", "--coeffs", "-1"], "--coeffs"),
])
def test_numeric_flags_checked_at_parse_time(in_tmp, capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]
    assert not (in_tmp / "ck").exists()
    assert not (in_tmp / "ct-result.txt").exists()


@pytest.mark.parametrize("command", ["knapsack", "magic", "resume", "ct"])
def test_slack_flag_refused(in_tmp, capsys, command):
    argv = {
        "knapsack": ["knapsack", "--a0", "41", "--weights", "1,5,14"],
        "magic": ["magic", "--n", "3"],
        "resume": ["resume", "--checkpoint-dir", "ck"],
        "ct": ["ct", "--input", "term.json"],
    }[command]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--slack", "delayed", "--checkpoint-dir", "ck"])
    assert info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--slack" in errors[0]
    assert not (in_tmp / "ck").exists()
    assert not (in_tmp / "ct-result.txt").exists()


def test_ehrhart_factors_binomials_past_twelve(in_tmp, capsys):
    path = in_tmp / "sys.json"
    path.write_text(json.dumps({"matrix": [[13, 1]], "rhs": [1]}))
    rc, out, _ = run_main(capsys, "ehrhart", "--input", str(path))
    assert rc == 0
    assert "denominator-factors: (1-q^1) * (1-q^13)" in out.splitlines()
    assert "series: (1) / ((1 - q) * (1 - q^13))" in out.splitlines()


def test_ehrhart_polynomial_series_has_denominator_one(in_tmp, capsys):
    # x = -t has a solution only at t = 0, so the series is the polynomial 1
    path = in_tmp / "sys.json"
    path.write_text(json.dumps({"matrix": [[1]], "rhs": [-1]}))
    rc, out, _ = run_main(capsys, "ehrhart", "--input", str(path))
    assert rc == 0
    assert "series: (1) / (1)" in out.splitlines()
    assert "series: (1) / (1)" in (in_tmp / "ct-result.txt").read_text().splitlines()


def test_ct_rejects_two_moduli(in_tmp, capsys):
    path = in_tmp / "term.json"
    path.write_text(json.dumps({"variables": [["x", "ct"]], "denominator": [{"x": 1}]}))
    rc, _, err = run_main(capsys, "ct", "--input", str(path),
                          "--mod", "3", "--mod", "5")
    assert rc == 2 and "at most one" in err


def test_duplicate_moduli_rejected(in_tmp, capsys):
    rc, _, err = run_main(capsys, "knapsack", "--a0", "5", "--weights", "1,2",
                          "--mod", "636286597", "--mod", "636286597",
                          "--checkpoint-dir", "ck")
    assert rc == 2
    assert err.splitlines() == ["error: moduli must be pairwise distinct"]
    assert not (in_tmp / "ck").exists()


def test_small_prime_refused_without_traceback(in_tmp, capsys):
    # 1/12 appears in the pole series and has no inverse mod 3
    rc, _, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--mod", "3")
    assert rc == 2
    assert err.splitlines() == [
        "error: modulus 3 divides the denominator 12; use a larger prime"
    ]


@pytest.mark.parametrize("moduli", [["3", "1152921504606847009"], ["5", "3"]])
def test_small_prime_refused_through_the_product_ring(in_tmp, capsys, moduli):
    # stage B runs once mod the product; the refusal still names the prime
    argv = ["knapsack", "--a0", "41", "--weights", "1,5,14"]
    for p in moduli:
        argv += ["--mod", p]
    rc, _, err = run_main(capsys, *argv)
    assert rc == 2
    assert err.splitlines() == [
        "error: modulus 3 divides the denominator 12; use a larger prime"
    ]


@pytest.mark.parametrize("modulus", ["1", "2", "4", "-7"])
def test_bad_modulus_refused_before_any_work(in_tmp, capsys, modulus):
    rc, _, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                          "--mod", modulus, "--checkpoint-dir", "ck")
    assert rc == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: modulus {modulus} is not an odd prime"
    ]
    assert not (in_tmp / "ck").exists()


@pytest.mark.parametrize("modulus, why", [
    ("318665857834031151167461", "is not an odd prime"),  # strong pseudoprime to bases 2-37
    ("3317044064679887385961981", "cannot be certified prime"),
])
def test_modulus_past_the_certified_range_refused(in_tmp, capsys, modulus, why):
    rc, out, err = run_main(capsys, "knapsack", "--a0", "41", "--weights", "1,5,14",
                            "--mod", modulus)
    assert rc == 2
    assert out == ""
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: modulus {modulus} {why}")
    assert not (in_tmp / "ct-result.txt").exists()


def test_unbounded_refused(in_tmp, capsys):
    path = in_tmp / "sys.json"
    path.write_text(json.dumps({"matrix": [[1, -1]], "rhs": [5]}))
    rc, _, err = run_main(capsys, "count", "--input", str(path))
    assert rc == 2 and "infinite" in err


def test_system_with_no_nonnegative_row_is_certified(in_tmp, capsys):
    # y = (1, 1) gives y^T A = (2, 1, 3, 2, 2, 3, 3) > 0 and y^T b = 8
    A, b = [[3, -1, 2, 5, -2, 1, 4], [-1, 2, 1, -3, 4, 2, -1]], [4, 4]
    (in_tmp / "sys.json").write_text(json.dumps({"matrix": A, "rhs": b}))
    start = time.perf_counter()
    rc, out, err = run_main(capsys, "count", "--input", "sys.json")
    assert time.perf_counter() - start < 1.0
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == "9"
    assert brute_count(A, b, box=[8 // c for c in (2, 1, 3, 2, 2, 3, 3)]) == 9


NEGATIVE_ROW = {"matrix": [[-1, -2]], "rhs": [-4]}
SEVEN_COLUMNS = {"matrix": [[3, -1, 2, 5, -2, 1, 4], [-1, 2, 1, -3, 4, 2, -1]], "rhs": [4, 4]}


@pytest.mark.parametrize("system, command, want", [
    (NEGATIVE_ROW, ["count"], "3"),
    (NEGATIVE_ROW, ["ehrhart", "--coeffs", "4"], "[1, 3, 5, 7, 9]"),
    (SEVEN_COLUMNS, ["count"], "9"),
], ids=["negative-row-count", "negative-row-ehrhart", "seven-columns-count"])
def test_oracle_check_searches_the_certified_box(in_tmp, capsys, system, command, want):
    """No row of these systems is nonnegative; the boundedness certificate gives the region."""
    (in_tmp / "sys.json").write_text(json.dumps(system))
    rc, out, _ = run_main(capsys, *command, "--input", "sys.json", "--oracle-check")
    assert rc == 0
    assert f"# oracle-check: ok ({want})" in out


def test_oracle_refusal_on_huge_instance(in_tmp, capsys):
    rc, _, err = run_main(capsys, "knapsack", "--a0", "89733124481",
                          "--weights", "12223,12224,36671", "--oracle-check")
    assert rc == 6 and "error:" in err


@pytest.mark.parametrize("exc,code", [
    (CollisionError("boom"), 3),
    (LambdaExhaustion("boom"), 4),
    (PrimeClash("boom"), 5),
    (OracleRefusal("boom"), 6),
    (CheckpointError("boom"), 7),
    (ArithmeticError("boom"), 1),
    (CheckpointPause("boom"), 0),
])
def test_exception_exit_codes(monkeypatch, capsys, exc, code):
    def raiser(args):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "knapsack", raiser)
    rc, _, _ = run_main(capsys, "knapsack", "--a0", "1", "--weights", "1")
    assert rc == code


# ---------------------------------------------------------------------------
# console script, launched from the wrapper that the console_script fixture
# builds from [project.scripts]


def test_console_script_installed(console_script):
    env = console_script.env()
    assert console_script.main is cli.main, \
        f"ct-euclid = {console_script.target!r} does not resolve to cteuclid.cli:main"
    path = shutil.which("ct-euclid", path=env["PATH"])
    assert path == str(console_script.path), "console script ct-euclid not on PATH"
    assert os.access(path, os.X_OK)
    try:
        dist = importlib.metadata.distribution("cteuclid")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts", name="ct-euclid")
    assert [ep.value for ep in installed] == [console_script.target], \
        f"installed cteuclid at {dist.locate_file('')} declares another ct-euclid"


def test_console_script_end_to_end(tmp_path, console_script):
    proc = subprocess.run(
        ["ct-euclid", "knapsack", "--a0", "41", "--weights", "1,5,14"],
        cwd=tmp_path, env=console_script.env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "18"


def test_console_script_closed_stdout_ends_with_one_error_line(tmp_path, console_script):
    argv = ["ct-euclid", "knapsack", "--a0", "41", "--weights", "1,5,14"]
    normal = subprocess.run(argv + ["--output", "normal.txt"], cwd=tmp_path,
                            env=console_script.env(), capture_output=True, timeout=60)
    assert normal.returncode == 0
    proc = subprocess.Popen(argv + ["--output", "closed.txt"], cwd=tmp_path,
                            env=console_script.env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the interpreter has even started
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err
    assert [line for line in err.splitlines() if "error:" in line] == \
        ["error: standard output closed"]
    assert (tmp_path / "closed.txt").read_text() == (tmp_path / "normal.txt").read_text()


def test_console_script_version(console_script):
    proc = subprocess.run(["ct-euclid", "--version"], env=console_script.env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "ct-euclid" in proc.stdout


def test_console_script_usage_error(console_script):
    proc = subprocess.run(
        ["ct-euclid", "knapsack", "--a0", "41", "--weights", "1,5,14",
         "--order", "bogus"],
        env=console_script.env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cteuclid.cli", "knapsack", "--a0", "10",
         "--weights", "2,3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2"


# ---------------------------------------------------------------------------
# README and parser name the same long options


README = Path(__file__).resolve().parents[1] / "README.md"


def _long_options(parser):
    return {opt for a in parser._actions for opt in a.option_strings
            if opt.startswith("--")} - {"--help"}


def _subparsers():
    top = cli.build_parser()
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            return top, action.choices
    raise AssertionError("build_parser() has no subcommands")


def _parser_long_options():
    top, subs = _subparsers()
    return _long_options(top).union(*(_long_options(p) for p in subs.values()))


def test_readme_documents_every_long_option():
    text = README.read_text()
    missing = sorted(opt for opt in _parser_long_options()
                     if not re.search(re.escape(opt) + r"(?![\w-])", text))
    assert not missing, f"README.md does not mention {missing}"


def test_readme_command_line_flags_exist():
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    unknown = sorted(set(re.findall(r"--[a-z][a-z0-9-]*", section)) - _parser_long_options())
    assert not unknown, f"README.md's Command line section names unknown flags {unknown}"
    # the common flags are the ones every pipeline command takes
    common = section.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    _, subs = _subparsers()
    for command in ("knapsack", "count", "ehrhart", "magic"):
        stray = sorted(set(re.findall(r"--[a-z][a-z0-9-]*", common)) - _long_options(subs[command]))
        assert not stray, f"README.md lists {stray} as common flags, but {command} lacks them"
    # the raw ct command's sentence names exactly the flags it takes
    raw = re.search(r"The raw `ct` command takes (.*?)\.(?:\s|$)", section, re.S)
    assert raw, "README.md's Command line section has no sentence on the raw ct flags"
    named = set(re.findall(r"--[a-z][a-z0-9-]*", raw[1]))
    assert named == _long_options(subs["ct"]), f"README.md gives the raw ct command {named}"


# ---------------------------------------------------------------------------
# random small moduli and malformed system files: every run ends with an
# exit code from the README table, and a failure with one error: line


def _readme_exit_codes():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Exit codes", 1)[1].split("\n\n", 2)[1]
    return {int(m) for m in re.findall(r"^\| (\d+) \|", table, re.M)}


EXIT_CODES = _readme_exit_codes()

NOT_AN_INTEGER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
ENTRY = st.one_of(st.integers(min_value=-1, max_value=3), NOT_AN_INTEGER)
ROW = st.one_of(st.lists(ENTRY, max_size=2), NOT_AN_INTEGER)
SYSTEM = st.one_of(
    st.fixed_dictionaries({
        "matrix": st.one_of(st.lists(ROW, max_size=2), NOT_AN_INTEGER),
        "rhs": st.one_of(st.lists(ENTRY, max_size=2), NOT_AN_INTEGER),
    }),
    st.fixed_dictionaries({"matrix": st.lists(ROW, max_size=2)}),
    NOT_AN_INTEGER,
)
MONOMIAL = st.one_of(st.dictionaries(st.sampled_from("xyw"), ENTRY, max_size=2), NOT_AN_INTEGER)
TERM = st.fixed_dictionaries({
    "variables": st.one_of(st.just([["y", "free"], ["x", "ct"]]), NOT_AN_INTEGER),
    "numerator": st.lists(st.tuples(ENTRY, MONOMIAL).map(list), max_size=2),
    "denominator": st.one_of(st.lists(MONOMIAL, max_size=2), NOT_AN_INTEGER),
})
INPUT_TEXT = {
    "count": st.one_of(SYSTEM.map(json.dumps), st.text(max_size=12)),
    "ehrhart": SYSTEM.map(json.dumps),
    "ct": TERM.map(json.dumps),
    "knapsack": st.none(),
}


@given(
    command_text=st.sampled_from(sorted(INPUT_TEXT)).flatmap(
        lambda c: st.tuples(st.just(c), INPUT_TEXT[c])),
    moduli=st.lists(st.integers(min_value=-8, max_value=60), max_size=2),
    crt=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, command_text, moduli, crt):
    command, text = command_text
    tmp = tmp_path_factory.mktemp("fuzz")
    if command == "knapsack":
        argv = ["knapsack", "--a0", "41", "--weights", "1,5,14"]
    else:
        (tmp / "in.json").write_text(text)
        argv = [command, "--input", str(tmp / "in.json")]
    for p in moduli:
        argv += ["--mod", str(p)]
    if crt and command != "ct":
        argv.append("--crt")
    argv += ["--output", str(tmp / "r.txt")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in EXIT_CODES
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (1 if rc else 0), err.getvalue()
    assert "Traceback" not in err.getvalue()
