"""Self-test of the benchmark; run from the repository root:

    python3 -m pytest perfbench

A tiny-size pass of every workload, traced and untraced, must emit exactly
the metrics BENCHMARK.json declares, with their units; a wrong reference
must show up as failed ops; and the benchmark must refuse to run where the
package sources are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def test_declared_workloads_exist():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_pass_emits_every_declared_metric(workload, trace, kind):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH[kind]}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def _corrupt(goldens, workload):
    if workload == "knapsack":
        for ref in goldens["knapsack"]["reference"]:
            ref["result"] = ref["result"].replace("value: ", "value: 1")
    elif workload == "magic4-series":
        goldens["magic"]["series"]["3"] += "extra line\n"
    elif workload == "magic4-crt-resume":
        goldens["magic"]["crt"]["3"] = goldens["magic"]["crt"]["3"].replace("crt: yes", "crt: no")
    else:
        goldens["magic"]["magic5_head_rounds"][2] = [25, 24]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failed(workload):
    goldens = workloads.load_goldens()
    _corrupt(goldens, workload)
    with tempfile.TemporaryDirectory() as tmp:
        work = workloads.WORKLOADS[workload](7, "tiny", goldens, tmp)
        loop = run.Loop(work, work.inputs())
        values = run.end_to_end(loop, 0.0, 0.0)
    assert loop.failed > 0
    assert loop.failed / loop.attempted > 0
    assert values["ok_ratio"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_keeps_ten_ops_or_a_quarter_beyond_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 40)
    assert run.tail([float(i) for i in range(1, 9)]) == (6.0, 75.0, 8)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
