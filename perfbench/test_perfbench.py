"""Self-tests of the benchmark: output checks, pinned digests, exact counters.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

layers, workloads = run.import_program()

#: A seed never used while the benchmark was tuned.
HELD_OUT_SEED = 7919
WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def check_ops(name, seed):
    """Run a workload's check ops, each plain and profiled."""
    workload = workloads.WORKLOADS[name](seed)
    workload.build()
    return run.measure(workload, layers, seconds=0.0, trace=True, min_ops=0)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_default_seed_matches_baseline_and_counts_repeat(name):
    pinned = json.loads(run.BASELINE.read_text())["workloads"][name]
    first, second = check_ops(name, run.DEFAULT_SEED), check_ops(name, run.DEFAULT_SEED)
    for m in (first, second):
        assert m.failed_ops == 0
        assert [o.digest for o in m.outcomes] == pinned["op_digests"]
    assert first.profiles[0].counts() == second.profiles[0].counts()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_held_out_seed_passes_every_check(name):
    m = check_ops(name, HELD_OUT_SEED)
    assert m.attempted == workloads.WORKLOADS[name].check_ops
    assert m.failed_ops == 0


def test_unbalanced_accounting_is_a_problem():
    outcome = workloads.OpOutcome(
        arrivals=3, completed=1, shed=1, failed=0, digest="", energy=0.0
    )
    assert outcome.problems


def test_wrong_digest_fails_the_op(monkeypatch):
    monkeypatch.setattr(run, "expected_digests", lambda workload: ["0" * 64] * 8)
    workload = workloads.WORKLOADS["fleet-failover"](run.DEFAULT_SEED)
    workload.build()
    m = run.measure(workload, layers, seconds=0.0, trace=False, min_ops=0)
    assert m.failed_ops == workload.check_ops


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric(trace, kind):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fleet-failover",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
