"""Smoke tests of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# oracle-small runs on request but is not declared: see perfbench/README.md.
WORKLOADS = ["oracle-small", "cluster-large", "sweep-mid"]


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


def bench(*args, cwd=ROOT, timeout=180):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric_with_its_unit(workload, trace):
    proc = bench(str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads(record_line)["record"]
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "inputs"):
        assert key in record


def test_same_seed_gives_same_inputs(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        proc = bench(str(ROOT / "perfbench" / "inputs.py"), "sweep-mid", "5",
                     str(tmp_path / name), "1")
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a" / "input.csv").read_bytes() == (tmp_path / "b" / "input.csv").read_bytes()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
