"""Benchmark of the mrfcm pipeline: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload cluster-large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports mrfcm from ``src/``.
Inputs are generated from ``--seed`` into a scratch directory inside the
checkout before any timing starts.  With ``--trace 0`` the run times
passes of the workload for about ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it times one
untraced and one traced pass and reports the per-layer metrics.  The
last line of stdout is the result; the line before it records the
environment, the inputs and the spans.  ``--smoke`` runs the same code
at a tiny size, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import SIZES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# A pass during which the hypervisor gave more than this share of the VM's
# CPU time to other guests ("steal" in /proc/stat) is left out of the timing
# statistics: on a shared host such bursts can triple a pass's wall time.
STEAL_LIMIT = 0.02

# setup_s: a fresh interpreter imports mrfcm and finishes one minimal engine
# job with two map and two reduce tasks, so set-up that moves out of the
# timed passes (a worker pool, a cache) still shows.
SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import mrfcm
store = mrfcm.partition(np.arange(8.0).reshape(4, 2), 2)
mrfcm.run_job(mrfcm.JobSpec(2, 2, "setup"), store, None,
              lambda pid, block, ctx: [(pid, float(block.sum()))],
              lambda key, values: sum(values))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    return parser.parse_args(argv)


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def generate_inputs(workload: str, seed: int, work_dir: Path, smoke: bool) -> dict:
    subprocess.run([sys.executable, str(BENCH_DIR / "inputs.py"), workload, str(seed),
                    str(work_dir), "1" if smoke else "0"], check=True, timeout=170)
    return json.loads((work_dir / "inputs.json").read_text(encoding="utf-8"))


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """(wall, cpu) seconds of each set-up interpreter; cpu is its user + system time."""
    times = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC)], check=True, timeout=60)
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append((wall, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime))
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With fewer than eleven samples no percentile qualifies and the maximum
    is reported as the 100th.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def steal_ticks() -> int | None:
    """Clock ticks stolen from this VM by the hypervisor, summed over its CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def run_untraced(workload, tally, seconds: float) -> None:
    """Passes until the next one would end after ``seconds``; at least one.

    Each pass is marked disturbed when steal exceeded STEAL_LIMIT of the
    CPU time the VM had during it.
    """
    tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
    started = time.perf_counter()
    while True:
        before = steal_ticks()
        workload.run_pass(tally)
        after = steal_ticks()
        last = tally.passes[-1]
        last["steal_s"] = (after - before) * tick_s if None not in (before, after) else 0.0
        last["disturbed"] = last["steal_s"] > STEAL_LIMIT * last["wall"] * os.cpu_count()
        elapsed = time.perf_counter() - started
        if elapsed * (len(tally.passes) + 1) / len(tally.passes) > seconds:
            return


def end_to_end(tally, setup_times) -> tuple[dict, dict]:
    """Timings over the undisturbed passes, or over all if every pass was disturbed."""
    passes = [p for p in tally.passes if not p["disturbed"]] or tally.passes
    op_cpu = [cpu for p in passes for _, cpu in p["ops"]]
    op_tail, percentile = tail(op_cpu)
    metrics = {
        "setup_s": statistics.median(cpu for _, cpu in setup_times),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "op_cpu_s.p50": statistics.median(op_cpu),
        "op_cpu_s.tail": op_tail,
        "row_iters_per_cpu_s": statistics.median(p["row_iters"] / p["cpu"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {"setup_runs": len(setup_times), "passes": len(tally.passes),
               "passes_timed": len(passes), "ops_timed": len(op_cpu),
               "op_cpu_s.tail_percentile": percentile,
               "setup_wall_s": [round(wall, 4) for wall, _ in setup_times],
               "setup_cpu_s": [round(cpu, 4) for _, cpu in setup_times],
               "pass_wall_s": [round(p["wall"], 4) for p in tally.passes],
               "pass_cpu_s": [round(p["cpu"], 4) for p in tally.passes],
               "pass_steal_s": [round(p["steal_s"], 2) for p in tally.passes],
               "op_wall_s.p50": statistics.median(w for p in passes for w, _ in p["ops"])}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrfcm" / "__init__.py").is_file():
        print(f"perfbench: no mrfcm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS, Tally

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    tally = Tally()
    spans = []
    try:
        inputs = generate_inputs(args.workload, args.seed, work_dir, args.smoke)
        workload = WORKLOADS[args.workload](work_dir, inputs)
        if args.trace:
            metrics, tracer = workload.traced(tally)
            spans = tracer.spans
            samples = {"passes": len(tally.passes)}
        else:
            setup = measure_setup(1 if args.smoke else SETUP_REPEATS)
            run_untraced(workload, tally, args.seconds)
            metrics, samples = end_to_end(tally, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                           f"or declared in BENCHMARK.json, not both")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
              "python": platform.python_version(), "numpy": np.__version__,
              "git_sha": git_sha(), "inputs": workload.info, "samples": samples,
              "errors": tally.errors[:20]}
    print(json.dumps({"record": record, "spans": spans}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
