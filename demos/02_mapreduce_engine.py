"""The key-value engine underneath everything.

A job is just two functions: map_fn sees one partition at a time and
emits (key, value) pairs; reduce_fn sees one key with its values merged
from every partition, ordered by (origin partition, emission order).
That ordering rule is the whole determinism story: floating-point sums
meet their operands in the same order no matter how many workers run.
"""
import os

import numpy as np

from mrfcm import ingest
from mrfcm.engine import JobSpec, run_job

# ── 1. word count, the mandatory hello-world ────────────────────────────────
tokens = np.array([[w] for w in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]])
store = ingest.partition(tokens, 4)


def emit_ones(pid, block, broadcast):
    for value in block[:, 0]:
        yield int(value), 1


def add_up(key, values):
    return sum(values)


for mappers in (1, 2, 4):
    results, metrics = run_job(JobSpec(mappers, 2, "wordcount"), store, None,
                               emit_ones, add_up)
    print(f"mappers={mappers}: counts={dict(results)}")
print("same answer every time, as it must be\n")

# ── 2. map calls queue onto bounded workers ─────────────────────────────────
spec = JobSpec(num_mappers=150, num_reducers=75, job_name="big-deployment")
cores = os.cpu_count() or 1
print(f"{spec.num_mappers} mappers: one map call per partition, at most "
      f"{min(spec.num_mappers, cores)} at once ({cores} cores); "
      f"one reduce call per key, each in the calling thread, so the "
      f"{spec.num_reducers} reducers only label the job\n")

# ── 3. float reductions are order-stable ────────────────────────────────────
rng = np.random.default_rng(0)
data = rng.normal(size=(100_000, 1))
big_store = ingest.partition(data, 32)


def partial_sum(pid, block, broadcast):
    yield "sum", float(block.sum())


def chain_add(key, values):
    total = 0.0
    for v in values:
        total += v
    return total


sums = set()
for mappers, reducers in [(1, 1), (8, 4), (32, 16)]:
    results, metrics = run_job(JobSpec(mappers, reducers, "sum"), big_store, None,
                               partial_sum, chain_add)
    total = results[0][1]
    sums.add(total)
    print(f"deployment {mappers:>2}x{reducers:<2}: sum = {total!r}  "
          f"(map {metrics.map_wall_time * 1e3:.1f} ms, "
          f"shuffle {metrics.shuffle_wall_time * 1e3:.1f} ms, "
          f"reduce {metrics.reduce_wall_time * 1e3:.1f} ms)")
print(f"distinct bit patterns across deployments: {len(sums)} (ordering rule at work)")
