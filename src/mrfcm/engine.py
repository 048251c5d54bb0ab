"""A small deterministic map-shuffle-reduce runtime.

Jobs run over a PartitionedStore with an immutable broadcast context.
Partitions go round-robin into min(``num_mappers``, partitions) logical
map tasks, queued onto a bounded worker pool, so deployments with many
more mappers than cores behave like their cluster counterparts.  A job
whose map tasks average fewer than ``INLINE_ROWS_PER_TASK`` rows runs
both phases in the calling thread instead: blocks that small cost a pool
more CPU than it saves in wall time.

The shuffle walks map output in ascending partition order, so every
key's values arrive ordered by (origin partition, emission order) with
no sort.  That makes floating-point reductions order-stable: any
mapper/reducer count, pooled or inline, gives the same grouped inputs.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .errors import EngineError
from .ingest import PartitionedStore

# Mean rows per map task below which a job runs in the calling thread:
# on 2 cores, smaller blocks cost the pool more CPU than it saves in wall
# time (measured per fcm iteration; see CHANGES.md).
INLINE_ROWS_PER_TASK = 4096


@dataclass(frozen=True)
class JobSpec:
    """Deployment shape of one job: how many map and reduce tasks."""

    num_mappers: int
    num_reducers: int
    job_name: str = "job"

    def __post_init__(self):
        if self.num_mappers < 1 or self.num_reducers < 1:
            raise EngineError(f"{self.job_name}: mapper/reducer counts must be >= 1")


@dataclass
class JobMetrics:
    job_name: str
    num_mappers: int
    num_reducers: int
    map_wall_time: float = 0.0
    shuffle_wall_time: float = 0.0
    reduce_wall_time: float = 0.0
    records_in: int = 0
    records_out: int = 0

    @property
    def total_time(self) -> float:
        return self.map_wall_time + self.shuffle_wall_time + self.reduce_wall_time

    def csv_line(self) -> str:
        return (f"{self.job_name},{self.num_mappers},{self.num_reducers},"
                f"{self.map_wall_time:.6f},{self.shuffle_wall_time:.6f},"
                f"{self.reduce_wall_time:.6f},{self.total_time:.6f}")


METRICS_HEADER = "job_name,num_mappers,num_reducers,map_s,shuffle_s,reduce_s,total_s"


def set_parallelism(spec: JobSpec, available_cores: int | None = None) -> tuple[int, int]:
    """Effective concurrent (map, reduce) worker counts.

    Logical task counts stay at the spec's values; only the number of
    simultaneously running workers is capped by the core count.
    """
    cores = available_cores if available_cores is not None else (os.cpu_count() or 1)
    if cores < 1:
        raise EngineError("available_cores must be >= 1")
    return min(spec.num_mappers, cores), min(spec.num_reducers, cores)


def _assign_round_robin(items, num_tasks):
    """Deterministic task assignment: item i goes to task i mod num_tasks."""
    tasks = [[] for _ in range(min(num_tasks, len(items)) or 1)]
    for i, item in enumerate(items):
        tasks[i % len(tasks)].append(item)
    return tasks


def _run_tasks(fn, tasks, workers):
    """fn applied to every task, results in task order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def run_job(spec: JobSpec, store: PartitionedStore, broadcast,
            map_fn: Callable, reduce_fn: Callable,
            available_cores: int | None = None):
    """Execute one map-shuffle-reduce pass.

    map_fn(partition_index, block, broadcast) yields (key, value) pairs;
    reduce_fn(key, values) returns the reduced value for that key, where
    ``values`` is ordered by (origin partition, emission order).  Returns
    (sorted list of (key, reduced_value), JobMetrics).  Output does not
    depend on worker scheduling.
    """
    map_workers, reduce_workers = set_parallelism(spec, available_cores)
    metrics = JobMetrics(spec.job_name, spec.num_mappers, spec.num_reducers)
    map_tasks = _assign_round_robin(range(store.num_partitions), spec.num_mappers)
    if store.n < INLINE_ROWS_PER_TASK * len(map_tasks):
        map_workers = reduce_workers = 1

    def run_map_task(task_pids):
        emitted = []
        for pid in task_pids:
            try:
                emitted.append((pid, list(map_fn(pid, store.block(pid), broadcast))))
            except Exception as exc:
                raise EngineError(f"{spec.job_name}: map failed on partition {pid}: {exc}") from exc
        return emitted

    t0 = time.perf_counter()
    map_outputs = _run_tasks(run_map_task, map_tasks, map_workers)
    metrics.map_wall_time = time.perf_counter() - t0

    # Shuffle: walking partitions in ascending order appends each key's
    # values in (origin, emission) order.
    t0 = time.perf_counter()
    by_pid = dict(pair for task_out in map_outputs for pair in task_out)
    groups: dict = {}
    for pid in range(store.num_partitions):
        for key, value in by_pid[pid]:
            groups.setdefault(key, []).append(value)
    metrics.records_in = sum(map(len, by_pid.values()))
    try:
        keys = sorted(groups)
    except TypeError as exc:
        raise EngineError(f"{spec.job_name}: emitted keys are not totally ordered: {exc}") from exc
    metrics.shuffle_wall_time = time.perf_counter() - t0

    reduce_tasks = _assign_round_robin(keys, spec.num_reducers)

    def run_reduce_task(task_keys):
        out = []
        for key in task_keys:
            try:
                out.append((key, reduce_fn(key, groups[key])))
            except Exception as exc:
                raise EngineError(f"{spec.job_name}: reduce failed on key {key!r}: {exc}") from exc
        return out

    t0 = time.perf_counter()
    reduce_outputs = _run_tasks(run_reduce_task, reduce_tasks, reduce_workers)
    metrics.reduce_wall_time = time.perf_counter() - t0

    # Key i went to reduce task i mod R, at position i div R.
    width = len(reduce_tasks)
    results = [reduce_outputs[i % width][i // width] for i in range(len(keys))]
    metrics.records_out = len(results)
    return results, metrics
