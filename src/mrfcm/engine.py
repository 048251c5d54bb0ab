"""A small deterministic map-shuffle-reduce runtime and the store it reads.

Jobs run over a PartitionedStore, the contiguous row blocks that
``partition`` cuts from a 2-D array or a dataset's codes, with an
immutable broadcast context.  The store lives here, beside the code that
consumes it, as does the package's one dedup, ``first_appearance``, which
the CSV reader and the store share: a store finds its distinct rows once,
on first use (``PartitionedStore.distinct``), and the Burt job, fcm and
the sweep all read those weighted records.  This module imports no part
of the package but its errors: a process that only runs jobs loads
neither.

Each partition is one map call and each key one reduce call;
``sum_reduce``, which the Burt job and the fcm iterations share, adds a
key's values in arrival order.  The map calls queue onto a pool of at
most ``num_mappers`` threads, capped by the cores the process may run on
(``available_cores``), so deployments with many more mappers than cores
behave like their cluster counterparts.  A
job whose mappers average fewer than ``INLINE_ROWS_PER_TASK`` rows maps
in the calling thread instead: blocks that small cost a pool more CPU
than it saves in wall time, and a process that runs only such jobs never
imports ``concurrent.futures``.  The reduce calls always run in the
calling thread, in ascending key order; every job of the pipeline emits
one key, so a reduce pool would never run two calls at once, and
``num_reducers`` only labels the job in its metrics.

The shuffle walks map output in ascending partition order, so every
key's values arrive ordered by (origin partition, emission order) with
no sort.  That makes floating-point reductions order-stable: any
mapper/reducer count, pooled or inline, gives the same grouped inputs.

The mapper count is the package's concurrency setting, so numpy's own
BLAS threads are kept out of the way: ``_one_blas_thread`` runs OpenBLAS
on one thread during each job's map phase and during ``mca.fit_mca``'s
eigensolve, and gives the caller's thread count back afterwards.  An
idle OpenBLAS worker otherwise spins on another core after each
``np.linalg.eigh`` call (about 0.12 s of CPU per fit on a 2-vCPU VM).
Other BLAS builds are left alone.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EngineError, SchemaError

# Mean rows per mapper, n / min(num_mappers, partitions), below which a
# job runs in the calling thread: on 2 cores, smaller blocks cost the pool
# more CPU than it saves in wall time (measured per fcm iteration; see
# CHANGES.md).
INLINE_ROWS_PER_TASK = 4096


@dataclass(frozen=True)
class PartitionedStore:
    """Immutable contiguous row blocks over a 2-D array.

    Blocks are disjoint, ordered, and concatenate back to the original
    row order, which is what lets the membership job reassemble its
    output deterministically by partition index.
    """

    data: np.ndarray
    offsets: np.ndarray  # (P + 1,) prefix offsets, offsets[-1] == n

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @functools.cached_property
    def distinct(self):
        """(records, counts, inverse): a store of the distinct rows in
        first-appearance order, with min(P, k) partitions, how often each
        occurs as float64, and the row -> record index.  Found once per
        store, by ``_distinct_rows``, and shared by every job that reads it."""
        first, counts, inverse = _distinct_rows(self.data)
        return partition(self.data[first], min(self.num_partitions, len(first))), counts, inverse

    @property
    def num_partitions(self) -> int:
        return len(self.offsets) - 1

    def block(self, pid: int) -> np.ndarray:
        return self.data[self.offsets[pid]:self.offsets[pid + 1]]


def partition(data, num_partitions: int) -> PartitionedStore:
    """Split rows into contiguous, order-preserving blocks.

    Block sizes differ by at most one.  num_partitions is clamped to the
    row count (with a warning) so no partition is ever empty.

    ``data`` may be a dataset, whose ``codes`` are split (an
    ``ingest.CategoricalDataset``), or any 2-D array (float rows are used
    when clustering already-projected coordinates directly); the store's
    copy keeps its memory layout, row- or column-major.
    """
    array = np.asarray(getattr(data, "codes", data))
    if array.ndim != 2:
        raise SchemaError("partition expects a 2-D row array")
    n = array.shape[0]
    if num_partitions < 1:
        raise SchemaError(f"partition count must be >= 1, got {num_partitions}")
    if num_partitions > n:
        warnings.warn(f"partition count {num_partitions} exceeds row count {n}; clamping")
        num_partitions = max(n, 1)
    sizes = np.full(num_partitions, n // num_partitions, dtype=np.int64)
    sizes[: n % num_partitions] += 1
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return PartitionedStore(array.copy(order="K"), offsets)


@dataclass(frozen=True)
class JobSpec:
    """Deployment shape of one job: how many mappers and reducers."""

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

    @property
    def total_time(self) -> float:
        return self.map_wall_time + self.shuffle_wall_time + self.reduce_wall_time

    def csv_line(self) -> str:
        return (f"{self.job_name},{self.num_mappers},{self.num_reducers},"
                f"{self.map_wall_time:.6f},{self.shuffle_wall_time:.6f},"
                f"{self.reduce_wall_time:.6f},{self.total_time:.6f}")


METRICS_HEADER = "job_name,num_mappers,num_reducers,map_s,shuffle_s,reduce_s,total_s"


# (get, set) thread-count symbols of OpenBLAS builds, newest numpy first:
# numpy >= 2 wheels, numpy 1.2x wheels, then a plain OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that ``numpy.linalg``
    calls, or None for any other BLAS.  dlsym on the extension's handle also
    searches the libraries it links, so this finds numpy's own copy."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """Context manager: OpenBLAS runs on one thread while any scope is open.
    Scopes may nest and may be open in several threads at once: the first to
    enter saves the caller's thread count and the last to exit restores it.
    Without a setter it does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            calls = _blas_thread_calls() if self._depth == 0 else None
            if calls is not None:
                get, set_ = calls
                self._restore = functools.partial(set_, get())
                set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                self._restore()
                self._restore = None


_one_blas_thread = _OneBlasThread()


def available_cores() -> int:
    """CPUs this process may run on: its affinity mask (which ``taskset``
    narrows) where the platform has one, else the machine's count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _map_all(spec: JobSpec, store: PartitionedStore, broadcast, map_fn: Callable) -> list:
    """Every partition's map output as a list, in partition order.  The
    calls run in the calling thread when the mappers average fewer than
    ``INLINE_ROWS_PER_TASK`` rows, else on at most min(num_mappers, cores)
    threads."""
    def run_map(pid):
        try:
            return list(map_fn(pid, store.block(pid), broadcast))
        except Exception as exc:
            raise EngineError(f"{spec.job_name}: map failed on partition {pid}: {exc}") from exc

    pids = range(store.num_partitions)
    mappers = min(spec.num_mappers, store.num_partitions)
    workers = min(mappers, available_cores())
    if workers <= 1 or store.n < INLINE_ROWS_PER_TASK * mappers:
        return [run_map(pid) for pid in pids]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_map, pids))


def first_appearance(keys):
    """(first position, count, position -> distinct index) of the distinct
    values of a 1-D key array, in first-appearance order.  One argsort
    groups equal keys: a radix sort (``kind="stable"``) for keys of at most
    2 bytes, numpy's default sort otherwise.  Each group's first position is
    the least of its positions, whatever order the sort left equal keys in,
    and its count the gap to the next group's start."""
    order = np.argsort(keys, kind="stable" if keys.itemsize <= 2 else None)
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]  # void keys have no not_equal loop with out=
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    counts = np.diff(starts, append=len(keys))
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    inverse = np.empty_like(order)
    inverse[order] = np.repeat(rank, counts)
    return first[by_first], counts[by_first], inverse


def _distinct_rows(array):
    """``first_appearance`` of a 2-D array's rows, found on ``_row_keys``,
    with float counts."""
    first, counts, inverse = first_appearance(_row_keys(array))
    return first, counts.astype(float), inverse


def _row_keys(array):
    """One value per row of a 2-D array, equal only for equal rows.

    A table of nonnegative signed integers whose per-column (max + 1)
    product fits int64 gets one mixed-radix int64 key per row: the sum of
    its codes times their place values, one einsum, which casts the codes
    to int64 in buffered chunks rather than in one (n, Q) copy as matmul
    does.  Any other row, float or from a code table wide enough to
    overflow that key, is compared as one byte string.
    """
    if array.dtype.kind == "i" and array.size and array.min() >= 0:
        radices = [int(top) + 1 for top in array.max(axis=0)]
        if math.prod(radices) <= 2 ** 63:
            # A column of radix 1 holds only zeros; its place value, which
            # can be 2**63, is left out.
            places = [math.prod(radices[j + 1:]) if radix > 1 else 0
                      for j, radix in enumerate(radices)]
            return np.einsum("ij,j->i", array, np.array(places, dtype=np.int64))
    array = np.ascontiguousarray(array + 0)  # + 0 folds -0.0 into 0.0
    return array.view(np.dtype((np.void, array.itemsize * array.shape[1]))).ravel()


def sum_reduce(key, values):
    """Reducer: the values added in arrival order.  Starting at the first
    value, not 0, keeps a -0.0 sum bit for bit."""
    return sum(values[1:], values[0])


def run_job(spec: JobSpec, store: PartitionedStore, broadcast,
            map_fn: Callable, reduce_fn: Callable):
    """Execute one map-shuffle-reduce pass.

    map_fn(partition_index, block, broadcast) yields (key, value) pairs;
    reduce_fn(key, values) returns the reduced value for that key, where
    ``values`` is ordered by (origin partition, emission order).  Returns
    (sorted list of (key, reduced_value), JobMetrics).  Output does not
    depend on worker scheduling.
    """
    metrics = JobMetrics(spec.job_name, spec.num_mappers, spec.num_reducers)
    t0 = time.perf_counter()
    with _one_blas_thread:
        map_outputs = _map_all(spec, store, broadcast, map_fn)
    metrics.map_wall_time = time.perf_counter() - t0

    # Shuffle: walking partitions in ascending order appends each key's
    # values in (origin, emission) order.
    t0 = time.perf_counter()
    groups: dict = {}
    for emitted in map_outputs:
        for key, value in emitted:
            groups.setdefault(key, []).append(value)
    metrics.records_in = sum(map(len, map_outputs))
    try:
        keys = sorted(groups)
    except TypeError as exc:
        raise EngineError(f"{spec.job_name}: emitted keys are not totally ordered: {exc}") from exc
    metrics.shuffle_wall_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    results = []
    for key in keys:
        try:
            results.append((key, reduce_fn(key, groups[key])))
        except Exception as exc:
            raise EngineError(f"{spec.job_name}: reduce failed on key {key!r}: {exc}") from exc
    metrics.reduce_wall_time = time.perf_counter() - t0
    return results, metrics
