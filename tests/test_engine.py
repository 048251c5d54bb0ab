import contextlib
import os
import sys
import threading
import time

import numpy as np
import pytest

from mrfcm import engine, ingest
from mrfcm.engine import JobSpec, run_job
from mrfcm.errors import EngineError
from test_fcm import distinct_by_tuples, map_threads, off_calling_thread


def token_store(tokens, p):
    """Rows of single small ints standing in for words."""
    return ingest.partition(np.asarray(tokens).reshape(-1, 1), p)


def count_map(pid, block, broadcast):
    for value in block[:, 0]:
        yield int(value), 1


def sum_reduce(key, values):
    return sum(values)


class TestRunJob:
    def test_word_count_invariant_to_mapper_count(self):
        tokens = [1, 2, 2, 3, 3, 3, 1, 2]
        expected = {1: 2, 2: 3, 3: 3}
        for p in (1, 2, 3):
            for mappers in (1, 2, 3):
                store = token_store(tokens, p)
                results, _ = run_job(JobSpec(mappers, 1, "wc"), store, None,
                                     count_map, sum_reduce)
                assert dict(results) == expected

    def test_reducer_count_does_not_change_output(self):
        tokens = list(range(40)) * 3
        store = token_store(tokens, 8)
        baseline, _ = run_job(JobSpec(4, 1, "wc"), store, None, count_map, sum_reduce)
        for reducers in (2, 8):
            results, _ = run_job(JobSpec(4, reducers, "wc"), store, None,
                                 count_map, sum_reduce)
            assert results == baseline

    def test_empty_input(self):
        store = ingest.PartitionedStore(np.empty((0, 1)), np.array([0, 0]))
        results, metrics = run_job(JobSpec(1, 1, "empty"), store, None,
                                   count_map, sum_reduce)
        assert results == []
        assert metrics.records_in == 0

    def test_value_order_is_origin_then_emission(self):
        def emit_two(pid, block, broadcast):
            yield "k", (pid, 0)
            yield "k", (pid, 1)

        def collect(key, values):
            return list(values)

        store = token_store([1] * 6, 3)
        results, _ = run_job(JobSpec(3, 1, "order"), store, None, emit_two, collect)
        assert results[0][1] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_float_reduction_is_reproducible(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(1000, 1))
        store = ingest.partition(data, 16)

        def partial_sum(pid, block, broadcast):
            yield "total", float(block.sum())

        def add(key, values):
            total = 0.0
            for v in values:
                total += v
            return total

        outs = set()
        for mappers, reducers in [(1, 1), (4, 2), (16, 8), (16, 1)]:
            results, _ = run_job(JobSpec(mappers, reducers, "sum"), store, None,
                                 partial_sum, add)
            outs.add(results[0][1])
        assert len(outs) == 1  # bitwise equal across deployments

    def test_no_record_lost_or_duplicated(self):
        tokens = list(range(10)) * 7
        store = token_store(tokens, 5)
        results, metrics = run_job(JobSpec(3, 2, "wc"), store, None, count_map, sum_reduce)
        assert sum(count for _, count in results) == len(tokens)
        assert metrics.records_in == len(tokens)

    def test_map_failure_names_partition(self):
        def bad_map(pid, block, broadcast):
            if pid == 2:
                raise ValueError("boom")
            return []

        store = token_store(list(range(12)), 4)
        with pytest.raises(EngineError, match="partition 2"):
            run_job(JobSpec(4, 1, "bad"), store, None, bad_map, sum_reduce)

    def test_reduce_failure_names_key(self):
        def bad_reduce(key, values):
            if key == 3:
                raise ValueError("boom")
            return 0

        store = token_store([1, 2, 3, 4], 2)
        with pytest.raises(EngineError, match="key 3"):
            run_job(JobSpec(2, 2, "bad"), store, None, count_map, bad_reduce)

    def test_metrics_are_nonnegative_and_counted(self):
        store = token_store([5, 5, 6], 2)
        _, metrics = run_job(JobSpec(2, 1, "m"), store, None, count_map, sum_reduce)
        assert metrics.map_wall_time >= 0
        assert metrics.shuffle_wall_time >= 0
        assert metrics.reduce_wall_time >= 0
        assert metrics.total_time >= max(metrics.map_wall_time, metrics.shuffle_wall_time,
                                         metrics.reduce_wall_time)
        line = metrics.csv_line()
        assert line.startswith("m,2,1,")
        assert len(line.split(",")) == len(engine.METRICS_HEADER.split(","))


def split_store(p):
    """p full splits of one-column rows: a job over them whose mappers and
    cores are at least 2 averages a full split per mapper, so it pools."""
    return token_store(np.zeros(p * engine.SPLIT_ROWS, dtype=np.int64), p)


def column_sums(pid, block, broadcast):
    yield pid % 3, block.sum(axis=0)
    yield -1, block.sum(axis=0)  # the grand total


def add_arrays(key, values):
    total = values[0].copy()
    for v in values[1:]:
        total += v
    return total


class TestPooledPath:
    def test_pooled_and_inline_results_are_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(5)
        store = ingest.partition(rng.normal(size=(16 * engine.SPLIT_ROWS, 3)), 16)
        baseline, _ = run_job(JobSpec(1, 1, "fsum"), store, None, column_sums, add_arrays)
        threads = map_threads(monkeypatch)
        for mappers in (1, 4, 16):
            spec = JobSpec(mappers, max(1, mappers // 2), "fsum")
            for cores in (1, 2):
                monkeypatch.setattr(engine, "available_cores", lambda: cores)
                threads.clear()
                results, _ = run_job(spec, store, None, column_sums, add_arrays)
                assert off_calling_thread(threads) == (mappers > 1 and cores > 1)
                assert [k for k, _ in results] == [k for k, _ in baseline]
                assert all(a.tobytes() == b.tobytes()
                           for (_, a), (_, b) in zip(results, baseline))

    @pytest.mark.parametrize("records, cores, expected", [
        (9_702, 2, "inline pool inline inline inline"),  # sweep-mid's input
        (31_168, 2, "inline pool pool inline inline"),  # cluster-large's input
        (200_000, 2, "inline pool pool pool inline"),
        (8_192, 2, "inline pool pool pool pool"),  # an exact multiple of SPLIT_ROWS
        (200_000, 1, "inline inline inline inline inline"),
    ])
    def test_pool_decision_by_records_and_mappers(self, monkeypatch, records, cores, expected):
        """A job over k records in ceil(k / SPLIT_ROWS) splits, as the Burt
        job and fcm map them, at 1, 2, 4, 16 and 100 mappers: it pools when
        its mappers, at most one per split, average a full split each."""
        monkeypatch.setattr(engine, "available_cores", lambda: cores)
        store = ingest.partition(np.zeros((records, 1), dtype=np.int8),
                                 -(-records // engine.SPLIT_ROWS))
        threads = map_threads(monkeypatch)
        decisions = []
        for mappers in (1, 2, 4, 16, 100):
            threads.clear()
            run_job(JobSpec(mappers, 1, "table"), store, None, lambda *args: [], sum_reduce)
            decisions.append("pool" if off_calling_thread(threads) else "inline")
        assert " ".join(decisions) == expected

    def test_small_job_runs_in_calling_thread(self, monkeypatch):
        monkeypatch.setattr(engine, "available_cores", lambda: 2)
        threads = set()

        def record(pid, block, broadcast):
            threads.add(threading.current_thread())
            yield pid, 1

        run_job(JobSpec(4, 2, "small"), token_store(range(8), 4), None, record, sum_reduce)
        assert threads == {threading.current_thread()}

    def test_map_failure_names_partition(self, monkeypatch):
        monkeypatch.setattr(engine, "available_cores", lambda: 2)
        threads = map_threads(monkeypatch)

        def bad_map(pid, block, broadcast):
            if pid == 5:
                raise ValueError("boom")
            yield pid, 1

        with pytest.raises(EngineError, match="partition 5"):
            run_job(JobSpec(8, 2, "bad"), split_store(8), None, bad_map, sum_reduce)
        assert threading.current_thread() not in threads

    @pytest.mark.parametrize("mappers, cores", [(2, 8), (8, 2), (150, 8)])
    def test_map_concurrency_is_capped(self, monkeypatch, mappers, cores):
        monkeypatch.setattr(engine, "available_cores", lambda: cores)
        lock = threading.Lock()
        running = peak = 0
        threads = set()

        def slow_map(pid, block, broadcast):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
                threads.add(threading.current_thread())
            time.sleep(0.01)
            with lock:
                running -= 1
            yield pid, 1

        run_job(JobSpec(mappers, 1, "cap"), split_store(16), None, slow_map, sum_reduce)
        assert threading.current_thread() not in threads  # the pool ran the maps
        assert peak <= min(mappers, cores)

    def test_single_mapper_runs_in_calling_thread(self, monkeypatch):
        monkeypatch.setattr(engine, "available_cores", lambda: 8)
        threads = set()

        def record(pid, block, broadcast):
            threads.add(threading.current_thread())
            yield pid, 1

        run_job(JobSpec(1, 1, "serial"), split_store(8), None, record, sum_reduce)
        assert threads == {threading.current_thread()}

    def test_reduce_calls_run_in_calling_thread_in_key_order(self, monkeypatch):
        monkeypatch.setattr(engine, "available_cores", lambda: 8)
        threads, calls = map_threads(monkeypatch), []

        def descending_keys(pid, block, broadcast):
            return [(key, 1) for key in range(20, 0, -1)]

        def record(key, values):
            calls.append((key, threading.current_thread()))
            return sum(values)

        results, _ = run_job(JobSpec(8, 4, "keys"), split_store(8), None,
                             descending_keys, record)
        assert threading.current_thread() not in threads
        assert [key for key, _ in calls] == list(range(1, 21))
        assert {thread for _, thread in calls} == {threading.current_thread()}
        assert dict(results) == {key: 8 for key in range(1, 21)}

    @pytest.mark.parametrize("fail", [False, True])
    def test_maps_run_on_one_blas_thread(self, monkeypatch, fail):
        get, set_ = real_blas_calls()
        monkeypatch.setattr(engine, "available_cores", lambda: 8)
        seen = []

        def record(pid, block, broadcast):
            seen.append((get(), threading.current_thread()))
            if fail and pid == 3:
                raise ValueError("boom")
            yield pid, 1

        original = get()
        set_(2)
        try:
            with pytest.raises(EngineError) if fail else contextlib.nullcontext():
                run_job(JobSpec(8, 2, "blas"), split_store(8), None, record, sum_reduce)
            after = get()
        finally:
            set_(original)
        assert seen and {count for count, _ in seen} == {1}
        assert threading.current_thread() not in {thread for _, thread in seen}
        assert after == 2

    def test_no_threads_leak_across_jobs(self, monkeypatch):
        monkeypatch.setattr(engine, "available_cores", lambda: 2)
        threads = map_threads(monkeypatch)

        def block_size(pid, block, broadcast):
            yield pid, len(block)

        store = split_store(8)
        spec = JobSpec(8, 2, "reuse")
        expected, _ = run_job(spec, store, None, block_size, sum_reduce)
        before = threading.active_count()
        for _ in range(200):
            results, _ = run_job(spec, store, None, block_size, sum_reduce)
            assert results == expected
        assert threading.current_thread() not in threads
        assert threading.active_count() <= before


class TestAvailableCores:
    def test_affinity_mask_bounds_the_count(self, monkeypatch):
        # As under `taskset -c 0` on a machine of 8 CPUs.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert engine.available_cores() == 1

    def test_pooled_map_runs_on_one_thread_per_allowed_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = set()

        def record(pid, block, broadcast):
            threads.add(threading.current_thread())
            time.sleep(0.01)
            yield pid, 1

        run_job(JobSpec(8, 1, "affinity"), split_store(16), None, record, sum_reduce)
        assert 1 <= len(threads) <= 2 and threading.current_thread() not in threads

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert engine.available_cores() == expected


def real_blas_calls():
    calls = engine._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count setter")
    return calls


@pytest.fixture
def fake_blas(monkeypatch):
    """A thread-count setter over a Python int, so the scope logic runs on any BLAS."""
    count = [4]

    def set_(n):
        count[0] = n

    monkeypatch.setattr(engine, "_blas_thread_calls", lambda: (lambda: count[0], set_))
    return count


class TestOneBlasThread:
    def test_nested_scopes_restore_at_outermost_exit(self, fake_blas):
        with engine._one_blas_thread:
            assert fake_blas[0] == 1
            with engine._one_blas_thread:
                assert fake_blas[0] == 1
            assert fake_blas[0] == 1
        assert fake_blas[0] == 4

    def test_concurrent_scopes_restore_once_all_exit(self, fake_blas):
        inside = []
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=10)
            for _ in range(200):
                with engine._one_blas_thread:
                    inside.append(fake_blas[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 1600
        assert fake_blas[0] == 4

    def test_no_setter_gives_bitwise_equal_results(self, monkeypatch):
        def gram(pid, block, broadcast):
            yield 0, block.T @ block

        # 4 mappers average 10,000 rows, over two full splits: the job pools.
        monkeypatch.setattr(engine, "available_cores", lambda: 8)
        threads = map_threads(monkeypatch)
        store = ingest.partition(np.random.default_rng(5).normal(size=(40000, 50)), 16)
        spec = JobSpec(4, 2, "gram")
        (expected,), _ = run_job(spec, store, None, gram, add_arrays)
        monkeypatch.setattr(engine, "_blas_thread_calls", lambda: None)
        (results,), _ = run_job(spec, store, None, gram, add_arrays)
        assert results[1].tobytes() == expected[1].tobytes()
        assert threading.current_thread() not in threads


class TestJobSpec:
    def test_zero_mappers_rejected(self):
        with pytest.raises(EngineError):
            JobSpec(0, 1, "x")


def assert_first_appearance(keys, want):
    first, counts, inverse = engine.first_appearance(keys)
    assert (first.tolist(), counts.tolist(), inverse.tolist()) == want


class TestFirstAppearance:
    """The package's one dedup, against a dict of first appearances
    (``distinct_by_tuples`` of one-column rows)."""

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64, np.int64])
    @pytest.mark.parametrize("n, top", [(30_000, 7), (30_000, 5_000), (20_000, 1), (1, 2)],
                             ids=["low-cardinality", "high-cardinality", "all-equal", "one-key"])
    def test_random_keys(self, dtype, n, top):
        keys = np.random.default_rng(top).integers(0, top, n).astype(dtype)
        keys *= np.iinfo(dtype).max // max(top - 1, 1)  # keys spread over the whole type
        assert_first_appearance(keys, distinct_by_tuples(keys[:, None]))

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64, np.int64])
    def test_all_distinct(self, dtype):
        keys = np.random.default_rng(3).permutation(20_000).astype(dtype)
        assert_first_appearance(keys, (list(range(20_000)), [1] * 20_000, list(range(20_000))))

    def test_void_keys_of_float_rows(self):
        # The byte keys of float rows, where -0.0 and 0.0 are one value.
        rng = np.random.default_rng(11)
        rows = np.array([[0.5, -0.0], [0.5, 0.0], [-0.0, -0.0], [0.0, 0.0], [1.0, 2.5]])
        rows = rows[rng.integers(0, len(rows), 5_000)]
        keys = engine._row_keys(rows)
        assert keys.dtype.kind == "V"
        assert_first_appearance(keys, distinct_by_tuples(rows))

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint64])
    def test_whatever_order_the_sort_leaves_equal_keys_in(self, monkeypatch, dtype):
        # An argsort that puts equal keys last position first gives the same
        # result as numpy's, whatever numpy's own sort does with ties.
        keys = np.random.default_rng(5).integers(0, 9, 10_000).astype(dtype)
        want = distinct_by_tuples(keys[:, None])
        argsort = np.argsort

        def ties_reversed(a, kind=None):
            return len(a) - 1 - argsort(a[::-1], kind="stable")

        monkeypatch.setattr(np, "argsort", ties_reversed)
        assert_first_appearance(keys, want)
