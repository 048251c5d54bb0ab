"""Peak memory of the pipeline's stages, under tracemalloc.

numpy reports its array buffers to tracemalloc, and each stage allocates
the same buffers in the same order on every run, so a stage's traced peak
is a deterministic figure.  Each bound sits between the peak a stage
reaches when it holds only what its next stage reads and the peak it
reached while it kept data nothing reads any more; the comments give both,
measured with numpy 2.4.
"""
import tracemalloc

import numpy as np
import pytest

from mrfcm import datasets, engine, fcm, ingest, mca
from mrfcm.engine import JobSpec, PartitionedStore

MB = 2 ** 20


def traced(fn, *args):
    """(fn(*args), the peak of the memory traced during the call and the
    memory traced after it, both above what was traced when it began),
    leaving a tracer that was already on running."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - base, held - base
    finally:
        if started:
            tracemalloc.stop()


def write_mixed(path, n):
    """n rows like the benchmark's mixed table at ``path``: eight categorical
    columns of four labels with three planted clusters, two real columns
    from three Gaussian blobs, and "?" in about 1% of the cells."""
    rows = [a + b for a, b in zip(
        datasets.clustered_categorical_rows(n, 8, num_clusters=3, cardinality=4, seed=7),
        datasets.gaussian_blob_rows(n, [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]], 1.0, seed=8))]
    for i, j in zip(*np.nonzero(np.random.default_rng(9).random((n, 10)) < 0.01)):
        rows[i][j] = "?"
    datasets.write_csv(path, rows, header=[f"q{j}" for j in range(8)] + ["x0", "x1"])
    return str(path)


@pytest.fixture(scope="module")
def mixed_csv(tmp_path_factory):
    """The mixed table at 100,000 rows."""
    return write_mixed(tmp_path_factory.mktemp("mixed") / "mixed.csv", 100_000)


@pytest.fixture(scope="module")
def mixed_model(mixed_csv):
    """The mixed table's one-partition store of codes and its MCA model."""
    dataset = ingest.encode_csv(mixed_csv)
    store = PartitionedStore(dataset.codes, np.array([0, dataset.n]))
    return store, mca.fit_mca(*mca.accumulate_burt(store, dataset.cardinalities)[:2])


def test_encode_csv_frees_each_column_once_encoded(mixed_csv):
    # The (n, 10) int32 codes are 3.8 MB, held twice while the columns are
    # stacked.  Peak 10.9 MB; 21.5 MB while every column read_table gave,
    # with intp label codes, stayed alive until the end.
    dataset, peak, _ = traced(ingest.encode_csv, mixed_csv)
    assert dataset.codes.shape == (100_000, 10)
    assert peak < 14 * MB, peak / MB


def test_read_table_keeps_the_head_bytes_of_a_real_column(mixed_csv):
    # Each real column keeps a float and a present flag per row (0.9 MB),
    # and the bytes of its head alone: the 8,191 rows of its first block,
    # 94 KB.  Held 4.96 MB; 6.96 MB while each real column kept every
    # row's bytes (1.14 MB).
    ingest.read_table(mixed_csv)  # first-call allocations stay out of the figure
    (_, columns), _, held = traced(ingest.read_table, mixed_csv)
    kinds = [type(column).__name__ for column in columns]
    assert kinds == ["EncodedColumn"] * 8 + ["RealColumn"] * 2
    assert held < 6 * MB, held / MB


def test_read_table_copies_each_block_once(tmp_path):
    # 20,000 rows in three blocks, each with narrow and wide columns.  The
    # block's one copy is its padded key view; the wide cells are gathered
    # from the block as read.  Peak 3.34 MB; 3.65 MB with a second copy of
    # each block, an LF written after every cell, to gather them from.
    path = write_mixed(tmp_path / "mixed.csv", 20_000)
    ingest.read_table(path)  # first-call allocations stay out of the figure
    (_, columns), peak, _ = traced(ingest.read_table, path)
    assert [type(column).__name__ for column in columns[8:]] == ["RealColumn"] * 2
    assert peak < 3.5 * MB, peak / MB


def test_coordinates_project_split_by_split(mixed_model):
    # 31,168 distinct records at d = 8: the column-major points are 1.9 MB.
    # Peak 3.0 MB; 8.1 MB with one transform of every record, its (k, Q)
    # gather table and a row-major copy of the points.
    store, model = mixed_model
    (points, _, _, _), peak, _ = traced(fcm._coordinates, store, model)
    assert points.data.flags.f_contiguous and points.data.shape[1] == model.dim
    assert peak < 5 * MB, peak / MB


def test_cluster_builds_its_memberships_once(mixed_model):
    # 10 fixed iterations at c = 3 on the 31,168 distinct points: the (k, c)
    # memberships, 0.71 MB, exist once, stacked after the last job.  Peak
    # 1.79 MB; 2.51 MB with a (k, c) placeholder allocated before the first
    # job and held, never read, to the end.
    coordinates = fcm._coordinates(*mixed_model)
    config = fcm.FcmConfig(c=3, seed=7, max_iters=10, fixed_iterations=True)
    result, peak, _ = traced(fcm._cluster, coordinates, config, JobSpec(1, 1))
    assert result.distinct_u.shape == (31_168, 3) and result.iters_run == 10
    assert peak < 2.2 * MB, peak / MB


def test_burt_map_holds_slices_of_the_indicator():
    # One split of 4,096 records at J = 500.  Peak 6.1 MB: the J x J sum and
    # one slice's product, indicator and weighted copy; 33.5 MB with the
    # split's whole (4,096, J) indicator and its weighted copy.
    rng = np.random.default_rng(3)
    block = rng.integers(0, 50, (4096, 10)).astype(np.int32)
    col_offsets = np.arange(11, dtype=np.int64) * 50
    weights = rng.integers(1, 5, 4096).astype(float)
    context = (col_offsets, weights, np.array([0, 4096]))
    emitted, peak, _ = traced(lambda: list(mca._burt_map(0, block, context)))
    assert peak < 10 * MB, peak / MB
    indicator = np.zeros((4096, 500))
    indicator[np.arange(4096)[:, None], block + col_offsets[:-1]] = 1.0
    assert emitted[0][1].tobytes() == ((indicator.T * weights) @ indicator).tobytes()


def test_distinct_rows_views_a_wide_integer_table_uncopied():
    # 200,000 x 10 int32 rows whose mixed-radix key would overflow int64, so
    # each row is compared as one byte string (7.6 MB of rows).  Peak
    # 21.6 MB; 29.2 MB with a copy of the table made to fold -0.0, which
    # only a float table can hold.
    rng = np.random.default_rng(5)
    table = np.empty((200_000, 10), dtype=np.int32)
    table[:, 0] = rng.permutation(200_000)
    table[:, 1:] = rng.integers(0, 50, (200_000, 9))
    (first, counts, inverse), peak, _ = traced(engine._distinct_rows, table)
    assert (first == np.arange(200_000)).all() and (inverse == first).all()
    assert (counts == 1).all()
    assert peak < 25 * MB, peak / MB
