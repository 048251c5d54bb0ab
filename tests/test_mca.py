import time

import numpy as np
import pytest

from mrfcm import datasets, engine, fcm, ingest, mca
from mrfcm.engine import JobSpec
from mrfcm.errors import NumericError

import reference


def random_codes(rng, n, cards):
    return np.column_stack([rng.integers(0, k, size=n) for k in cards]).astype(np.int32)


def fit_from_codes(codes, cards, p=1, mca_dims=8):
    store = ingest.partition(codes, p)
    margins, burt, _ = mca.accumulate_burt(store, cards)
    return mca.fit_mca(margins, burt, mca_dims=mca_dims), store


class TestAccumulateBurt:
    def test_single_record_pattern(self):
        codes = np.array([[0, 1]], dtype=np.int32)
        store = ingest.partition(codes, 1)
        margins, burt, _ = mca.accumulate_burt(store, [2, 2])
        expected = np.zeros((4, 4))
        for a in (0, 3):  # global ids: col0 cat0 -> 0, col1 cat1 -> 3
            for b in (0, 3):
                expected[a, b] = 1
        assert np.array_equal(burt, expected)
        assert margins.counts.tolist() == [1, 0, 0, 1]

    def test_partition_invariance_exact(self):
        rng = np.random.default_rng(5)
        codes = random_codes(rng, 200, [3, 4, 2])
        reference_burt = None
        for p in (1, 8):
            store = ingest.partition(codes, p)
            _, burt, _ = mca.accumulate_burt(store, [3, 4, 2])
            if reference_burt is None:
                reference_burt = burt
            else:
                assert np.array_equal(burt, reference_burt)

    def test_matches_dense_indicator_product(self):
        rng = np.random.default_rng(11)
        codes = random_codes(rng, 60, [2, 3, 3])
        store = ingest.partition(codes, 4)
        _, burt, _ = mca.accumulate_burt(store, [2, 3, 3])
        assert np.array_equal(burt, reference.burt_of(codes, [2, 3, 3]))

    def test_perfectly_associated_binary_columns(self):
        codes = np.tile([[0, 0], [1, 1]], (50, 1)).astype(np.int32)
        store = ingest.partition(codes, 2)
        _, burt, _ = mca.accumulate_burt(store, [2, 2])
        cross = burt[:2, 2:]
        assert cross.tolist() == [[50, 0], [0, 50]]
        assert burt.T.tolist() == burt.tolist()


def encoded_table(kind, n=600):
    """A dataset whose rows repeat records: planted categorical clusters,
    beside two binned Gaussian-blob columns for "mixed"."""
    rows = datasets.clustered_categorical_rows(n, 4, seed=6)
    if kind == "mixed":
        reals = datasets.gaussian_blob_rows(n, [[0, 0], [4, 1], [1, 5]], 1.0, seed=7)
        rows = [a[:3] + b for a, b in zip(rows, reals)]
    names = [f"c{j}" for j in range(len(rows[0]))]
    return ingest.discretize(rows, ingest.infer_schema(names, rows))


class TestWeightedBurt:
    """The Burt job runs over a store's distinct records, weighted by their
    counts: it gives the rows' indicator product bit for bit at any
    partition count, and maps the records' fixed splits, as fcm does."""

    @staticmethod
    def sizes(dataset, p):
        """(k, P) of the dataset, "k+3" and "n+3" read as k + 3 and n + 3:
        P = 1, 4 and 16 are at most k, k + 3 lies between k and n."""
        k = len(engine._distinct_rows(dataset.codes)[0])
        assert 16 < k < k + 3 < dataset.n
        return k, {"k+3": k + 3, "n+3": dataset.n + 3}.get(p, p)

    @pytest.mark.filterwarnings("ignore:partition count")  # P = n + 3 clamps the row store
    @pytest.mark.parametrize("p", [1, 4, 16, "k+3", "n+3"])
    @pytest.mark.parametrize("kind", ["mixed", "categorical"])
    def test_weighted_records_give_the_rows_burt(self, kind, p):
        dataset = encoded_table(kind)
        _, p = self.sizes(dataset, p)
        margins, burt, _ = mca.accumulate_burt(ingest.partition(dataset, p),
                                               dataset.cardinalities)
        rows_burt = reference.burt_of(dataset.codes, dataset.cardinalities)
        assert burt.tobytes() == rows_burt.tobytes()
        assert margins.counts.tobytes() == np.diag(rows_burt).tobytes()
        assert margins.n == dataset.n

    @pytest.mark.parametrize("slice_rows", [1, 7, mca.BURT_SLICE_ROWS])
    @pytest.mark.parametrize("kind", ["mixed", "categorical"])
    def test_indicator_slices_give_the_rows_burt(self, kind, slice_rows, monkeypatch):
        # Each map adds its slices' products in order; at 1 and 7 records
        # per slice, every split is many slices, the last one short.
        monkeypatch.setattr(mca, "BURT_SLICE_ROWS", slice_rows)
        dataset = encoded_table(kind)
        _, burt, _ = mca.accumulate_burt(ingest.partition(dataset, 1), dataset.cardinalities)
        assert burt.tobytes() == reference.burt_of(dataset.codes, dataset.cardinalities).tobytes()

    @pytest.mark.filterwarnings("ignore:partition count")
    @pytest.mark.parametrize("p", [1, 4, 16, "k+3", "n+3"])
    def test_job_maps_one_block_per_record_partition(self, p, monkeypatch):
        # ceil(k / SPLIT_ROWS) splits whatever P is: one at the default
        # split size, several at 16.  The Burt job and every fcm iteration
        # map one block per split.
        dataset = encoded_table("categorical")
        k, p = self.sizes(dataset, p)
        for split_rows in (engine.SPLIT_ROWS, 16):
            monkeypatch.setattr(engine, "SPLIT_ROWS", split_rows)
            store = ingest.partition(dataset, p)
            margins, burt, metrics = mca.accumulate_burt(store, dataset.cardinalities,
                                                         JobSpec(p, 1, "burt"))
            records = store.distinct[0]
            splits = ingest.partition(records.data, -(-k // split_rows))
            assert records.offsets.tolist() == splits.offsets.tolist()
            assert metrics.records_in == splits.num_partitions
            sink = []
            fcm.run_fcm(store, mca.fit_mca(margins, burt), fcm.FcmConfig(c=3, max_iters=3),
                        JobSpec(p, 1, "fcm"), metrics_sink=sink)
            assert [job.records_in for job in sink] == [splits.num_partitions] * 3

    @pytest.mark.parametrize("p", [1, 16])
    def test_default_spec_has_one_mapper_per_record_split(self, p, monkeypatch):
        # Left out, the spec takes its mapper count from the records'
        # ceil(k / SPLIT_ROWS) splits, not from the row store's P.
        dataset = encoded_table("categorical")
        k, p = self.sizes(dataset, p)
        for split_rows in (engine.SPLIT_ROWS, 16):
            monkeypatch.setattr(engine, "SPLIT_ROWS", split_rows)
            store = ingest.partition(dataset, p)
            _, _, metrics = mca.accumulate_burt(store, dataset.cardinalities)
            assert metrics.num_mappers == store.distinct[0].num_partitions == -(-k // split_rows)


class TestFitMca:
    def test_independent_balanced_binaries_fall_back_to_one_axis(self):
        # full 2x2 design: no association, every inertia at the 1/Q floor
        codes = np.tile([[0, 0], [0, 1], [1, 0], [1, 1]], (25, 1)).astype(np.int32)
        model, _ = fit_from_codes(codes, [2, 2])
        lam_oracle = np.linalg.eigvalsh(_standardized(codes, [2, 2]))
        assert np.allclose(np.sort(lam_oracle)[::-1][:2], [0.5, 0.5], atol=1e-12)
        assert model.dim == 1  # nothing above the floor, top axis kept

    def test_identical_binary_columns_saturate(self):
        codes = np.tile([[0, 0], [1, 1]], (30, 1)).astype(np.int32)
        model, _ = fit_from_codes(codes, [2, 2])
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        cards = [3, 5, 2, 4]
        codes = random_codes(rng, 120, cards)
        store = ingest.partition(codes, 3)
        margins, burt, _ = mca.accumulate_burt(store, cards)
        sym = _standardized_from(margins, burt)
        lam = np.linalg.eigvalsh(sym)
        total = sum(cards) / len(cards) - 1.0
        assert lam.sum() == pytest.approx(total, abs=1e-10)
        model = mca.fit_mca(margins, burt)
        assert model.total_inertia == pytest.approx(total, abs=1e-12)

    def test_eigenvalue_range_enforced(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            cards = [int(rng.integers(2, 5)) for _ in range(4)]
            codes = random_codes(rng, 80, cards)
            model, _ = fit_from_codes(codes, cards)
            assert np.all(model.eigenvalues >= 0.0)
            assert np.all(model.eigenvalues <= 1.0)

    def test_zero_mass_category_rejected(self):
        codes = np.zeros((10, 2), dtype=np.int32)  # category 1 never observed
        store = ingest.partition(codes, 1)
        with pytest.raises(NumericError, match="zero-mass"):
            margins, burt, _ = mca.accumulate_burt(store, [2, 2])
            mca.fit_mca(margins, burt)

    def test_loadings_orthonormal_under_mass_metric(self):
        rng = np.random.default_rng(4)
        cards = [3, 4, 3]
        codes = random_codes(rng, 150, cards)
        store = ingest.partition(codes, 2)
        margins, burt, _ = mca.accumulate_burt(store, cards)
        model = mca.fit_mca(margins, burt)
        masses = margins.counts / (margins.n * margins.num_columns)
        axes = model.loadings / np.sqrt(masses)[:, None]
        gram = axes.T @ np.diag(masses) @ axes
        assert np.allclose(gram, np.eye(model.dim), atol=1e-8)


class TestProject:
    def test_identical_records_identical_points(self):
        rng = np.random.default_rng(6)
        cards = [3, 3, 2]
        codes = random_codes(rng, 40, cards)
        codes[7] = codes[3]
        model, _ = fit_from_codes(codes, cards)
        a = model.transform(codes[3])[0]
        b = model.transform(codes[7])[0]
        assert np.array_equal(a, b)

    def test_projection_centered_and_variance_matches_eigenvalues(self):
        rng = np.random.default_rng(7)
        cards = [4, 2, 3, 3]
        codes = random_codes(rng, 180, cards)
        model, store = fit_from_codes(codes, cards, p=4)
        coords = model.transform(store.data)
        assert np.abs(coords.mean(axis=0)).max() < 1e-8
        var = (coords ** 2).mean(axis=0)
        assert np.allclose(var, model.eigenvalues, atol=1e-8)

    def test_matches_dense_ca_oracle_rowwise(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            num_cols = int(rng.integers(2, 6))
            cards = [int(rng.integers(2, 5)) for _ in range(num_cols)]
            n = int(rng.integers(30, 200))
            codes = random_codes(rng, n, cards)
            if any(len(np.unique(codes[:, q])) < cards[q] for q in range(num_cols)):
                codes = codes % 2  # ensure every category observed
                cards = [2] * num_cols
            model, store = fit_from_codes(codes, cards)
            projected = model.transform(store.data)
            oracle_coords, oracle_lam = reference.dense_ca_row_coords(
                reference.indicator_of(codes, cards), num_cols)
            for s in range(model.dim):
                assert oracle_lam[s] == pytest.approx(model.eigenvalues[s], abs=1e-10)
                axis = oracle_coords[:, s]
                if np.dot(axis, projected[:, s]) < 0:
                    axis = -axis  # SVD sign freedom
                assert np.allclose(projected[:, s], axis, atol=1e-8)

    def test_four_record_perfect_association_geometry(self):
        codes = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=np.int32)
        model, store = fit_from_codes(codes, [2, 2])
        pts = model.transform(store.data)
        assert np.allclose(pts[0], pts[1]) and np.allclose(pts[2], pts[3])
        assert np.allclose(pts[0], -pts[2], atol=1e-12)
        oracle_coords, _ = reference.dense_ca_row_coords(
            reference.indicator_of(codes, [2, 2]), 2)
        axis = oracle_coords[:, 0]
        if np.dot(axis, pts[:, 0]) < 0:
            axis = -axis
        assert np.allclose(pts[:, 0], axis, atol=1e-10)

    def test_out_of_range_record_rejected(self):
        codes = np.tile([[0, 0], [1, 1], [0, 1], [1, 0]], (5, 1)).astype(np.int32)
        model, _ = fit_from_codes(codes, [2, 2])
        with pytest.raises(NumericError, match="out of range"):
            model.transform(np.array([2, 0]))[0]

    def test_projection_invariant_to_partitioning(self):
        rng = np.random.default_rng(10)
        cards = [3, 4]
        codes = random_codes(rng, 101, cards)
        model, _ = fit_from_codes(codes, cards)
        whole = model.transform(codes)
        for p in (1, 7, 16):
            store = ingest.partition(codes, p)
            blocks = [model.transform(store.block(i)) for i in range(p)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes()


class TestBlasThreads:
    @pytest.fixture
    def wide(self):
        """Margins and Burt matrix of a table with J = 40 categories: a
        threaded eigh at J >= 30 wakes an OpenBLAS worker."""
        rows = datasets.clustered_categorical_rows(3000, 8, num_clusters=3, cardinality=5,
                                                   seed=1)
        dataset = ingest.discretize(rows, ingest.infer_schema([f"q{i}" for i in range(8)], rows))
        margins, burt, _ = mca.accumulate_burt(ingest.partition(dataset.codes, 1),
                                               dataset.cardinalities)
        assert len(margins.counts) >= 30
        return margins, burt

    def test_fit_leaves_no_blas_worker_spinning(self, wide):
        if engine._blas_thread_calls() is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count setter")
        time.sleep(0.3)  # a worker woken by an earlier test goes idle
        process, thread = time.process_time(), time.thread_time()
        mca.fit_mca(*wide)
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        other_threads = (time.process_time() - process) - (time.thread_time() - thread)
        assert other_threads < 0.02

    def test_no_setter_gives_bitwise_equal_fit(self, wide, monkeypatch):
        expected = mca.fit_mca(*wide)
        monkeypatch.setattr(engine, "_blas_thread_calls", lambda: None)
        model = mca.fit_mca(*wide)
        assert model.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
        assert model.loadings.tobytes() == expected.loadings.tobytes()


def _standardized(codes, cards):
    store = ingest.partition(codes, 1)
    margins, burt, _ = mca.accumulate_burt(store, cards)
    return _standardized_from(margins, burt)


def _standardized_from(margins, burt):
    masses = margins.counts / (margins.n * margins.num_columns)
    residual = burt / (margins.n * margins.num_columns ** 2) - np.outer(masses, masses)
    return residual / np.sqrt(np.outer(masses, masses))
