import dataclasses
import math

import numpy as np
import pytest

from mrfcm import datasets, fcm, ingest, validity
from mrfcm.engine import JobSpec
from mrfcm.errors import NumericError
from mrfcm.fcm import FcmConfig, objective, run_fcm
from mrfcm.validity import pc, pe, sc, sweep, xb

import reference


def crisp(n, c, rng):
    u = np.zeros((n, c))
    u[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return u


class TestPartitionCoefficient:
    def test_crisp_is_one(self):
        u = crisp(30, 4, np.random.default_rng(0))
        assert pc(u) == 1.0

    def test_uniform_is_one_over_c(self):
        u = np.full((20, 5), 0.2)
        assert pc(u) == pytest.approx(0.2, abs=1e-15)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        u = reference.random_membership(rng, 20, 3)
        assert pc(u) == pytest.approx(reference.reference_pc(u), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            u = reference.random_membership(rng, 25, c)
            assert 1.0 / c - 1e-12 <= pc(u) <= 1.0 + 1e-12


class TestPartitionEntropy:
    def test_crisp_is_zero(self):
        u = crisp(30, 3, np.random.default_rng(3))
        assert pe(u) == 0.0

    def test_uniform_is_log_c(self):
        for c in (2, 3, 5):
            u = np.full((12, c), 1.0 / c)
            assert pe(u) == pytest.approx(math.log(c), abs=1e-12)

    def test_fixed_row_value(self):
        u = np.tile([0.8, 0.2], (7, 1))
        expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert pe(u) == pytest.approx(expected, abs=1e-12)

    def test_matches_double_loop_and_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            u = reference.random_membership(rng, 30, c)
            assert pe(u) == pytest.approx(reference.reference_pe(u), abs=1e-12)
            assert -1e-12 <= pe(u) <= math.log(c) + 1e-12


class TestXieBeni:
    def test_hand_computed_four_points(self):
        # two tight pairs 10 apart: scatter 4 * 0.25, separation 100, n=4
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        v = np.array([[0.0, 0.5], [10.0, 0.5]])
        assert xb(u, v, coords) == pytest.approx(1.0 / 400.0, abs=1e-15)

    def test_coincident_centroids_give_infinity(self):
        coords = np.array([[0.0], [1.0]])
        u = np.array([[0.5, 0.5], [0.5, 0.5]])
        v = np.array([[0.3], [0.3]])
        assert xb(u, v, coords) == math.inf

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(40, 3))
        v = rng.normal(size=(4, 3))
        u = reference.random_membership(rng, 40, 4)
        assert xb(u, v, coords) == pytest.approx(
            reference.reference_xb(u, v, coords), rel=1e-12)


class TestSeparationCompactness:
    def test_hand_computed_four_points(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        v = np.array([[0.0, 0.5], [10.0, 0.5]])
        assert sc(u, v, coords, m=2.0) == pytest.approx(400.0, abs=1e-12)

    def test_reciprocal_identity_with_xb_at_m2(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            coords = rng.normal(size=(30, 2))
            v = rng.normal(size=(3, 2))
            u = reference.random_membership(rng, 30, 3)
            assert sc(u, v, coords, m=2.0) * xb(u, v, coords) == pytest.approx(1.0, abs=1e-10)

    def test_zero_scatter_flags_degenerate(self):
        coords = np.array([[0.0, 0.0], [5.0, 5.0]])
        u = np.eye(2)
        assert sc(u, coords, coords, m=2.0) == math.inf

    def test_coincident_centroids_give_zero(self):
        coords = np.array([[0.0], [1.0]])
        u = np.array([[0.5, 0.5], [0.5, 0.5]])
        v = np.array([[0.4], [0.4]])
        assert sc(u, v, coords, m=2.0) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(25, 2))
        v = rng.normal(size=(3, 2))
        u = reference.random_membership(rng, 25, 3)
        base = sc(u, v, coords, m=2.0)
        assert sc(u, 2.0 * v, 2.0 * coords, m=2.0) == pytest.approx(base, rel=1e-10)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(30, 3))
        v = rng.normal(size=(4, 3))
        u = reference.random_membership(rng, 30, 4)
        for m in (1.5, 2.0, 2.5):
            assert sc(u, v, coords, m) == pytest.approx(
                reference.reference_sc(u, v, coords, m), rel=1e-12)


class TestRigidMotionInvariance:
    def test_rotation_translation_leave_xb_and_sc_unchanged(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(30, 2))
        v = rng.normal(size=(3, 2))
        u = reference.random_membership(rng, 30, 3)
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        shift = np.array([3.0, -1.5])
        coords2 = coords @ rot.T + shift
        v2 = v @ rot.T + shift
        assert xb(u, v2, coords2) == pytest.approx(xb(u, v, coords), rel=1e-10)
        assert sc(u, v2, coords2, 2.0) == pytest.approx(sc(u, v, coords, 2.0), rel=1e-10)


class TestWeights:
    def _problem(self):
        rng = np.random.default_rng(6)
        u = reference.random_membership(rng, 40, 3)
        return u, rng.normal(size=(40, 2)), rng.normal(size=(3, 2)), rng.integers(1, 6, size=40)

    def test_weights_count_rows_as_repeats(self):
        u, coords, centroids, counts = self._problem()
        rows = np.repeat(np.arange(len(u)), counts)
        w = counts.astype(float)
        pairs = [(pc(u, w), pc(u[rows])), (pe(u, w), pe(u[rows])),
                 (xb(u, centroids, coords, w), xb(u[rows], centroids, coords[rows])),
                 (sc(u, centroids, coords, 1.7, w), sc(u[rows], centroids, coords[rows], 1.7)),
                 (objective(u, centroids, coords, 1.7, w),
                  objective(u[rows], centroids, coords[rows], 1.7))]
        for weighted, expanded in pairs:
            assert weighted == pytest.approx(expanded, rel=1e-12)

    def test_unit_weights_change_no_bit(self):
        u, coords, centroids, _ = self._problem()
        ones = np.ones(len(u))
        assert pc(u, ones) == pc(u) and pe(u, ones) == pe(u)
        assert xb(u, centroids, coords, ones) == xb(u, centroids, coords)
        assert sc(u, centroids, coords, 1.7, ones) == sc(u, centroids, coords, 1.7)
        assert objective(u, centroids, coords, 1.7, ones) == objective(u, centroids, coords, 1.7)

    def test_sweep_scores_equal_scoring_every_row(self):
        # Three blobs of 20 distinct points, each repeated 1-6 times.
        rng = np.random.default_rng(8)
        distinct = datasets.gaussian_blob_coords(60, [[0, 0], [6, 0], [3, 5]], 0.8, seed=2)
        coords = distinct[np.repeat(np.arange(60), rng.integers(1, 7, size=60))]
        store = ingest.partition(rng.permutation(coords), 4)
        config = FcmConfig(c=2, seed=5)
        report = sweep(store, None, 2, 4, config, JobSpec(4, 2, "s"))
        for row in report.rows:
            result = run_fcm(store, None, FcmConfig(c=row.c, seed=5 + row.c), JobSpec(4, 2, "f"))
            u, v, data = result.u, result.v, store.data
            assert row.iters == result.iters_run and row.jm == result.objective_trace[-1]
            expected = [pc(u), pe(u), xb(u, v, data), sc(u, v, data, config.m)]
            assert [row.pc, row.pe, row.xb, row.sc] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [2.0, 1.7])
    def test_sweep_scores_bitwise_equal_the_public_indices(self, m):
        # The sweep computes the separation once per candidate, and at m = 2
        # one scatter for both xb and sc; the public functions each their own.
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(300, 2))[rng.integers(0, 300, size=600)]
        store = ingest.partition(coords, 4)
        config = FcmConfig(c=2, m=m, seed=3)
        report = sweep(store, None, 2, 4, config, JobSpec(4, 2, "s"))
        coordinates = fcm._coordinates(store, None)
        points, weights, _, _ = coordinates
        for row in report.rows:
            run_cfg = FcmConfig(c=row.c, m=m, seed=3 + row.c)
            result = fcm._cluster(coordinates, run_cfg, JobSpec(4, 2, "f"))
            u, v, data = result.distinct_u, result.v, points.data
            assert (row.xb, row.sc) == (xb(u, v, data, weights), sc(u, v, data, m, weights))


class TestSweep:
    def _blob_store(self, n=300, seed=0):
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
        rng = np.random.default_rng(seed)
        assign = np.arange(n) % 3
        sep = 10.0
        coords = centers[assign] + rng.normal(0, 0.05 * sep, size=(n, 2))
        return ingest.partition(coords, 4)

    def test_three_blobs_consensus_three(self):
        store = self._blob_store()
        report = sweep(store, None, 2, 6, FcmConfig(c=2, seed=7), JobSpec(4, 2, "sweep"))
        assert report.consensus_c == 3
        votes = list(report.best_per_index.values())
        assert votes.count(3) >= 3

    def test_single_candidate_is_trivial_consensus(self):
        store = self._blob_store(n=100)
        report = sweep(store, None, 2, 2, FcmConfig(c=2, seed=1), JobSpec(4, 2, "sweep"))
        assert report.consensus_c == 2
        assert len(report.rows) == 1

    def test_report_rows_cover_range_and_directions(self):
        store = self._blob_store(n=150)
        report = sweep(store, None, 2, 5, FcmConfig(c=2, seed=3), JobSpec(4, 2, "sweep"))
        assert [r.c for r in report.rows] == [2, 3, 4, 5]
        for row in report.rows:
            assert 1.0 / row.c - 1e-9 <= row.pc <= 1.0 + 1e-9
            assert -1e-9 <= row.pe <= math.log(row.c) + 1e-9
            assert row.xb > 0
            assert row.sc > 0

    def test_failed_candidate_excluded_from_vote(self):
        # 4 distinct points: c=5 cannot be seeded and must be marked failed,
        # while c=4 wins outright (each point crisply its own cluster)
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 0.0], [9.0, 1.0]] * 5)
        store = ingest.partition(coords, 2)
        report = sweep(store, None, 2, 5, FcmConfig(c=2, seed=2),
                       JobSpec(2, 1, "sweep"))
        by_c = {r.c: r for r in report.rows}
        assert by_c[5].failed
        assert report.consensus_c == 4
        assert by_c[4].pc == pytest.approx(1.0, abs=1e-9)
        # the c=2 run collapses its centroids; sentinels must fire, not raise
        assert by_c[2].xb == math.inf and by_c[2].sc == 0.0

    def test_seed_policy_is_seed_plus_c(self):
        store = self._blob_store(n=120, seed=4)
        a = sweep(store, None, 2, 4, FcmConfig(c=2, seed=10), JobSpec(4, 2, "s"))
        b = sweep(store, None, 2, 4, FcmConfig(c=2, seed=10), JobSpec(4, 2, "s"))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.jm == rb.jm  # bitwise reproducible

    def test_fixed_iterations_reach_every_candidate(self):
        coords = datasets.gaussian_blob_coords(600, [[0, 0], [6, 0], [3, 5]], 0.5, seed=1)
        config = FcmConfig(c=2, max_iters=50, fixed_iterations=True, seed=3)
        report = sweep(ingest.partition(coords, 4), None, 2, 4, config, JobSpec(4, 2, "s"))
        assert [row.iters for row in report.rows] == [50, 50, 50]

    def test_sweep_bounds_validated(self):
        store = self._blob_store(n=40)
        with pytest.raises(NumericError):
            sweep(store, None, 1, 4, FcmConfig(c=2, seed=0), JobSpec(2, 1, "s"))
        with pytest.raises(NumericError):
            sweep(store, None, 2, 30, FcmConfig(c=2, seed=0), JobSpec(2, 1, "s"))


class TestDistinctStore:
    """sweep scores a store's distinct records, weighted by their counts:
    a row store at any partition count gives a one-partition row store's
    report, bit for bit, and c_max is bounded by the rows, not the records."""

    @staticmethod
    def rows():
        # 6 distinct points, each 3 to 12 times: candidates above c = 6 fail.
        rng = np.random.default_rng(31)
        distinct = rng.normal(size=(6, 2)) * 4.0
        return rng.permutation(np.repeat(distinct, [3, 12, 5, 7, 9, 4], axis=0))

    @pytest.mark.parametrize("m", [2.0, 1.5])
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_same_rows_as_the_row_store(self, p, m):
        rows = self.rows()
        config = FcmConfig(c=2, m=m, seed=3)
        expected = sweep(ingest.partition(rows, 1), None, 2, 8, config, JobSpec(1, 1, "s"))
        store = ingest.partition(rows, p)
        report = sweep(store, None, 2, 8, config, JobSpec(p, 1, "s"))
        assert store.distinct[0].num_partitions == min(p, 6)
        assert [r.failed for r in report.rows] == [False] * 5 + [True] * 2
        as_bytes = [np.array(dataclasses.astuple(r), dtype=float).tobytes()
                    for r in report.rows]
        assert as_bytes == [np.array(dataclasses.astuple(r), dtype=float).tobytes()
                            for r in expected.rows]
        assert (report.best_per_index, report.consensus_c) == \
            (expected.best_per_index, expected.consensus_c)

    def test_c_max_is_bounded_by_the_row_count(self):
        rows = self.rows()
        store = ingest.partition(rows, 2)
        half = len(rows) // 2
        report = sweep(store, None, 2, half, FcmConfig(c=2, seed=3), JobSpec(2, 1, "s"))
        assert report.rows[-1].c == half > store.distinct[0].n and report.rows[-1].failed
        with pytest.raises(NumericError) as caught:
            sweep(store, None, 2, half + 1, FcmConfig(c=2, seed=3), JobSpec(2, 1, "s"))
        assert str(caught.value) == f"c_max {half + 1} exceeds n/2 = {half}"


class TestReportFiles:
    def test_validity_csv_and_plot_data(self, tmp_path):
        centers = np.array([[0.0, 0.0], [8.0, 0.0]])
        rng = np.random.default_rng(5)
        coords = centers[np.arange(80) % 2] + rng.normal(0, 0.3, size=(80, 2))
        store = ingest.partition(coords, 2)
        report = sweep(store, None, 2, 4, FcmConfig(c=2, seed=5), JobSpec(2, 1, "s"))
        csv_path = tmp_path / "validity.csv"
        dat_path = tmp_path / "validity_plot.dat"
        validity.write_validity_csv(report, csv_path)
        validity.write_plot_data(report, dat_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "c,pc,pe,xb,sc,iters,jm"
        assert lines[-1] == f"# consensus_c={report.consensus_c}"
        assert len(lines) == 2 + len(report.rows)
        dat = dat_path.read_text().strip().split("\n")
        values = np.array([[float(x) for x in line.split()[1:]] for line in dat[1:]])
        assert values.min() >= 0.0 and values.max() <= 1.0
