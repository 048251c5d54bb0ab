import warnings

import numpy as np
import pytest

from mrfcm import engine, fcm, ingest, mca, validity
from mrfcm.engine import JobSpec
from mrfcm.errors import NumericError
from mrfcm.fcm import (FcmConfig, fcm_iteration, init_centroids, membership_row, objective,
                       run_fcm)

import reference


def spec_for(p):
    return JobSpec(p, max(1, p // 2), "fcm-test")


class TestInitCentroids:
    def test_two_points_forced(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        picks = init_centroids(coords, 2, seed=0)
        assert sorted(picks.tolist()) == [[0.0, 0.0], [1.0, 1.0]]

    def test_same_seed_same_centroids(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(50, 3))
        a = init_centroids(coords, 4, seed=11)
        b = init_centroids(coords, 4, seed=11)
        assert np.array_equal(a, b)

    def test_insufficient_distinct_points(self):
        coords = np.tile([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], (10, 1))
        with pytest.raises(NumericError, match="distinct"):
            init_centroids(coords, 5, seed=0)

    def test_matches_reference_contract(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(40, 2)).round(1)  # rounding forces duplicates
        for seed in range(5):
            ours = init_centroids(coords, 3, seed=seed)
            theirs = reference.reference_init(coords, 3, seed=seed)
            assert np.array_equal(ours, theirs)


class TestMembershipRow:
    def test_equidistant_gives_half_half(self):
        row = membership_row([0.0, 0.0], [[-1.0, 0.0], [1.0, 0.0]], m=2.0)
        assert np.allclose(row, [0.5, 0.5])

    def test_distance_ratio_closed_form(self):
        # distances 1 and 2 at m=2: u1 = 1/(1 + (1/2)^2) = 0.8
        row = membership_row([1.0, 0.0], [[0.0, 0.0], [3.0, 0.0]], m=2.0)
        assert row[0] == pytest.approx(0.8, abs=1e-12)
        assert row[1] == pytest.approx(0.2, abs=1e-12)

    def test_coincident_centroid_takes_all_mass(self):
        row = membership_row([2.0, 2.0], [[2.0, 2.0], [5.0, 5.0], [9.0, 0.0]], m=2.0)
        assert row.tolist() == [1.0, 0.0, 0.0]

    def test_mass_split_among_coincident_centroids(self):
        row = membership_row([2.0, 2.0], [[2.0, 2.0], [2.0, 2.0], [9.0, 0.0]], m=2.0)
        assert row.tolist() == [0.5, 0.5, 0.0]

    def test_row_stochastic_on_random_input(self):
        rng = np.random.default_rng(0)
        centroids = rng.normal(size=(5, 3))
        for _ in range(20):
            row = membership_row(rng.normal(size=3), centroids, m=1.7)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0) and np.all(row <= 1)

    def test_no_nan_near_m_one(self):
        # The raw power over- or underflows at these scales; the row must not.
        for m in (1.01, 1.05):
            for scale in (1e-11, 1e3):
                row = membership_row([scale, 0.0], [[0.0, 0.0], [3 * scale, 0.0]], m)
                assert np.all(np.isfinite(row))
                assert abs(row.sum() - 1.0) <= 1e-12
                # distances 1 : 2 in units of scale
                assert row[1] == pytest.approx(0.5 ** (2 / (m - 1)) / (1 + 0.5 ** (2 / (m - 1))))
        row = membership_row([1e3, 0.0], [[0.0, 0.0], [1.0, 0.0]], m=1.01)
        assert np.all(np.isfinite(row)) and abs(row.sum() - 1.0) <= 1e-12
        assert row[0] == pytest.approx(1 / (1 + (1000 / 999) ** 200), rel=1e-9)
        # Centroids 40 and 41 away: both raw ratios are subnormal (a few bits).
        row = membership_row([0.0, 0.0], [[40.0, 0.0], [41.0, 0.0]], m=1.01)
        assert abs(row.sum() - 1.0) <= 1e-12
        assert row[1] == pytest.approx(1 / (1 + (41 / 40) ** 200), rel=1e-9)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(12)
        centroids = rng.normal(size=(4, 2))
        for m in (1.5, 2.0, 3.0):
            for _ in range(10):
                x = rng.normal(size=2)
                ours = membership_row(x, centroids, m)
                theirs = reference.reference_membership(x, centroids, m)
                assert np.allclose(ours, theirs, atol=1e-12)


def iterate(coords, centroids, p, m=2.0, weights=None):
    """One fused iteration over coords split into p partitions."""
    store = ingest.partition(np.asarray(coords, dtype=float), p)
    return fcm_iteration(store, np.asarray(centroids, dtype=float), spec_for(p), m=m,
                         weights=weights)


class TestJob1:
    """The membership half of fcm_iteration."""

    def test_partition_invariance_exact(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(57, 3))
        centroids = rng.normal(size=(3, 3))
        baseline = None
        for p in (1, 8):
            u, _, _, _ = iterate(coords, centroids, p)
            if baseline is None:
                baseline = u
            else:
                assert np.array_equal(u, baseline)

    def test_single_row(self):
        u, _, _, _ = iterate([[1.0, 1.0]], [[0.0, 0.0], [2.0, 2.0]], 1)
        assert u.shape == (1, 2)
        assert np.allclose(u.sum(axis=1), 1.0)

    def test_square_corners_against_bruteforce(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        centroids = coords[[0, 3]]
        u, _, _, _ = iterate(coords, centroids, 2)
        expected = np.array([reference.reference_membership(x, centroids, 2.0)
                             for x in coords])
        assert np.allclose(u, expected, atol=1e-12)


class TestJob2:
    """The centroid half of fcm_iteration."""

    def test_crisp_membership_reduces_to_means(self):
        # At m = 1.01 the far centroid's membership is below 1e-180.
        coords = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
        u, v, _, _ = iterate(coords, [[1.0, 0.5], [9.0, 1.5]], 2, m=1.01)
        assert np.array_equal(u.round(12), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert np.allclose(v, [[0.0, 1.0], [10.0, 1.0]], atol=1e-12)

    def test_uniform_membership_gives_global_mean(self):
        # Coincident centroids leave every point equidistant from all three.
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(30, 2))
        u, v, _, _ = iterate(coords, np.zeros((3, 2)), 3)
        assert np.allclose(u, 1.0 / 3.0, atol=1e-15)
        mean = coords.mean(axis=0)
        for i in range(3):
            assert np.allclose(v[i], mean, atol=1e-12)

    def test_random_membership_matches_direct_sums(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(50, 4))
        centroids = rng.normal(size=(3, 4))
        u, v, _, _ = iterate(coords, centroids, 4)
        expected_u = np.array([reference.reference_membership(x, centroids, 2.0) for x in coords])
        assert np.allclose(u, expected_u, atol=1e-12)
        um = u ** 2.0
        expected = (um.T @ coords) / um.sum(axis=0)[:, None]
        assert np.allclose(v, expected, atol=1e-12)

    def test_objective_byproduct_matches_direct(self):
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(25, 2))
        centroids = rng.normal(size=(3, 2))
        u, _, obj, _ = iterate(coords, centroids, 2)
        assert obj == pytest.approx(reference.reference_objective(u, centroids, coords, 2.0),
                                    rel=1e-12)

    def test_starved_cluster_reseeded_to_least_claimed_point(self):
        # Cluster 1 sits so far out that its weight sum(u^2) is below 1e-20;
        # row 2 is the point cluster 0 claims least.
        coords = np.array([[0.0], [1.0], [5.0]])
        u, v, _, _ = iterate(coords, [[0.5], [1e6]], 1)
        assert u[:, 1].max() < 1e-10 and u[2, 0] == u[:, 0].min()
        assert v[1, 0] == pytest.approx(5.0)

    def test_starved_clusters_reseeded_at_distinct_points(self):
        # Clusters 1 and 2 both starve; the two least-claimed rows hold the
        # same point, so the second re-seed moves on to the next point.
        coords = np.array([[0.0], [0.0], [5.0], [6.0]])
        u, v, _, _ = iterate(coords, [[5.5], [1e6], [-1e6]], 1)
        assert list(np.argsort(u.max(axis=1), kind="stable")[:3]) == [0, 1, 2]
        assert v[1:, 0].tolist() == [0.0, 5.0]

    def test_weighted_point_reseeded_like_its_copies(self):
        # The same rescue with the repeated point held once, at weight 2.
        u, v, _, _ = iterate([[0.0], [5.0], [6.0]], [[5.5], [1e6], [-1e6]], 1,
                             weights=[2.0, 1.0, 1.0])
        assert v[1:, 0].tolist() == [0.0, 5.0]


def duplicate_heavy(rng, points=60):
    """Distinct points, each repeated 1-20 times, rows shuffled:
    (rows, distinct points, multiplicities)."""
    distinct = rng.normal(size=(points, 3))
    counts = rng.integers(1, 21, size=points)
    return rng.permutation(np.repeat(distinct, counts, axis=0)), distinct, counts


class TestWeightedIteration:
    def test_weighted_points_equal_expanded_rows(self):
        rng = np.random.default_rng(18)
        rows, distinct, counts = duplicate_heavy(rng)
        centroids = rng.normal(size=(4, 3))
        for p in (1, 4):
            u_w, v_w, obj_w, _ = iterate(distinct, centroids, p, weights=counts)
            u_x, v_x, obj_x, _ = iterate(np.repeat(distinct, counts, axis=0), centroids, p)
            assert np.array_equal(np.repeat(u_w, counts, axis=0), u_x)
            assert np.allclose(v_w, v_x, rtol=0, atol=1e-12)
            assert obj_w == pytest.approx(obj_x, rel=1e-12)

    def test_no_weights_bitwise_equal_to_ones(self):
        rng = np.random.default_rng(19)
        coords = rng.normal(size=(300, 2))
        centroids = rng.normal(size=(3, 2))
        u0, v0, obj0, _ = iterate(coords, centroids, 4)
        u1, v1, obj1, _ = iterate(coords, centroids, 4, weights=np.ones(300))
        assert u0.tobytes() == u1.tobytes() and v0.tobytes() == v1.tobytes()
        assert obj0 == obj1


class TestIterationDeterminism:
    def test_bitwise_equal_across_mappers_inline_and_pooled(self, monkeypatch):
        rng = np.random.default_rng(14)
        store = ingest.partition(rng.normal(size=(3000, 3)), 16)
        centroids = rng.normal(size=(4, 3))

        weights = rng.integers(1, 21, size=3000).astype(float)

        def outputs(mappers, weights):
            u, v, obj, _ = fcm_iteration(store, centroids, spec_for(mappers), m=2.0,
                                         weights=weights)
            return u.tobytes(), v.tobytes(), obj

        for w in (None, weights):
            baseline = outputs(1, w)
            for mappers in (1, 4, 16):
                assert outputs(mappers, w) == baseline
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "INLINE_ROWS_PER_TASK", 0)
                    assert outputs(mappers, w) == baseline


class TestObjective:
    def test_crisp_partition_equals_within_cluster_scatter(self):
        coords = np.array([[0.0, 0.0], [0.0, 2.0], [8.0, 0.0], [8.0, 2.0]])
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        v = np.array([[0.0, 1.0], [8.0, 1.0]])
        assert objective(u, v, coords, m=2.0) == pytest.approx(4.0, abs=1e-12)

    def test_every_point_its_own_centroid_is_zero(self):
        coords = np.array([[1.0, 1.0], [2.0, 2.0]])
        u = np.eye(2)
        assert objective(u, coords, coords, m=2.0) == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(20, 3))
        v = rng.normal(size=(4, 3))
        u = reference.random_membership(rng, 20, 4)
        for m in (1.5, 2.0, 2.5):
            assert objective(u, v, coords, m) == pytest.approx(
                reference.reference_objective(u, v, coords, m), rel=1e-12)


class TestRunFcm:
    def test_two_separated_pairs_converge_to_pair_means(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]])
        store = ingest.partition(coords, 2)
        config = FcmConfig(c=2, m=2.0, epsilon=1e-9, max_iters=50, seed=1)
        result = run_fcm(store, None, config, spec_for(2))
        assert result.converged and result.iters_run <= 20
        means = {(0.0, 0.5), (100.0, 0.5)}
        got = {tuple(np.round(row, 5)) for row in result.v}
        for center in means:
            assert any(np.allclose(center, row, atol=1e-6) for row in result.v), got

    def test_single_iteration_contract(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(30, 2))
        store = ingest.partition(coords, 3)
        config = FcmConfig(c=3, max_iters=1, seed=2)
        result = run_fcm(store, None, config, spec_for(3))
        assert result.iters_run == 1
        assert not result.converged
        assert len(result.objective_trace) == 1

    def test_partition_count_invariance(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(120, 3))
        config = FcmConfig(c=3, seed=5, max_iters=60)
        results = []
        for p in (1, 4, 16):
            store = ingest.partition(coords, p)
            results.append(run_fcm(store, None, config, spec_for(p)))
        for other in results[1:]:
            assert results[0].u.tobytes() == other.u.tobytes()
            assert results[0].v.tobytes() == other.v.tobytes()
            assert results[0].objective_trace == other.objective_trace
            assert results[0].iters_run == other.iters_run

    def test_invariants_row_sums_and_objective_monotone(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            coords = rng.normal(size=(80, 2))
            store = ingest.partition(coords, 4)
            config = FcmConfig(c=int(rng.integers(2, 5)), seed=trial, max_iters=40)
            result = run_fcm(store, None, config, spec_for(4))
            assert np.abs(result.u.sum(axis=1) - 1.0).max() < 1e-9
            trace = np.array(result.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-12))

    def test_centroids_inside_bounding_box(self):
        rng = np.random.default_rng(11)
        coords = rng.normal(size=(60, 3)) * 4.0
        store = ingest.partition(coords, 4)
        result = run_fcm(store, None, FcmConfig(c=4, seed=3, max_iters=30), spec_for(4))
        assert np.all(result.v >= coords.min(axis=0) - 1e-12)
        assert np.all(result.v <= coords.max(axis=0) + 1e-12)

    def test_matches_reference_end_to_end(self):
        rng = np.random.default_rng(12)
        coords = rng.normal(size=(50, 2))
        config = FcmConfig(c=3, m=2.0, epsilon=1e-5, max_iters=40, seed=7)
        store = ingest.partition(coords, 4)
        result = run_fcm(store, None, config, spec_for(4))
        ref_u, ref_v, ref_trace, ref_iters, ref_conv = reference.reference_fcm(
            coords, 3, m=2.0, epsilon=1e-5, max_iters=40, seed=7)
        assert result.iters_run == ref_iters
        assert result.converged == ref_conv
        assert np.allclose(result.u, ref_u, atol=1e-9)
        assert np.allclose(result.v, ref_v, atol=1e-9)
        assert np.allclose(result.objective_trace, ref_trace, rtol=1e-9)

    def test_categorical_store_with_model_route(self):
        rng = np.random.default_rng(13)
        codes = np.column_stack([rng.integers(0, 3, 90), rng.integers(0, 4, 90)]).astype(np.int32)
        store = ingest.partition(codes, 4)
        margins, burt, _ = mca.accumulate_burt(store, [3, 4])
        model = mca.fit_mca(margins, burt)
        result = run_fcm(store, model, FcmConfig(c=2, seed=4, max_iters=40), spec_for(4))
        projected, _ = mca.project_store(store, model)
        ref_u, ref_v, _, _, _ = reference.reference_fcm(
            projected, 2, m=2.0, epsilon=1e-5, max_iters=40, seed=4)
        assert np.allclose(result.u, ref_u, atol=1e-9)
        assert np.allclose(result.v, ref_v, atol=1e-9)

    def test_model_route_equals_preprojected_run(self):
        rng = np.random.default_rng(15)
        codes = np.column_stack([rng.integers(0, k, 400) for k in (3, 4, 2)]).astype(np.int32)
        store = ingest.partition(codes, 4)
        margins, burt, _ = mca.accumulate_burt(store, [3, 4, 2])
        model = mca.fit_mca(margins, burt)
        config = FcmConfig(c=3, seed=4, max_iters=40)
        sink = []
        routed = run_fcm(store, model, config, spec_for(4), metrics_sink=sink)
        projected, _ = mca.project_store(store, model)
        direct = run_fcm(ingest.partition(projected, 4), None, config, spec_for(4))
        assert routed.u.tobytes() == direct.u.tobytes()
        assert routed.v.tobytes() == direct.v.tobytes()
        assert routed.objective_trace == direct.objective_trace
        assert routed.iters_run == direct.iters_run
        assert len(sink) == 1 + routed.iters_run  # one projection job, one job per iteration

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_duplicate_heavy_store_matches_reference_on_every_row(self, p):
        rng = np.random.default_rng(20)
        rows, _, _ = duplicate_heavy(rng)
        config = FcmConfig(c=3, m=2.0, epsilon=1e-5, max_iters=40, seed=3)
        result = run_fcm(ingest.partition(rows, p), None, config, spec_for(p))
        ref_u, ref_v, ref_trace, ref_iters, _ = reference.reference_fcm(
            rows, 3, m=2.0, epsilon=1e-5, max_iters=40, seed=3)
        assert result.iters_run == ref_iters
        assert np.allclose(result.u, ref_u, rtol=0, atol=1e-9)
        assert np.allclose(result.v, ref_v, rtol=0, atol=1e-9)
        assert np.allclose(result.objective_trace, ref_trace, rtol=1e-9)
        # Rows of one point share one membership row, bit for bit.
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        assert result.u.tobytes() == result.u[first[inverse]].tobytes()

    def test_duplicate_free_store_runs_on_fixed_blocks(self, monkeypatch):
        # 200 points in blocks of at most 16 rows: 13 blocks, whatever the
        # caller's partitions and mappers.
        monkeypatch.setattr(fcm, "POINT_BLOCK_ROWS", 16)
        rng = np.random.default_rng(21)
        coords = rng.normal(size=(200, 2))
        config = FcmConfig(c=3, seed=1, max_iters=5, fixed_iterations=True)
        result = run_fcm(ingest.partition(coords, 4), None, config, spec_for(16))
        blocks = ingest.partition(coords, 13)
        centroids = init_centroids(coords, 3, seed=1)
        for _ in range(5):
            u, centroids, _, _ = fcm_iteration(blocks, centroids, spec_for(16))
        assert result.u.tobytes() == u.tobytes()
        assert result.v.tobytes() == centroids.tobytes()

    def test_non_finite_input_rejected(self):
        for bad in (np.nan, np.inf):
            coords = np.arange(12.0).reshape(6, 2)
            coords[4, 1] = bad
            store = ingest.partition(coords, 2)
            with pytest.raises(NumericError, match="non-finite"):
                run_fcm(store, None, FcmConfig(c=2, seed=0), spec_for(2))
        assert NumericError.exit_code == 5


class TestFixedBlocks:
    """Multi-block sums: points in blocks of at most 16 rows, so that
    problems of oracle size span several blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(fcm, "POINT_BLOCK_ROWS", 16)

    @staticmethod
    def stores():
        rng = np.random.default_rng(23)
        duplicate_free = rng.normal(size=(150, 2)) * 2.0
        duplicate_rows, _, _ = duplicate_heavy(rng)
        return {"duplicate-free": duplicate_free, "duplicate-heavy": duplicate_rows}

    @pytest.mark.parametrize("name", ["duplicate-free", "duplicate-heavy"])
    def test_matches_reference(self, name):
        rows = self.stores()[name]
        config = FcmConfig(c=3, m=2.0, epsilon=1e-5, max_iters=40, seed=6)
        result = run_fcm(ingest.partition(rows, 4), None, config, spec_for(4))
        ref_u, ref_v, ref_trace, ref_iters, _ = reference.reference_fcm(
            rows, 3, m=2.0, epsilon=1e-5, max_iters=40, seed=6)
        assert result.iters_run == ref_iters
        assert np.allclose(result.u, ref_u, rtol=0, atol=1e-9)
        assert np.allclose(result.v, ref_v, rtol=0, atol=1e-9)
        assert np.allclose(result.objective_trace, ref_trace, rtol=1e-9)

    @pytest.mark.parametrize("name", ["duplicate-free", "duplicate-heavy"])
    def test_bitwise_equal_across_mappers_inline_and_pooled(self, name, monkeypatch):
        rows = self.stores()[name]
        config = FcmConfig(c=3, seed=6, max_iters=40)

        def outputs(p):
            result = run_fcm(ingest.partition(rows, p), None, config, spec_for(p))
            return (result.u.tobytes(), result.v.tobytes(), result.objective_trace,
                    result.max_delta_trace, result.iters_run)

        baseline = outputs(1)
        for p in (1, 4, 16):
            assert outputs(p) == baseline
            with monkeypatch.context() as patch:
                patch.setattr(engine, "INLINE_ROWS_PER_TASK", 0)
                assert outputs(p) == baseline


class TestProperties:
    """Row sums, finiteness and determinism over m, coordinate scale and duplicates."""

    @staticmethod
    def inputs(rng):
        spread = rng.normal(size=(60, 2))
        duplicated = np.repeat(rng.normal(size=(4, 2)), [30, 20, 7, 3], axis=0)
        return [spread, rng.permutation(duplicated)]

    @pytest.mark.parametrize("m", [1.001, 1.01, 1.1, 2.0, 5.0, 10.0])
    def test_rows_stochastic_finite_and_deterministic(self, m):
        rng = np.random.default_rng(16)
        for base in self.inputs(rng):
            for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
                store = ingest.partition(base * scale, 4)
                config = FcmConfig(c=3, m=m, max_iters=30, seed=1)
                first = run_fcm(store, None, config, spec_for(4))
                again = run_fcm(store, None, config, spec_for(4))
                assert np.isfinite(first.u).all() and np.isfinite(first.v).all()
                assert not np.isnan(first.objective_trace).any()
                assert np.abs(first.u.sum(axis=1) - 1.0).max() <= 1e-12, (m, scale)
                assert first.u.tobytes() == again.u.tobytes()
                assert first.v.tobytes() == again.v.tobytes()

    @pytest.mark.parametrize("m", [1.001, 1.01, 1.1, 2.0, 5.0, 10.0])
    def test_duplicate_heavy_categorical_table(self, m):
        rng = np.random.default_rng(17)
        codes = np.column_stack([rng.integers(0, 2, 300), rng.integers(0, 3, 300)]).astype(np.int32)
        store = ingest.partition(codes, 4)
        margins, burt, _ = mca.accumulate_burt(store, [2, 3])
        model = mca.fit_mca(margins, burt)
        config = FcmConfig(c=4, m=m, max_iters=30, seed=2)
        first = run_fcm(store, model, config, spec_for(4))
        again = run_fcm(store, model, config, spec_for(4))
        assert np.isfinite(first.u).all() and np.isfinite(first.v).all()
        assert np.abs(first.u.sum(axis=1) - 1.0).max() <= 1e-12
        assert first.u.tobytes() == again.u.tobytes()
        assert first.v.tobytes() == again.v.tobytes()


class TestFewDistinctPoints:
    """2,000 rows holding 6 distinct records, at 16 mappers."""

    @staticmethod
    def store_and_model():
        rng = np.random.default_rng(22)
        distinct = np.array([[0, 0], [0, 1], [1, 2], [1, 0], [0, 2], [1, 1]], dtype=np.int32)
        store = ingest.partition(distinct[rng.integers(0, 6, 2000)], 16)
        margins, burt, _ = mca.accumulate_burt(store, [2, 3])
        return store, mca.fit_mca(margins, burt)

    def test_clusters_without_warning(self):
        store, model = self.store_and_model()
        sink = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_fcm(store, model, FcmConfig(c=3, seed=0), spec_for(16),
                             metrics_sink=sink)
        assert result.u.shape == (2000, 3)
        assert np.abs(result.u.sum(axis=1) - 1.0).max() <= 1e-12
        assert len(sink) == 1 + result.iters_run

    def test_more_clusters_than_distinct_points_raises(self):
        store, model = self.store_and_model()
        with pytest.raises(NumericError, match="need 7 distinct points"):
            run_fcm(store, model, FcmConfig(c=7, seed=0), spec_for(16))

    def test_sweep_fails_only_the_oversized_candidates(self):
        store, model = self.store_and_model()
        report = validity.sweep(store, model, 2, 8, FcmConfig(c=2, seed=0, max_iters=30),
                                spec_for(16))
        assert [row.c for row in report.rows if row.failed] == [7, 8]
        assert all(row.iters > 0 for row in report.rows if not row.failed)
        assert 2 <= report.consensus_c <= 6


class TestConfigValidation:
    def test_bad_cluster_count(self):
        with pytest.raises(NumericError):
            FcmConfig(c=1)

    def test_bad_fuzziness(self):
        with pytest.raises(NumericError):
            FcmConfig(c=2, m=1.0)

    def test_bad_epsilon(self):
        with pytest.raises(NumericError):
            FcmConfig(c=2, epsilon=0.0)

    @pytest.mark.parametrize("m", [float("nan"), float("inf")])
    def test_non_finite_fuzziness(self, m):
        with pytest.raises(NumericError, match="fuzziness"):
            FcmConfig(c=2, m=m)

    def test_nan_epsilon(self):
        with pytest.raises(NumericError, match="epsilon"):
            FcmConfig(c=2, epsilon=float("nan"))
