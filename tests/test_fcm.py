import functools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mrfcm import datasets, engine, fcm, ingest, mca, validity
from mrfcm.engine import JobSpec
from mrfcm.errors import NumericError
from mrfcm.fcm import (FcmConfig, fcm_iteration, init_centroids, membership_row, objective,
                       run_fcm)

import reference


def spec_for(p):
    return JobSpec(p, max(1, p // 2), "fcm-test")


def map_threads(monkeypatch):
    """The set of threads that run map calls from here on: a job's map
    call reads its block (``PartitionedStore.block``) in its own thread."""
    threads = set()
    block = engine.PartitionedStore.block

    def spy(store, pid):
        threads.add(threading.current_thread())
        return block(store, pid)

    monkeypatch.setattr(engine.PartitionedStore, "block", spy)
    return threads


def off_calling_thread(threads):
    """Whether any map call ran on a pool thread."""
    return bool(threads - {threading.current_thread()})


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
        # The same points in a C-ordered and in a column-major store, whose
        # blocks the numerator gemm reads as strided views.  Each of the 16
        # blocks is a full split, so on 2 cores every job of 2 or more
        # mappers maps on the pool; on 1 core every job maps inline.
        rng = np.random.default_rng(14)
        n = 16 * engine.SPLIT_ROWS
        points = rng.normal(size=(n, 3))
        stores = [ingest.partition(layout, 16)
                  for layout in (points, np.asfortranarray(points))]
        assert [store.data.flags.f_contiguous for store in stores] == [False, True]
        centroids = rng.normal(size=(4, 3))

        weights = rng.integers(1, 21, size=n).astype(float)

        def outputs(store, mappers, weights):
            u, v, obj, _ = fcm_iteration(store, centroids, spec_for(mappers), m=2.0,
                                         weights=weights)
            return u.tobytes(), v.tobytes(), obj

        threads = map_threads(monkeypatch)
        for w in (None, weights):
            baseline = outputs(stores[0], 1, w)
            for store in stores:
                for mappers in (1, 4, 16):
                    for cores in (1, 2):
                        monkeypatch.setattr(engine, "available_cores", lambda: cores)
                        threads.clear()
                        assert outputs(store, mappers, w) == baseline
                        assert off_calling_thread(threads) == (mappers > 1 and cores > 1)

    def test_run_fcm_equals_repeated_public_iterations(self, monkeypatch):
        # 9,000 distinct points in first-appearance order, each repeated 1-5
        # times: run_fcm clusters them in three blocks, weighted by count.
        rng = np.random.default_rng(15)
        distinct = rng.normal(size=(9000, 3))
        counts = rng.integers(1, 6, size=9000)
        rows = np.repeat(distinct, counts, axis=0)
        blocks = ingest.partition(distinct, -(-len(distinct) // engine.SPLIT_ROWS))
        assert blocks.num_partitions == 3
        config = FcmConfig(c=4, seed=2, max_iters=4, fixed_iterations=True)

        centroids = init_centroids(distinct, config.c, config.seed)
        expected, deltas, u = [], [], None
        for _ in range(config.max_iters):
            u_prev = u
            u, centroids, obj, _ = fcm_iteration(blocks, centroids, spec_for(1), m=config.m,
                                                 weights=counts)
            expected.append(obj)
            deltas.append(np.inf if u_prev is None else float(np.abs(u - u_prev).max()))

        # Deployments 1x1, 2x1, 4x2 and 16x8 on 1 and 2 cores: the maps' own
        # changes reduce to the change of the stacked rows.  On 2 cores the
        # 2 mappers average 4,500 points, more than a full split, so they
        # map on the pool.
        threads = map_threads(monkeypatch)
        pooled = set()
        for mappers in (1, 2, 4, 16):
            for cores in (1, 2):
                monkeypatch.setattr(engine, "available_cores", lambda: cores)
                threads.clear()
                result = run_fcm(ingest.partition(rows, mappers), None, config,
                                 spec_for(mappers))
                if off_calling_thread(threads):
                    pooled.add((mappers, cores))
                assert result.distinct_u.tobytes() == u.tobytes(), (mappers, cores)
                assert result.v.tobytes() == centroids.tobytes(), (mappers, cores)
                assert result.objective_trace == expected, (mappers, cores)
                assert result.max_delta_trace == deltas, (mappers, cores)
        assert (2, 2) in pooled


class TestMembershipBlocks:
    """Memberships stay in their (c, b) blocks between iterations: each map
    measures its block's change, and the rows are stacked only for output."""

    @staticmethod
    def two_jobs(store, spec):
        rng = np.random.default_rng(31)
        centroids = rng.normal(size=(4, store.data.shape[1]))
        weights = rng.integers(1, 6, size=store.n).astype(float)
        first, delta, centroids, _, _ = fcm._iteration_job(store, centroids, spec, 1.7, weights)
        assert delta == np.inf
        second, delta, _, _, _ = fcm._iteration_job(store, centroids, spec, 1.7, weights, first)
        return first, second, delta

    @pytest.mark.parametrize("p", [1, 3, 16])
    def test_delta_is_largest_change_of_stacked_rows(self, p):
        points = np.random.default_rng(30).normal(size=(3000, 3))
        store = ingest.partition(np.asfortranarray(points), p)
        first, second, delta = self.two_jobs(store, spec_for(p))
        assert [block.shape[1] for block in second] == list(np.diff(store.offsets))
        u_prev, u = fcm._stack(first, store.n), fcm._stack(second, store.n)
        assert delta == np.abs(u - u_prev).max()

    def test_reduce_keeps_a_nan_change(self):
        # Python's max would drop the NaN when it is not the first value.
        sums = (np.zeros((2, 1)), np.zeros(2), 0.0)
        for deltas in ([np.nan, 1.0], [1.0, np.nan]):
            values = [(np.zeros((2, 1)), delta, *sums) for delta in deltas]
            assert np.isnan(fcm._iteration_reduce("iteration", values)[1])

    def test_memberships_are_c_contiguous_rows(self):
        rng = np.random.default_rng(32)
        points = rng.normal(size=(5000, 2))
        store = ingest.partition(points, 4)
        u, _, _, _ = fcm_iteration(store, rng.normal(size=(3, 2)), spec_for(4))
        assert u.flags.c_contiguous and u.shape == (5000, 3)
        result = run_fcm(store, None, FcmConfig(c=3, seed=4, max_iters=3), spec_for(4))
        assert result.distinct_u.flags.c_contiguous and result.distinct_u.shape == (5000, 3)


def in_order(terms):
    """The sum of ``terms`` over its first axis, one term after another."""
    return functools.reduce(np.add, terms)


def row_major_kernel(points, centroids, m, weights):
    """The fused map written out on (b, c) arrays, one row per point:
    (squared distances, (u, numerators, denominators, objective)).  The
    sums over coordinates, clusters and points are explicit in-order loops."""
    dist = in_order(np.moveaxis((points[:, None] - centroids[None]) ** 2, 2, 0))
    coincident = dist < fcm.SINGULARITY_DISTANCE ** 2
    hit = coincident.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (dist.min(axis=1, keepdims=True) / dist) ** (1.0 / (m - 1.0))
    ratios[hit] = coincident[hit]
    u = ratios / in_order(ratios.T)[:, None]
    um = u ** m * weights[:, None]
    return dist, (u, um.T @ points, in_order(um), (um * dist).sum())


class TestClusterMajorKernel:
    """The (c, b) kernel against the same formulas on (b, c) arrays."""

    @staticmethod
    def cases(c, m):
        rng = np.random.default_rng(100 * c + int(10 * m))
        for d in range(1, 13):
            for b in (1, 7, 4096):
                points = rng.normal(size=(b, d))
                centroids = rng.normal(size=(c, d))
                if b > 1:
                    # Point 3 coincides with two centroids, point 5 with one.
                    centroids[[0, 1, c - 1]] = points[[3, 3, 5]]
                weights = rng.integers(1, 6, size=b).astype(float)
                dist, expected = row_major_kernel(points, centroids, m, weights)
                assert np.array_equal(fcm.sq_dist(points, centroids), dist.T)
                u = expected[0]
                for layout in (u, np.asfortranarray(u)):
                    assert objective(layout, centroids, points, m) == ((u ** m) * dist).sum()
                # The block of a C-ordered store, then as the maps see a
                # column-major store of more points: a strided view.  With
                # no previous block, the change is inf.
                for block in (points, np.asfortranarray(np.concatenate([points, points]))[:b]):
                    context = (centroids, m, weights, [0, b], None)
                    (key, (u_block, delta, *sums)), = fcm._iteration_map(0, block, context)
                    assert key == "iteration" and delta == np.inf
                    assert u_block.flags.c_contiguous and u_block.shape == (c, b)
                    yield (d, b), (u_block.T, *sums), expected

    @pytest.mark.parametrize("m", [1.01, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("c", [2, 3, 6])
    def test_bitwise_equal_below_eight_clusters(self, c, m):
        for shape, got, expected in self.cases(c, m):
            for ours, theirs in zip(got, expected):
                assert np.array_equal(ours, theirs), shape

    @pytest.mark.parametrize("m", [1.01, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("c", [8, 9, 17])
    def test_bitwise_equal_from_eight_clusters(self, c, m):
        # From 8 terms on, any pairwise order would give other bits.
        self.test_bitwise_equal_below_eight_clusters(c, m)


class TestSummationOrder:
    """The kernel's sums against explicit loops that add one term after another."""

    @pytest.mark.parametrize("b", [1, 7, 4096])
    @pytest.mark.parametrize("d", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 200, 257])
    def test_sq_dist_adds_coordinates_in_sequence(self, d, b):
        # Spread magnitudes make any other order show in the last bits.
        rng = np.random.default_rng(1000 * d + b)
        for c in (1, 3, 9):
            p = rng.normal(size=(b, d)) * 10.0 ** rng.integers(-3, 4, size=d)
            v = rng.normal(size=(c, d))
            expected = in_order([(v[:, k, None] - p[None, :, k]) ** 2 for k in range(d)])
            assert np.array_equal(fcm.sq_dist(p, v), expected), c

    def test_sq_dist_holds_one_plane_besides_its_result(self):
        # A (d, c, b) difference of d = 16 planes would take 8 times this bound.
        rng = np.random.default_rng(12)
        p, v = rng.normal(size=(4096, 16)), rng.normal(size=(5, 16))
        plane = 5 * 4096 * 8
        tracemalloc.start()
        try:
            fcm.sq_dist(p, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plane <= peak < 2 * plane + 4096

    @pytest.mark.parametrize("b", [1, 7, 4096])
    @pytest.mark.parametrize("c", [1, 7, 8, 9, 17, 129, 257])
    def test_memberships_add_clusters_in_sequence(self, c, b):
        # Each point's ratios are divided by their sum over the c clusters,
        # added one after another.  Centroid 0 sits on point 0, whose
        # ratios become the coincidence mask.
        rng = np.random.default_rng(10 * c + b)
        p = rng.normal(size=(b, 3)) * 10.0 ** rng.integers(-2, 3, size=(b, 1))
        v = rng.normal(size=(c, 3)) * 10.0 ** rng.integers(-2, 3, size=(c, 1))
        v[0] = p[0]
        dist = fcm.sq_dist(p, v)
        m = 1.6
        ratios = (dist.min(axis=0) / np.maximum(dist, 1e-300)) ** (1.0 / (m - 1.0))
        ratios[:, 0] = dist[:, 0] < fcm.SINGULARITY_DISTANCE ** 2
        u, got_dist = fcm._membership_block(p, v, m)
        assert np.array_equal(got_dist, dist)
        assert np.array_equal(u, ratios / in_order(ratios))

    @pytest.mark.parametrize("b", [1, 7, 4096])
    @pytest.mark.parametrize("c", [1, 2, 3, 6, 8, 9, 17])
    def test_point_sums_add_rows_in_sequence(self, c, b):
        # The map's denominators must add the points' rows one after another.
        # Spread magnitudes make any other order show in the last bits.
        rng = np.random.default_rng(100 * c + b)
        for _ in range(3):
            rows = rng.random((b, c)) * 10.0 ** rng.integers(-6, 7, size=(b, c))
            rows[rng.random((b, c)) < 0.2] = 0.0
            acc = rows[0].copy()
            for r in rows[1:]:
                acc += r
            assert np.array_equal(fcm._point_sums(rows), acc)


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
        projected = model.transform(store.data)
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
        projected = model.transform(store.data)
        direct = run_fcm(ingest.partition(projected, 4), None, config, spec_for(4))
        assert routed.u.tobytes() == direct.u.tobytes()
        assert routed.v.tobytes() == direct.v.tobytes()
        assert routed.objective_trace == direct.objective_trace
        assert routed.iters_run == direct.iters_run
        assert len(sink) == routed.iters_run  # one job per iteration

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
        monkeypatch.setattr(engine, "SPLIT_ROWS", 16)
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

    @staticmethod
    def wide_store(scale):
        return ingest.partition(np.random.default_rng(0).normal(size=(200, 2)) * scale, 2)

    def test_overflowing_distances_rejected(self):
        # Squared distances near 1e321 overflow to inf; u would be NaN.
        store = self.wide_store(1e160)
        with pytest.raises(NumericError, match="overflow"):
            run_fcm(store, None, FcmConfig(c=3, seed=1), spec_for(2))
        with pytest.raises(NumericError, match="overflow"):
            validity.sweep(store, None, 2, 4, FcmConfig(c=2, seed=1), spec_for(2))

    def test_wide_but_finite_input_clusters_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_fcm(self.wide_store(1e150), None, FcmConfig(c=3, seed=1), spec_for(2))
        assert np.isfinite(result.u).all() and np.isfinite(result.v).all()
        assert np.isfinite(result.objective_trace).all()


class TestFixedBlocks:
    """Multi-block sums: points in blocks of at most 16 rows, so that
    problems of oracle size span several blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "SPLIT_ROWS", 16)

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

        # At 16-row splits both stores pool at 2 mappers on 2 cores; on 1
        # core every deployment maps inline.
        baseline = outputs(1)
        threads = map_threads(monkeypatch)
        pooled = set()
        for p in (1, 2, 4, 16):
            for cores in (1, 2):
                monkeypatch.setattr(engine, "available_cores", lambda: cores)
                threads.clear()
                assert outputs(p) == baseline
                if off_calling_thread(threads):
                    pooled.add((p, cores))
        assert (2, 2) in pooled


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
        assert len(sink) == result.iters_run

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


def distinct_by_tuples(array):
    """(first, counts, inverse) of a 2-D array's distinct rows, from a dict of row tuples."""
    index, first, inverse = {}, [], []
    for i, row in enumerate(map(tuple, array.tolist())):
        if row not in index:
            index[row] = len(first)
            first.append(i)
        inverse.append(index[row])
    return first, np.bincount(inverse).tolist(), inverse


class TestDistinctRows:
    """Code tables dedup on one mixed-radix int64 key while the product of
    their per-column (max + 1) fits int64, and on row bytes otherwise."""

    @pytest.mark.parametrize("tops, packed", [
        ([3] * 10, True),
        ([99] * 10, False),  # 100 ** 10 overflows int64
        ([2 ** 62 - 1, 1], True),  # product exactly 2 ** 63
        ([2 ** 62 - 1, 2], False),
        ([0, 5, 0], True),
    ], ids=["ten-of-four", "ten-of-hundred", "product-2-63", "product-over", "constant-columns"])
    def test_same_rows_either_way(self, tops, packed):
        rng = np.random.default_rng(len(tops) + tops[1])
        pool = np.column_stack([rng.integers(0, top, 40, endpoint=True) for top in tops])
        pool[0] = tops  # every column reaches its top
        table = pool[rng.integers(0, 40, 500)].astype(np.int32 if max(tops) < 2 ** 31 else np.int64)
        assert (engine._row_keys(table).dtype == np.int64) is packed
        first, counts, inverse = engine._distinct_rows(table)
        assert (first.tolist(), counts.tolist(), inverse.tolist()) == distinct_by_tuples(table)
        assert counts.dtype == float

    @pytest.mark.parametrize("table", [
        np.array([[-1, 0], [0, 0], [-1, 0]], dtype=np.int32),
        np.array([[0.5, -0.0], [0.5, 0.0], [1.0, 0.0]]),
    ], ids=["negative-codes", "floats"])
    def test_other_tables_compare_bytes(self, table):
        assert engine._row_keys(table).dtype.kind == "V"
        first, counts, inverse = engine._distinct_rows(table)
        assert (first.tolist(), counts.tolist(), inverse.tolist()) == distinct_by_tuples(table)

    @pytest.mark.parametrize("dtype", [np.int32, float], ids=["packed", "bytes"])
    def test_first_positions_whatever_the_sort_order_of_ties(self, dtype):
        # 30,000 rows of 7 distinct ones: the unstable argsort leaves each
        # group's rows in some order, and each group's first is still its least.
        rng = np.random.default_rng(7)
        table = rng.integers(0, 3, (7, 4))[rng.integers(0, 7, 30_000)].astype(dtype)
        first, counts, inverse = engine._distinct_rows(table)
        assert (first.tolist(), counts.tolist(), inverse.tolist()) == distinct_by_tuples(table)

    @pytest.mark.parametrize("p", [1, 4, 40])
    def test_store_finds_its_records_once(self, p, monkeypatch):
        # At most 12 distinct rows in 500: P = 40 exceeds k but not n.  The
        # records' store takes its fixed splits, one at the default split
        # size and three at 5, without a clamp warning.
        rng = np.random.default_rng(8)
        table = rng.integers(0, 3, (12, 3))[rng.integers(0, 12, 500)].astype(np.int32)
        first, want_counts, want_inverse = distinct_by_tuples(table)
        for split_rows in (engine.SPLIT_ROWS, 5):
            monkeypatch.setattr(engine, "SPLIT_ROWS", split_rows)
            store = ingest.partition(table, p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                records, counts, inverse = store.distinct
            assert records.data.tolist() == table[first].tolist()
            assert (counts.tolist(), inverse.tolist()) == (want_counts, want_inverse)
            splits = ingest.partition(records.data, -(-len(first) // split_rows))
            assert records.offsets.tolist() == splits.offsets.tolist()
            assert store.distinct is store.distinct  # cached on the store


class TestDistinctStore:
    """run_fcm clusters a store's distinct records (``store.distinct``),
    weighted by their counts: a row store at any partition count gives a
    one-partition row store's bits, with the Burt job and the fit on the
    same store, and the Burt job, fcm and the sweep share one dedup."""

    @staticmethod
    def rows_and_cards(kind):
        """The rows, and their cardinalities when they are codes."""
        if kind == "floats":
            rng = np.random.default_rng(21)
            rows, _, _ = duplicate_heavy(rng, points=300)
            return rows, None
        reals = datasets.gaussian_blob_rows(2500, [[0, 0], [4, 1], [1, 5]], 1.0, seed=22)
        rows = [a + b for a, b in zip(datasets.clustered_categorical_rows(2500, 3, seed=23), reals)]
        names = ["q0", "q1", "q2", "x0", "x1"]
        dataset = ingest.discretize(rows, ingest.infer_schema(names, rows))
        return dataset.codes, dataset.cardinalities

    @staticmethod
    def store_and_model(rows, cards, p):
        store = ingest.partition(rows, p)
        model = None if cards is None else mca.fit_mca(*mca.accumulate_burt(store, cards)[:2])
        return store, model

    @pytest.mark.parametrize("m", [2.0, 1.7])
    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("kind", ["codes", "floats"])
    def test_same_bits_as_the_row_store(self, kind, p, m):
        rows, cards = self.rows_and_cards(kind)
        config = FcmConfig(c=3, m=m, epsilon=1e-7, max_iters=40, seed=4)
        expected = run_fcm(*self.store_and_model(rows, cards, 1), config, spec_for(1))
        store, model = self.store_and_model(rows, cards, p)
        result = run_fcm(store, model, config, spec_for(p))
        records, _, inverse = store.distinct
        splits = ingest.partition(records.data, -(-records.n // engine.SPLIT_ROWS))
        assert records.n < len(rows) and records.offsets.tolist() == splits.offsets.tolist()
        assert result.inverse is inverse and len(result.distinct_u) == records.n
        assert result.u.tobytes() == expected.u.tobytes()
        assert result.v.tobytes() == expected.v.tobytes()
        for trace in ("objective_trace", "max_delta_trace"):
            assert np.array(getattr(result, trace)).tobytes() == \
                np.array(getattr(expected, trace)).tobytes()
        assert (result.iters_run, result.converged) == (expected.iters_run, expected.converged)

    def test_burt_fcm_and_sweep_share_one_dedup(self, monkeypatch):
        # Every dedup sorts its keys once with np.argsort; count the sorts of
        # n keys.  The seeds' dedup sorts the k < n projected points.
        rows, cards = self.rows_and_cards("codes")
        argsort, sorted_lengths = np.argsort, []

        def counted(keys, *args, **kwargs):
            sorted_lengths.append(len(keys))
            return argsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        store, model = self.store_and_model(rows, cards, 4)
        run_fcm(store, model, FcmConfig(c=3, seed=4, max_iters=5), spec_for(4))
        validity.sweep(store, model, 2, 4, FcmConfig(c=2, seed=4, max_iters=5), spec_for(4))
        assert sorted_lengths.count(len(rows)) == 1
        assert store.distinct[0].n < len(rows)


class StubModel:
    """A projection model whose transform is a given function of the codes."""

    def __init__(self, transform):
        self.transform = transform


class TestCoordinates:
    """The seeds are the first positions of the distinct points, found on the
    first coordinate alone when it has no repeat."""

    @pytest.mark.parametrize("data, model, shortcut", [
        (np.arange(12.0).reshape(6, 2)[[0, 1, 0, 2, 3, 4, 5, 1]], None, True),
        (np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 2.0], [1.0, 2.0]]), None, False),
        # Records (0, 0) and (0, 1) both project to (0, 0).
        (np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0, 1]]),
         StubModel(lambda codes: np.column_stack([codes[:, 0], codes[:, 0] * codes[:, 1]]) * 1.0),
         False),
    ], ids=["first-coordinate-distinct", "first-coordinate-repeats", "records-collide"])
    def test_seeds_are_the_distinct_points(self, data, model, shortcut):
        points, _, seeds, _ = fcm._coordinates(ingest.partition(data, 2), model)
        points = np.ascontiguousarray(points.data)
        assert (np.unique(points[:, 0]).size == len(points)) is shortcut
        assert seeds.tolist() == engine._distinct_rows(points)[0].tolist()
        assert len(seeds) == len(points) - (model is not None)


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
