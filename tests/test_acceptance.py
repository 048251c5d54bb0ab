"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from mrfcm import datasets, engine, ingest, mca, validity
from mrfcm.cli import main as cli_main
from mrfcm.engine import JobSpec
from mrfcm.fcm import FcmConfig, run_fcm
from mrfcm.validity import pc, pe, sc, sweep, xb

import reference

U_TOL = 1e-9            # criterion 1: per-entry membership/centroid tolerance
TRACE_REL_SLACK = 1e-12  # criterion 2: objective monotonicity slack
PROJ_TOL = 1e-8          # criterion 3: projection and variance tolerance
INERTIA_TOL = 1e-10      # criterion 3: eigenvalue-sum identity tolerance
INDEX_TOL = 1e-12        # criterion 4: validity-index oracle tolerance
GROWTH_CAP = 2.5         # criterion 7: t(2n)/t(n) bound
SPEEDUP_MIN = 2.0        # criterion 7: parallel speedup bound on >= 4 cores


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def spec_for(p, name="acc"):
    return JobSpec(p, max(1, p // 2), name)


def fcm_invariants(result):
    """Criterion 2 checks, applied to every clustering run in this suite."""
    row_dev = np.abs(result.u.sum(axis=1) - 1.0).max()
    assert row_dev < U_TOL, f"membership rows off stochastic by {row_dev}"
    trace = np.array(result.objective_trace)
    assert np.all(trace[1:] <= trace[:-1] * (1.0 + TRACE_REL_SLACK)), \
        f"objective trace increased: {trace}"


def test_criterion_1_and_2_oracle_equivalence_and_invariants():
    rng = np.random.default_rng(20240811)
    started = time.monotonic()
    runs = 0
    for case in range(20):
        n = int(rng.integers(50, 501))
        d = int(rng.integers(1, 6))
        c = int(rng.choice([2, 3, 4]))
        coords = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        seed = int(rng.integers(0, 10_000))
        config = FcmConfig(c=c, m=2.0, epsilon=1e-5, max_iters=30, seed=seed)
        ref_u, ref_v, ref_trace, ref_iters, _ = reference.reference_fcm(
            coords, c, m=2.0, epsilon=1e-5, max_iters=30, seed=seed)
        for p in (1, 4, 16):
            store = ingest.partition(coords, p)
            result = run_fcm(store, None, config, spec_for(p))
            fcm_invariants(result)
            runs += 1
            assert result.iters_run == ref_iters
            u_err = np.abs(result.u - ref_u).max()
            v_err = np.abs(result.v - ref_v).max()
            assert u_err < U_TOL, f"case {case} P={p}: membership error {u_err}"
            assert v_err < U_TOL, f"case {case} P={p}: centroid error {v_err}"
            assert np.allclose(result.objective_trace, ref_trace, rtol=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s, budget 30s"
    report(1, f"20 datasets x P in (1,4,16) match the reference within {U_TOL} "
              f"in {elapsed:.1f}s")
    report(2, f"membership row sums and objective monotonicity held on all {runs} runs")


def test_criterion_3_mca_against_dense_oracle():
    rng = np.random.default_rng(77)
    for case in range(10):
        num_cols = int(rng.integers(2, 6))
        cards = [int(rng.integers(2, 5)) for _ in range(num_cols)]
        n = int(rng.integers(30, 201))
        codes = np.column_stack([rng.integers(0, k, size=n) for k in cards]).astype(np.int32)
        for q in range(num_cols):  # guarantee every category observed
            missing = set(range(cards[q])) - set(codes[:, q].tolist())
            for slot, cat in enumerate(missing):
                codes[slot, q] = cat
        store = ingest.partition(codes, 4)
        margins, burt, _ = mca.accumulate_burt(store, cards)
        model = mca.fit_mca(margins, burt, mca_dims=8)
        projected = model.transform(store.data)

        oracle_coords, oracle_lam = reference.dense_ca_row_coords(
            reference.indicator_of(codes, cards), num_cols)
        total = sum(cards) / num_cols - 1.0
        assert abs(oracle_lam.sum() - total) < INERTIA_TOL
        assert abs(model.total_inertia - total) < INERTIA_TOL

        for s in range(model.dim):
            assert abs(model.eigenvalues[s] - oracle_lam[s]) < INERTIA_TOL
            axis = oracle_coords[:, s]
            if np.dot(axis, projected[:, s]) < 0:
                axis = -axis
            err = np.abs(projected[:, s] - axis).max()
            assert err < PROJ_TOL, f"case {case} axis {s}: projection error {err}"
        var = (projected ** 2).mean(axis=0)
        assert np.abs(var - model.eigenvalues).max() < PROJ_TOL
        assert np.abs(projected.mean(axis=0)).max() < PROJ_TOL
    report(3, "10 random datasets: projections, eigenvalue sum, and per-axis "
              "variance all match the dense CA oracle")


def test_criterion_4_validity_index_oracles():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(10, 80))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        coords = rng.normal(size=(n, d))
        centroids = rng.normal(size=(c, d))
        u = reference.random_membership(rng, n, c)
        assert abs(pc(u) - reference.reference_pc(u)) < INDEX_TOL
        assert abs(pe(u) - reference.reference_pe(u)) < INDEX_TOL
        assert abs(xb(u, centroids, coords) - reference.reference_xb(u, centroids, coords)) \
            < INDEX_TOL * max(1.0, abs(xb(u, centroids, coords)))
        for m in (1.5, 2.0, 3.0):
            ours = sc(u, centroids, coords, m)
            theirs = reference.reference_sc(u, centroids, coords, m)
            assert abs(ours - theirs) < INDEX_TOL * max(1.0, abs(ours))

    crisp = np.zeros((40, 4))
    crisp[np.arange(40), np.arange(40) % 4] = 1.0
    assert pc(crisp) == 1.0
    assert pe(crisp) == 0.0
    for c in (2, 3, 5):
        uniform = np.full((30, c), 1.0 / c)
        assert abs(pc(uniform) - 1.0 / c) < INDEX_TOL
        assert abs(pe(uniform) - math.log(c)) < INDEX_TOL
    report(4, "PC/PE/XB/SC match double-loop oracles at 1e-12 and boundary "
              "identities hold")


def _paper_dataset_sweep(rows, header, expected_c, tag):
    # The source experiments never state the fuzziness exponent; both paper
    # datasets are swept with m=1.5, inside the standard recommended range.
    schema = ingest.infer_schema(header, rows)
    dataset = ingest.discretize(rows, schema, bins=4)
    store = ingest.partition(dataset, 8)
    margins, burt, _ = mca.accumulate_burt(store, dataset.cardinalities)
    model = mca.fit_mca(margins, burt, mca_dims=8)
    config = FcmConfig(c=2, m=1.5, epsilon=1e-5, max_iters=100, seed=7)
    started = time.monotonic()
    rep = sweep(store, model, 2, 6, config, spec_for(8, tag))
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"{tag} sweep took {elapsed:.1f}s, budget 120s"
    votes = list(rep.best_per_index.values())
    assert rep.consensus_c == expected_c, \
        f"{tag}: consensus {rep.consensus_c}, expected {expected_c} ({rep.best_per_index})"
    assert votes.count(expected_c) >= 3, f"{tag}: votes {rep.best_per_index}"
    return elapsed, rep


def test_criterion_5_optimal_c_on_paper_datasets():
    t_mm, rep_mm = _paper_dataset_sweep(
        datasets.mammographic_mass_rows(), datasets.MAMMOGRAPHIC_HEADER, 2, "mm")
    t_bs, rep_bs = _paper_dataset_sweep(
        datasets.balance_scale_rows(), datasets.BALANCE_SCALE_HEADER, 3, "bs")
    report(5, f"mammographic-mass consensus 2 ({t_mm:.1f}s, votes "
              f"{rep_mm.best_per_index}); balance-scale consensus 3 "
              f"({t_bs:.1f}s, votes {rep_bs.best_per_index})")


def test_criterion_6_optimal_c_on_synthetic_blobs():
    coords = datasets.gaussian_blob_coords(
        3000, [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]], spread=0.5, seed=3)
    store = ingest.partition(coords, 8)
    started = time.monotonic()
    rep = sweep(store, None, 2, 6, FcmConfig(c=2, seed=7), spec_for(8, "blobs"))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"blob sweep took {elapsed:.1f}s, budget 60s"
    assert rep.consensus_c == 3
    assert all(winner == 3 for winner in rep.best_per_index.values()), rep.best_per_index
    report(6, f"3000-point blobs: all four indices select c=3 in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def scaling_dataset():
    rows = datasets.clustered_categorical_rows(200_000, 10, num_clusters=3, seed=17)
    schema = ingest.infer_schema([f"a{j}" for j in range(10)], rows)
    return ingest.discretize(rows, schema, bins=4)


def _timed_run(dataset, n, mappers, reducers):
    subset = ingest.CategoricalDataset(dataset.schema, dataset.codes[:n])
    store = ingest.partition(subset, mappers)
    spec = JobSpec(mappers, reducers, f"scale_{n}_{mappers}")
    config = FcmConfig(c=3, seed=5, max_iters=10, fixed_iterations=True)
    started = time.monotonic()
    margins, burt, _ = mca.accumulate_burt(store, subset.cardinalities, spec)
    model = mca.fit_mca(margins, burt)
    result = run_fcm(store, model, config, spec)
    elapsed = time.monotonic() - started
    assert result.iters_run == 10
    return elapsed


def test_criterion_7_scalability_shape(scaling_dataset):
    started = time.monotonic()
    t_half = _timed_run(scaling_dataset, 100_000, 150, 75)
    t_full = _timed_run(scaling_dataset, 200_000, 150, 75)
    growth = t_full / t_half
    assert growth <= GROWTH_CAP, f"t(2n)/t(n) = {growth:.2f} exceeds {GROWTH_CAP}"

    cores = engine.available_cores()
    if cores >= 4:
        t_serial = _timed_run(scaling_dataset, 200_000, 1, 1)
        t_parallel = _timed_run(scaling_dataset, 200_000, cores, cores)
        speedup = t_serial / t_parallel
        assert speedup >= SPEEDUP_MIN, f"speedup {speedup:.2f} below {SPEEDUP_MIN}"
        speedup_note = f"speedup {speedup:.2f} with {cores} workers"
    else:
        speedup_note = f"speedup check skipped (criterion requires >= 4 cores, have {cores})"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s, budget 600s"
    report(7, f"t(200k)/t(100k) = {growth:.2f} <= {GROWTH_CAP}; {speedup_note}")


def test_criterion_8_determinism_across_deployments(tmp_path):
    mm_path = datasets.write_csv(tmp_path / "mm.csv", datasets.mammographic_mass_rows(),
                                 header=datasets.MAMMOGRAPHIC_HEADER)
    checked = []
    for mappers, reducers in [(1, 1), (4, 2), (16, 8)]:
        digests = []
        for attempt in ("first", "second"):
            out = tmp_path / f"c_{mappers}_{attempt}"
            code = cli_main(["cluster", "--input", str(mm_path), "--c", "2",
                             "--seed", "42", "--mappers", str(mappers),
                             "--reducers", str(reducers), "--out-dir", str(out)])
            assert code == 0
            digests.append({name: (out / name).read_bytes()
                            for name in ("memberships.csv", "centroids.csv", "trace.csv")})
        assert digests[0] == digests[1], f"outputs differ for deployment {mappers}x{reducers}"
        checked.append(f"{mappers}x{reducers}")

    sweeps = []
    for attempt in ("first", "second"):
        out = tmp_path / f"s_{attempt}"
        code = cli_main(["sweep", "--input", str(mm_path), "--c-min", "2", "--c-max", "4",
                         "--seed", "42", "--mappers", "4", "--reducers", "2",
                         "--out-dir", str(out)])
        assert code == 0
        sweeps.append((out / "validity.csv").read_bytes())
    assert sweeps[0] == sweeps[1]
    report(8, f"byte-identical reruns for deployments {', '.join(checked)} "
              f"and the sweep outputs")


def test_criterion_9_bench_protocol_fidelity(tmp_path):
    # Stand-in with the benchmark protocol's exact row count, so the last
    # size step must duplicate rows: 581,012 -> 600,000.
    rows = datasets.clustered_categorical_rows(581_012, 6, num_clusters=4, seed=23)
    path = datasets.write_csv(tmp_path / "forest_like.csv", rows,
                              header=[f"a{j}" for j in range(6)])
    out = tmp_path / "bench"
    sizes = "100000,200000,300000,400000,500000,600000"
    code = cli_main(["bench", "--input", str(path), "--bench-sizes", sizes,
                     "--bench-deployments", "50x25,100x50,150x75",
                     "--fixed-iters", "2", "--c", "2", "--seed", "1",
                     "--out-dir", str(out)])
    assert code == 0
    lines = (out / "bench.csv").read_text().strip().split("\n")
    assert lines[0] == "instances,mappers,reducers,seconds"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 6 * 3, f"expected 18 timing rows, got {len(body)}"
    assert sorted({int(r[0]) for r in body}) == [int(s) for s in sizes.split(",")]
    assert {(int(r[1]), int(r[2])) for r in body} == {(50, 25), (100, 50), (150, 75)}
    assert all(float(r[3]) > 0.0 for r in body)
    top = [r for r in body if int(r[0]) == 600_000]
    assert len(top) == 3  # the duplicated 581,012 -> 600,000 cells all ran
    report(9, "bench wrote 6 sizes x 3 deployments = 18 rows with the "
              "581,012 -> 600,000 duplication step")
