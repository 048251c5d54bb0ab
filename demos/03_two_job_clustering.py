"""Fuzzy c-means as the two halves of one job per iteration.

The records are projected once; every iteration then broadcasts the
current centroids and runs one map-reduce job over the coordinates.
Each partition computes its records' distances to the centroids once and
emits both halves of the update: its membership rows (the membership
half) and the weighted partial sums of the new centroids plus a partial
objective (the centroid half).  The reducer glues the membership rows
back together and adds the partials, both in partition order; the driver
divides.  Iterate until the membership matrix stops moving.  This script
works one iteration out by hand, checks it against the job, then lets
run_fcm drive.
"""
import numpy as np

from mrfcm import datasets, ingest, mca
from mrfcm.engine import JobSpec
from mrfcm.fcm import FcmConfig, fcm_iteration, init_centroids, membership_row, run_fcm

# encode the screening stand-in and fit the projection model
rows = datasets.mammographic_mass_rows()
dataset = ingest.discretize(rows, ingest.infer_schema(datasets.MAMMOGRAPHIC_HEADER, rows))
store = ingest.partition(dataset, 8)
margins, burt, _ = mca.accumulate_burt(store, dataset.cardinalities)
model = mca.fit_mca(margins, burt)
spec = JobSpec(8, 4, "fcm-demo")

# project once: every iteration reads these coordinates
coords = model.transform(store.data)
coord_store = ingest.partition(coords, 8)
centroids = init_centroids(coords, c=2, seed=42)
print("initial centroids (two distinct projected records):")
print(np.round(centroids, 4))

# ── one iteration by hand ───────────────────────────────────────────────────
m = 2.0
# membership half: every record's row from its distances to the centroids
u = np.array([membership_row(x, centroids, m) for x in coords])
print(f"\nmembership half: U is {u.shape[0]} x {u.shape[1]}, "
      f"row sums in [{u.sum(axis=1).min():.12f}, {u.sum(axis=1).max():.12f}]")

# centroid half: each partition's weighted partial sums, added in order
um = u ** m
dist_sq = ((coords[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
numer, denom, jm = 0.0, 0.0, 0.0
for pid in range(coord_store.num_partitions):
    lo, hi = coord_store.offsets[pid], coord_store.offsets[pid + 1]
    numer = numer + um[lo:hi].T @ coords[lo:hi]
    denom = denom + um[lo:hi].sum(axis=0)
    jm += (um[lo:hi] * dist_sq[lo:hi]).sum()
by_hand = numer / denom[:, None]
print(f"centroid half: new V, and the objective J_m(U, V_old) = {jm:.4f}")
print(np.round(by_hand, 4))

# the job does both halves in one pass over the partitions
u_job, v_job, jm_job, _ = fcm_iteration(coord_store, centroids, spec, m=m)
print(f"\nfcm_iteration agrees: max |dU| = {np.abs(u_job - u).max():.1e}, "
      f"max |dV| = {np.abs(v_job - by_hand).max():.1e}, "
      f"|dJ_m| = {abs(jm_job - jm):.1e}")

# ── the full driver loop ────────────────────────────────────────────────────
# run_fcm iterates on the distinct records, each weighted by how often it
# occurs, and expands U back to one row per record at the end
config = FcmConfig(c=2, m=m, epsilon=1e-5, max_iters=100, seed=42)
result = run_fcm(store, model, config, spec)
print(f"\nrun_fcm: {result.iters_run} iterations, converged={result.converged}")
print("objective trace (non-increasing):")
for i, (jm, delta) in enumerate(zip(result.objective_trace, result.max_delta_trace), 1):
    marker = "  <- stopped here" if i == result.iters_run else ""
    print(f"    iter {i:>2}: J_m = {jm:12.4f}   max |dU| = {delta:.2e}{marker}")

# how fuzzy did the partition end up?
hard = result.u.argmax(axis=1)
confident = (result.u.max(axis=1) > 0.9).mean()
print(f"\ncluster sizes (hard assignment): {np.bincount(hard).tolist()}")
print(f"records with > 0.9 membership in their cluster: {100 * confident:.1f}%")
