"""From a messy mixed-type table to points in Euclidean space.

The clustering core only understands categories, so the first half of
the pipeline is all preparation: infer which columns are numeric, bin
them at quantiles, give missing cells their own category, and then let
multiple correspondence analysis turn category patterns into
coordinates.  This script walks the screening-table stand-in through
every step and checks the geometry MCA promises.
"""
import numpy as np

from mrfcm import datasets, ingest, mca

# ── 1. a heterogeneous table ────────────────────────────────────────────────
rows = datasets.mammographic_mass_rows()
header = datasets.MAMMOGRAPHIC_HEADER
print(f"raw table: {len(rows)} rows x {len(header)} columns")
print("first three rows:")
for row in rows[:3]:
    print("   ", row)

# ── 2. schema inference ─────────────────────────────────────────────────────
schema = ingest.infer_schema(header, rows)
print("\ninferred schema:")
for col in schema:
    kind = col.kind + (" (has missing)" if col.has_missing else "")
    detail = f"{len(col.categories)} labels" if col.kind == "categorical" else "quantile-binned"
    print(f"    {col.name:<10} {kind:<28} {detail}")

# ── 3. discretization ───────────────────────────────────────────────────────
dataset = ingest.discretize(rows, schema, bins=4)
print(f"\nencoded: {dataset.n} rows x {dataset.num_columns} columns, "
      f"J = {dataset.total_categories} categories")
print("per-column cardinalities:", dataset.cardinalities)
print("audit dump:")
print(ingest.schema_dump(dataset))

# ── 4. fit MCA from the Burt matrix ─────────────────────────────────────────
store = ingest.partition(dataset, 8)
margins, burt, _ = mca.accumulate_burt(store, dataset.cardinalities)
model = mca.fit_mca(margins, burt, mca_dims=8)
print(f"retained {model.dim} axes (inertia floor 1/Q = {1 / dataset.num_columns:.3f}):")
for s in range(model.dim):
    print(f"    axis {s}: eigenvalue {model.eigenvalues[s]:.4f} "
          f"({100 * model.inertia_fractions[s]:.1f}% of total inertia)")

# ── 5. project and verify the promised geometry ─────────────────────────────
coords = model.transform(store.data)
print(f"\nprojected cloud: {coords.shape[0]} points in {coords.shape[1]}-d")
print("column means (should be ~0):  ", np.round(coords.mean(axis=0), 12))
print("per-axis variance vs eigenvalue:")
for s in range(model.dim):
    var = float((coords[:, s] ** 2).mean())
    print(f"    axis {s}: variance {var:.6f}  eigenvalue {model.eigenvalues[s]:.6f}")

# identical records land on identical points, wherever they sit
dupes = np.where((dataset.codes == dataset.codes[0]).all(axis=1))[0]
if len(dupes) > 1:
    spread = np.abs(coords[dupes] - coords[dupes[0]]).max()
    print(f"\n{len(dupes)} records share row 0's categories; "
          f"max coordinate spread among them: {spread:.1e}")
