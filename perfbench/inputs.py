"""Seeded inputs of the benchmark workloads.

Run as a script, this module writes one workload's inputs into a
directory, together with ``inputs.json`` describing them:

    python3 perfbench/inputs.py <workload> <seed> <out_dir> <smoke 0|1>

The benchmark runs it in a separate interpreter before any timing
starts, so the time and memory that generation takes stay out of the
measured process.  The same seed always gives the same files.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# Mixed-type table of cluster-large and sweep-mid: categorical columns with
# three planted clusters, two real columns drawn from one Gaussian blob per
# planted cluster (they get quantile-binned), and "?" in about 1% of cells.
PLANTED_CLUSTERS = 3
CATEGORICAL_COLUMNS = 8
CARDINALITY = 4
BLOB_CENTERS = [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]]
MISSING_RATE = 0.01
BINS = 4  # the CLI's default --bins

# Shapes of each workload at full size, and in the smoke mode of the
# benchmark's own tests.
SIZES = {
    "oracle-small": {"full": {"problems": 24}, "smoke": {"problems": 3}},
    "cluster-large": {"full": {"n": 100_000, "mappers": 100, "reducers": 50},
                      "smoke": {"n": 3_000, "mappers": 8, "reducers": 4}},
    "sweep-mid": {"full": {"n": 20_000, "mappers": 16, "reducers": 8},
                  "smoke": {"n": 2_000, "mappers": 4, "reducers": 2}},
}


def generate(workload: str, seed: int, out_dir: Path, smoke: bool) -> dict:
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload == "oracle-small":
        info = write_problems(size["problems"], seed, out_dir / "problems.npz")
    else:
        info = write_table(size["n"], seed, out_dir / "input.csv")
    info.update(size, seed=seed)
    (out_dir / "inputs.json").write_text(json.dumps(info), encoding="utf-8")
    return info


# Base draws of oracle-small; the workload seed only rotates and shifts them.
PROBLEM_BASE_SEED = 1707


def write_problems(count: int, seed: int, path: Path) -> dict:
    """Small float problems of the criterion-1 shape: n 50-500, d 1-5, c 2-4.

    Each problem holds c well-separated blobs, so clustering it at that c
    converges.  The seed applies a random rotation and shift to fixed base
    draws.  Fuzzy c-means sees only distances, so every seed converges in
    the same number of iterations and asks for the same work; with freshly
    drawn points the iterations of a pass varied by 13% between seeds.
    """
    base = np.random.default_rng(PROBLEM_BASE_SEED)
    rng = np.random.default_rng(seed)
    arrays, shapes = {}, []
    for k in range(count):
        n = 50 + 450 * k // max(count - 1, 1)
        d = 1 + k % 5
        c = 2 + k % 3
        direction = base.normal(size=d)
        direction /= np.linalg.norm(direction)
        centers = 6.0 * np.arange(c)[:, None] * direction[None, :]
        points = centers[np.arange(n) % c] + base.normal(size=(n, d))
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        arrays[f"x{k}"] = points @ rotation + rng.uniform(-10.0, 10.0, size=d)
        shapes.append((n, d, c, int(base.integers(0, 10_000))))
    np.savez(path, shapes=np.array(shapes), **arrays)
    return {"rows_total": sum(s[0] for s in shapes), "n_range": [shapes[0][0], shapes[-1][0]],
            "d_values": sorted({s[1] for s in shapes}), "c_values": sorted({s[2] for s in shapes}),
            "input_bytes": sum(a.nbytes for a in arrays.values())}


def write_table(n: int, seed: int, path: Path) -> dict:
    """Mixed-type CSV with planted clusters, quantile-binned reals and "?" cells."""
    from mrfcm import datasets

    categorical = datasets.clustered_categorical_rows(
        n, CATEGORICAL_COLUMNS, num_clusters=PLANTED_CLUSTERS, cardinality=CARDINALITY, seed=seed)
    numeric = datasets.gaussian_blob_rows(n, BLOB_CENTERS, spread=1.0, seed=seed + 1)
    num_columns = CATEGORICAL_COLUMNS + len(BLOB_CENTERS[0])
    missing = np.random.default_rng(seed + 2).random((n, num_columns)) < MISSING_RATE
    rows = [a + b for a, b in zip(categorical, numeric)]
    for i, j in zip(*np.nonzero(missing)):
        rows[i][j] = "?"
    header = ([f"q{j}" for j in range(CATEGORICAL_COLUMNS)]
              + [f"x{j}" for j in range(len(BLOB_CENTERS[0]))])
    datasets.write_csv(path, rows, header=header)
    # J: each categorical column's labels plus its missing category; each
    # real column fills all BINS quantile bins (its values are continuous).
    labels = [len({row[j] for row in rows} - {"?"}) for j in range(CATEGORICAL_COLUMNS)]
    labels += [BINS] * len(BLOB_CENTERS[0])
    categories = sum(labels) + int(missing.any(axis=0).sum())
    return {"n": n, "Q": num_columns, "J": categories, "numeric_columns": len(BLOB_CENTERS[0]),
            "missing_rate": float(missing.mean()), "input_bytes": path.stat().st_size}


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    workload, seed, out_dir, smoke = sys.argv[1:5]
    generate(workload, int(seed), Path(out_dir), smoke == "1")
