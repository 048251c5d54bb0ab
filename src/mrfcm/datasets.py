"""Reproducible datasets for experiments, demos, and the acceptance suite.

Two UCI-style tables are provided in their usual file layout:

* balance_scale: reconstructed exactly.  The table is the complete
  factorial of four lever attributes in {1..5} (625 rows), with the
  tilt outcome (L/B/R) in the first column, as distributed.
* mammographic_mass: the original records are clinical data that cannot
  be re-derived, so the generator draws a statistically matched stand-in
  from the published attribute structure: 961 rows, six columns
  (BI-RADS, age, shape, margin, density, severity), "?" for missing,
  benign/malignant conditionals mirroring the documented associations.

Numeric helpers produce Gaussian blob tables and seeded categorical
tables with planted cluster structure for scalability runs.
"""
from __future__ import annotations

import csv

import numpy as np

BALANCE_SCALE_HEADER = ["class", "left_weight", "left_distance", "right_weight", "right_distance"]
MAMMOGRAPHIC_HEADER = ["birads", "age", "shape", "margin", "density", "severity"]


def balance_scale_rows():
    """All 625 lever configurations with their tilt outcome, factorial order."""
    rows = []
    for lw in range(1, 6):
        for ld in range(1, 6):
            for rw in range(1, 6):
                for rd in range(1, 6):
                    torque = lw * ld - rw * rd
                    label = "L" if torque > 0 else ("R" if torque < 0 else "B")
                    rows.append([label, str(lw), str(ld), str(rw), str(rd)])
    return rows


# Per-severity category distributions (benign, malignant) matching the
# published marginals of the screening table; severity 0 has 516 rows,
# severity 1 has 445.
_MM_CATEGORICAL = {
    "birads":  (["2", "3", "4", "5", "6"],
                [0.02, 0.10, 0.78, 0.09, 0.01],
                [0.00, 0.01, 0.23, 0.70, 0.06]),
    "shape":   (["1", "2", "3", "4"],
                [0.42, 0.35, 0.14, 0.09],
                [0.04, 0.07, 0.19, 0.70]),
    "margin":  (["1", "2", "3", "4", "5"],
                [0.68, 0.08, 0.14, 0.08, 0.02],
                [0.05, 0.07, 0.12, 0.45, 0.31]),
    "density": (["1", "2", "3", "4"],
                [0.01, 0.06, 0.89, 0.04],
                [0.02, 0.08, 0.88, 0.02]),
}
_MM_AGE = {0: (49.8, 13.8), 1: (62.5, 11.5)}
_MM_MISSING_RATE = {"birads": 2 / 961, "age": 5 / 961, "shape": 31 / 961,
                    "margin": 48 / 961, "density": 76 / 961}
_MM_CLASS_SIZES = {0: 516, 1: 445}


def mammographic_mass_rows(seed: int = 1961):
    """Statistically matched stand-in for the 961-row screening table."""
    rng = np.random.default_rng(seed)
    rows = []
    for severity, count in _MM_CLASS_SIZES.items():
        for _ in range(count):
            row = []
            for name in ("birads", "shape", "margin", "density"):
                cats, p_benign, p_malign = _MM_CATEGORICAL[name]
                weights = np.asarray(p_malign if severity else p_benign, dtype=float)
                value = cats[rng.choice(len(cats), p=weights / weights.sum())]
                row.append("?" if rng.random() < _MM_MISSING_RATE[name] else value)
            mean, sd = _MM_AGE[severity]
            age = int(np.clip(rng.normal(mean, sd), 18, 96))
            age_cell = "?" if rng.random() < _MM_MISSING_RATE["age"] else str(age)
            rows.append([row[0], age_cell, row[1], row[2], row[3], str(severity)])
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def gaussian_blob_rows(n: int, centers, spread: float, seed: int = 0):
    """gaussian_blob_coords as text rows, nine significant digits per cell."""
    points = gaussian_blob_coords(n, centers, spread, seed)
    return [[f"{x:.9g}" for x in point] for point in points]


def gaussian_blob_coords(n: int, centers, spread: float, seed: int = 0) -> np.ndarray:
    """n points drawn round-robin from isotropic Gaussian blobs."""
    centers = np.asarray(centers, dtype=float)
    rng = np.random.default_rng(seed)
    assign = np.arange(n) % len(centers)
    return centers[assign] + rng.normal(0.0, spread, size=(n, centers.shape[1]))


def clustered_categorical_rows(n: int, num_columns: int, num_clusters: int = 3,
                               cardinality: int = 4, purity: float = 0.7, seed: int = 0):
    """Categorical rows with planted cluster structure, for load benchmarks.

    Each latent cluster prefers one category per column with probability
    ``purity``, spreading the rest uniformly; rows cycle through clusters.
    """
    rng = np.random.default_rng(seed)
    prefer = rng.integers(0, cardinality, size=(num_clusters, num_columns))
    assign = np.arange(n) % num_clusters
    noise = rng.integers(0, cardinality, size=(n, num_columns))
    keep = rng.random(size=(n, num_columns)) < purity
    values = np.where(keep, prefer[assign], noise)
    return values.astype(str).tolist()


def write_csv(path, rows, header=None, delimiter: str = ","):
    """Write rows (lists of strings) as CSV; returns the path for chaining."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return path
