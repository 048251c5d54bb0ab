"""Multiple correspondence analysis fitted from global category statistics.

The model is estimated once, from the Burt matrix (the J x J category
co-occurrence table, itself assembled by a map-reduce aggregation pass),
and then applied record by record: ``MCAModel.transform`` projects each
record into the shared low-dimensional Euclidean space on its own, with
no state shared between records.  Fitting cost depends on J only, never
on the row count.

Geometry conventions
--------------------
With column masses ``c_j = count_j / (n Q)`` the eigenproblem is

    M = D_c^{-1/2} (B / (n Q^2) - c c^T) D_c^{-1/2}

whose eigenvalues are the principal inertias (in [0, 1], summing to
J/Q - 1), and whose unit eigenvectors give the category loadings.  A
record holding categories j_1..j_Q gets row principal coordinates

    coord_s = (1/Q) * sum_q  v_s[j_q] / sqrt(c_{j_q})  -  sum_j sqrt(c_j) v_s[j]

so projections are pure gather-and-sum per record: bitwise identical no
matter how rows are blocked into partitions, and the per-axis variance
of the projected cloud equals that axis's eigenvalue.

The Burt job (``accumulate_burt``) maps the fixed splits of a store's
weighted distinct records (``PartitionedStore.distinct``); each map builds
its indicator in slices of at most ``BURT_SLICE_ROWS`` x J and adds the
slices' products in order, and its whole counts give the rows' Burt
matrix bit for bit under any BLAS kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import JobSpec, PartitionedStore, _one_blas_thread, run_job, sum_reduce
from .errors import NumericError

# Retention guard above the 1/Q noise floor, so balanced designs whose
# inertias equal 1/Q exactly (up to rounding) are not spuriously kept.
_RETAIN_EPS = 1e-10
# Records per indicator slice of a Burt map.  A map then holds 2 x 256 x J
# doubles (2 MB at J = 500), not 2 x SPLIT_ROWS x J (32 MB), and the heap
# reuses the same small blocks from slice to slice instead of the kernel
# faulting in fresh pages for each map.  The counts are exact integers, so
# no slice size changes a bit.
BURT_SLICE_ROWS = 256


@dataclass(frozen=True)
class CategoryMargins:
    """Global category occurrence counts for an encoded dataset."""

    counts: np.ndarray  # (J,)
    n: int  # rows of the store, the total weight of its distinct records
    num_columns: int
    col_offsets: np.ndarray  # (Q + 1,) prefix offsets of columns into J

    def validate(self):
        if int(self.counts.sum()) != self.n * self.num_columns:
            raise NumericError("category counts do not sum to n * Q")
        for q in range(self.num_columns):
            block = self.counts[self.col_offsets[q]:self.col_offsets[q + 1]]
            if int(block.sum()) != self.n:
                raise NumericError(f"column {q}: category counts do not sum to n")


class MCAModel:
    """Fitted MCA: retained axes plus the streaming projection tables.

    Attributes
    ----------
    eigenvalues : (d,) principal inertias of the retained axes, descending.
    loadings : (J, d) unit eigenvectors of the standardized Burt residual.
    total_inertia : sum of all principal inertias, J/Q - 1.
    """

    def __init__(self, margins: CategoryMargins, eigenvalues, loadings, total_inertia):
        self.margins = margins
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.loadings = np.asarray(loadings, dtype=float)
        self.total_inertia = float(total_inertia)
        masses = margins.counts / (margins.n * margins.num_columns)
        # Gather table and per-axis offset of the projection formula.
        self._weights = self.loadings / np.sqrt(masses)[:, None]
        self._offsets = (np.sqrt(masses)[:, None] * self.loadings).sum(axis=0)
        self._col_offsets = margins.col_offsets

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def inertia_fractions(self) -> np.ndarray:
        return self.eigenvalues / self.total_inertia

    def transform(self, codes) -> np.ndarray:
        """Project a block of encoded records to row principal coordinates.

        Accumulates gathered loadings column by column in schema order, so
        the result for a given record never depends on which other records
        share its block.
        """
        codes = np.atleast_2d(np.asarray(codes))
        num_cols = self.margins.num_columns
        if codes.shape[1] != num_cols:
            raise NumericError(f"record has {codes.shape[1]} columns, model expects {num_cols}")
        cards = np.diff(self._col_offsets)
        if np.any(codes < 0) or np.any(codes >= cards[None, :]):
            raise NumericError("category index out of range for the fitted model")
        gids = codes + self._col_offsets[:-1]
        acc = self._weights[gids[:, 0]].copy()
        for q in range(1, num_cols):
            acc += self._weights[gids[:, q]]
        return acc / num_cols - self._offsets


def _burt_map(pid, block, ctx):
    """The block's co-occurrence counts, its indicator rows scaled on one
    side of the gemm by their weights.  The indicator is built and
    multiplied in slices of at most BURT_SLICE_ROWS records, whose products
    are added in order.  Every product and partial sum is an integer, exact
    in float64 below 2**53, so any BLAS kernel, slicing or summation order
    gives the same bits."""
    col_offsets, weights, offsets = ctx
    gids = block + col_offsets[:-1]
    weights = weights[offsets[pid]:offsets[pid + 1]]
    burt = np.zeros((int(col_offsets[-1]),) * 2)
    for start in range(0, len(gids), BURT_SLICE_ROWS):
        rows = gids[start:start + BURT_SLICE_ROWS]
        indicator = np.zeros((len(rows), len(burt)))
        indicator[np.arange(len(rows))[:, None], rows] = 1.0
        burt += (indicator.T * weights[start:start + BURT_SLICE_ROWS]) @ indicator
    yield "burt", burt


def accumulate_burt(store: PartitionedStore, cardinalities, spec: JobSpec | None = None):
    """Assemble global margins and the Burt matrix with one engine pass.

    The job runs over the store's k distinct records (``store.distinct``,
    ceil(k / SPLIT_ROWS) splits whatever P is, one mapper each by
    default), a record of count w standing for w identical rows.  Each
    map task emits its split's partial co-occurrence counts; the reduce
    sums them in split order.  Counts are integers, so the result is the
    rows' Burt matrix, exact and independent of the partitioning.
    """
    records, weights, _ = store.distinct
    spec = spec or JobSpec(records.num_partitions, 1, "burt")
    col_offsets = np.concatenate(([0], np.cumsum(cardinalities))).astype(np.int64)
    context = (col_offsets, weights, records.offsets)
    results, metrics = run_job(spec, records, context, _burt_map, sum_reduce)
    burt = results[0][1]
    counts = np.diag(burt).copy()
    margins = CategoryMargins(counts, store.n, len(cardinalities), col_offsets)
    margins.validate()
    return margins, burt, metrics


def _check_mca_dims(mca_dims):
    """Raise NumericError unless ``mca_dims``, the cap on retained axes, is >= 1."""
    if mca_dims < 1:
        raise NumericError(f"mca_dims must be >= 1, got {mca_dims}")


def fit_mca(margins: CategoryMargins, burt: np.ndarray, mca_dims: int = 8) -> MCAModel:
    """Solve the standardized eigenproblem and retain informative axes.

    Axes are kept while their inertia exceeds the 1/Q noise floor, capped
    at ``mca_dims``; if nothing clears the floor the single leading axis
    is kept so downstream clustering always has coordinates to work with.

    The eigensolve runs with OpenBLAS on one thread (``engine``'s
    ``_one_blas_thread``), and the caller's thread count is restored
    afterwards: at J of 30 and more a threaded ``eigh`` leaves a worker
    spinning on another core for longer than the solve takes.
    """
    _check_mca_dims(mca_dims)
    counts = margins.counts.astype(float)
    if np.any(counts <= 0):
        raise NumericError("zero-mass category present; encoding must drop empty categories")
    n, num_cols = margins.n, margins.num_columns
    if not np.allclose(np.diag(burt), counts):
        raise NumericError("Burt diagonal disagrees with category margins")
    masses = counts / (n * num_cols)
    inv_sqrt = 1.0 / np.sqrt(masses)
    residual = burt / (n * num_cols ** 2) - np.outer(masses, masses)
    sym = residual * np.outer(inv_sqrt, inv_sqrt)
    with _one_blas_thread:
        eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    if eigvals[-1] < -1e-10 or eigvals[0] > 1.0 + 1e-10:
        raise NumericError(f"principal inertias outside [0, 1]: {eigvals[-1]}, {eigvals[0]}")
    eigvals = np.clip(eigvals, 0.0, 1.0)

    floor = 1.0 / num_cols
    kept = int(np.sum(eigvals > floor + _RETAIN_EPS))
    kept = min(max(kept, 1), mca_dims, len(eigvals))

    loadings = eigvecs[:, :kept]
    # Canonical sign: the largest-magnitude loading of each axis is positive.
    anchor = np.abs(loadings).argmax(axis=0)
    signs = np.sign(loadings[anchor, np.arange(kept)])
    signs[signs == 0] = 1.0
    loadings = loadings * signs

    total_inertia = len(counts) / num_cols - 1.0
    return MCAModel(margins, eigvals[:kept], loadings, total_inertia)
