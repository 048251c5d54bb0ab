"""Fuzzy c-means over real-valued coordinates, one map-reduce job per iteration.

Encoded records repeat, so clustering runs on the distinct records, each
weighted by how often it occurs: identical points get identical
memberships, and a point of weight w adds w copies of its terms to every
sum.  The records are the store's own (``PartitionedStore.distinct``),
found once per store by the package's one dedup, so the Burt job and
every clustering of a store share them: codes are deduplicated on their
codes, float rows on their coordinates.  A categorical store arrives
with its MCA model, and its distinct records are projected once, split by
split by ``MCAModel.transform`` in the driver, before the first iteration.
The result keeps one membership row per distinct record and the row ->
record index, and expands them to every row only on request.

Each iteration is one job over the records' splits of at most
``engine.SPLIT_ROWS`` points, one map call per split, so every sum is
taken in the same order under any deployment.  The points are stored
once, column-major, so each block's (b, d) view is the transpose of
contiguous (d, b) coordinate rows.  Each map computes the block's squared
distances to the centroids once (``sq_dist``, the one distance routine
of the package) and its memberships by one formula scaled to each
point's nearest centroid, both cluster-major as (c, b) arrays: the
subtraction and the reductions over the few clusters run along rows as
long as the block.  The sums over coordinates and over clusters add
plane after plane (``sq_dist``, ``_fold``), and the denominators' sums
over points row after row (``_point_sums``): each in sequence, in an
order the code writes down.  The objective is numpy's sum of the whole (b, c) array;
only the centroid numerators ``rows.T @ coords`` depend on the BLAS
build.  Each map emits under one key the block's (c, b) memberships,
their largest absolute change from the previous iteration's block,
which the driver passes back in the job's context, and the weighted
partial sums of the prototype update (numerators, denominators and the
objective); the reduce keeps the blocks in partition order, takes the
largest change over them, and adds the sums in block order
(``sum_reduce``); ``fcm_iteration`` divides.

The driver repeats the job from a seeded random initialization until the
largest membership change, Bezdek's test, falls below epsilon.  The
memberships stay in their (c, b) blocks from one iteration to the next
and are stacked into (k, c) rows once, after the last.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import JobSpec, PartitionedStore, _distinct_rows, run_job, sum_reduce
from .errors import NumericError
from .mca import MCAModel

# Records closer to a centroid than this are treated as coincident with it.
SINGULARITY_DISTANCE = 1e-12
# Cluster weights below this trigger the empty-cluster rescue.
EMPTY_CLUSTER_EPS = 1e-12


@dataclass
class FcmConfig:
    """Knobs of one clustering run."""

    c: int
    m: float = 2.0
    epsilon: float = 1e-5
    max_iters: int = 100
    seed: int = 0
    fixed_iterations: bool = False  # run exactly max_iters (benchmark mode)

    def __post_init__(self):
        if self.c < 2:
            raise NumericError(f"cluster count must be >= 2, got {self.c}")
        # Written as not (...) so that NaN fails the checks.
        if not 1.0 < self.m < np.inf:
            raise NumericError(f"fuzziness exponent must be finite and > 1, got {self.m}")
        if not (self.epsilon > 0 and self.max_iters >= 1):
            raise NumericError("epsilon must be > 0 and max_iters >= 1")


@dataclass
class FcmResult:
    """A clustering run's memberships, centroids and per-iteration trace."""

    distinct_u: np.ndarray  # (k, c) row-stochastic memberships of the distinct points
    v: np.ndarray  # (c, d) centroids
    inverse: np.ndarray  # (n,) row of the clustered store -> distinct point
    objective_trace: list = field(default_factory=list)
    max_delta_trace: list = field(default_factory=list)
    iters_run: int = 0
    converged: bool = False

    @property
    def u(self) -> np.ndarray:
        """(n, c) memberships, one row per row of the clustered store."""
        return self.distinct_u[self.inverse]


def init_centroids(data, c: int, seed: int) -> np.ndarray:
    """Draw c distinct data points without replacement, seeded.

    Distinctness is over point values, not row indices: encoded records
    often repeat, and coincident initial centroids would never separate.
    """
    coords = np.asarray(data, dtype=float)
    first, _, _ = _distinct_rows(coords)
    return _draw_centroids(coords, first, c, seed)


def _draw_centroids(coords, first, c, seed):
    """init_centroids' seeded draw among the rows ``first`` of ``coords``,
    the first positions of its distinct rows."""
    if len(first) < c:
        raise NumericError(f"need {c} distinct points to seed centroids, have {len(first)}")
    rng = np.random.default_rng(seed)
    return coords[first[rng.choice(len(first), size=c, replace=False)]]


def membership_row(x, centroids, m: float) -> np.ndarray:
    """Membership vector of one point, with the coincidence rule applied."""
    u, _ = _membership_block(np.asarray(x, dtype=float)[None, :], np.asarray(centroids, float), m)
    return u[:, 0]


def sq_dist(points, centroids):
    """(c, b) squared Euclidean distances from each centroid to each point.

    The squared differences are formed one (c, b) coordinate plane at a
    time and added to plane 0's in sequence, the order of ``_fold``, so
    no (d, c, b) temporary is held.
    """
    coords, cents = points.T, centroids.T[:, :, None]
    total = np.subtract(coords[0], cents[0])
    np.square(total, out=total)
    plane = np.empty_like(total)
    for x, v in zip(coords[1:], cents[1:]):
        np.subtract(x, v, out=plane)
        total += np.square(plane, out=plane)
    return total


def _fold(planes, total):
    """Add planes[1:] to ``total`` in place, one after another.  Started from
    planes[0] or its copy, this is the one order of every sum over axis 0;
    ``sq_dist`` adds its coordinate planes in it too, as it forms them."""
    for plane in planes[1:]:
        total += plane
    return total


def _membership_block(points, centroids, m):
    """(c, b) memberships of a block of points, and the distances they used.

    Column i is r_ji / sum_k r_ki with r_ji = (d_min,i / d_ji)^(1/(m-1)) over
    squared distances d: Bezdek's update, scaled per point so that the nearest
    centroid's ratio is exactly 1, which keeps the power finite and every column
    sum positive, even near m = 1.  A point within SINGULARITY_DISTANCE of some
    centroids splits its membership equally among them; only the columns of
    such points get a coincidence mask.  Min and sum run over axis 0; the sum
    folds the (c, b) ratios in sequence into a fresh (b,) array (``_fold``).
    """
    dist_sq = sq_dist(points, centroids)
    nearest = dist_sq.min(axis=0)
    hit = nearest < SINGULARITY_DISTANCE ** 2
    # Only a coincident point can divide by a zero distance; it is overwritten.
    exponent = 1.0 / (m - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = nearest / dist_sq
        if exponent != 1.0:  # at m = 2 the power would only copy
            ratios **= exponent
    if hit.any():
        # Split full membership equally among coincident centroids.
        ratios[:, hit] = dist_sq[:, hit] < SINGULARITY_DISTANCE ** 2
    ratios /= _fold(ratios, ratios[0].copy())
    return ratios, dist_sq


def _point_sums(rows):
    """Column sums of a C-ordered (b, c) array, its rows added in sequence.

    einsum adds row after row along the c columns.  A single column would
    collapse to a 1-D reduction with several running sums, so it is
    accumulated by cumsum, which adds in sequence too.
    """
    return np.einsum("bc->c", rows) if rows.shape[1] > 1 else np.cumsum(rows, axis=0)[-1]


def _iteration_map(pid, coords, ctx):
    """The block's (c, b) memberships, their largest change since the
    previous iteration, and the block's weighted partial sums.  ``coords``
    is the block's (b, d) view of a column-major store, so its transpose
    holds the contiguous (d, b) rows along which ``sq_dist`` subtracts.
    u**m is written straight into the (b, c) rows whose sums over points
    add in sequence; the numerators, a gemm on ``coords``, alone depend
    on the BLAS kernel.  Once both sums have read them, the rows take the
    objective's products in place."""
    centroids, m, weights, offsets, u_prev = ctx
    u, dist_sq = _membership_block(coords, centroids, m)
    rows = np.square(u.T, order="C") if m == 2.0 else np.power(u.T, m, order="C")
    rows *= weights[offsets[pid]:offsets[pid + 1], None]
    delta = np.inf if u_prev is None else np.abs(u - u_prev[pid]).max()
    numer, denom = rows.T @ coords, _point_sums(rows)
    rows *= dist_sq.T
    yield "iteration", (u, delta, numer, denom, rows.sum())


def _iteration_reduce(key, values):
    """The blocks in partition order, their largest change (``np.max``
    keeps a NaN), and the partial sums added in block order."""
    blocks, deltas, *partials = zip(*values)
    return (list(blocks), np.max(deltas), *(sum_reduce(key, part) for part in partials))


def _iteration_job(store, centroids, spec, m, weights, u_prev=None):
    """fcm_iteration's job: (blocks, delta, new_centroids, objective,
    metrics), where ``blocks`` holds each partition's (c, b) memberships
    and ``delta`` their largest change from ``u_prev``'s (inf for None)."""
    context = (np.asarray(centroids, float), m, weights, store.offsets, u_prev)
    results, metrics = run_job(spec, store, context, _iteration_map, _iteration_reduce)
    blocks, delta, numer, denom, jm = results[0][1]
    new_centroids = np.empty_like(numer)
    starved = denom < EMPTY_CLUSTER_EPS
    ok = ~starved
    new_centroids[ok] = numer[ok] / denom[ok, None]
    if starved.any():
        # Distinct points: two dead clusters re-seeded at one point would
        # coincide, and coincident centroids never separate again.
        claim = np.concatenate([block.max(axis=0) for block in blocks])  # u.max(axis=1)
        claimed = store.data[np.argsort(claim, kind="stable")]
        first, _, _ = _distinct_rows(claimed)
        new_centroids[starved] = claimed[first[:int(starved.sum())]]
    return blocks, float(delta), new_centroids, float(jm), metrics


def _stack(blocks, n):
    """The (n, c) C-ordered membership rows of the (c, b) blocks."""
    return np.concatenate([block.T for block in blocks], out=np.empty((n, len(blocks[0]))))


def fcm_iteration(store: PartitionedStore, centroids, spec: JobSpec, m: float = 2.0,
                  weights=None):
    """One fused pass: memberships against ``centroids``, then new centroids.

    ``weights`` gives each row's multiplicity (all ones when None).  It
    scales the row's u**m in the centroid sums and the objective, as if
    the row occurred that many times, but not its membership row.

    Returns (u, new_centroids, objective, metrics), u as C-ordered (n, c)
    rows stacked from the maps' (c, b) blocks.  The objective is
    J_m(u, centroids), accumulated from the distances the map tasks
    already hold.  Clusters whose weight vanishes are re-seeded at the
    distinct points u claims least, so sweeps over generous c never abort.
    The maps read their points from ``store`` as it is: a column-major
    store, as ``run_fcm`` makes, gives them contiguous coordinate rows, and
    any layout gives the same bits.
    """
    weights = np.ones(store.n) if weights is None else np.asarray(weights, dtype=float)
    blocks, _, new_centroids, jm, metrics = _iteration_job(store, centroids, spec, m, weights)
    return _stack(blocks, store.n), new_centroids, jm, metrics


def objective(u, centroids, data, m: float = 2.0, weights=None) -> float:
    """Weighted within-cluster scatter J_m of a partition/prototype pair.

    ``weights`` gives each row's multiplicity, as in ``fcm_iteration``;
    all ones (None) leaves every term as it is.
    """
    u = np.ascontiguousarray(u, dtype=float)  # the sum adds in (n, c) order
    um = u ** m if weights is None else u ** m * np.asarray(weights, float)[:, None]
    return float((um * sq_dist(np.asarray(data, float), np.asarray(centroids, float)).T).sum())


def run_fcm(store: PartitionedStore, model: MCAModel | None, config: FcmConfig,
            spec: JobSpec, metrics_sink=None) -> FcmResult:
    """Repeat the fused iteration job until convergence.

    Convergence fires when the largest absolute membership change between
    consecutive iterations drops below config.epsilon.  The recorded
    objective for iteration t is J_m(U_t, V_{t-1}), evaluated in the same
    pass right after the membership update; the sequence is non-increasing.

    ``model`` projects a categorical store once, before the first
    iteration; pass None when the store already holds real-valued
    coordinates (projected or otherwise).  The iterations run on the
    store's distinct records, weighted by multiplicity; the result keeps
    their memberships and the row -> record index, and its ``u`` has one
    row per row of ``store``.
    """
    return _cluster(_coordinates(store, model), config, spec, metrics_sink)


def _coordinates(store, model):
    """(points, weights, seeds, inverse): the distinct records of ``store``
    (``store.distinct``) as a float store in first-appearance order, how
    often each occurs, the first positions of the distinct point values,
    and the row -> point index, so that ``u[inverse]`` has one row per
    record.

    Only the distinct records are projected, split by split, each split's
    points written straight into one column-major (k, d) array: a record's
    projection does not depend on its block (``MCAModel.transform``), so
    the bits are those of one call, and no (k, Q) gather table or row-major
    copy of the points is held.  Two records can project to one point, so
    the seeds are found here, once for every candidate of a sweep: every
    point when the first coordinate has no repeat, otherwise by a second
    dedup on the points.  The points' store has the records' offsets, so
    its blocks are the records' splits, whatever partitions ``store`` had.
    Points in first-appearance order give init_centroids the same picks as
    every row would.
    """
    records, weights, inverse = store.distinct
    points = None
    for pid in range(records.num_partitions):
        block = records.block(pid)
        block = np.asarray(block, float) if model is None else model.transform(block)
        if points is None:  # d from the first split's points: a model need not name it
            points = np.empty((records.n, block.shape[1]), order="F")
        points[records.offsets[pid]:records.offsets[pid + 1]] = block
    if np.unique(points[:, 0]).size == len(points):  # then no two points are equal
        seeds = np.arange(len(points))
    else:
        seeds, _, _ = _distinct_rows(points)
    points = PartitionedStore(points, records.offsets)
    # Every centroid lies in the points' bounding box, so no distance or
    # objective sum exceeds its squared diagonal times the total weight.
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.ptp(points.data, axis=0)
        if not np.isfinite(np.square(extent).sum() * weights.sum()):
            raise NumericError("input holds non-finite values, or squared distances overflow")
    return points, weights, seeds, inverse


def _cluster(coordinates, config, spec, metrics_sink=None):
    """The iteration loop of run_fcm over ``_coordinates``' store of distinct
    float points, seeded among its rows ``seeds``.  Each job's (c, b)
    membership blocks go into the next job's context, whose maps measure
    their own change.  The result is built once, after the last job, its
    (k, c) rows stacked from that job's blocks."""
    store, weights, seeds, inverse = coordinates
    centroids = _draw_centroids(store.data, seeds, config.c, config.seed)
    objectives, deltas, blocks = [], [], None
    for iteration in range(1, config.max_iters + 1):
        blocks, delta, centroids, obj, metrics = _iteration_job(
            store, centroids, spec, config.m, weights, blocks)
        if metrics_sink is not None:
            metrics_sink.append(metrics)
        objectives.append(obj)
        deltas.append(delta)
        converged = delta < config.epsilon and not config.fixed_iterations
        if converged:
            break
    return FcmResult(_stack(blocks, store.n), centroids, inverse, objectives, deltas,
                     iteration, converged)
