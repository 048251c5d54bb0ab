"""Fuzzy c-means over real-valued coordinates, one map-reduce job per iteration.

Encoded records repeat, so clustering runs on the distinct records, each
weighted by how often it occurs: identical points get identical
memberships, and a point of weight w adds w copies of its terms to every
sum.  A categorical store arrives with its MCA model; its distinct
records are found on the codes and projected once, by one engine job,
before the first iteration.  A float store is deduplicated on its
coordinates.  The memberships are expanded back to every row at the end.

Each iteration is one job over blocks of at most ``POINT_BLOCK_ROWS``
distinct points; the mappers only group blocks into tasks, so every sum
is taken in the same order under any deployment.  For each block, a map
computes the squared distances to the broadcast centroids once, and
emits under a single key both halves of the alternating optimization:
the block's membership rows, and the weighted partial sums of the
prototype update (numerators, denominators and a partial objective
value).  The reduce concatenates the membership blocks and sums the
partials, both in block order; the driver divides.

The driver repeats the job from a seeded random initialization until the
membership matrix stops moving.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import JobSpec, run_job
from .errors import NumericError
from .ingest import PartitionedStore, partition
from .mca import MCAModel, project_store

# Records closer to a centroid than this are treated as coincident with it.
SINGULARITY_DISTANCE = 1e-12
# Cluster weights below this trigger the empty-cluster rescue.
EMPTY_CLUSTER_EPS = 1e-12
# Most distinct points per block.  The blocks fix the order of every
# floating-point sum, so changing this changes the output bits.
POINT_BLOCK_ROWS = 4096


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
    u: np.ndarray  # (n, c) row-stochastic memberships
    v: np.ndarray  # (c, d) centroids
    objective_trace: list = field(default_factory=list)
    max_delta_trace: list = field(default_factory=list)
    iters_run: int = 0
    converged: bool = False


def init_centroids(data, c: int, seed: int) -> np.ndarray:
    """Draw c distinct data points without replacement, seeded.

    Distinctness is over point values, not row indices: encoded records
    often repeat, and coincident initial centroids would never separate.
    """
    coords = np.asarray(data, dtype=float)
    first, _, _ = _distinct_rows(coords)
    if len(first) < c:
        raise NumericError(f"need {c} distinct points to seed centroids, have {len(first)}")
    rng = np.random.default_rng(seed)
    return coords[first[rng.choice(len(first), size=c, replace=False)]]


def membership_row(x, centroids, m: float) -> np.ndarray:
    """Membership vector of one point, with the coincidence rule applied."""
    u, _ = _membership_block(np.asarray(x, dtype=float)[None, :], np.asarray(centroids, float), m)
    return u[0]


def _membership_block(points, centroids, m):
    """Vectorized membership update and the squared distances it used;
    all reductions stay within each row."""
    diff = points[:, None, :] - centroids[None, :, :]
    dist_sq = (diff * diff).sum(axis=2)  # (b, c)
    coincident = dist_sq < SINGULARITY_DISTANCE ** 2
    hit = coincident.any(axis=1)
    safe = ~hit
    with np.errstate(divide="ignore", over="ignore"):
        ratios = dist_sq ** (-1.0 / (m - 1.0))
        sums = ratios.sum(axis=1)
    # Near m = 1 the power over- or underflows, or leaves only subnormal
    # ratios with a few significant bits; such rows are recomputed against
    # their own nearest centroid, whose ratio is then exactly 1.
    lost = safe & ~(np.isfinite(sums) & (ratios.max(axis=1) >= np.finfo(float).tiny))
    if lost.any():
        d = dist_sq[lost]
        ratios[lost] = (d.min(axis=1, keepdims=True) / d) ** (1.0 / (m - 1.0))
    u = np.empty_like(dist_sq)
    u[safe] = ratios[safe] / ratios[safe].sum(axis=1, keepdims=True)
    if hit.any():
        # Split full membership equally among coincident centroids.
        u[hit] = coincident[hit] / coincident[hit].sum(axis=1, keepdims=True)
    return u, dist_sq


def _iteration_map(pid, coords, ctx):
    centroids, m, weights, offsets = ctx
    u, dist_sq = _membership_block(coords, centroids, m)
    um = u ** m
    if weights is not None:
        um *= weights[offsets[pid]:offsets[pid + 1], None]
    yield "iteration", (u, um.T @ coords, um.sum(axis=0), (um * dist_sq).sum())


def _iteration_reduce(key, values):
    u, numer, denom, obj = zip(*values)
    # sum() adds in block order; starting at the first block, not 0, keeps -0.0.
    return (np.concatenate(u, axis=0), sum(numer[1:], numer[0]), sum(denom[1:], denom[0]),
            sum(obj[1:], obj[0]))


def fcm_iteration(store: PartitionedStore, centroids, spec: JobSpec, m: float = 2.0,
                  available_cores=None, weights=None):
    """One fused pass: memberships against ``centroids``, then new centroids.

    ``weights`` gives each row's multiplicity (all ones when None).  It
    scales the row's u**m in the centroid sums and the objective, as if
    the row occurred that many times, but not its membership row.

    Returns (u, new_centroids, objective, metrics).  The objective is
    J_m(u, centroids), accumulated from the distances the map tasks
    already hold.  Clusters whose weight vanishes are re-seeded at the
    distinct points u claims least, so sweeps over generous c never abort.
    """
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
    context = (np.asarray(centroids, float), m, weights, store.offsets)
    results, metrics = run_job(spec, store, context, _iteration_map, _iteration_reduce,
                               available_cores=available_cores)
    u, numer, denom, jm = results[0][1]
    new_centroids = np.empty_like(numer)
    starved = denom < EMPTY_CLUSTER_EPS
    ok = ~starved
    new_centroids[ok] = numer[ok] / denom[ok, None]
    if starved.any():
        # Distinct points: two dead clusters re-seeded at one point would
        # coincide, and coincident centroids never separate again.
        claimed = store.data[np.argsort(u.max(axis=1), kind="stable")]
        first, _, _ = _distinct_rows(claimed)
        new_centroids[starved] = claimed[first[:int(starved.sum())]]
    return u, new_centroids, float(jm), metrics


def objective(u, centroids, data, m: float = 2.0) -> float:
    """Weighted within-cluster scatter J_m of a partition/prototype pair."""
    coords = np.asarray(data, dtype=float)
    u = np.asarray(u, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    diff = coords[:, None, :] - centroids[None, :, :]
    return float(((u ** m) * (diff * diff).sum(axis=2)).sum())


def run_fcm(store: PartitionedStore, model: MCAModel | None, config: FcmConfig,
            spec: JobSpec, available_cores=None, metrics_sink=None) -> FcmResult:
    """Repeat the fused iteration job until convergence.

    Convergence fires when the largest absolute membership change between
    consecutive iterations drops below config.epsilon.  The recorded
    objective for iteration t is J_m(U_t, V_{t-1}), evaluated in the same
    pass right after the membership update; the sequence is non-increasing.

    ``model`` projects a categorical store once, before the first
    iteration; pass None when the store already holds real-valued
    coordinates (projected or otherwise).  The iterations run on the
    distinct records, weighted by multiplicity; the returned ``u`` has
    one row per row of ``store``.
    """
    points, weights, inverse = _coordinates(store, model, spec, available_cores, metrics_sink)
    result = _cluster(points, weights, config, spec, available_cores, metrics_sink)
    result.u = result.u[inverse]
    return result


def _coordinates(store, model, spec, available_cores=None, metrics_sink=None):
    """(points, weights, inverse): the distinct records of ``store`` as a
    float store in first-appearance order, how often each occurs, and the
    row -> point index, so that ``u[inverse]`` has one row per record.

    Codes are deduplicated before the projection job, which then projects
    only the distinct records; float rows are deduplicated by value.  The
    k points go into ceil(k / POINT_BLOCK_ROWS) contiguous blocks, whatever
    partitions ``store`` had.  Points in first-appearance order give
    init_centroids the same picks as every row would.
    """
    if model is None:
        data = np.asarray(store.data, dtype=float)
        if not np.isfinite(data).all():
            raise NumericError("input holds non-finite values (NaN or inf)")
    else:
        data = store.data
    first, weights, inverse = _distinct_rows(data)
    points = partition(data[first], -(-len(first) // POINT_BLOCK_ROWS))
    if model is not None:
        coords, metrics = project_store(points, model, spec, available_cores=available_cores)
        if metrics_sink is not None:
            metrics_sink.append(metrics)
        points = PartitionedStore(coords, points.offsets)
    return points, weights, inverse


def _distinct_rows(array):
    """(first position, count, row -> distinct index) of a 2-D array's
    distinct rows, in first-appearance order.  Each row is compared as one
    byte string: wide code tables need no packed key, which overflows int64.
    """
    array = np.ascontiguousarray(array + 0)  # + 0 folds -0.0 into 0.0
    rows = array.view(np.dtype((np.void, array.itemsize * array.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(rows, return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], counts[order].astype(float), rank[inverse]


def _cluster(store, weights, config, spec, available_cores=None, metrics_sink=None):
    """The driver loop of run_fcm over a store of distinct float points."""
    centroids = init_centroids(store.data, config.c, config.seed)
    result = FcmResult(u=np.empty((store.n, config.c)), v=centroids)
    u_prev = None
    for iteration in range(1, config.max_iters + 1):
        u, centroids, obj, metrics = fcm_iteration(store, centroids, spec, m=config.m,
                                                   available_cores=available_cores,
                                                   weights=weights)
        if metrics_sink is not None:
            metrics_sink.append(metrics)
        result.objective_trace.append(obj)
        delta = float(np.abs(u - u_prev).max()) if u_prev is not None else float("inf")
        result.max_delta_trace.append(delta)
        result.u, result.v, result.iters_run = u, centroids, iteration
        if delta < config.epsilon and not config.fixed_iterations:
            result.converged = True
            break
        u_prev = u
    return result
