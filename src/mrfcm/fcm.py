"""Fuzzy c-means decomposed into two alternating map-reduce jobs.

Job 1 (membership): every map task projects its partition's records and
computes their membership rows against the broadcast centroids; the
reduce merges the per-partition sub-matrices back into the full n x c
matrix by partition index, doing no arithmetic.

Job 2 (centroids): every map task emits its partition's weighted partial
sums (numerators and denominators of the prototype update, plus a partial
objective value); the reduce sums the partials in partition order and the
driver divides.

The driver alternates the two jobs from a seeded random initialization
until the membership matrix stops moving.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import JobSpec, run_job
from .errors import NumericError
from .ingest import PartitionedStore
from .mca import MCAModel, ProjectedData, _identity_reduce

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
        if self.m <= 1.0:
            raise NumericError(f"fuzziness exponent must be > 1, got {self.m}")
        if self.epsilon <= 0 or self.max_iters < 1:
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
    coords = data.coords if isinstance(data, ProjectedData) else np.asarray(data)
    distinct, first_pos = np.unique(coords, axis=0, return_index=True)
    distinct = distinct[np.argsort(first_pos)]  # first-appearance order
    if len(distinct) < c:
        raise NumericError(f"need {c} distinct points to seed centroids, have {len(distinct)}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(distinct), size=c, replace=False)
    return distinct[picks].astype(float)


def membership_row(x, centroids, m: float) -> np.ndarray:
    """Membership vector of one point, with the coincidence rule applied."""
    return _membership_block(np.asarray(x, dtype=float)[None, :], np.asarray(centroids, float), m)[0]


def _membership_block(points, centroids, m):
    """Vectorized membership update; all reductions stay within each row."""
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
    return u


def _coords_of(block, model):
    return model.transform(block) if model is not None else np.asarray(block, dtype=float)


def _job1_map(pid, block, ctx):
    model, centroids, m = ctx
    yield pid, _membership_block(_coords_of(block, model), centroids, m)


def job1_membership(store: PartitionedStore, model, centroids, spec: JobSpec,
                    m: float = 2.0, available_cores=None):
    """Membership job: project, compute rows, merge sub-matrices in order."""
    results, metrics = run_job(spec, store, (model, np.asarray(centroids, float), m),
                               _job1_map, _identity_reduce, available_cores=available_cores)
    u = np.concatenate([value for _, value in results], axis=0)
    return u, metrics


def _job2_map(pid, block, ctx):
    model, u_all, offsets, centroids, m = ctx
    coords = _coords_of(block, model)
    u = u_all[offsets[pid]:offsets[pid] + len(coords)]
    um = u ** m
    numer = um.T @ coords                       # (c, d)
    denom = um.sum(axis=0)                      # (c,)
    diff = coords[:, None, :] - centroids[None, :, :]
    partial_obj = (um * (diff * diff).sum(axis=2)).sum()
    yield "centroid_sums", (numer, denom, partial_obj)


def _sum_partials_reduce(key, values):
    numer, denom, obj = values[0]
    numer, denom = numer.copy(), denom.copy()
    for nu, de, ob in values[1:]:
        numer += nu
        denom += de
        obj += ob
    return numer, denom, obj


def job2_centroids(store: PartitionedStore, model, u, spec: JobSpec, m: float = 2.0,
                   centroids=None, available_cores=None):
    """Centroid job: sum per-partition partials, divide, rescue empty clusters.

    Also returns the objective of (u, centroids) accumulated on the way,
    since every map task already holds the distances.  ``centroids`` are
    the prototypes u was computed against (used only for the objective and
    for shapes); pass the current ones from the driver loop.
    """
    u = np.asarray(u, dtype=float)
    c = u.shape[1]
    if centroids is None:
        centroids = np.zeros((c, store.data.shape[1] if model is None else model.dim))
    ctx = (model, u, store.offsets, np.asarray(centroids, float), m)
    results, metrics = run_job(spec, store, ctx, _job2_map, _sum_partials_reduce,
                               available_cores=available_cores)
    numer, denom, objective = results[0][1]
    new_centroids = np.empty_like(numer)
    starved = denom < EMPTY_CLUSTER_EPS
    ok = ~starved
    new_centroids[ok] = numer[ok] / denom[ok, None]
    if starved.any():
        # Re-seed dead clusters at the points the current partition claims
        # least, so sweeps over generous c never abort.
        claim = u.max(axis=1)
        candidates = np.argsort(claim, kind="stable")
        rows = candidates[: int(starved.sum())]
        block_coords = _coords_of(store.data[rows], model)
        new_centroids[starved] = block_coords
    return new_centroids, float(objective), metrics


def objective(u, centroids, data, m: float = 2.0) -> float:
    """Weighted within-cluster scatter J_m of a partition/prototype pair."""
    coords = data.coords if isinstance(data, ProjectedData) else np.asarray(data, float)
    u = np.asarray(u, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    diff = coords[:, None, :] - centroids[None, :, :]
    return float(((u ** m) * (diff * diff).sum(axis=2)).sum())


def run_fcm(store: PartitionedStore, model: MCAModel | None, config: FcmConfig,
            spec: JobSpec, available_cores=None, metrics_sink=None) -> FcmResult:
    """Alternate the membership and centroid jobs until convergence.

    Convergence fires when the largest absolute membership change between
    consecutive iterations drops below config.epsilon.  The recorded
    objective for iteration t is J_m(U_t, V_{t-1}), evaluated inside job 2
    right after the membership update; the sequence is non-increasing.

    ``model`` may be None when the store already holds real-valued
    coordinates (projected or otherwise).
    """
    if model is None:
        coords = _coords_of(store.data, None)
        if not np.isfinite(coords).all():
            raise NumericError("input holds non-finite values (NaN or inf)")
        init_source = ProjectedData(coords)
    else:
        init_source = _project_distinct(store, model)
    centroids = init_centroids(init_source, config.c, config.seed)

    result = FcmResult(u=np.empty((store.n, config.c)), v=centroids)
    u_prev = None
    for iteration in range(1, config.max_iters + 1):
        u, m1 = job1_membership(store, model, centroids, spec, m=config.m,
                                available_cores=available_cores)
        centroids, obj, m2 = job2_centroids(store, model, u, spec, m=config.m,
                                            centroids=centroids, available_cores=available_cores)
        if metrics_sink is not None:
            metrics_sink.extend([m1, m2])
        result.objective_trace.append(obj)
        delta = float(np.abs(u - u_prev).max()) if u_prev is not None else float("inf")
        result.max_delta_trace.append(delta)
        result.u, result.v, result.iters_run = u, centroids, iteration
        if delta < config.epsilon and not config.fixed_iterations:
            result.converged = True
            break
        u_prev = u
    return result


def _project_distinct(store, model):
    """Project only the distinct encoded rows; enough for initialization."""
    distinct, first_pos = np.unique(store.data, axis=0, return_index=True)
    return ProjectedData(model.transform(distinct[np.argsort(first_pos)]))
