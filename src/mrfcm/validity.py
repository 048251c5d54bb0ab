"""Cluster validity indices and the optimal-cluster-count sweep.

Four indices score each candidate cluster count on the converged
partition: the partition coefficient (maximize), partition entropy
(minimize), the Xie-Beni ratio (minimize), and a separation/compactness
ratio (maximize).  The sweep runs one clustering per candidate c and
picks the consensus winner by majority vote across the four indices.

Each index is a sum over records, so it takes optional ``weights``: a row
of weight w counts as w identical records.  The sweep scores the distinct
records weighted by their counts, never the expanded table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import JobSpec, PartitionedStore
from .errors import NumericError
from .fcm import FcmConfig, _cluster, _coordinates, objective, sq_dist
from .mca import MCAModel

SEPARATION_EPS = 1e-12

# Direction each index prefers: +1 picks the maximum, -1 the minimum.
INDEX_DIRECTIONS = {"pc": +1, "pe": -1, "xb": -1, "sc": +1}


def _weights(u, weights):
    """(n, 1) multiplicities of the rows of u; ones, which change no bit, for None."""
    return np.ones((len(u), 1)) if weights is None else np.asarray(weights, float)[:, None]


def pc(u, weights=None) -> float:
    """Partition coefficient, mean squared membership; 1/c (uniform) to 1 (crisp)."""
    u = np.asarray(u, dtype=float)
    w = _weights(u, weights)
    return float((u * u * w).sum() / w.sum())


def pe(u, weights=None) -> float:
    """Partition entropy (natural log); 0 (crisp) to ln c (uniform)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(u > 0.0, u * np.log(u), 0.0)
    w = _weights(u, weights)
    return float(-(terms * w).sum() / w.sum())


def _pairwise_min_sep_sq(centroids) -> float:
    c = centroids.shape[0]
    if c < 2:
        raise NumericError("separation needs at least two centroids")
    return float(sq_dist(centroids, centroids)[np.triu_indices(c, 1)].min())


def xb(u, centroids, data, weights=None) -> float:
    """Xie-Beni index: squared-membership scatter over n times the minimum
    squared centroid separation.  Coincident centroids give +inf."""
    u = np.asarray(u, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    sep = _pairwise_min_sep_sq(centroids)
    return _xb(objective(u, centroids, data, 2.0, weights), _weights(u, weights).sum(), sep)


def _xb(scatter, total, sep):
    return math.inf if sep < SEPARATION_EPS else scatter / (total * sep)


def sc(u, centroids, data, m: float = 2.0, weights=None) -> float:
    """Separation/compactness ratio: minimum squared centroid separation over
    the per-record average of the m-weighted scatter.  Larger is better.

    Degenerate cases return sentinels rather than raising: coincident
    centroids give 0 (no separation), and a zero scatter with separated
    centroids gives +inf (perfectly compact).
    """
    u = np.asarray(u, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    sep = _pairwise_min_sep_sq(centroids)
    return _sc(objective(u, centroids, data, m, weights), _weights(u, weights).sum(), sep)


def _sc(scatter, total, sep):
    if sep < SEPARATION_EPS:
        return 0.0
    compact = scatter / total
    return math.inf if compact <= 0.0 else sep / compact


@dataclass
class ValidityRow:
    c: int
    pc: float
    pe: float
    xb: float
    sc: float
    iters: int
    jm: float
    failed: bool = False


@dataclass
class ValidityReport:
    rows: list = field(default_factory=list)
    best_per_index: dict = field(default_factory=dict)
    consensus_c: int = 0


def _vote(rows) -> tuple[dict, int]:
    """Best c per index, then majority vote with the smallest-XB tiebreak."""
    usable = [r for r in rows if not r.failed]
    if not usable:
        raise NumericError("every cluster count in the sweep failed")
    best = {}
    for name, direction in INDEX_DIRECTIONS.items():
        scored = [(getattr(r, name), r.c) for r in usable]
        if direction > 0:
            best[name] = max(scored, key=lambda t: (t[0], -t[1]))[1]
        else:
            best[name] = min(scored, key=lambda t: (t[0], t[1]))[1]
    tally: dict[int, int] = {}
    for winner in best.values():
        tally[winner] = tally.get(winner, 0) + 1
    top = max(tally.values())
    tied = sorted(c for c, votes in tally.items() if votes == top)
    xb_of = {r.c: r.xb for r in usable}
    return best, min(tied, key=lambda c: (xb_of[c], c))


def sweep(store: PartitionedStore, model: MCAModel | None, c_min: int, c_max: int,
          config: FcmConfig, spec: JobSpec) -> ValidityReport:
    """Cluster at every c in [c_min, c_max] and score the four indices.

    Each candidate gets a fresh initialization seeded with config.seed + c,
    so the whole sweep is reproducible while candidates stay independent.
    A candidate that fails (for instance, more clusters than distinct
    points) is recorded as a failed row and excluded from the vote.
    """
    if not (2 <= c_min <= c_max):
        raise NumericError(f"need 2 <= c_min <= c_max, got [{c_min}, {c_max}]")
    if c_max > store.n // 2:
        raise NumericError(f"c_max {c_max} exceeds n/2 = {store.n // 2}")

    # The distinct points do not depend on c: find and project them once,
    # then cluster and score every candidate on them, weighted by count.
    points, weights, seeds, _ = _coordinates(store, model)
    total = weights.sum()

    report = ValidityReport()
    for c in range(c_min, c_max + 1):
        run_cfg = replace(config, c=c, seed=config.seed + c)
        try:
            result = _cluster(points, weights, seeds, run_cfg, spec)
            u, v = result.distinct_u, result.v
            # xb and sc share the separation, and at m = 2 the scatter too.
            sep = _pairwise_min_sep_sq(v)
            scatter = objective(u, v, points.data, 2.0, weights)
            scatter_m = scatter if config.m == 2.0 else objective(u, v, points.data, config.m,
                                                                   weights)
            row = ValidityRow(
                c=c,
                pc=pc(u, weights),
                pe=pe(u, weights),
                xb=_xb(scatter, total, sep),
                sc=_sc(scatter_m, total, sep),
                iters=result.iters_run,
                jm=result.objective_trace[-1],
            )
        except NumericError:
            row = ValidityRow(c=c, pc=math.nan, pe=math.nan, xb=math.nan, sc=math.nan,
                              iters=0, jm=math.nan, failed=True)
        report.rows.append(row)
    report.best_per_index, report.consensus_c = _vote(report.rows)
    return report


def write_validity_csv(report: ValidityReport, path):
    """validity.csv: one row per candidate c, consensus appended as a comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c,pc,pe,xb,sc,iters,jm\n")
        for r in report.rows:
            if r.failed:
                fh.write(f"{r.c},failed,failed,failed,failed,0,failed\n")
            else:
                fh.write(f"{r.c},{r.pc:.17g},{r.pe:.17g},{r.xb:.17g},{r.sc:.17g},"
                         f"{r.iters},{r.jm:.17g}\n")
        fh.write(f"# consensus_c={report.consensus_c}\n")


def write_plot_data(report: ValidityReport, path):
    """Plot-ready columns with each index min-max normalized to [0, 1]."""
    rows = [r for r in report.rows if not r.failed]
    names = ["pc", "pe", "xb", "sc"]
    finite = {}
    for name in names:
        vals = np.array([getattr(r, name) for r in rows])
        good = np.isfinite(vals)
        lo = vals[good].min() if good.any() else 0.0
        hi = vals[good].max() if good.any() else 1.0
        span = hi - lo if hi > lo else 1.0
        norm = np.where(good, (vals - lo) / span, 1.0)
        finite[name] = norm
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# c pc_norm pe_norm xb_norm sc_norm\n")
        for i, r in enumerate(rows):
            cols = " ".join(f"{finite[name][i]:.6f}" for name in names)
            fh.write(f"{r.c} {cols}\n")
