"""Command-line surface: cluster, sweep, bench, and mca-info subcommands.

All numeric output files are written with full-precision decimal
formatting, so a rerun with the same configuration and seed reproduces
them byte for byte.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import ingest, mca, validity
from .engine import METRICS_HEADER, JobSpec
from .errors import DataIOError, MrfcmError
from .fcm import FcmConfig, run_fcm


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create output directory {path}: {exc}") from exc


def _write_matrix(path, array):
    np.savetxt(path, array, fmt="%.17g", delimiter=",")


def _write_metrics(path, metrics_list):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for metrics in metrics_list:
            fh.write(metrics.csv_line() + "\n")


def _load_encoded(args):
    dataset = ingest.encode_csv(args.input, has_header=args.header,
                                delimiter=args.delimiter, bins=args.bins)
    store = ingest.partition(dataset, args.mappers)
    return dataset, store


def _fit(store, dataset, args, metrics_sink):
    spec = JobSpec(args.mappers, args.reducers, "burt")
    margins, burt, metrics = mca.accumulate_burt(store, dataset.cardinalities, spec)
    metrics_sink.append(metrics)
    return mca.fit_mca(margins, burt, mca_dims=args.mca_dims)


def cmd_cluster(args) -> int:
    metrics_sink = []
    dataset, store = _load_encoded(args)
    model = _fit(store, dataset, args, metrics_sink)
    spec = JobSpec(args.mappers, args.reducers, "fcm")
    config = FcmConfig(c=args.c, m=args.m, epsilon=args.epsilon,
                       max_iters=args.max_iters, seed=args.seed)
    result = run_fcm(store, model, config, spec, metrics_sink=metrics_sink)
    _write_matrix(os.path.join(args.out_dir, "memberships.csv"), result.u)
    _write_matrix(os.path.join(args.out_dir, "centroids.csv"), result.v)
    with open(os.path.join(args.out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("iter,jm,max_delta_u\n")
        for i, (jm, delta) in enumerate(zip(result.objective_trace, result.max_delta_trace), 1):
            fh.write(f"{i},{jm:.17g},{delta:.17g}\n")
    _write_metrics(os.path.join(args.out_dir, "jobs.csv"), metrics_sink)
    status = "converged" if result.converged else f"stopped at max_iters={args.max_iters}"
    print(f"cluster: n={dataset.n} c={args.c} iters={result.iters_run} ({status})")
    return 0


def cmd_sweep(args) -> int:
    if args.c_min > args.c_max:
        print("sweep: --c-min must not exceed --c-max", file=sys.stderr)
        return 2
    metrics_sink = []
    dataset, store = _load_encoded(args)
    model = _fit(store, dataset, args, metrics_sink)
    spec = JobSpec(args.mappers, args.reducers, "sweep")
    config = FcmConfig(c=2, m=args.m, epsilon=args.epsilon,
                       max_iters=args.max_iters, seed=args.seed)
    report = validity.sweep(store, model, args.c_min, args.c_max, config, spec)
    validity.write_validity_csv(report, os.path.join(args.out_dir, "validity.csv"))
    validity.write_plot_data(report, os.path.join(args.out_dir, "validity_plot.dat"))
    print(f"sweep: consensus_c={report.consensus_c} best_per_index={report.best_per_index}")
    return 0


def cmd_bench(args) -> int:
    if args.bench_sizes != sorted(args.bench_sizes):
        print("bench: --bench-sizes must be ascending", file=sys.stderr)
        return 2

    names, rows = ingest.load_csv(args.input, has_header=args.header, delimiter=args.delimiter)
    out_path = os.path.join(args.out_dir, "bench.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("instances,mappers,reducers,seconds\n")
        for size in args.bench_sizes:
            schema = ingest.infer_schema(names, rows[:min(size, len(rows))])
            dataset = ingest.discretize(rows[:min(size, len(rows))], schema, bins=args.bins)
            if size > dataset.n:
                dataset = ingest.replicate_to_size(dataset, size, seed=args.seed)
            for mappers, reducers in args.bench_deployments:
                store = ingest.partition(dataset, mappers)
                spec = JobSpec(mappers, reducers, f"bench_{size}")
                config = FcmConfig(c=args.c, m=args.m, epsilon=args.epsilon,
                                   max_iters=args.fixed_iters, seed=args.seed,
                                   fixed_iterations=True)
                started = time.perf_counter()
                margins, burt, _ = mca.accumulate_burt(store, dataset.cardinalities, spec)
                model = mca.fit_mca(margins, burt, mca_dims=args.mca_dims)
                run_fcm(store, model, config, spec)
                elapsed = time.perf_counter() - started
                fh.write(f"{size},{mappers},{reducers},{elapsed:.6f}\n")
                fh.flush()
                print(f"bench: instances={size} mappers={mappers} reducers={reducers} "
                      f"seconds={elapsed:.3f}")
    return 0


def cmd_mca_info(args) -> int:
    metrics_sink = []
    dataset, store = _load_encoded(args)
    model = _fit(store, dataset, args, metrics_sink)
    with open(os.path.join(args.out_dir, "schema.txt"), "w", encoding="utf-8") as fh:
        fh.write(ingest.schema_dump(dataset))
    mca.write_model_dump(model, os.path.join(args.out_dir, "axes.csv"),
                         os.path.join(args.out_dir, "loadings.csv"))
    print(f"mca-info: n={dataset.n} columns={dataset.num_columns} "
          f"categories={dataset.total_categories} axes={model.dim} "
          f"inertia={model.total_inertia:.6g}")
    for s in range(model.dim):
        print(f"  axis {s}: eigenvalue={model.eigenvalues[s]:.6g} "
              f"({100 * model.inertia_fractions[s]:.2f}% of inertia)")
    return 0


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _size_list(text):
    """argparse type: comma-separated row counts, each at least 1."""
    return [_positive_int(size) for size in text.split(",")]


def _deployment_list(text):
    """argparse type: comma-separated mappersxreducers pairs, each count at least 1."""
    pairs = [pair.split("x") for pair in text.split(",")]
    if any(len(pair) != 2 for pair in pairs):
        raise argparse.ArgumentTypeError(f"expected pairs like 50x25,100x50, got {text!r}")
    return [(_positive_int(mappers), _positive_int(reducers)) for mappers, reducers in pairs]


def _delimiter(text):
    """argparse type: the one character that separates CSV fields."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _common_flags(sub):
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument("--delimiter", type=_delimiter, default=",")
    sub.add_argument("--header", action=argparse.BooleanOptionalAction, default=True,
                     help="whether the first row is a header")
    sub.add_argument("--bins", type=int, default=4, help="quantile bins per numeric column")
    sub.add_argument("--mca-dims", type=int, default=8, help="cap on retained axes")
    sub.add_argument("--m", type=float, default=2.0, help="fuzziness exponent")
    sub.add_argument("--epsilon", type=float, default=1e-5)
    sub.add_argument("--max-iters", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--mappers", type=_positive_int, default=4)
    sub.add_argument("--reducers", type=_positive_int, default=2)
    sub.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrfcm",
                                     description="MCA + map-reduce fuzzy c-means pipeline")
    commands = parser.add_subparsers(dest="command", required=True)

    cluster = commands.add_parser("cluster", help="cluster at a fixed c")
    _common_flags(cluster)
    cluster.add_argument("--c", type=int, required=True, help="cluster count")
    cluster.set_defaults(fn=cmd_cluster)

    sweep = commands.add_parser("sweep", help="validity sweep over a range of c")
    _common_flags(sweep)
    sweep.add_argument("--c-min", type=int, default=2)
    sweep.add_argument("--c-max", type=int, default=6)
    sweep.set_defaults(fn=cmd_sweep)

    bench = commands.add_parser("bench", help="scalability benchmark over sizes x deployments")
    _common_flags(bench)
    bench.add_argument("--c", type=int, default=2)
    bench.add_argument("--bench-sizes", required=True, type=_size_list,
                       help="comma-separated ascending row counts, e.g. 100000,200000")
    bench.add_argument("--bench-deployments", default="50x25,100x50,150x75",
                       type=_deployment_list,
                       help="comma-separated mappersxreducers pairs")
    bench.add_argument("--fixed-iters", type=int, default=10,
                       help="iteration budget per bench cell (no convergence exit)")
    bench.set_defaults(fn=cmd_bench)

    info = commands.add_parser("mca-info", help="fit the projection model and dump audit files")
    _common_flags(info)
    info.set_defaults(fn=cmd_mca_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _make_out_dir(args.out_dir)
        return args.fn(args)
    except MrfcmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
