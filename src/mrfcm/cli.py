"""Command-line surface: cluster, sweep, bench, and mca-info subcommands.

``main`` owns the output directory: it makes ``--out-dir``, removes the
earlier run's files of the subcommand's declared ``outputs``, and hands
their paths to the subcommand, which writes each one and joins no path.
A failure to make or write any of them exits 3.  All numeric output
files are written with full-precision decimal formatting, so a rerun
with the same configuration and seed reproduces them byte for byte.

Every subcommand fits one uncut, uncopied store of the encoded codes
(``_fit``).  The Burt job and fcm map its k distinct records, weighted by
their counts, in fixed splits; --mappers only bounds how many map at once,
and ``memberships.csv`` expands the records to every row.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

# OpenBLAS sizes its thread pool when numpy loads it, and an idle worker
# spins on another core; mrfcm's jobs and eigensolve use one BLAS thread
# anyway (``engine._one_blas_thread``).  So the command starts OpenBLAS on
# one thread, unless the caller chose a count or numpy is already loaded.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import ingest, mca, validity
from .engine import METRICS_HEADER, JobSpec, PartitionedStore
from .errors import DataIOError, MrfcmError, NumericError
from .fcm import FcmConfig, run_fcm


def _digit_groups():
    """The four ASCII digits of g = 0..9999 as little-endian uint32 words:
    at 10000 + g all four, at g the same with its trailing zeros NUL."""
    powers = np.array([1000, 100, 10, 1], dtype=np.uint16)
    full = (np.arange(10000, dtype=np.uint16)[:, None] // powers % 10 + 48).astype(np.uint8)
    kept = np.logical_or.accumulate(full[:, ::-1] != 48, axis=1)[:, ::-1]  # a nonzero at or after
    return np.concatenate([full * kept, full]).view("<u4").ravel()


def _field_prefixes():
    """The first word of a field, at 40 * negative + 10 * leading zeros +
    first digit: the little-endian bytes NUL (the separator's place), sign,
    "0.", up to three zeros and the first significant digit, absent ones NUL."""
    prefix = np.zeros((2, 4, 10, 8), dtype=np.uint8)
    prefix[1, ..., 1] = ord("-")
    prefix[..., 2:4] = (ord("0"), ord("."))
    for zeros in range(4):
        prefix[:, zeros, :, 4:4 + zeros] = ord("0")
    prefix[..., 7] = ord("0") + np.arange(10)
    return prefix.view("<u8").ravel()


_DIGIT_GROUPS = _digit_groups()
_FIELD_PREFIXES = _field_prefixes()
# 5**p for p = 16 - X at X + 4, X = -4..-1 the decimal exponent, as 32-bit limbs.
_POW5 = [5 ** p for p in range(20, 16, -1)]
_POW5_LO = np.array([power % 2 ** 32 for power in _POW5], dtype=np.uint64)
_POW5_HI = np.array([power >> 32 for power in _POW5], dtype=np.uint64)
_U64 = np.uint64  # every scalar in uint64 arithmetic: an int64 operand promotes it to float64


def _format_lines(rows):
    """The lines that ``b"%.17g"`` and "," give a 2-D float64 array's rows,
    each ending in LF.

    A value x with |x| in [1e-4, 1) is formatted in numpy, exactly.  Its
    decimal exponent X in [-4, -1] is counted by comparisons with the doubles
    1e-3, 1e-2 and 1e-1, each above its power of ten with its lower neighbour
    below it, so X is exact.  With x = M * 2**E and p = 16 - X, the 17
    significant digits are N = M * 5**p / 2**s, s = -(E + p) in [36, 46],
    rounded half to even: the product, below 2**100, is formed from 32-bit
    limbs as a (high, low) uint64 pair and shifted right by s - 1, and the
    bits shifted out break a tie.  N stays below 10**17: the doubles below
    1e-3, 1e-2, 1e-1 and 1 lie more than 8 units of the 17th digit under
    them.  Each value takes three uint64 words: a separator (LF before a
    row's first value, "," before the others), sign, "0.", leading zeros
    and first digit from ``_FIELD_PREFIXES``, then 16 digits as four groups
    from ``_DIGIT_GROUPS``, trailing zeros NUL, which one ``translate``
    deletes.  A row holding any other value (0, -0, |x| >= 1, |x| < 1e-4,
    inf, nan) is formatted by bytes ``%`` instead.
    """
    r, c = rows.shape
    values = rows.ravel()
    x = np.abs(values)
    fast = (x >= 1e-4) & (x < 1)
    x[~fast] = 0.5  # formatted, then replaced by its row's % line
    exponent = (x >= 1e-3).view(np.uint8) + (x >= 1e-2) + (x >= 1e-1)  # X + 4
    bits = x.view(np.uint64)
    m_lo = bits & _U64(2 ** 32 - 1)
    m_hi = (bits >> _U64(32)) & _U64(2 ** 20 - 1)
    m_hi |= _U64(2 ** 20)  # the implicit bit of M
    f_lo, f_hi = _POW5_LO[exponent], _POW5_HI[exponent]
    low = m_lo * f_lo
    mid = m_lo * f_hi
    mid += m_hi * f_lo
    high = m_hi * f_hi
    high += mid >> _U64(32)
    mid <<= _U64(32)
    low += mid
    high += low < mid  # the carry
    up = (bits >> _U64(52)) - _U64(990) - exponent  # 65 - s from E's biased field
    n = (high << up) | (low >> (_U64(64) - up))  # 2 N + the round bit
    n += ((low << up) != 0) | ((n >> _U64(1)) & _U64(1))  # a tie rounds to even
    n >>= _U64(1)
    hi9 = (n // _U64(10 ** 8)).astype(np.uint32)
    lo8 = (n - hi9 * _U64(10 ** 8)).astype(np.uint32)
    first = hi9 // 10 ** 8
    hi8 = hi9 - first * 10 ** 8
    groups = [hi8 // 10000, hi8 % 10000, lo8 // 10000, lo8 % 10000]
    at = first.astype(np.intp)
    at += 10 * (3 - exponent)
    at += 40 * (values < 0)
    prefix = _FIELD_PREFIXES[at].reshape(r, c)
    prefix[:, 0] |= ord("\n")
    prefix[:, 1:] |= ord(",")
    words = np.empty((r * c, 3), dtype=np.uint64)
    words[:, 0] = prefix.ravel()
    digits = words[:, 1:].view(np.uint32)
    later = [(groups[1] | lo8) != 0, lo8 != 0, groups[3] != 0, False]  # digits after the group
    for j, (group, full) in enumerate(zip(groups, later)):
        digits[:, j] = _DIGIT_GROUPS[group + 10000 * full]
    lines = words.tobytes().translate(None, b"\0").splitlines(keepends=True)[1:]
    lines[-1] += b"\n"
    slow = np.flatnonzero(~fast.reshape(r, c).all(axis=1))
    if slow.size:
        line = b",".join([b"%.17g"] * c) + b"\n"
        text = ((line * len(slow)) % tuple(rows[slow].ravel().tolist())).splitlines(keepends=True)
        for i, formatted in zip(slow.tolist(), text):
            lines[i] = formatted
    return lines


def _write_matrix(path, rows, inverse=None):
    """Write rows[inverse] (every row when None) as ``np.savetxt`` with
    fmt="%.17g" and delimiter="," would.  Each row of ``rows`` is formatted
    once (``_format_lines``), ``ingest.BLOCK_ROWS`` rows at a time; the file
    is written in binary, ``ingest.BLOCK_ROWS`` lines per write, gathered
    through an object array."""
    rows = np.asarray(rows, dtype=float)
    lines = []
    for start in range(0, len(rows), ingest.BLOCK_ROWS):
        lines += _format_lines(rows[start:start + ingest.BLOCK_ROWS])
    lines = np.array(lines, dtype=object)
    order = np.arange(len(lines)) if inverse is None else inverse
    with open(path, "wb") as fh:
        for start in range(0, len(order), ingest.BLOCK_ROWS):
            fh.write(b"".join(lines[order[start:start + ingest.BLOCK_ROWS]].tolist()))


def _write_metrics(path, metrics_list):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for metrics in metrics_list:
            fh.write(metrics.csv_line() + "\n")


def _fit(dataset, spec, mca_dims):
    """(store, model, Burt job metrics) of an encoded dataset.  The store wraps
    the codes uncopied in one block, as ``fcm._coordinates`` wraps its
    points: every job maps the fixed splits of the distinct records."""
    store = PartitionedStore(dataset.codes, np.array([0, dataset.n]))
    margins, burt, metrics = mca.accumulate_burt(store, dataset.cardinalities, spec)
    return store, mca.fit_mca(margins, burt, mca_dims=mca_dims), metrics


def _encode_and_fit(args):
    """(dataset, store, model, Burt job metrics) of the --input CSV, by ``_fit``."""
    dataset = ingest.encode_csv(args.input, has_header=args.header,
                                delimiter=args.delimiter, bins=args.bins)
    return (dataset, *_fit(dataset, JobSpec(args.mappers, args.reducers, "burt"), args.mca_dims))


def cmd_cluster(args, memberships_csv, centroids_csv, trace_csv, jobs_csv) -> int:
    config = FcmConfig(c=args.c, m=args.m, epsilon=args.epsilon,
                       max_iters=args.max_iters, seed=args.seed)
    dataset, store, model, burt_metrics = _encode_and_fit(args)
    metrics_sink = [burt_metrics]
    spec = JobSpec(args.mappers, args.reducers, "fcm")
    result = run_fcm(store, model, config, spec, metrics_sink=metrics_sink)
    n = dataset.n
    del dataset, store  # the writers read only the result's rows and index
    _write_matrix(memberships_csv, result.distinct_u, result.inverse)
    _write_matrix(centroids_csv, result.v)
    with open(trace_csv, "w", encoding="utf-8") as fh:
        fh.write("iter,jm,max_delta_u\n")
        for i, (jm, delta) in enumerate(zip(result.objective_trace, result.max_delta_trace), 1):
            fh.write(f"{i},{jm:.17g},{delta:.17g}\n")
    _write_metrics(jobs_csv, metrics_sink)
    status = "converged" if result.converged else f"stopped at max_iters={args.max_iters}"
    print(f"cluster: n={n} distinct={len(result.distinct_u)} c={args.c} "
          f"iters={result.iters_run} ({status})")
    return 0


def cmd_sweep(args, validity_csv, validity_plot_dat) -> int:
    config = FcmConfig(c=2, m=args.m, epsilon=args.epsilon,
                       max_iters=args.max_iters, seed=args.seed)
    if args.c_min < 2:  # c_max > n/2 needs n; validity.sweep checks it after reading
        raise NumericError(f"need 2 <= c_min <= c_max, got [{args.c_min}, {args.c_max}]")
    _, store, model, _ = _encode_and_fit(args)
    spec = JobSpec(args.mappers, args.reducers, "sweep")
    report = validity.sweep(store, model, args.c_min, args.c_max, config, spec)
    validity.write_validity_csv(report, validity_csv)
    validity.write_plot_data(report, validity_plot_dat)
    print(f"sweep: consensus_c={report.consensus_c} best_per_index={report.best_per_index}")
    return 0


def cmd_bench(args, bench_csv) -> int:
    config = FcmConfig(c=args.c, m=args.m, max_iters=args.fixed_iters,
                       seed=args.seed, fixed_iterations=True)
    # First-appearance codes make each size's prefix of the table exact.
    names, columns = ingest.read_table(args.input, has_header=args.header,
                                       delimiter=args.delimiter)
    with open(bench_csv, "w", encoding="utf-8") as fh:
        fh.write("instances,mappers,reducers,seconds\n")
        for size in args.bench_sizes:
            dataset = ingest.encode_table(names, [column.prefix(size) for column in columns],
                                          bins=args.bins)
            if size > dataset.n:
                dataset = ingest.replicate_to_size(dataset, size, seed=args.seed)
            for mappers, reducers in args.bench_deployments:
                spec = JobSpec(mappers, reducers, f"bench_{size}")
                started = time.perf_counter()
                store, model, _ = _fit(dataset, spec, args.mca_dims)  # each cell dedups anew
                result = run_fcm(store, model, config, spec)
                elapsed = time.perf_counter() - started
                fh.write(f"{size},{mappers},{reducers},{elapsed:.6f}\n")
                fh.flush()
                print(f"bench: instances={size} mappers={mappers} reducers={reducers} "
                      f"seconds={elapsed:.3f} distinct={len(result.distinct_u)}")
    return 0


def cmd_mca_info(args, schema_txt, axes_csv, loadings_csv) -> int:
    dataset, _, model, _ = _encode_and_fit(args)
    with open(schema_txt, "w", encoding="utf-8") as fh:
        fh.write(ingest.schema_dump(dataset))
    with open(axes_csv, "w", encoding="utf-8") as fh:
        fh.write("axis_index,eigenvalue,inertia_fraction\n")
        for s in range(model.dim):
            fh.write(f"{s},{model.eigenvalues[s]:.17g},{model.inertia_fractions[s]:.17g}\n")
    _write_matrix(loadings_csv, model.loadings)
    print(f"mca-info: n={dataset.n} columns={dataset.num_columns} "
          f"categories={dataset.total_categories} axes={model.dim} "
          f"inertia={model.total_inertia:.6g}")
    for s in range(model.dim):
        print(f"  axis {s}: eigenvalue={model.eigenvalues[s]:.6g} "
              f"({100 * model.inertia_fractions[s]:.2f}% of inertia)")
    return 0


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    return _int_at_least(text, 1)


def _seed(text):
    """argparse type: an integer of at least 0, as numpy's generators require."""
    return _int_at_least(text, 0)


def _int_at_least(text, least):
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer of at least {least}, got {text!r}")
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


def _flag_groups():
    """Parent parsers of the flag groups, each subcommand taking the ones it reads."""
    data, deployment, seeded, converging = (argparse.ArgumentParser(add_help=False)
                                            for _ in range(4))
    data.add_argument("--input", required=True, help="input CSV path")
    data.add_argument("--delimiter", type=_delimiter, default=",")
    data.add_argument("--header", action=argparse.BooleanOptionalAction, default=True,
                      help="whether the first row is a header")
    data.add_argument("--bins", type=int, default=4, help="quantile bins per numeric column")
    data.add_argument("--mca-dims", type=int, default=8, help="cap on retained axes")
    data.add_argument("--out-dir", default="out")
    deployment.add_argument("--mappers", type=_positive_int, default=4)
    deployment.add_argument("--reducers", type=_positive_int, default=2)
    seeded.add_argument("--m", type=float, default=2.0, help="fuzziness exponent")
    seeded.add_argument("--seed", type=_seed, default=0)
    converging.add_argument("--epsilon", type=float, default=1e-5)
    converging.add_argument("--max-iters", type=int, default=100)
    return data, deployment, seeded, converging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrfcm",
                                     description="MCA + map-reduce fuzzy c-means pipeline")
    commands = parser.add_subparsers(dest="command", required=True)
    data, deployment, seeded, converging = _flag_groups()
    clustering = [data, deployment, seeded, converging]

    cluster = commands.add_parser("cluster", help="cluster at a fixed c", parents=clustering)
    cluster.add_argument("--c", type=int, required=True, help="cluster count")
    cluster.set_defaults(fn=cmd_cluster, outputs=["memberships.csv", "centroids.csv",
                                                  "trace.csv", "jobs.csv"])

    sweep = commands.add_parser("sweep", help="validity sweep over a range of c",
                                parents=clustering)
    sweep.add_argument("--c-min", type=int, default=2)
    sweep.add_argument("--c-max", type=int, default=6)
    sweep.set_defaults(fn=cmd_sweep, outputs=["validity.csv", "validity_plot.dat"])

    bench = commands.add_parser("bench", help="scalability benchmark over sizes x deployments",
                                parents=[data, seeded])
    bench.add_argument("--c", type=int, default=2)
    bench.add_argument("--bench-sizes", required=True, type=_size_list,
                       help="comma-separated ascending row counts, e.g. 100000,200000")
    bench.add_argument("--bench-deployments", default="50x25,100x50,150x75",
                       type=_deployment_list,
                       help="comma-separated mappersxreducers pairs")
    bench.add_argument("--fixed-iters", type=int, default=10,
                       help="iteration budget per bench cell (no convergence exit)")
    bench.set_defaults(fn=cmd_bench, outputs=["bench.csv"])

    info = commands.add_parser("mca-info", help="fit the projection model and dump audit files",
                               parents=[data, deployment])
    info.set_defaults(fn=cmd_mca_info, outputs=["schema.txt", "axes.csv", "loadings.csv"])
    return parser


def _usage_error(args):
    """The message of a usage error that argparse cannot see, or None."""
    if args.command == "sweep" and args.c_min > args.c_max:
        return "sweep: --c-min must not exceed --c-max"
    if args.command == "bench" and args.bench_sizes != sorted(args.bench_sizes):
        return "bench: --bench-sizes must be ascending"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _usage_error(args)
    if error:  # checked before any file of an earlier run is removed
        print(error, file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        paths = [os.path.join(args.out_dir, name) for name in args.outputs]
        for path in paths:  # no file of an earlier run survives a failed one
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        # Every subcommand bins and fits MCA; their flags are checked before reading.
        ingest.check_bins(args.bins)
        mca._check_mca_dims(args.mca_dims)
        return args.fn(args, *paths)
    except MrfcmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # inputs raise DataIOError, so this is an output path
        print(f"DataIOError: cannot write output: {exc}", file=sys.stderr)
        return DataIOError.exit_code


if __name__ == "__main__":
    sys.exit(main())
