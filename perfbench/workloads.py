"""The benchmark workloads: timed passes, output checks and traced replicas.

oracle-small calls ``run_fcm`` on small in-memory float problems;
cluster-large and sweep-mid call ``mrfcm.cli.main`` in this process on a
generated CSV.  A pass is one trip through the workload; ops are the
entry-point calls inside it.  The traced pass of each workload wraps
spans around the calls into each module's public functions, and takes
engine numbers from the ``JobMetrics`` those calls return.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import time
from pathlib import Path

import numpy as np

from mrfcm import cli, ingest, mca, validity
from mrfcm.engine import METRICS_HEADER, JobSpec
from mrfcm.fcm import FcmConfig, run_fcm

from inputs import BINS
from spans import Tracer

ROW_SUM_TOL = 1e-9        # memberships are row-stochastic
PARTITION_TOL = 1e-9      # P=4 and P=16 agree with P=1 (criterion 1)
TRACE_REL_SLACK = 1e-12   # the objective trace never increases
MCA_DIMS = 8              # the CLI's default --mca-dims


class Tally:
    """What one run timed and checked: passes, failures, output digests."""

    def __init__(self):
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._digests: dict = {}

    def add_pass(self, times: tuple, row_iters: int, op_times: list[tuple]):
        """One pass: its (wall, cpu) seconds, Σ n × iterations, and each op's (wall, cpu)."""
        self.passes.append({"wall": times[0], "cpu": times[1], "row_iters": row_iters,
                            "ops": op_times})

    def check(self, key, problem: str | None, digest: str | None = None):
        """Count one op; it fails on a problem or on outputs unlike its first run."""
        self.attempted += 1
        if problem is None and digest is not None:
            if self._digests.setdefault(key, digest) != digest:
                problem = "outputs differ from the first pass (sha256)"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{key}: {problem}")


class Stopwatch:
    """Wall seconds, and CPU seconds of all this process's threads, since creation."""

    def __init__(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self._wall, time.process_time() - self._cpu


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _files_sha256(directory: Path, names) -> str:
    return _sha256(*((directory / name).read_bytes() for name in names))


def _increasing(trace) -> bool:
    trace = np.asarray(trace, dtype=float)
    return bool(np.any(trace[1:] > trace[:-1] * (1.0 + TRACE_REL_SLACK)))


def _cli_main(argv):
    """Run ``mrfcm.cli.main`` here with its stdout captured: (outcome, (wall, cpu)).

    The outcome is the exit code, or the exception the call raised.
    """
    watch = Stopwatch()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            outcome = cli.main(argv)
    except SystemExit as exc:  # argparse rejected argv
        outcome = exc.code
    except Exception as exc:  # counted as a failed op, not fatal to the run
        outcome = exc
    return outcome, watch.read()


def _write_matrix(path: Path, array):
    # Same format as the CLI: one row per line, %.17g, comma-separated.
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(array):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def layer_metrics(tracer: Tracer, burt_jobs, fcm_jobs, *, untraced_s: float,
                  traced_s: float, cli_main_s: float = 0.0, **counts) -> dict:
    """Per-layer numbers of one traced pass.

    Engine jobs run inside ``mca.accumulate_burt`` and ``fcm.run_fcm``, so
    their time counts as engine time and comes out of those layers' self
    time.  Layers a workload does not reach read 0.  ``cli.self_s`` is
    derived: the untraced ``cli.main`` wall minus the traced library spans.
    """
    ingest_s = {stage: tracer.total(f"ingest.{stage}")
                for stage in ("load_csv", "infer_schema", "discretize", "partition")}
    burt_s = tracer.total("mca.accumulate_burt")
    fit_s = tracer.total("mca.fit_mca")
    fcm_s = tracer.total("fcm.run_fcm")
    sweep_s = tracer.total("validity.sweep")
    jobs = list(burt_jobs) + list(fcm_jobs)
    job_s = sum(job.total_time for job in jobs)
    membership_s = sum(job.total_time for job in fcm_jobs[0::2])
    centroid_s = sum(job.total_time for job in fcm_jobs[1::2])
    outside_jobs_s = fcm_s - membership_s - centroid_s if fcm_s else 0.0
    iterations = counts.get("fcm_iterations", 0)
    library_s = sum(ingest_s.values()) + burt_s + fit_s + fcm_s + sweep_s
    metrics = {f"ingest.{stage}_s": seconds for stage, seconds in ingest_s.items()}
    metrics.update({
        "ingest.rows": counts.get("rows", 0),
        "ingest.categories": counts.get("categories", 0),
        "ingest.input_bytes": counts.get("input_bytes", 0),
        "ingest.self_s": sum(ingest_s.values()),
        "mca.accumulate_burt_s": burt_s,
        "mca.fit_mca_s": fit_s,
        "mca.axes": counts.get("axes", 0),
        "mca.self_s": burt_s - sum(job.total_time for job in burt_jobs) + fit_s,
        "engine.jobs": len(jobs),
        "engine.map_tasks": sum(job.num_mappers for job in jobs),
        "engine.records_shuffled": sum(job.records_in for job in jobs),
        "engine.map_s": sum(job.map_wall_time for job in jobs),
        "engine.shuffle_s": sum(job.shuffle_wall_time for job in jobs),
        "engine.reduce_s": sum(job.reduce_wall_time for job in jobs),
        "engine.s_per_job": job_s / len(jobs) if jobs else 0.0,
        "engine.pool_overhead_s": counts.get("pool_overhead_s", 0.0),
        "engine.self_s": job_s,
        "fcm.run_fcm_s": fcm_s,
        "fcm.iterations": iterations,
        "fcm.membership_job_s": membership_s,
        "fcm.centroid_job_s": centroid_s,
        "fcm.outside_jobs_s": outside_jobs_s,
        "fcm.s_per_iter": fcm_s / iterations if fcm_s and iterations else 0.0,
        "fcm.self_s": outside_jobs_s,
        "validity.sweep_s": sweep_s,
        "validity.candidates": counts.get("candidates", 0),
        "validity.failed_candidates": counts.get("failed_candidates", 0),
        "validity.iterations": counts.get("sweep_iterations", 0),
        "validity.self_s": sweep_s,
        "cli.main_s": cli_main_s,
        "cli.output_bytes": counts.get("output_bytes", 0),
        "cli.write_s": tracer.total("cli.write"),
        "cli.self_s": cli_main_s - library_s if cli_main_s else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics


class OracleSmall:
    """The criterion-1 loop: each problem clustered to convergence at P = 1, 4, 16.

    P=1 runs inline with no worker pool, so it is also the control with
    no engine overhead.
    """

    PARTITIONS = (1, 4, 16)

    def __init__(self, work_dir: Path, inputs: dict):
        data = np.load(work_dir / "problems.npz")
        self.problems = [
            (data[f"x{k}"], FcmConfig(c=int(c), m=2.0, epsilon=1e-5, max_iters=100, seed=int(seed)))
            for k, (_, _, c, seed) in enumerate(data["shapes"])]
        self.info = dict(inputs, P=list(self.PARTITIONS),
                         deployments=[f"{p}x{max(1, p // 2)}" for p in self.PARTITIONS],
                         max_iters=100, epsilon=1e-5)

    def run_pass(self, tally: Tally, tracer: Tracer | None = None, sink=None) -> dict:
        """One trip through every problem at every P; returns op wall seconds by (k, P)."""
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        outcomes = {}
        watch = Stopwatch()
        for k, (coords, config) in enumerate(self.problems):
            for p in self.PARTITIONS:
                with span("ingest.partition"):
                    store = ingest.partition(coords, p)
                op_watch = Stopwatch()
                try:
                    with span("fcm.run_fcm"):
                        result = run_fcm(store, None, config, JobSpec(p, max(1, p // 2), "oracle"),
                                         metrics_sink=sink)
                except Exception as exc:  # counted as a failed op
                    result = exc
                outcomes[k, p] = (op_watch.read(), result)
        times = watch.read()

        row_iters, iterations = 0, 0
        for k, (coords, _) in enumerate(self.problems):
            base = outcomes[k, 1][1]
            for p in self.PARTITIONS:
                result = outcomes[k, p][1]
                problem = self._problem(result, None if p == 1 else base)
                digest = None
                if problem is None:
                    row_iters += len(coords) * result.iters_run
                    iterations += result.iters_run
                    digest = _sha256(result.u.tobytes(), result.v.tobytes(),
                                     np.asarray(result.objective_trace).tobytes())
                tally.check(("oracle", k, p), problem, digest)
        tally.add_pass(times, row_iters, [op_times for op_times, _ in outcomes.values()])
        self.info["iterations_per_pass"] = iterations
        return {key: op_times[0] for key, (op_times, _) in outcomes.items()}

    @staticmethod
    def _problem(result, base) -> str | None:
        if isinstance(result, Exception):
            return f"raised {result!r}"
        row_dev = float(np.abs(result.u.sum(axis=1) - 1.0).max())
        if not row_dev < ROW_SUM_TOL:
            return f"membership rows off stochastic by {row_dev}"
        if _increasing(result.objective_trace):
            return "objective trace increased"
        if base is None:
            return None
        if isinstance(base, Exception):
            return "no P=1 result to compare with"
        if result.iters_run != base.iters_run:
            return f"{result.iters_run} iterations, P=1 ran {base.iters_run}"
        err = max(float(np.abs(result.u - base.u).max()), float(np.abs(result.v - base.v).max()))
        if not err < PARTITION_TOL:
            return f"differs from P=1 by {err}"
        return None

    def traced(self, tally: Tally):
        self.run_pass(tally)
        tracer, sink = Tracer(), []
        op_seconds = self.run_pass(tally, tracer, sink)
        # Per-op cost of the worker pools: each P>1 op minus the same problem at P=1.
        pool_overhead = statistics.median(
            op_seconds[k, p] - op_seconds[k, 1]
            for k in range(len(self.problems)) for p in self.PARTITIONS if p > 1)
        metrics = layer_metrics(
            tracer, [], sink, untraced_s=tally.passes[-2]["wall"], traced_s=tally.passes[-1]["wall"],
            rows=sum(len(coords) for coords, _ in self.problems) * len(self.PARTITIONS),
            input_bytes=self.info["input_bytes"], fcm_iterations=len(sink) // 2,
            pool_overhead_s=pool_overhead)
        return metrics, tracer


class _CsvWorkload:
    """A CLI subcommand on a generated CSV, and its traced library replica."""

    OUTPUTS: tuple = ()

    def __init__(self, work_dir: Path, inputs: dict):
        self.csv = work_dir / "input.csv"
        self.out = work_dir / "cli-out"
        self.replica_out = work_dir / "replica-out"
        self.replica_out.mkdir()
        self.n, self.mappers, self.reducers = inputs["n"], inputs["mappers"], inputs["reducers"]
        self.seed = inputs["seed"]
        self.info = dict(inputs, P=self.mappers, deployment=f"{self.mappers}x{self.reducers}")

    def argv(self) -> list[str]:
        return ["--input", str(self.csv), "--mappers", str(self.mappers),
                "--reducers", str(self.reducers), "--seed", str(self.seed),
                "--out-dir", str(self.out)]

    def run_pass(self, tally: Tally):
        outcome, times = _cli_main(self.argv())
        problem, iterations = (f"exit {outcome!r}", 0) if outcome != 0 else self._check()
        digest = None if problem else _files_sha256(self.out, self.OUTPUTS)
        tally.check(self.argv()[0], problem, digest)
        tally.add_pass(times, self.n * iterations, [times])
        self.info["iterations"] = iterations

    def _encode(self, tracer: Tracer):
        """cmd_*'s load, encode and fit steps, one span per library call."""
        with tracer.span("ingest.load_csv"):
            names, rows = ingest.load_csv(self.csv)
        with tracer.span("ingest.infer_schema"):
            schema = ingest.infer_schema(names, rows)
        with tracer.span("ingest.discretize"):
            dataset = ingest.discretize(rows, schema, bins=BINS)
        del rows  # encode_csv drops the text rows here too
        with tracer.span("ingest.partition"):
            store = ingest.partition(dataset, self.mappers)
        with tracer.span("mca.accumulate_burt"):
            margins, burt, burt_job = mca.accumulate_burt(
                store, dataset.cardinalities, JobSpec(self.mappers, self.reducers, "burt"))
        with tracer.span("mca.fit_mca"):
            model = mca.fit_mca(margins, burt, mca_dims=MCA_DIMS)
        return dataset, store, model, burt_job

    def _same_as_cli(self, names) -> str | None:
        for name in names:
            if (self.replica_out / name).read_bytes() != (self.out / name).read_bytes():
                return f"traced replica's {name} differs from the CLI's"
        return None

    def _counts(self, dataset, model) -> dict:
        return {"rows": dataset.n, "categories": dataset.total_categories,
                "input_bytes": self.csv.stat().st_size, "axes": model.dim,
                "output_bytes": sum(f.stat().st_size for f in self.out.iterdir())}


class ClusterLarge(_CsvWorkload):
    """``mrfcm cluster`` with a fixed iteration budget on a wide deployment."""

    C = 3
    ITERS = 10
    OUTPUTS = ("memberships.csv", "centroids.csv", "trace.csv")

    def __init__(self, work_dir: Path, inputs: dict):
        super().__init__(work_dir, inputs)
        self.info.update(c=self.C, max_iters=self.ITERS)

    def argv(self) -> list[str]:
        return ["cluster", "--c", str(self.C), "--max-iters", str(self.ITERS),
                "--epsilon", "1e-300", *super().argv()]

    def _check(self):
        lines = (self.out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(lines) != self.ITERS:
            return f"trace.csv has {len(lines)} iterations, expected {self.ITERS}", 0
        if _increasing([line.split(",")[1] for line in lines]):
            return "objective trace increased", 0
        u = np.loadtxt(self.out / "memberships.csv", delimiter=",", ndmin=2)
        if u.shape != (self.n, self.C):
            return f"memberships.csv has shape {u.shape}", 0
        row_dev = float(np.abs(u.sum(axis=1) - 1.0).max())
        if not row_dev < ROW_SUM_TOL:
            return f"membership rows off stochastic by {row_dev}", 0
        return None, len(lines)

    def traced(self, tally: Tally):
        self.run_pass(tally)
        cli_main_s = tally.passes[-1]["wall"]
        tracer, sink = Tracer(), []
        config = FcmConfig(c=self.C, m=2.0, epsilon=1e-300, max_iters=self.ITERS, seed=self.seed)
        started = time.perf_counter()
        dataset, store, model, burt_job = self._encode(tracer)
        with tracer.span("fcm.run_fcm"):
            result = run_fcm(store, model, config, JobSpec(self.mappers, self.reducers, "fcm"),
                             metrics_sink=sink)
        with tracer.span("cli.write"):
            _write_matrix(self.replica_out / "memberships.csv", result.u)
            _write_matrix(self.replica_out / "centroids.csv", result.v)
            with open(self.replica_out / "trace.csv", "w", encoding="utf-8") as fh:
                fh.write("iter,jm,max_delta_u\n")
                for i, (jm, delta) in enumerate(
                        zip(result.objective_trace, result.max_delta_trace), 1):
                    fh.write(f"{i},{jm:.17g},{delta:.17g}\n")
            with open(self.replica_out / "jobs.csv", "w", encoding="utf-8") as fh:
                fh.write(METRICS_HEADER + "\n")
                for job in [burt_job, *sink]:
                    fh.write(job.csv_line() + "\n")
        traced_s = time.perf_counter() - started
        tally.check("replica", self._same_as_cli(("centroids.csv", "trace.csv")))
        self.info["J_encoded"] = dataset.total_categories
        metrics = layer_metrics(tracer, [burt_job], sink, untraced_s=cli_main_s, traced_s=traced_s,
                                cli_main_s=cli_main_s, fcm_iterations=result.iters_run,
                                **self._counts(dataset, model))
        return metrics, tracer


class SweepMid(_CsvWorkload):
    """``mrfcm sweep`` over c = 2..6 on a mid deployment.

    Each candidate runs a fixed ITERS iterations (``--epsilon 1e-300``):
    with natural convergence the total of a sweep ranged from 250 to 361
    iterations between seeds, too wide for the benchmark's bounds.
    """

    C_MIN, C_MAX = 2, 6
    ITERS = 30
    OUTPUTS = ("validity.csv",)  # its last line holds consensus_c

    def __init__(self, work_dir: Path, inputs: dict):
        super().__init__(work_dir, inputs)
        self.info.update(c=[self.C_MIN, self.C_MAX], max_iters=self.ITERS)

    def argv(self) -> list[str]:
        return ["sweep", "--c-min", str(self.C_MIN), "--c-max", str(self.C_MAX),
                "--max-iters", str(self.ITERS), "--epsilon", "1e-300", *super().argv()]

    def _rows(self, directory: Path):
        lines = (directory / "validity.csv").read_text(encoding="utf-8").splitlines()
        return [line.split(",") for line in lines[1:] if not line.startswith("#")], lines[-1]

    def _check(self):
        rows, last = self._rows(self.out)
        if [int(row[0]) for row in rows] != list(range(self.C_MIN, self.C_MAX + 1)):
            return f"validity.csv covers c = {[row[0] for row in rows]}", 0
        failed = [row[0] for row in rows if row[1] == "failed"]
        if failed:
            return f"candidates c = {failed} failed", 0
        if not last.startswith("# consensus_c="):
            return "validity.csv has no consensus line", 0
        return None, sum(int(row[5]) for row in rows)

    def traced(self, tally: Tally):
        self.run_pass(tally)
        cli_main_s = tally.passes[-1]["wall"]
        tracer = Tracer()
        config = FcmConfig(c=2, m=2.0, epsilon=1e-300, max_iters=self.ITERS, seed=self.seed)
        started = time.perf_counter()
        dataset, store, model, burt_job = self._encode(tracer)
        # One opaque span: the sweep's own jobs are not visible from outside.
        with tracer.span("validity.sweep"):
            report = validity.sweep(store, model, self.C_MIN, self.C_MAX, config,
                                    JobSpec(self.mappers, self.reducers, "sweep"))
        with tracer.span("cli.write"):
            validity.write_validity_csv(report, self.replica_out / "validity.csv")
            validity.write_plot_data(report, self.replica_out / "validity_plot.dat")
        traced_s = time.perf_counter() - started
        tally.check("replica", self._same_as_cli(("validity.csv",)))
        self.info["J_encoded"] = dataset.total_categories
        iterations = sum(row.iters for row in report.rows)
        metrics = layer_metrics(tracer, [burt_job], [], untraced_s=cli_main_s, traced_s=traced_s,
                                cli_main_s=cli_main_s, fcm_iterations=iterations,
                                candidates=len(report.rows),
                                failed_candidates=sum(row.failed for row in report.rows),
                                sweep_iterations=iterations, **self._counts(dataset, model))
        return metrics, tracer


WORKLOADS = {"oracle-small": OracleSmall, "cluster-large": ClusterLarge, "sweep-mid": SweepMid}
