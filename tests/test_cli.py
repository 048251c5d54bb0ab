import io
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from mrfcm import cli, datasets, engine, fcm, ingest, mca
from mrfcm.cli import build_parser, main
from mrfcm.engine import JobSpec
from test_fcm import map_threads, off_calling_thread

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def mm_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "mm.csv"
    datasets.write_csv(path, datasets.mammographic_mass_rows(),
                       header=datasets.MAMMOGRAPHIC_HEADER)
    return str(path)


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    # three blobs whose centers sit at three distinct levels per column, so
    # tertile bins line up with the ground truth
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    centers = [[0, 5, 10], [10, 0, 5], [5, 10, 0]]
    rows = datasets.gaussian_blob_rows(900, centers, spread=0.6, seed=2)
    datasets.write_csv(path, rows, header=["x", "y", "z"])
    return str(path)


def run(*argv):
    return main(list(argv))


class TestCluster:
    def test_writes_three_files_and_converges(self, mm_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("cluster", "--input", mm_csv, "--c", "2", "--seed", "3",
                   "--out-dir", str(out))
        assert code == 0
        assert (out / "memberships.csv").exists()
        assert (out / "centroids.csv").exists()
        assert (out / "trace.csv").exists()
        assert "converged" in capsys.readouterr().out
        u = np.loadtxt(out / "memberships.csv", delimiter=",")
        assert u.shape[0] == 961 and u.shape[1] == 2
        assert np.abs(u.sum(axis=1) - 1.0).max() < 1e-9

    def test_files_match_savetxt_of_the_expanded_result(self, mm_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("cluster", "--input", mm_csv, "--c", "3", "--seed", "5", "--mappers", "4",
                   "--reducers", "2", "--out-dir", str(out)) == 0
        dataset = ingest.encode_csv(mm_csv)
        store = ingest.partition(dataset, 4)
        margins, burt, _ = mca.accumulate_burt(store, dataset.cardinalities, JobSpec(4, 2, "b"))
        result = fcm.run_fcm(store, mca.fit_mca(margins, burt, mca_dims=8),
                             fcm.FcmConfig(c=3, seed=5), JobSpec(4, 2, "f"))
        for name, matrix in [("memberships.csv", result.u), ("centroids.csv", result.v)]:
            want = io.BytesIO()
            np.savetxt(want, matrix, fmt="%.17g", delimiter=",")
            assert (out / name).read_bytes() == want.getvalue()
        distinct = len(result.distinct_u)
        assert distinct < dataset.n
        assert f"n={dataset.n} distinct={distinct} " in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["special-values", "inverse-over-a-slice", "no-inverse"])
    def test_matrix_writer_matches_savetxt(self, tmp_path, case):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
        inverse = rng.integers(0, len(rows), size=2 * ingest.BLOCK_ROWS + 5)
        if case == "special-values":
            special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.8e308, 1 / 3]
            rows = np.array(special)[:, None] * [1.0, -1.0]
            inverse = np.arange(len(rows))[::-1]
        elif case == "no-inverse":
            inverse = None
        path = tmp_path / "m.csv"
        cli._write_matrix(path, rows, inverse)
        want = io.BytesIO()
        np.savetxt(want, rows if inverse is None else rows[inverse], fmt="%.17g", delimiter=",")
        assert path.read_bytes() == want.getvalue()

    def test_missing_input_exits_3(self, tmp_path, capsys):
        code = run("cluster", "--input", str(tmp_path / "nope.csv"), "--c", "2",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert "DataIOError" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, mm_csv, tmp_path):
        argv = ["cluster", "--input", mm_csv, "--c", "2", "--seed", "11",
                "--mappers", "6", "--reducers", "3"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(*argv, "--out-dir", str(out)) == 0
            outs.append({f.name: f.read_bytes()
                         for f in out.iterdir() if f.name != "jobs.csv"})
        assert outs[0] == outs[1]

    def test_too_many_clusters_exits_5(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        datasets.write_csv(path, [["a", "x"], ["b", "y"]] * 10, header=["p", "q"])
        code = run("cluster", "--input", str(path), "--c", "9",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 5
        assert "need 9 distinct points" in capsys.readouterr().err

    def test_numeric_column_of_nan_spellings_exits_4(self, tmp_path, capsys):
        # Fourteen spellings of NaN, none a missing token: every present
        # cell is a real and more than MAX_CARD labels differ, so the column
        # is numeric, but no cell has a value to bin.
        spellings = [sign + "".join(c.upper() if k >> i & 1 else c for i, c in enumerate("nan"))
                     for sign in ("+", "-") for k in range(8)][:14]
        assert not set(spellings) & ingest.MISSING_TOKENS and len(set(spellings)) == 14
        path = datasets.write_csv(tmp_path / "nan.csv",
                                  [[cell, "ab"[k % 2]] for k, cell in enumerate(spellings * 3)],
                                  header=["x", "g"])
        code = run("mca-info", "--input", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 4
        assert capsys.readouterr().err == "SchemaError: column 'x': no parseable values\n"

    def test_all_missing_column_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        datasets.write_csv(path, [["?", "x"], ["?", "y"], ["?", "x"]], header=["p", "q"])
        code = run("cluster", "--input", str(path), "--c", "2",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 4
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("bins", [1, 2049, 1_000_000_000])
    def test_bins_outside_the_category_bound_exit_4(self, mm_csv, tmp_path, capsys, bins):
        # One numeric column can emit up to `bins` categories, and J is
        # bounded by MAX_CATEGORIES; a billion once built its quantile
        # levels as a list before failing.
        code = run("cluster", "--input", mm_csv, "--c", "2", "--bins", str(bins),
                   "--out-dir", str(tmp_path / "o"))
        assert code == 4
        assert capsys.readouterr().err == f"SchemaError: bins must be in [2, 2048], got {bins}\n"

    def test_bins_at_the_category_bound_is_accepted(self, mm_csv, tmp_path):
        assert run("mca-info", "--input", mm_csv, "--bins", str(ingest.MAX_CATEGORIES),
                   "--out-dir", str(tmp_path / "o")) == 0


def exact_ties():
    """Doubles t / 2**q, t odd, in [1e-4, 1): with q = 17 - X for the decimal
    exponent X, each has q decimals, 18 of them significant and the last a 5,
    so it lies halfway between two 17-digit values."""
    ties = []
    for exponent in range(-4, 0):
        q = 17 - exponent
        t = np.arange(int(10.0 ** exponent * 2 ** q) | 1, int(10.0 ** (exponent + 1) * 2 ** q), 2)
        x = np.ldexp(t.astype(float), -q)
        ties.append(x[(x >= 10.0 ** exponent) & (x < 10.0 ** (exponent + 1))])
    return np.concatenate(ties)


class TestMatrixWriter:
    """``_write_matrix`` formats |x| in [1e-4, 1) in numpy and the rows of all
    other values with ``%``: both give ``np.savetxt``'s bytes, whether the
    rows are gathered by an inverse or not."""

    @staticmethod
    def assert_as_savetxt(tmp_path, values, width):
        rows = np.concatenate([values, np.full(-len(values) % width, 0.5)]).reshape(-1, width)
        inverse = np.random.default_rng(len(rows)).integers(0, len(rows),
                                                             2 * ingest.BLOCK_ROWS + 5)
        for gather in (None, inverse):
            path = tmp_path / "m.csv"
            cli._write_matrix(path, rows, gather)
            want = io.BytesIO()
            np.savetxt(want, rows if gather is None else rows[gather], fmt="%.17g",
                       delimiter=",")
            assert path.read_bytes() == want.getvalue()

    def test_a_million_values_of_both_signs(self, tmp_path):
        rng = np.random.default_rng(27)
        values = np.concatenate([rng.uniform(1e-4, 1, 500_000),
                                 10 ** rng.uniform(-4, 0, 500_000)])
        self.assert_as_savetxt(tmp_path, values * rng.choice([-1.0, 1.0], values.size), 4)

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        edges = 10.0 ** -np.arange(1, 6)  # 1e-5 and those below 1e-4 take %
        below, above, near = edges, edges, [edges]
        for _ in range(3):  # up to 3 ulps on each side
            below, above = np.nextafter(below, 0), np.nextafter(above, 1)
            near += [below, above]
        near = np.concatenate(near)
        self.assert_as_savetxt(tmp_path, np.concatenate([near, -near]), 3)

    def test_exact_ties_round_half_to_even(self, tmp_path):
        ties = exact_ties()
        assert len(ties) > 100_000
        for x in ties[::997].tolist():
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        self.assert_as_savetxt(tmp_path, np.concatenate([ties, -ties]), 3)

    def test_short_expansions_drop_their_trailing_zeros(self, tmp_path):
        # t / 2**j has j decimals: from 1 to 17 digits, then zeros.
        rng = np.random.default_rng(11)
        j = rng.integers(1, 25, 200_000)
        values = np.ldexp(rng.integers(0, 2 ** 24, j.size) % 2 ** j | 1, -j)
        self.assert_as_savetxt(tmp_path, values[values >= 1e-4], 3)

    def test_values_formatted_by_percent_beside_numpy_ones(self, tmp_path):
        special = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   np.nextafter(2.2250738585072014e-308, 0), 9.9999e-5, np.inf, np.nan, 123.5]
        rng = np.random.default_rng(3)
        values = rng.uniform(1e-4, 1, 60 * len(special))
        values[rng.choice(len(values), len(special), replace=False)] = special
        self.assert_as_savetxt(tmp_path, values, 3)
        self.assert_as_savetxt(tmp_path, np.array(special), 1)


def test_a_delimiter_that_splits_nothing_exits_4_before_the_burt_job(tmp_path, capsys,
                                                                        monkeypatch):
    # Read with ";", each line of a comma table is one label: J = 20,000.
    ids = [10_000_000 + (7919 * k) % 90_000_000 for k in range(20_000)]
    path = datasets.write_csv(tmp_path / "ids.csv", [[str(i), "abc"[i % 3]] for i in ids],
                              header=["id", "g"])
    assert run("mca-info", "--input", str(path), "--out-dir", str(tmp_path / "ok")) == 0
    monkeypatch.setattr(mca, "accumulate_burt", None)  # never reached
    code = run("mca-info", "--input", str(path), "--delimiter", ";",
               "--out-dir", str(tmp_path / "o"))
    assert code == 4
    assert capsys.readouterr().err == ("SchemaError: 20000 categories, more than 2048; "
                                       "column 'id,g' has 20000\n")


class TestSweep:
    def test_blobs_consensus_three(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("sweep", "--input", blob_csv, "--c-min", "2", "--c-max", "6",
                   "--seed", "7", "--bins", "3", "--out-dir", str(out))
        assert code == 0
        assert "consensus_c=3" in capsys.readouterr().out
        assert (out / "validity.csv").exists()
        assert (out / "validity_plot.dat").exists()

    def test_degenerate_range_gives_single_row(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = run("sweep", "--input", blob_csv, "--c-min", "2", "--c-max", "2",
                   "--out-dir", str(out))
        assert code == 0
        lines = (out / "validity.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + one row + consensus comment
        assert lines[-1] == "# consensus_c=2"

    def test_inverted_range_is_usage_error(self, blob_csv, tmp_path):
        code = run("sweep", "--input", blob_csv, "--c-min", "5", "--c-max", "3",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_every_candidate_failing_exits_5(self, tmp_path, capsys):
        # Two distinct records: no c from 3 to 5 finds c distinct points.
        path = datasets.write_csv(tmp_path / "two.csv", [["a", "x"], ["b", "y"]] * 6,
                                  header=["p", "q"])
        out = tmp_path / "o"
        code = run("sweep", "--input", str(path), "--c-min", "3", "--c-max", "5",
                   "--out-dir", str(out))
        assert code == 5
        assert capsys.readouterr().err == ("NumericError: every cluster count in the "
                                           "sweep failed\n")
        assert not any(out.iterdir())


class TestBench:
    def test_rows_cover_sizes_times_deployments(self, tmp_path):
        path = tmp_path / "synth.csv"
        rows = datasets.clustered_categorical_rows(400, 5, seed=1)
        datasets.write_csv(path, rows, header=[f"a{j}" for j in range(5)])
        out = tmp_path / "out"
        code = run("bench", "--input", str(path), "--bench-sizes", "200,400,600",
                   "--bench-deployments", "4x2,8x4", "--fixed-iters", "3",
                   "--out-dir", str(out))
        assert code == 0
        lines = (out / "bench.csv").read_text().strip().split("\n")
        assert lines[0] == "instances,mappers,reducers,seconds"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 3 * 2
        assert [int(r[0]) for r in body] == [200, 200, 400, 400, 600, 600]
        assert all(float(r[3]) > 0 for r in body)

    def test_each_cell_reports_its_distinct_records(self, tmp_path, capsys):
        path = tmp_path / "synth.csv"
        datasets.write_csv(path, datasets.clustered_categorical_rows(400, 5, seed=1),
                           header=[f"a{j}" for j in range(5)])
        assert run("bench", "--input", str(path), "--bench-sizes", "100,400,900",
                   "--bench-deployments", "4x2", "--fixed-iters", "2",
                   "--out-dir", str(tmp_path / "out")) == 0
        codes = ingest.encode_csv(str(path)).codes
        # Grown cells repeat rows of the table, so they add no distinct record.
        expected = [len(np.unique(codes[:size], axis=0)) for size in (100, 400, 400)]
        lines = capsys.readouterr().out.splitlines()
        assert [int(line.rsplit("distinct=", 1)[1]) for line in lines] == expected

    def test_unsorted_sizes_are_usage_error(self, tmp_path):
        path = tmp_path / "synth.csv"
        datasets.write_csv(path, datasets.clustered_categorical_rows(50, 3, seed=0),
                           header=["a", "b", "c"])
        code = run("bench", "--input", str(path), "--bench-sizes", "40,20",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--bench-sizes", "200,4e2"),
                                             ("--bench-sizes", "200,,400"),
                                             ("--bench-sizes", "-19000"),
                                             ("--bench-sizes", "0"),
                                             ("--bench-deployments", "50-25"),
                                             ("--bench-deployments", "4x2x1"),
                                             ("--bench-deployments", "4x"),
                                             ("--bench-deployments", "0x1"),
                                             ("--bench-deployments", "2x0")])
    def test_malformed_bench_argument_is_usage_error(self, tmp_path, capsys, flag, value):
        argv = ["bench", "--input", str(tmp_path / "unused.csv"), "--bench-sizes", "200",
                "--out-dir", str(tmp_path / "o"), flag, value]
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err


class TestMcaInfo:
    def test_dumps_schema_axes_and_loadings(self, mm_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("mca-info", "--input", mm_csv, "--out-dir", str(out))
        assert code == 0
        schema = (out / "schema.txt").read_text().strip().split("\n")
        assert len(schema) == 6
        assert schema[0].startswith("birads,categorical,")
        assert any(line.startswith("age,numeric,-inf|") for line in schema)
        axes = (out / "axes.csv").read_text().strip().split("\n")
        assert axes[0] == "axis_index,eigenvalue,inertia_fraction"
        eigs = [float(line.split(",")[1]) for line in axes[1:]]
        assert eigs == sorted(eigs, reverse=True)
        loadings = np.loadtxt(out / "loadings.csv", delimiter=",")
        assert loadings.shape[1] == len(eigs)
        assert "axes=" in capsys.readouterr().out

    @pytest.mark.parametrize("dims", [8, 1])
    def test_files_match_savetxt_of_the_fitted_model(self, mm_csv, tmp_path, dims):
        out = tmp_path / "out"
        assert run("mca-info", "--input", mm_csv, "--mca-dims", str(dims),
                   "--out-dir", str(out)) == 0
        dataset = ingest.encode_csv(mm_csv)
        store = ingest.partition(dataset, 4)
        margins, burt, _ = mca.accumulate_burt(store, dataset.cardinalities, JobSpec(4, 2, "b"))
        model = mca.fit_mca(margins, burt, mca_dims=dims)
        assert model.loadings.shape == (dataset.total_categories, dims)  # (J, 1) at dims=1
        want = io.BytesIO()
        np.savetxt(want, model.loadings, fmt="%.17g", delimiter=",")
        assert (out / "loadings.csv").read_bytes() == want.getvalue()
        axes = [f"{s},{eigenvalue:.17g},{fraction:.17g}"
                for s, (eigenvalue, fraction)
                in enumerate(zip(model.eigenvalues, model.inertia_fractions))]
        assert (out / "axes.csv").read_text().split("\n") == [
            "axis_index,eigenvalue,inertia_fraction", *axes, ""]

    def test_peak_memory_does_not_depend_on_mappers(self, tmp_path):
        """The Burt job maps fixed splits of at most engine.SPLIT_ROWS
        records, so on 50,000 distinct rows of 10 columns of 50 labels
        (J = 500) the peak RSS at --mappers 400 stays within 10% of
        --mappers 1.  Each run is a fresh interpreter that reports its own
        RUSAGE_SELF peak; RUSAGE_CHILDREN would be a maximum over all runs."""
        codes = np.random.default_rng(12).integers(0, 50, (50_000, 10)).tolist()
        table = tmp_path / "j500.csv"
        datasets.write_csv(table, [[f"v{code}" for code in row] for row in codes],
                           header=[f"q{j}" for j in range(10)])
        script = ("import resource, sys\nfrom mrfcm import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")

        def peak(mappers):
            proc = subprocess.run(
                [sys.executable, "-c", script, "mca-info", "--input", str(table),
                 "--mappers", str(mappers), "--out-dir", str(tmp_path / f"out{mappers}")],
                env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
                timeout=300, check=True)
            code, rss = proc.stdout.split("\n")[-2].split()
            assert code == "0" and "categories=500" in proc.stdout
            return int(rss)

        one, many = peak(1), peak(400)
        assert many <= 1.1 * one, (one, many)


@pytest.mark.parametrize("dims", ["-1", "0"])
@pytest.mark.parametrize("command, extra", [("cluster", ["--c", "2"]),
                                            ("sweep", ["--c-max", "3"]),
                                            ("mca-info", [])])
def test_nonpositive_mca_dims_exits_5(mm_csv, tmp_path, capsys, command, extra, dims):
    code = run(command, "--input", mm_csv, "--mca-dims", dims, *extra,
               "--out-dir", str(tmp_path / "o"))
    assert code == 5
    assert "NumericError: mca_dims must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--m", "nan"), ("--m", "inf"), ("--epsilon", "nan")])
@pytest.mark.parametrize("command, extra", [("cluster", ["--c", "2"]),
                                            ("sweep", ["--c-max", "3"])])
def test_non_finite_fcm_parameter_exits_5(mm_csv, tmp_path, capsys, command, extra, flag, value):
    out = tmp_path / "o"
    code = run(command, "--input", mm_csv, flag, value, *extra, "--out-dir", str(out))
    assert code == 5
    assert "NumericError" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("command, flags, message", [
    ("cluster", ["--c", "1"], "cluster count must be >= 2, got 1"),
    ("sweep", ["--m", "0.5"], "fuzziness exponent must be finite and > 1, got 0.5"),
    ("sweep", ["--c-min", "1", "--c-max", "3"], "need 2 <= c_min <= c_max, got [1, 3]"),
    ("bench", ["--bench-sizes", "200", "--c", "1"], "cluster count must be >= 2, got 1"),
])
def test_bad_clustering_flag_exits_5_before_the_input_is_read(tmp_path, capsys, monkeypatch,
                                                              command, flags, message):
    monkeypatch.setattr(ingest, "read_table", None)  # never reached
    # The input does not exist either, which would exit 3: the flag wins.
    code = run(command, "--input", str(tmp_path / "absent.csv"), *flags,
               "--out-dir", str(tmp_path / "o"))
    assert code == 5
    assert capsys.readouterr().err == f"NumericError: {message}\n"


COMMAND_ARGS = {"cluster": ["--c", "2"], "sweep": ["--c-max", "3"],
                "bench": ["--bench-sizes", "200"], "mca-info": []}


@pytest.mark.parametrize("rows", [40, 10])
@pytest.mark.parametrize("command", ["cluster", "sweep", "mca-info", "bench"])
def test_no_subcommand_warns_about_its_mapper_count(tmp_path, command, rows):
    """The rows hold 3 distinct records.  No subcommand cuts its rows by
    --mappers or a --bench-deployments count, so 16 mappers warn neither
    on 40 rows nor on 10, fewer rows than mappers."""
    records = [["a", "x"], ["b", "y"], ["c", "x"]]
    path = datasets.write_csv(tmp_path / "three.csv", (records * rows)[:rows], header=["p", "q"])
    flags = [*COMMAND_ARGS[command], "--mappers", "16"]
    if command == "bench":
        flags = ["--bench-sizes", str(rows), "--bench-deployments", "16x8"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, "--input", str(path), *flags, "--out-dir", str(tmp_path / "o")) == 0
    assert [str(warning.message) for warning in caught] == []


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_bad_bins_exits_4_before_the_input_is_read(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(ingest, "read_table", None)  # never reached
    # The input does not exist either, which would exit 3: the flag wins.
    code = run(command, "--input", str(tmp_path / "absent.csv"), *COMMAND_ARGS[command],
               "--bins", "1", "--out-dir", str(tmp_path / "o"))
    assert code == 4
    assert capsys.readouterr().err == "SchemaError: bins must be in [2, 2048], got 1\n"


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_bad_mca_dims_exits_5_before_the_input_is_read(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(ingest, "read_table", None)  # never reached
    # The input does not exist either, which would exit 3: the flag wins.
    code = run(command, "--input", str(tmp_path / "absent.csv"), *COMMAND_ARGS[command],
               "--mca-dims", "0", "--out-dir", str(tmp_path / "o"))
    assert code == 5
    assert capsys.readouterr().err == "NumericError: mca_dims must be >= 1, got 0\n"


def assert_usage_error(argv, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("value", [";;", ""])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_delimiter_must_be_one_character(mm_csv, tmp_path, capsys, command, value):
    argv = [command, "--input", mm_csv, *COMMAND_ARGS[command], "--delimiter", value,
            "--out-dir", str(tmp_path / "o")]
    assert_usage_error(argv, capsys, "--delimiter")


def test_one_character_delimiter_is_used(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("p;q\n" + "a;x\nb;y\nc;x\n" * 10)
    out = tmp_path / "o"
    assert run("cluster", "--input", str(path), "--delimiter", ";", "--c", "2",
               "--out-dir", str(out)) == 0
    assert np.loadtxt(out / "memberships.csv", delimiter=",").shape == (30, 2)


@pytest.mark.parametrize("flag, value", [("--mappers", "0"), ("--mappers", "-2"),
                                         ("--reducers", "0"), ("--mappers", "two")])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_nonpositive_task_count_is_usage_error(mm_csv, tmp_path, capsys, command, flag, value):
    argv = [command, "--input", mm_csv, *COMMAND_ARGS[command], flag, value,
            "--out-dir", str(tmp_path / "o")]
    assert_usage_error(argv, capsys, flag)


@pytest.mark.parametrize("value", ["-1", "-5", "seven"])
@pytest.mark.parametrize("command", ["bench", "cluster", "sweep"])
def test_negative_seed_is_usage_error(mm_csv, tmp_path, capsys, command, value):
    argv = [command, "--input", mm_csv, *COMMAND_ARGS[command], "--seed", value,
            "--out-dir", str(tmp_path / "o")]
    assert_usage_error(argv, capsys, "--seed")


DROPPED_FLAGS = [
    ("bench", "--max-iters", "1", "unrecognized arguments"),
    ("bench", "--epsilon", "0", "unrecognized arguments"),
    ("bench", "--mappers", "999", "unrecognized arguments"),
    ("bench", "--reducers", "999", "unrecognized arguments"),
    # --m is a prefix of --mappers and --mca-dims, so argparse calls it ambiguous.
    ("mca-info", "--m", "0.5", "ambiguous option: --m could match"),
    ("mca-info", "--epsilon", "-1", "unrecognized arguments"),
    ("mca-info", "--max-iters", "0", "unrecognized arguments"),
    ("mca-info", "--seed", "-1", "unrecognized arguments"),
]


@pytest.mark.parametrize("command, flag, value, message", DROPPED_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _, _ in DROPPED_FLAGS])
def test_flag_the_command_does_not_read_is_usage_error(mm_csv, tmp_path, capsys, command,
                                                       flag, value, message):
    argv = [command, "--input", mm_csv, *COMMAND_ARGS[command], flag, value,
            "--out-dir", str(tmp_path / "o")]
    assert message in assert_usage_error(argv, capsys, flag)
    assert not (tmp_path / "o").exists()


def write_bytes(tmp_path, data):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("data, message", [
    (b"p,q\na,x\nb,\xff\xfe\nc,x\n", "line 3 is not UTF-8"),
    (b"p,q\na,x\nb,y\nc," + b"z" * 140_000 + b"\n", "unreadable line 4: field larger"),
], ids=["not-utf8", "field-over-limit"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_unreadable_input_exits_3(tmp_path, capsys, command, data, message):
    path = write_bytes(tmp_path, data)
    code = run(command, "--input", path, *COMMAND_ARGS[command],
               "--out-dir", str(tmp_path / "o"))
    assert code == 3
    assert f"DataIOError: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("out_dir", ["taken", "taken/sub"], ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_out_dir_that_cannot_be_made_exits_3(mm_csv, tmp_path, capsys, command, out_dir):
    (tmp_path / "taken").write_text("not a directory")
    code = run(command, "--input", mm_csv, *COMMAND_ARGS[command],
               "--out-dir", str(tmp_path / out_dir))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("DataIOError: cannot write output:") and str(tmp_path / out_dir) in err


@pytest.mark.parametrize("command, blocked", [
    ("cluster", "memberships.csv"), ("sweep", "validity.csv"),
    ("bench", "bench.csv"), ("mca-info", "axes.csv")])
def test_output_file_that_cannot_be_written_exits_3(mm_csv, tmp_path, capsys, command, blocked):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    code = run(command, "--input", mm_csv, *COMMAND_ARGS[command], "--out-dir", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("DataIOError: cannot write output:") and blocked in err
    assert "Traceback" not in err


@pytest.mark.parametrize("split_rows, pools", [
    # mm.csv's 387 distinct records fit one split: every job maps inline.
    pytest.param(engine.SPLIT_ROWS, False, id=str(engine.SPLIT_ROWS)),
    # 8 splits of about 50: on 2 cores, 4x2 and 7x3 map them on the pool.
    pytest.param(50, True, id="50"),
])
def test_outputs_identical_across_deployments(mm_csv, tmp_path, monkeypatch, split_rows, pools):
    """The byte-stable files do not depend on --mappers or --reducers.  At
    50-record splits the Burt job of mca-info maps several splits too."""
    monkeypatch.setattr(engine, "SPLIT_ROWS", split_rows)
    monkeypatch.setattr(engine, "available_cores", lambda: 2)
    threads = map_threads(monkeypatch)

    def outputs(command, extra, names, deployment):
        mappers, reducers = deployment
        out = tmp_path / f"{command}_{mappers}x{reducers}"
        assert run(command, "--input", mm_csv, *extra,
                   "--mappers", str(mappers), "--reducers", str(reducers),
                   "--out-dir", str(out)) == 0
        return {name: (out / name).read_bytes() for name in names}

    # At c = 9 the sums over clusters have more than 8 terms.
    for c in ("3", "9"):
        clusters = [outputs("cluster", ["--seed", "42", "--c", c],
                            ["memberships.csv", "centroids.csv", "trace.csv"], deployment)
                    for deployment in [(1, 1), (4, 2), (16, 8), (7, 3)]]
        assert all(other == clusters[0] for other in clusters[1:]), c
    sweeps = [outputs("sweep", ["--seed", "42", "--c-min", "2", "--c-max", "5"],
                      ["validity.csv", "validity_plot.dat"], deployment)
              for deployment in [(1, 1), (2, 1), (16, 1), (7, 3)]]
    assert all(other == sweeps[0] for other in sweeps[1:])
    fits = [outputs("mca-info", [], ["schema.txt", "axes.csv", "loadings.csv"], deployment)
            for deployment in [(1, 1), (4, 2), (16, 8), (7, 3)]]
    assert all(other == fits[0] for other in fits[1:])
    assert off_calling_thread(threads) == pools


@pytest.mark.parametrize("command, first, second, blocked", [
    ("cluster", ["--c", "3"], ["--c", "4"], "trace.csv"),
    ("sweep", ["--c-max", "3"], ["--c-max", "4"], "validity_plot.dat"),
    ("mca-info", [], ["--bins", "3"], "loadings.csv"),
], ids=["cluster", "sweep", "mca-info"])
def test_failed_run_leaves_no_file_of_its_own(mm_csv, tmp_path, capsys, command, first, second,
                                              blocked):
    """A run that cannot write one output leaves only the earlier run's files."""
    out = tmp_path / "o"
    assert run(command, "--input", mm_csv, *first, "--out-dir", str(out)) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    (out / blocked).unlink()
    (out / blocked).mkdir()
    assert run(command, "--input", mm_csv, *second, "--out-dir", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("DataIOError: cannot write output:") and blocked in err
    assert (out / blocked).is_dir()
    left = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert all(before[name] == data for name, data in left.items())


@pytest.mark.parametrize("command, first, second, message", [
    ("sweep", ["--c-min", "2", "--c-max", "3"], ["--c-min", "5", "--c-max", "3"],
     "sweep: --c-min must not exceed --c-max"),
    ("bench", ["--bench-sizes", "500,900", "--bench-deployments", "1x1"],
     ["--bench-sizes", "900,500", "--bench-deployments", "1x1"],
     "bench: --bench-sizes must be ascending"),
], ids=["sweep", "bench"])
def test_usage_error_leaves_earlier_outputs(mm_csv, tmp_path, capsys, command, first, second,
                                            message):
    """A usage error found after parsing removes no file of an earlier run."""
    out = tmp_path / "o"
    assert run(command, "--input", mm_csv, *first, "--out-dir", str(out)) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert run(command, "--input", mm_csv, *second, "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == message + "\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_run_writes_exactly_its_declared_outputs(mm_csv, tmp_path, command):
    """Each subcommand names its output files once: the list that a run
    clears first is the list of files that it writes."""
    out = tmp_path / "o"
    argv = [command, "--input", mm_csv, *COMMAND_ARGS[command], "--out-dir", str(out)]
    assert run(*argv) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(
        build_parser().parse_args(argv).outputs)
