import numpy as np
import pytest

from mrfcm import datasets, fcm
from mrfcm.cli import main


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

    def test_all_missing_column_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        datasets.write_csv(path, [["?", "x"], ["?", "y"], ["?", "x"]], header=["p", "q"])
        code = run("cluster", "--input", str(path), "--c", "2",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 4
        assert "SchemaError" in capsys.readouterr().err


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


COMMAND_ARGS = {"cluster": ["--c", "2"], "sweep": ["--c-max", "3"],
                "bench": ["--bench-sizes", "200"], "mca-info": []}


def assert_usage_error(argv, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err


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
    assert "DataIOError: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("block_rows", [fcm.POINT_BLOCK_ROWS, 50])
def test_outputs_identical_across_deployments(mm_csv, tmp_path, monkeypatch, block_rows):
    """The byte-stable files do not depend on --mappers or --reducers."""
    monkeypatch.setattr(fcm, "POINT_BLOCK_ROWS", block_rows)

    def outputs(command, extra, names, deployment):
        mappers, reducers = deployment
        out = tmp_path / f"{command}_{mappers}x{reducers}"
        assert run(command, "--input", mm_csv, "--seed", "42", *extra,
                   "--mappers", str(mappers), "--reducers", str(reducers),
                   "--out-dir", str(out)) == 0
        return {name: (out / name).read_bytes() for name in names}

    clusters = [outputs("cluster", ["--c", "3"],
                        ["memberships.csv", "centroids.csv", "trace.csv"], deployment)
                for deployment in [(1, 1), (4, 2), (16, 8), (7, 3)]]
    assert all(other == clusters[0] for other in clusters[1:])
    sweeps = [outputs("sweep", ["--c-min", "2", "--c-max", "5"],
                      ["validity.csv", "validity_plot.dat"], deployment)
              for deployment in [(2, 1), (16, 1), (7, 3)]]
    assert all(other == sweeps[0] for other in sweeps[1:])
