"""Golden digests: the sha256 of every byte-stable output of a fixed set of
runs, per numpy minor release and OpenBLAS core.

The same numpy release on the same OpenBLAS core writes the same bytes.
The digests are recorded in ``golden.json`` under "numpy <major.minor>"
and the core's name; where the running key is absent the test skips and
names it.  A change that moves output bytes on purpose records them again:

    PYTHONPATH=src python tests/test_golden.py

writes the running key's digests into ``golden.json``.  Run it once per
core, with OPENBLAS_CORETYPE set to force one.
"""
import csv
import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mrfcm import datasets
from mrfcm.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
# Subcommand: (flags, byte-stable outputs).  Sweeping to c = 9 makes the sums
# over clusters longer than 8 terms.
RUNS = {
    "cluster": (["--c", "3", "--seed", "7"],
                ["memberships.csv", "centroids.csv", "trace.csv"]),
    "sweep": (["--c-min", "2", "--c-max", "9", "--seed", "7"],
              ["validity.csv", "validity_plot.dat"]),
    "mca-info": ([], ["schema.txt", "axes.csv", "loadings.csv"]),
}
DEPLOYMENTS = [(1, 1), (16, 8)]
# The subcommands run on each table.  wide-quoted, read by the csv module,
# must give the digests of wide, read by ingest's byte tokenizer.
COMMANDS = {"mm": list(RUNS), "mixed": list(RUNS), "wide": ["cluster"],
            "wide-quoted": ["cluster"], "categorical": ["cluster", "mca-info"]}


def openblas_core():
    """The name of the OpenBLAS core that numpy.linalg runs on, or "unknown"."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return "unknown"
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def running_key():
    return "numpy " + ".".join(np.__version__.split(".")[:2]), openblas_core()


def write_tables(directory):
    """mm.csv; a mixed table: six categorical columns with planted clusters
    beside two real columns of Gaussian blobs, both keeping 8 axes;
    wide.csv, with its copy of every cell quoted; and a purely categorical
    table of planted clusters, whose 3,000 rows repeat a few hundred
    records.

    wide.csv's 10,000 rows span two ingest blocks.  Its real columns both
    become RealColumns: x0's 9-digit cells are wider than 8 bytes from the
    first row, and x1's 8-byte cells hold more than BLOCK_ROWS distinct
    keys at end of file."""
    mm = datasets.write_csv(directory / "mm.csv", datasets.mammographic_mass_rows(),
                            header=datasets.MAMMOGRAPHIC_HEADER)
    categorical = datasets.clustered_categorical_rows(2000, 6, seed=11)
    reals = datasets.gaussian_blob_rows(2000, [[0, 0], [4, 1], [1, 5]], 1.0, seed=12)
    mixed = datasets.write_csv(directory / "mixed.csv",
                               [a + b for a, b in zip(categorical, reals)],
                               header=[f"q{j}" for j in range(6)] + ["x0", "x1"])
    categorical = datasets.clustered_categorical_rows(10000, 3, seed=21)
    coords = datasets.gaussian_blob_coords(10000, [[0, 0], [4, 1], [1, 5]], 1.0, seed=22)
    rows = [a + [f"{x:.9g}", f"{y:.5f}"] for a, (x, y) in zip(categorical, coords.tolist())]
    header = ["q0", "q1", "q2", "x0", "x1"]
    wide = datasets.write_csv(directory / "wide.csv", rows, header=header)
    quoted = directory / "wide-quoted.csv"
    with open(quoted, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([header, *rows])
    categorical = datasets.write_csv(directory / "categorical.csv",
                                     datasets.clustered_categorical_rows(3000, 5, seed=31),
                                     header=[f"q{j}" for j in range(5)])
    return {"mm": mm, "mixed": mixed, "wide": wide, "wide-quoted": quoted,
            "categorical": categorical}


def digests(directory):
    """{"table/subcommand/file": sha256} of every run, each deployment's
    bytes checked equal to the first's."""
    found = {}
    for table, path in write_tables(directory).items():
        for command in COMMANDS[table]:
            flags, names = RUNS[command]
            for mappers, reducers in DEPLOYMENTS:
                out = directory / f"{table}-{command}-{mappers}x{reducers}"
                assert main([command, "--input", str(path), *flags,
                             "--mappers", str(mappers), "--reducers", str(reducers),
                             "--out-dir", str(out)]) == 0
                for name in names:
                    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                    key = f"{table}/{command}/{name}"
                    assert found.setdefault(key, digest) == digest, (key, mappers, reducers)
    return found


def test_outputs_match_golden_digests(tmp_path, capsys):
    release, core = running_key()
    recorded = json.loads(GOLDEN.read_text()).get(release, {}).get(core)
    if recorded is None:
        pytest.skip(f"no golden digests for {release} on OpenBLAS core {core!r}")
    got = digests(tmp_path)
    capsys.readouterr()
    assert got == recorded
    for name in RUNS["cluster"][1]:
        assert got[f"wide-quoted/cluster/{name}"] == got[f"wide/cluster/{name}"]


if __name__ == "__main__":
    release, core = running_key()
    with tempfile.TemporaryDirectory() as scratch:
        found = digests(Path(scratch))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.setdefault(release, {})[core] = found
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(found)} digests for {release} on OpenBLAS core {core!r}")
