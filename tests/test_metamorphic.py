"""Exact relations between runs on related inputs.

Codes are first-appearance indices of each column's labels, so renaming
every categorical label one-to-one changes no code, and with it no
byte-stable output.  Scaling every real by 4, a power of two, scales each
quantile exactly, so it moves every bin edge and no real across one.
Appending a categorical table to itself doubles every category count
and the category masses with them, so the Burt-based fit, the centroids
and each row's memberships stay, and only the fuzzy objective J_m doubles.
The changed tables are read both by ingest's byte tokenizer and, from a
copy with every cell quoted, by the csv module; narrow names go through
the tokenizer's per-row keys, wide ones (9-16 bytes) through its per-cell
bytes, and wide reals through its per-row floats.
"""
import csv

import numpy as np
import pytest

from mrfcm import datasets, ingest
from mrfcm.cli import main

RUNS = [["cluster", "--c", "3", "--seed", "7"],
        ["sweep", "--c-min", "2", "--c-max", "5", "--seed", "7"],
        ["mca-info"]]
OUTPUTS = ["memberships.csv", "centroids.csv", "trace.csv", "validity.csv", "axes.csv",
           "loadings.csv"]
RENAMES = {"same": str, "narrow": lambda x: f"L{x}x", "wide": lambda x: f"L{x}x".rjust(9, "_")}


def clustered_table():
    """(names, rows, categorical column indices) of a categorical-only table."""
    rows = datasets.clustered_categorical_rows(3000, 6, seed=11)
    return [f"q{j}" for j in range(6)], rows, set(range(6))


def block_table():
    """A mixed table whose columns change between small blocks of rows.

    ``late`` meets the label "c" only from row 21 on; ``widens`` holds
    narrow cells until row 30, then a wide one; ``pads`` repeats labels
    padded in different ways, so keys that strip alike meet in different
    blocks; ``real`` is a numeric column of distinct narrow cells.
    """
    rows = []
    for k in range(60):
        late = "?" if k == 9 else "abc"[k % 3] if k > 20 else "ab"[k % 2]
        widens = ("abcdefghijk" if k >= 30 and k % 4 == 2
                  else "xyz"[k % 3] if k > 20 else "xy"[k % 2])
        pads = [" p", "q", "p ", " q ", "p", "q  ", "r"][k % 7]
        real = "?" if k == 40 else f"{k * 0.37:.4f}"
        rows.append([late, widens, pads, real])
    return ["late", "widens", "pads", "real"], rows, {0, 1, 2}


TABLES = {"clustered": clustered_table, "blocks": block_table}


def relabel(rows, categorical, rename):
    """``rows`` with each categorical label renamed, padding and missing cells kept."""
    def cell(text):
        label = text.strip()
        return text if label in ingest.MISSING_TOKENS else text.replace(label, rename(label), 1)
    return [[cell(text) if j in categorical else text for j, text in enumerate(row)]
            for row in rows]


def write(path, names, rows, quoting):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(rows)
    return str(path)


def outputs(path, out_dir):
    """The byte-stable files of every run on ``path``, by name."""
    files = {}
    for k, argv in enumerate(RUNS):
        out = out_dir / str(k)
        assert main([*argv, "--input", path, "--out-dir", str(out)]) == 0
        files.update((name, (out / name).read_bytes())
                     for name in OUTPUTS if (out / name).exists())
    assert sorted(files) == sorted(OUTPUTS)
    return files


@pytest.mark.parametrize("table, block_rows", [
    ("clustered", ingest.BLOCK_ROWS), ("blocks", ingest.BLOCK_ROWS), ("blocks", 2),
    ("blocks", 7)])
def test_relabelling_keeps_every_output(tmp_path, monkeypatch, table, block_rows):
    names, rows, categorical = TABLES[table]()
    want = outputs(write(tmp_path / "t.csv", names, rows, csv.QUOTE_MINIMAL), tmp_path / "want")
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    for name, rename in RENAMES.items():
        renamed = relabel(rows, categorical, rename)
        plain = write(tmp_path / f"{name}.csv", names, renamed, csv.QUOTE_MINIMAL)
        quoted = write(tmp_path / f"{name}-quoted.csv", names, renamed, csv.QUOTE_ALL)
        assert ingest._read_unquoted(plain, True, ",") is not None
        assert ingest._read_unquoted(quoted, True, ",") is None
        assert outputs(plain, tmp_path / name) == want, name
        assert outputs(quoted, tmp_path / f"{name}-quoted") == want, name


def real_table():
    """A mixed table of three categorical and two wide real columns, with
    "?" in about 1% of cells."""
    categorical = datasets.clustered_categorical_rows(3000, 3, seed=13)
    reals = datasets.gaussian_blob_rows(3000, [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]], 1.0, seed=14)
    rows = [a + b for a, b in zip(categorical, reals)]
    missing = np.random.default_rng(15).random((3000, 5)) < 0.01
    for i, j in zip(*np.nonzero(missing)):
        rows[i][j] = "?"
    return ["q0", "q1", "q2", "x0", "x1"], rows


@pytest.mark.parametrize("block_rows", [ingest.BLOCK_ROWS, 7])
def test_scaling_the_reals_keeps_every_output(tmp_path, monkeypatch, block_rows):
    names, rows = real_table()
    original = write(tmp_path / "t.csv", names, rows, csv.QUOTE_MINIMAL)
    want = outputs(original, tmp_path / "want")
    dataset = ingest.encode_csv(original)
    for spec in dataset.schema:
        if spec.kind == "numeric":
            spec.bin_edges = 4 * spec.bin_edges
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    scaled = [[cell if j < 3 or cell == "?" else repr(4 * float(cell))
               for j, cell in enumerate(row)] for row in rows]
    plain = write(tmp_path / "scaled.csv", names, scaled, csv.QUOTE_MINIMAL)
    quoted = write(tmp_path / "scaled-quoted.csv", names, scaled, csv.QUOTE_ALL)
    assert isinstance(ingest.read_table(plain)[1][3], ingest.RealColumn)
    assert ingest._read_unquoted(quoted, True, ",") is None
    for name, path in {"plain": plain, "quoted": quoted}.items():
        out = tmp_path / name
        assert outputs(path, out) == want, name
        assert (out / "2" / "schema.txt").read_text() == ingest.schema_dump(dataset)


def doubled_jm(original, doubled):
    """``original``'s CSV lines with each ``jm`` field doubled, and ``doubled``'s.
    Comment lines ("# consensus_c=...") are kept as they are."""
    lines = original.decode().splitlines()
    at = lines[0].split(",").index("jm")

    def twice(line):
        if line.startswith("#"):
            return line
        fields = line.split(",")
        fields[at] = f"{2 * float(fields[at]):.17g}"
        return ",".join(fields)
    return [lines[0], *map(twice, lines[1:])], doubled.decode().splitlines()


@pytest.mark.parametrize("block_rows", [ingest.BLOCK_ROWS, 7])
def test_every_row_twice_keeps_every_output_but_jm(tmp_path, monkeypatch, block_rows):
    names, rows, _ = clustered_table()
    want = outputs(write(tmp_path / "t.csv", names, rows, csv.QUOTE_MINIMAL), tmp_path / "want")
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    plain = write(tmp_path / "twice.csv", names, rows + rows, csv.QUOTE_MINIMAL)
    quoted = write(tmp_path / "twice-quoted.csv", names, rows + rows, csv.QUOTE_ALL)
    assert ingest._read_unquoted(plain, True, ",") is not None
    assert ingest._read_unquoted(quoted, True, ",") is None
    for name, path in {"plain": plain, "quoted": quoted}.items():
        got = outputs(path, tmp_path / name)
        assert got["memberships.csv"] == 2 * want["memberships.csv"], name
        for file in ("centroids.csv", "axes.csv", "loadings.csv"):
            assert got[file] == want[file], (name, file)
        for file in ("trace.csv", "validity.csv"):
            expected, actual = doubled_jm(want[file], got[file])
            assert actual == expected, (name, file)
