"""Seeded CLI fuzzer: small valid CSVs, mutated cell by cell and byte by
byte, run through every subcommand with extreme and invalid values of the
flags it takes, and now and then a flag that it does not take.

Every run must end in a documented exit code (0 success, 2 usage, 3 I/O,
4 schema, 5 numeric), never in an uncaught exception; a foreign flag must
end it in 2.  A run that succeeds must write membership rows that sum to 1
with no NaN, and must rerun byte for byte; a seeded share of them reruns
with ingest's byte tokenizer declining the input, so that the csv module
reads it, and must give the same bytes.  Another seeded share of the
successful ``cluster`` runs on unmutated bytes in the default format
reruns on a copy whose categorical labels are renamed one-to-one, narrow
or wide, read in blocks of a random row count: first-appearance codes
make its memberships, centroids and trace the same bytes.  Case ``i`` is
drawn from ``random.Random(i)``, so a failing id names the input that
reproduces it.
"""
import argparse
import csv
import random

import numpy as np
import pytest

from mrfcm import ingest
from mrfcm.cli import build_parser, main
from mrfcm.ingest import MISSING_TOKENS
from test_metamorphic import RENAMES, relabel

CASES = 800
# Share of the successful cases rerun with the csv module reading the input.
CSV_MODULE_SHARE = 0.5
# Share of the eligible successful cluster cases rerun on relabelled input.
RELABEL_SHARE = 0.5
# The byte-stable outputs of cluster, which relabelling must keep.
RELABEL_OUTPUTS = ["memberships.csv", "centroids.csv", "trace.csv"]
EXIT_CODES = {0, 2, 3, 4, 5}
# The files each subcommand writes, as the CLI declares them.
OUTPUTS = {command: subparser.get_default("outputs")
           for action in build_parser()._actions
           if isinstance(action, argparse._SubParsersAction)
           for command, subparser in action.choices.items()}
NON_FINITE = ["inf", "-inf", "Infinity", "-Infinity", "nan", "NAN", "1e309", "-1e308", "1e308"]

# The flag groups of the CLI, each with its extreme and invalid values.
DATA_FLAGS = {
    "--bins": ["0", "1", "2", "-3", "1000", "x"],
    "--mca-dims": ["0", "1", "-1", "1000000"],
    "--delimiter": [";", "", ";;", "\t"],
    "--no-header": [None],
}
DEPLOYMENT_FLAGS = {"--mappers": ["0", "1", "1000", "-2"], "--reducers": ["0", "1", "1000"]}
SEEDED_FLAGS = {"--m": ["1", "1.0000001", "0.5", "-2", "1e6", "nan", "inf", "x"],
                "--seed": ["0", "-1", str(2 ** 70), "x"]}
CONVERGING_FLAGS = {"--epsilon": ["-1", "0", "1e300", "nan", "inf"],
                    "--max-iters": ["0", "1", "-1", "x"]}
CLUSTERING_FLAGS = {**DATA_FLAGS, **DEPLOYMENT_FLAGS, **SEEDED_FLAGS, **CONVERGING_FLAGS}
# The flags each subcommand takes; any other flag is a usage error.
COMMAND_FLAGS = {
    "cluster": {**CLUSTERING_FLAGS, "--c": ["0", "1", "-1", "2", "50", "1000000", "x"]},
    "sweep": {**CLUSTERING_FLAGS, "--c-min": ["-1", "0", "1", "2", "5"],
              "--c-max": ["1", "2", "3", "50", "1000000"]},
    "bench": {**DATA_FLAGS, **SEEDED_FLAGS,
              "--bench-sizes": ["0", "1", "5", "30,20", "10,10", "1,2,300", "x"],
              "--bench-deployments": ["0x1", "1x", "1000x1", "1x1,3x2", "x"],
              "--fixed-iters": ["0", "-1", "1"], "--c": ["0", "1", "50"]},
    "mca-info": {**DATA_FLAGS, **DEPLOYMENT_FLAGS},
}
ALL_FLAGS = {flag: values for flags in COMMAND_FLAGS.values() for flag, values in flags.items()}


def base_table(rng):
    kinds = [rng.choice(["int", "float", "label", "mixed"]) for _ in range(rng.randint(1, 5))]
    rows = [[cell(rng, kind) for kind in kinds] for _ in range(rng.randint(8, 60))]
    return [f"c{j}" for j in range(len(kinds))], rows


def cell(rng, kind):
    if kind == "int":
        return str(rng.randint(0, 9))
    if kind == "float":
        return repr(rng.gauss(0.0, 1.0))
    if kind == "label":
        return rng.choice("abcde")
    return rng.choice([str(rng.randint(0, 3)), "x", "y"])


def random_cell(rng, rows):
    i = rng.randrange(len(rows))
    return rows[i], rng.randrange(len(rows[i]))


def ragged(rng, header, rows):
    row, _ = random_cell(rng, rows)
    if rng.random() < 0.5 or len(row) == 1:
        row.append("extra")
    else:
        row.pop()


def quoted(rng, header, rows):
    row, j = random_cell(rng, rows)
    row[j] = rng.choice(['"a,b"', '"two\nlines"', '"say ""hi"""', '"unclosed', 'in"side', '" a "'])


def long_cell(rng, header, rows):
    row, j = random_cell(rng, rows)
    row[j] = "z" * rng.choice([1000, 200_000])


def missing_cells(rng, header, rows):
    for token in sorted(MISSING_TOKENS):
        row, j = random_cell(rng, rows)
        row[j] = token


def non_finite_cells(rng, header, rows):
    for _ in range(rng.randint(1, 6)):
        row, j = random_cell(rng, rows)
        row[j] = rng.choice(NON_FINITE)


def all_missing_column(rng, header, rows):
    j = rng.randrange(len(header))
    tokens = sorted(MISSING_TOKENS)
    for row in rows:
        row[j] = rng.choice(tokens)


def constant_column(rng, header, rows):
    j, value = rng.randrange(len(header)), rng.choice(["k", "7", "0.5"])
    for row in rows:
        row[j] = value


def huge_scale_column(rng, header, rows):
    j = rng.randrange(len(header))
    for row in rows:
        row[j] = repr(rng.choice([-1.0, 1.0]) * rng.random() * 1e308)


def padded_cells(rng, header, rows):
    for _ in range(rng.randint(1, 10)):
        row, j = random_cell(rng, rows)
        row[j] = f"  {row[j]}\t"


def duplicate_header(rng, header, rows):
    header[-1] = header[0]


def few_rows(rng, header, rows):
    del rows[rng.choice([0, 1, 2]):]


# Applied in this order, so that no column-wide mutation meets a ragged row
# and none meets an empty table.
TABLE_MUTATIONS = [quoted, long_cell, missing_cells, non_finite_cells, all_missing_column,
                   constant_column, huge_scale_column, padded_cells, duplicate_header,
                   ragged, few_rows]


def with_bom(rng, data):
    return b"\xef\xbb\xbf" + data


def not_utf8(rng, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice([b"\xff\xfe", b"\xc3", b"\x80", b"\xed\xa0\x80"]) + data[at:]


def nul_byte(rng, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + b"\x00" + data[at:]


def line_ends(rng, data):
    return data.replace(b"\n", rng.choice([b"\r\n", b"\r"]))


def truncated(rng, data):
    return data[:rng.randrange(len(data) + 1)]


BYTE_MUTATIONS = [with_bom, not_utf8, nul_byte, line_ends, truncated]


def write_input(rng, path):
    """Write one case's input; True if a byte mutation was applied."""
    header, rows = base_table(rng)
    picked = rng.sample(TABLE_MUTATIONS, rng.choice([0, 1, 1, 2, 3]))
    for mutate in sorted(picked, key=TABLE_MUTATIONS.index):
        mutate(rng, header, rows)
    lines = [header] + ([] if rng.random() < 0.03 else rows)
    data = "".join(",".join(line) + "\n" for line in lines).encode("utf-8")
    byte_mutations = rng.sample(BYTE_MUTATIONS, rng.choice([0, 0, 1, 2]))
    for mutate in byte_mutations:
        data = mutate(rng, data)
    path.write_bytes(data)
    return bool(byte_mutations)


def draw_argv(rng, tmp_path):
    """(argv without --out-dir, out_dir, command, whether a flag is foreign,
    whether the input's bytes were mutated) of one case."""
    command = rng.choice(sorted(OUTPUTS))
    source = tmp_path / "input.csv"
    bytes_mutated = write_input(rng, source)
    if rng.random() < 0.03:
        source = rng.choice([tmp_path, tmp_path / "absent.csv"])
    choices = COMMAND_FLAGS[command]
    flags = {"--max-iters": str(rng.randint(1, 20)), "--seed": str(rng.randint(0, 99)),
             "--mappers": str(rng.randint(1, 5)), "--reducers": str(rng.randint(1, 3))}
    flags = {flag: value for flag, value in flags.items() if flag in choices}
    flags.update({"cluster": {"--c": rng.choice(["2", "3"])},
                  "sweep": {"--c-max": rng.choice(["3", "4"])},
                  "bench": {"--bench-sizes": "20,40", "--bench-deployments": "1x1,3x2",
                            "--fixed-iters": "3"},
                  "mca-info": {}}[command])
    for flag in rng.sample(sorted(choices), rng.choice([0, 1, 1, 2])):
        flags[flag] = rng.choice(choices[flag])
    foreign = rng.random() < 0.05
    if foreign:
        flag = rng.choice(sorted(set(ALL_FLAGS) - set(choices)))
        flags[flag] = rng.choice(ALL_FLAGS[flag])
    argv = [command, "--input", str(source)]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]

    out = tmp_path / "out"
    obstacle = rng.random()
    if obstacle < 0.06:
        (out / rng.choice(OUTPUTS[command])).mkdir(parents=True)
    elif obstacle < 0.09:
        out.write_text("not a directory")
    return argv, out, command, foreign, bytes_mutated


def run_cli(argv, capsys):
    """(exit code, stderr) of one in-process CLI run; an uncaught
    exception propagates and fails the case with its traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def relabelled_copy(rng, source, path):
    """Write a copy of the CSV at ``source`` with every categorical label
    renamed by one of test_metamorphic's renames, narrow or wide, padding
    and missing cells kept."""
    kinds = [spec.kind for spec in ingest.infer_schema(*ingest.load_csv(source))]
    categorical = {j for j, kind in enumerate(kinds) if kind == "categorical"}
    with open(source, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rename = RENAMES[rng.choice(["narrow", "wide"])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *relabel(rows, categorical, rename)])


def stable_bytes(path):
    """File contents, without bench.csv's last column (seconds)."""
    if path.name != "bench.csv":
        return path.read_bytes()
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


@pytest.mark.parametrize("case", range(CASES))
def test_cli_ends_in_a_documented_exit_code(case, tmp_path, capsys, monkeypatch):
    rng = random.Random(case)
    argv, out, command, foreign, bytes_mutated = draw_argv(rng, tmp_path)
    code, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code in ({2} if foreign else EXIT_CODES), (argv, code, err)
    if code != 0:
        return
    if command == "cluster":
        u = np.loadtxt(out / "memberships.csv", delimiter=",", ndmin=2)
        v = np.loadtxt(out / "centroids.csv", delimiter=",", ndmin=2)
        assert not np.isnan(u).any() and not np.isnan(v).any()
        assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-12
    reruns = [tmp_path / "again"]
    assert run_cli([*argv, "--out-dir", str(reruns[0])], capsys)[0] == 0
    csv_module = rng.random() < CSV_MODULE_SHARE
    default_format = not {"--delimiter", "--no-header"} & set(argv)
    if (command == "cluster" and not bytes_mutated and default_format
            and rng.random() < RELABEL_SHARE):
        copy, relabelled = tmp_path / "relabelled.csv", tmp_path / "relabelled"
        relabelled_copy(rng, argv[2], copy)
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "BLOCK_ROWS", rng.choice([2, 3, 7, ingest.BLOCK_ROWS]))
            code, err = run_cli([*argv[:2], str(copy), *argv[3:], "--out-dir", str(relabelled)],
                                capsys)
        assert code == 0, (argv, err)
        for name in RELABEL_OUTPUTS:
            assert (out / name).read_bytes() == (relabelled / name).read_bytes(), name
    if csv_module:
        monkeypatch.setattr(ingest, "_read_unquoted", lambda *args: None)
        reruns.append(tmp_path / "csv-module")
        assert run_cli([*argv, "--out-dir", str(reruns[1])], capsys)[0] == 0
    for name in set(OUTPUTS[command]) - {"jobs.csv"}:  # jobs.csv holds timings
        for again in reruns:
            assert stable_bytes(out / name) == stable_bytes(again / name), (again.name, name)
