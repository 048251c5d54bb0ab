import csv
import hashlib
import random

import numpy as np
import pytest

from mrfcm import datasets, ingest
from mrfcm.errors import DataIOError, SchemaError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_header_and_shape(self, tmp_path):
        path = write(tmp_path, "a,b\n1,x\n2,y\n")
        names, rows = ingest.load_csv(path)
        assert names == ["a", "b"]
        assert rows == [["1", "x"], ["2", "y"]]

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "a,b\n1,x\n1,2,3\n")
        with pytest.raises(DataIOError, match="line 3"):
            ingest.load_csv(path)
        # A quoted cell spanning two lines: the ragged row is on line 5.
        path = write(tmp_path, 'a,b\n"x\ny",1\nz,2\nw,3,4\n')
        with pytest.raises(DataIOError, match="line 5:"):
            ingest.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataIOError):
            ingest.load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            ingest.load_csv(str(tmp_path / "absent.csv"))

    def test_no_header_mode(self, tmp_path):
        path = write(tmp_path, "1,x\n2,y\n")
        names, rows = ingest.load_csv(path, has_header=False)
        assert names == ["col0", "col1"]
        assert len(rows) == 2

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_changes_nothing(self, tmp_path, has_header):
        # 40 distinct reals make the first column numeric; without a header
        # the mark sits on its first data cell.
        text = ("x,c\n" if has_header else "") + "".join(
            f"{v * 0.25},{'ab'[v % 2]}\n" for v in range(40))
        plain = write(tmp_path, text, "plain.csv")
        marked = write(tmp_path, "\ufeff" + text, "marked.csv")
        assert (ingest.load_csv(marked, has_header=has_header)
                == ingest.load_csv(plain, has_header=has_header))
        want, got = (ingest.encode_csv(p, has_header=has_header) for p in (plain, marked))
        assert [s.name for s in got.schema] == [s.name for s in want.schema]
        assert np.array_equal(got.codes, want.codes)
        assert ingest.schema_dump(got) == ingest.schema_dump(want)

    def test_mammographic_mass_dimensions(self, tmp_path):
        path = datasets.write_csv(tmp_path / "mm.csv", datasets.mammographic_mass_rows(),
                                  header=datasets.MAMMOGRAPHIC_HEADER)
        names, rows = ingest.load_csv(str(path))
        assert len(rows) == 961
        assert len(names) == 6


class TestInferSchema:
    def test_text_column_is_categorical(self):
        rows = [["a"], ["b"], ["a"]]
        schema = ingest.infer_schema(["c0"], rows)
        assert schema[0].kind == "categorical"
        assert schema[0].categories == ["a", "b"]

    def test_many_distinct_reals_is_numeric(self):
        rng = np.random.default_rng(0)
        rows = [[f"{x:.6f}"] for x in rng.normal(size=1000)]
        schema = ingest.infer_schema(["c0"], rows)
        assert schema[0].kind == "numeric"

    def test_low_cardinality_integers_stay_categorical(self):
        rows = [[str(v)] for v in [1, 2, 3] * 50]
        schema = ingest.infer_schema(["c0"], rows)
        assert schema[0].kind == "categorical"
        assert len(schema[0].categories) == 3

    def test_all_missing_column_rejected(self):
        rows = [["?", "1"], ["", "2"]]
        with pytest.raises(SchemaError, match="missing"):
            ingest.infer_schema(["c0", "c1"], rows)

    def test_first_appearance_order(self):
        rows = [["z"], ["a"], ["z"], ["m"]]
        schema = ingest.infer_schema(["c0"], rows)
        assert schema[0].categories == ["z", "a", "m"]

    @pytest.mark.parametrize("names, rows, message", [
        (["a", "b"], [["1", "2"], ["3"]], "row 1: expected 2 cells, got 1"),
        (["a", "b"], [["1"], ["3", "4"]], "row 0: expected 2 cells, got 1"),
        (["a"], [["1", "2"], ["3", "4"]], "row 0: expected 1 cells, got 2"),
    ], ids=["short-later-row", "short-first-row", "more-cells-than-names"])
    def test_row_width_must_match_names(self, names, rows, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            ingest.infer_schema(names, rows)


class TestDiscretize:
    def test_median_split(self):
        rows = [[f"{v}.0"] for v in [1, 2, 3, 4]] * 6  # 24 rows, 4 distinct
        rows = [[str(float(v))] for v in list(range(1, 14)) * 2]  # >12 distinct
        schema = ingest.infer_schema(["x"], rows)
        assert schema[0].kind == "numeric"
        ds = ingest.discretize(rows, schema, bins=2)
        median = np.median([float(r[0]) for r in rows])
        for row, code in zip(rows, ds.codes[:, 0]):
            assert code == (0 if float(row[0]) <= median else 1)

    def test_quantile_bins_on_simple_column(self):
        # the canonical 4-value example: q=2 -> indices [0, 0, 1, 1]
        rows = [["1"], ["2"], ["3"], ["4"]]
        schema = [ingest.ColumnSpec("x", "numeric")]
        ds = ingest.discretize(rows, schema, bins=2)
        assert ds.codes[:, 0].tolist() == [0, 0, 1, 1]

    def test_row_width_must_match_schema(self):
        schema = [ingest.ColumnSpec("x", "categorical", categories=["a", "b"]),
                  ingest.ColumnSpec("y", "categorical", categories=["a", "b"])]
        with pytest.raises(SchemaError, match="^row 0: expected 2 cells, got 1$"):
            ingest.discretize([["a"], ["b"]], schema)

    def test_constant_numeric_column_dropped(self):
        rows = [["7", "a"], ["7", "b"], ["7", "a"]]
        schema = [ingest.ColumnSpec("x", "numeric"),
                  ingest.ColumnSpec("y", "categorical", categories=["a", "b"])]
        with pytest.warns(UserWarning, match="constant"):
            ds = ingest.discretize(rows, schema)
        assert ds.num_columns == 1
        assert ds.schema[0].name == "y"

    def test_missing_becomes_own_category(self):
        rows = [["a"], ["?"], ["b"], ["a"]]
        schema = ingest.infer_schema(["c0"], rows)
        ds = ingest.discretize(rows, schema)
        assert ds.schema[0].has_missing
        assert ds.cardinalities == [3]
        assert ds.codes[:, 0].tolist() == [0, 2, 1, 0]

    def test_idempotent_on_categorical_codes(self):
        rows = [["0", "0"], ["1", "1"], ["0", "1"], ["1", "0"]]
        schema = ingest.infer_schema(["a", "b"], rows)
        ds = ingest.discretize(rows, schema)
        assert ds.codes.tolist() == [[0, 0], [1, 1], [0, 1], [1, 0]]
        again = ingest.discretize([[str(c) for c in row] for row in ds.codes], schema)
        assert np.array_equal(ds.codes, again.codes)

    def test_total_mapping_and_j_bound(self):
        rows = datasets.mammographic_mass_rows()
        schema = ingest.infer_schema(datasets.MAMMOGRAPHIC_HEADER, rows)
        ds = ingest.discretize(rows, schema, bins=4)
        assert ds.num_columns == 6
        cards = np.array(ds.cardinalities)
        assert np.all(ds.codes >= 0) and np.all(ds.codes < cards[None, :])
        assert ds.total_categories >= 2 * ds.num_columns

    def test_mammographic_mass_category_count_oracle(self):
        # independent one-pass count of distinct encoded categories per column
        rows = datasets.mammographic_mass_rows()
        schema = ingest.infer_schema(datasets.MAMMOGRAPHIC_HEADER, rows)
        ds = ingest.discretize(rows, schema, bins=4)
        for j, card in enumerate(ds.cardinalities):
            observed = len(set(ds.codes[:, j].tolist()))
            assert observed == card, f"column {j}: {observed} observed vs cardinality {card}"


    @pytest.mark.parametrize("cells, edges", [
        (["inf"] * 30, "-inf|0.442308|0.884615|inf"),
        (["-inf"] * 30, "-inf|0.115385|0.557692|inf"),
        (["inf", "-inf"] * 30, "-inf|0.5|inf"),
    ], ids=["inf", "minus-inf", "both"])
    def test_infinite_cells_give_finite_edges(self, cells, edges):
        # Quantiles between two infinite cells are NaN; they are dropped
        # without a RuntimeWarning, which the test run turns into an error.
        rows = [[str(v / 39)] for v in range(40)] + [[cell] for cell in cells]
        ds = ingest.discretize(rows, ingest.infer_schema(["x"], rows))
        assert ingest.schema_dump(ds) == f"x,numeric,{edges}\n"
        values = np.array([float(row[0]) for row in rows])
        inner = ds.schema[0].bin_edges[1:-1]
        assert ds.codes[:, 0].tolist() == np.searchsorted(inner, values, side="left").tolist()


class TestDictionaryEncoding:
    def test_missing_token_before_first_label(self):
        rows = [["?"], ["b"], ["a"]]
        schema = ingest.infer_schema(["c0"], rows)
        assert schema[0].categories == ["b", "a"]
        ds = ingest.discretize(rows, schema)
        assert ds.codes[:, 0].tolist() == [2, 0, 1]

    def test_every_missing_spelling_shares_one_code(self):
        tokens = sorted(ingest.MISSING_TOKENS)
        rows = [["x"], ["y"]] + [[token] for token in tokens]
        schema = ingest.infer_schema(["c0"], rows)
        assert schema[0].categories == ["x", "y"]
        ds = ingest.discretize(rows, schema)
        assert ds.cardinalities == [3]
        assert ds.codes[:, 0].tolist() == [0, 1] + [2] * len(tokens)

    def test_unparseable_cell_in_numeric_column_is_missing(self):
        rows = [[str(0.5 + v)] for v in range(30)] + [["abc"]]
        schema = ingest.infer_schema(["x"], rows)
        assert schema[0].kind == "numeric"
        ds = ingest.discretize(rows, schema, bins=4)
        assert ds.schema[0].has_missing
        assert ds.cardinalities == [5]
        assert ds.codes[-1, 0] == 4  # the dedicated missing bin
        assert ds.codes[:-1, 0].max() == 3

    def test_padded_cells_are_stripped(self, tmp_path):
        # 14 distinct reals make column x numeric (more than MAX_CARD labels).
        lines = [" a, 3.5", "a ,1", "a,2", "b,4", " ? ,5"] + [f"b,{v}" for v in range(6, 15)]
        ds = ingest.encode_csv(write(tmp_path, "c,x\n" + "\n".join(lines) + "\n"))
        cat, num = ds.schema
        assert cat.categories == ["a", "b"] and cat.has_missing
        assert ds.codes[:5, 0].tolist() == [0, 0, 0, 1, 2]
        assert num.kind == "numeric" and not num.has_missing

    @pytest.mark.parametrize("total", [ingest.MAX_CATEGORIES, ingest.MAX_CATEGORIES + 1])
    def test_categories_are_bounded(self, total):
        # J is the wide column's labels and missing category plus the narrow
        # column's two labels; the error names the widest column.
        rows = [[f"L{k}", "ab"[k % 2]] for k in range(total - 3)] + [["?", "a"]]
        schema = ingest.infer_schema(["wide", "narrow"], rows)
        if total == ingest.MAX_CATEGORIES:
            assert ingest.discretize(rows, schema).total_categories == total
            return
        with pytest.raises(SchemaError, match=f"^{total} categories, more than "
                                              f"{ingest.MAX_CATEGORIES}; column 'wide' has "
                                              f"{total - 2}$"):
            ingest.discretize(rows, schema)

    def test_label_outside_schema_rejected(self):
        schema = [ingest.ColumnSpec("c0", "categorical", categories=["a", "b"])]
        with pytest.raises(SchemaError, match="'zz' not in schema"):
            ingest.discretize([["a"], ["?"], ["zz"], ["b"]], schema)


def recipe_rows(n, seed):
    """The benchmark tables' recipe at size n: three planted-cluster
    categorical columns, two real columns and "?" in about 1% of cells."""
    categorical = datasets.clustered_categorical_rows(n, 3, seed=seed)
    numeric = datasets.gaussian_blob_rows(n, [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]], 1.0,
                                          seed=seed + 1)
    rows = [a + b for a, b in zip(categorical, numeric)]
    missing = np.random.default_rng(seed + 2).random((n, 5)) < 0.01
    for i, j in zip(*np.nonzero(missing)):
        rows[i][j] = "?"
    return ["q0", "q1", "q2", "x0", "x1"], rows


def decorated_rows(n, seed):
    """recipe_rows with padded cells, every missing spelling, and NAN and
    infinite cells in the real columns."""
    names, rows = recipe_rows(n, seed)
    odd = sorted(ingest.MISSING_TOKENS) + ["NAN", "inf", "-inf", "Infinity"]
    for k, row in enumerate(rows[::7]):
        row[k % 3] = f" {row[k % 3]}  "
        row[3 + k % 2] = odd[k % len(odd)]
    return names, rows


def spec_fields(dataset):
    return [(s.name, s.kind, s.categories, s.has_missing,
             None if s.bin_edges is None else s.bin_edges.tobytes()) for s in dataset.schema]


def assert_same_dataset(got, want):
    assert np.array_equal(got.codes, want.codes) and got.codes.dtype == want.codes.dtype
    assert spec_fields(got) == spec_fields(want)
    assert ingest.schema_dump(got) == ingest.schema_dump(want)


TABLES = {
    "mammographic": (datasets.MAMMOGRAPHIC_HEADER, datasets.mammographic_mass_rows()),
    "balance-scale": (datasets.BALANCE_SCALE_HEADER, datasets.balance_scale_rows()),
    "recipe": recipe_rows(700, 3),
    "decorated": decorated_rows(700, 4),
}


class TestOnePassEncoding:
    """Every file these tests read takes the byte tokenizer."""

    @pytest.fixture(autouse=True)
    def read_path(self, monkeypatch):
        tokenize = ingest._read_unquoted

        def taken(*args):
            table = tokenize(*args)
            assert table is not None
            return table
        monkeypatch.setattr(ingest, "_read_unquoted", taken)

    @pytest.mark.parametrize("block_rows", [7, ingest.BLOCK_ROWS])
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_encode_csv_equals_the_three_entry_points(self, tmp_path, monkeypatch, table,
                                                      bom, block_rows):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        names, rows = TABLES[table]
        path = datasets.write_csv(tmp_path / "t.csv", rows, header=names)
        if bom:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        names, rows = ingest.load_csv(str(path))
        want = ingest.discretize(rows, ingest.infer_schema(names, rows))
        assert_same_dataset(ingest.encode_csv(str(path)), want)

    @pytest.mark.parametrize("block_rows", [7, ingest.BLOCK_ROWS])
    def test_columns_match_a_per_cell_encoding(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        names, rows = TABLES["decorated"]
        got_names, columns = ingest.read_table(str(datasets.write_csv(tmp_path / "t.csv", rows,
                                                                      header=names)))
        assert got_names == names
        for j, table_column in enumerate(columns):
            column = encoded(table_column)
            index = {}
            codes = [index.setdefault(row[j].strip(), len(index)) for row in rows]
            labels = list(index)
            assert_same_rows(table_column, column)
            assert column.labels == labels
            assert column.codes.tolist() == codes
            assert column.present.tolist() == [lab not in ingest.MISSING_TOKENS for lab in labels]
            for label, parsed, value in zip(labels, column.parsed, column.values):
                try:
                    real = float(label)
                except ValueError:
                    assert not parsed and np.isnan(value)
                else:
                    assert parsed and (value == real or np.isnan(value) and np.isnan(real))

    @pytest.mark.parametrize("table", ["recipe", "decorated"])
    def test_prefix_equals_encoding_the_first_rows(self, tmp_path, table):
        names, rows = TABLES[table]
        path = str(datasets.write_csv(tmp_path / "t.csv", rows, header=names))
        _, columns = ingest.read_table(path)
        _, rows = ingest.load_csv(path)
        # Up to 12 rows, a real column holds at most MAX_CARD distinct labels
        # and is categorical; from 13 on, numeric.
        for size in (5, 12, 13, 60, 61, 333, len(rows) - 1, len(rows), len(rows) + 50):
            want = ingest.discretize(rows[:size], ingest.infer_schema(names, rows[:size]))
            got = ingest.encode_table(names, [column.prefix(size) for column in columns])
            assert_same_dataset(got, want)

    def test_in_memory_rows_are_stripped(self):
        rows = [[" a", "1 "], ["a ", " 2"], ["b", "3"]]
        schema = ingest.infer_schema(["c", "k"], rows)
        assert schema[0].categories == ["a", "b"] and schema[1].categories == ["1", "2", "3"]
        assert ingest.discretize(rows, schema).codes.tolist() == [[0, 0], [0, 1], [1, 2]]


class TestOnePassEncodingOnCsvModule(TestOnePassEncoding):
    """TestOnePassEncoding with the byte tokenizer declining every file."""

    @pytest.fixture(autouse=True)
    def read_path(self, monkeypatch):
        monkeypatch.setattr(ingest, "_read_unquoted", lambda *args: None)


def csv_module_table(path, has_header=True, delimiter=","):
    """read_table's result as the csv module reads the file."""
    blocks = ingest._read_csv(path, has_header, delimiter)
    names = next(blocks)
    return names, ingest._encode(len(names), blocks)


def encoded(column):
    """The EncodedColumn of a column: a RealColumn's is the replay of its bytes."""
    return ingest._replay(column.text) if isinstance(column, ingest.RealColumn) else column


def rows_of(column):
    """(present, values) of a column's rows."""
    if isinstance(column, ingest.RealColumn):
        return column.row_present, column.row_values
    return column.present[column.codes], column.values[column.codes]


def assert_same_rows(a, b):
    """Per row, the same present flags and the same float bits, NaNs included."""
    (present_a, values_a), (present_b, values_b) = rows_of(a), rows_of(b)
    assert present_a.dtype == present_b.dtype and present_a.tolist() == present_b.tolist()
    assert values_a.dtype == values_b.dtype
    assert values_a.view(np.uint64).tolist() == values_b.view(np.uint64).tolist()


def assert_same_table(got, want):
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for column_a, column_b in zip(got[1], want[1]):
        assert_same_rows(column_a, column_b)
        a, b = encoded(column_a), encoded(column_b)
        assert a.labels == b.labels
        assert a.codes.dtype == b.codes.dtype and a.codes.tolist() == b.codes.tolist()
        assert a.present.tolist() == b.present.tolist()
        assert a.parsed.tolist() == b.parsed.tolist()
        assert np.array_equal(a.values, b.values, equal_nan=True)


def write_bytes(tmp_path, data, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# Cells of the random files: missing tokens, padding, non-ASCII text, a
# mark and characters that str.strip() removes, and cells of 8 and 9 bytes.
RANDOM_CELLS = ["a", "b", "7", "3.25", "-0.5", "?", "", "NA", "nan", " x ", "x", "é", "\ufeff",
                "\x1c", "\x85", " \x85a", "12345678", "123456789", "abcdefgh", " abcdefg",
                "abcdefghé", "inf", "1e3"]
# Bytes inserted at random: quotes, line ends, NUL, non-UTF-8, delimiters, marks.
RANDOM_JUNK = [b'"', b"\r", b"\n", b"\r\n", b"\x00", b"\xff", b"\x85", b",", b";", b"\t",
               b"\xef\xbb\xbf", b"\n\n", b"\r\n\r\n", b" "]


def random_file(rng):
    """(bytes, delimiter, has_header) of a small random delimited file."""
    delimiter = rng.choice([",", ",", ";", "\t", " "])
    width, eol = rng.randint(1, 4), rng.choice(["\n", "\r\n"])
    lines = [delimiter.join(rng.choice(RANDOM_CELLS) for _ in range(width))
             for _ in range(rng.randint(0, 14))]
    data = (eol.join(lines) + rng.choice(["", eol, eol * 2])).encode("utf-8")
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(RANDOM_JUNK) + data[at:]
    return data, delimiter, rng.random() < 0.7


class TestByteTokenizer:
    def test_write_csv_tables_take_it(self, tmp_path):
        # datasets.write_csv ends lines in CRLF and quotes nothing here.
        path = datasets.write_csv(tmp_path / "mm.csv", datasets.mammographic_mass_rows(),
                                  header=datasets.MAMMOGRAPHIC_HEADER)
        assert path.read_bytes().count(b"\r\n") == 962
        table = ingest._read_unquoted(str(path), True, ",")
        assert table is not None
        assert_same_table(table, csv_module_table(str(path)))

    def test_random_bytes_match_the_csv_module(self, tmp_path, monkeypatch):
        rng = random.Random(17)
        taken = declined = 0
        for case in range(2000):
            data, delimiter, has_header = random_file(rng)
            monkeypatch.setattr(ingest, "BLOCK_ROWS", rng.choice([1, 2, 3, 8192]))
            path = write_bytes(tmp_path, data)
            table = ingest._read_unquoted(path, has_header, delimiter)
            try:
                want = csv_module_table(path, has_header, delimiter)
            except DataIOError:
                assert table is None, (case, data)
                declined += 1
                continue
            if table is None:
                declined += 1
            else:
                taken += 1
                assert_same_table(table, want)
        assert taken > 700 and declined > 400, (taken, declined)

    @pytest.mark.parametrize("data, delimiter", [
        (b'a,b\n1,"x"\n', ","),
        (b"a,b\n1,x\x00\n", ","),
        (b"a,b\n1,x\r2,y\n", ","),
        (b"a,b\n1,x\r", ","),
        ("a§b\n1§x\n".encode("utf-8"), "§"),
        (b"a\rb\n1\rx\n", "\r"),
        (b"a\nb\n1\nx\n", "\n"),
        (b'a"b\n1"x\n', '"'),
        (b"a\x00b\n1\x00x\n", "\x00"),
        (b"a,b\n1,x\n", ",,"),
    ], ids=["quote", "nul", "lone-cr", "cr-at-end", "non-ascii-delimiter", "cr-delimiter",
            "lf-delimiter", "quote-delimiter", "nul-delimiter", "two-char-delimiter"])
    def test_declines(self, tmp_path, data, delimiter):
        assert ingest._read_unquoted(write_bytes(tmp_path, data), True, delimiter) is None

    @pytest.mark.parametrize("data", [b"a,b\n1,x\n2,\xff\n", b"a,b\n1,12345\xc3\n",
                                      b"a\xff,b\n1,x\n"],
                             ids=["narrow-cell", "wide-cell", "header"])
    def test_declines_bytes_that_are_not_utf8(self, tmp_path, data):
        path = write_bytes(tmp_path, data)
        assert ingest._read_unquoted(path, True, ",") is None
        line = data.count(b"\n", 0, data.index(b"\xff" if b"\xff" in data else b"\xc3")) + 1
        with pytest.raises(DataIOError, match=f"^{path}: line {line} is not UTF-8: "):
            ingest.read_table(path)

    def test_declines_a_ragged_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", 2)
        data = b"a,b\r\n1,x\r\n\r\n2,y\r\n3,z,w\r\n"  # the ragged row is in a later block
        path = write_bytes(tmp_path, data)
        assert ingest._read_unquoted(path, True, ",") is None
        with pytest.raises(DataIOError,
                           match=f"^{path}: ragged row at line 5: expected 2 cells, got 3$"):
            ingest.read_table(path)

    def test_declines_a_cell_over_the_field_limit(self, tmp_path):
        limit = csv.field_size_limit()
        fits = write_bytes(tmp_path, b"a,b\n1," + b"z" * limit + b"\n", "fits.csv")
        assert ingest._read_unquoted(fits, True, ",") is not None
        path = write_bytes(tmp_path, b"a,b\n1," + b"z" * (limit + 1) + b"\n")
        assert ingest._read_unquoted(path, True, ",") is None
        with pytest.raises(DataIOError, match="field larger than field limit"):
            ingest.read_table(path)

    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf", b"a,b\r\n", b"a,b\n\n\r\n"],
                             ids=["empty", "mark-only", "header-only", "header-and-blanks"])
    def test_declines_a_file_without_data_rows(self, tmp_path, data):
        path = write_bytes(tmp_path, data)
        assert ingest._read_unquoted(path, True, ",") is None
        with pytest.raises(DataIOError, match="no data rows"):
            ingest.read_table(path)

    def test_missing_file_keeps_the_csv_message(self, tmp_path):
        path = str(tmp_path / "absent.csv")
        assert ingest._read_unquoted(path, True, ",") is None
        with pytest.raises(DataIOError, match=f"^cannot open {path}: "):
            ingest.read_table(path)

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_is_skipped(self, tmp_path, has_header):
        text = b"x,c\r\n1,a\r\n\xef\xbb\xbf2,b\r\n"  # only the first mark is skipped
        plain = ingest._read_unquoted(write_bytes(tmp_path, text, "plain.csv"), has_header, ",")
        marked = write_bytes(tmp_path, b"\xef\xbb\xbf" + text)
        table = ingest._read_unquoted(marked, has_header, ",")
        assert_same_table(table, plain)
        assert_same_table(table, csv_module_table(marked, has_header))
        assert table[1][0].labels[-1] == "\ufeff2"

    @pytest.mark.parametrize("block_rows, cells, labels, codes, narrow_calls", [
        # Column c is narrow for the first block only; its later wide cells
        # repeat, padded or not, labels first seen as narrow keys.
        (7, [" a", "b", "a ", "?", "b", "a", "12345678", "abcdefghij", " a ",
             "b       ", "?", "abcdefghij", "c", " 12345678 "],
         ["a", "b", "?", "12345678", "abcdefghij", "c"],
         [0, 1, 0, 2, 1, 0, 3, 4, 0, 1, 2, 4, 5, 3], 1 + 3),
        # Every cell of c fits 8 bytes, but after two blocks (the header and
        # five rows) its lookup holds five keys, more than BLOCK_ROWS, so c
        # is wide from the third block on.
        (3, ["a", "b", "?", "12345678", "xy", " a ", "b", " ? ", "12345678", "xy ", "zz",
             "a", " b", "zz", "?"],
         ["a", "b", "?", "12345678", "xy", "zz"],
         [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 0, 1, 5, 2], 2 + 6),
    ], ids=["long-cell", "lookup-outgrown"])
    def test_column_that_widens_after_the_first_block(self, tmp_path, monkeypatch, block_rows,
                                                      cells, labels, codes, narrow_calls):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        narrow, calls = ingest._narrow_positions, []
        monkeypatch.setattr(ingest, "_narrow_positions",
                            lambda *args: calls.append(1) or narrow(*args))
        lines = ["c,k"] + [f"{cell},{k % 3}" for k, cell in enumerate(cells)]
        path = write_bytes(tmp_path, ("\r\n".join(lines) + "\r\n").encode("utf-8"))
        table = ingest._read_unquoted(path, True, ",")
        assert_same_table(table, csv_module_table(path))
        column = table[1][0]
        assert column.labels == labels
        assert column.codes.tolist() == codes
        assert len(calls) == narrow_calls  # c's narrow blocks, then every block of k

    def test_a_narrow_lookup_holds_at_most_block_rows_keys(self, tmp_path, monkeypatch):
        # Distinct 8-digit ids outgrow the lookup in the second block.
        ids = [10_000_000 + (7919 * i) % 90_000_000 for i in range(3 * ingest.BLOCK_ROWS)]
        lines = ["id,k"] + [f"{cell},{cell % 5}" for cell in ids]
        path = write_bytes(tmp_path, ("\n".join(lines) + "\n").encode("utf-8"))
        narrow = ingest._narrow_positions

        def spy(keys, *args):
            assert isinstance(keys, tuple) and len(keys) == 2
            assert all(isinstance(part, np.ndarray) for part in keys)
            assert len(keys[0]) <= ingest.BLOCK_ROWS
            return narrow(keys, *args)
        monkeypatch.setattr(ingest, "_narrow_positions", spy)
        table = ingest._read_unquoted(path, True, ",")
        assert_same_table(table, csv_module_table(path))

    def test_narrow_keys_that_strip_alike_share_a_label(self, tmp_path):
        path = write_bytes(tmp_path, b"c\n b\n a\na \n a \nb\n\t\n?\n")
        column = ingest._read_unquoted(path, True, ",")[1][0]
        assert column.labels == ["b", "a", "", "?"]
        assert column.codes.tolist() == [0, 1, 1, 1, 0, 2, 3]


def quoted_copy(path):
    """A copy of the CSV at ``path`` with every cell quoted, which only the
    csv module reads."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    copy = path[:-len(".csv")] + "-quoted.csv"
    with open(copy, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    return copy


def read_like_the_csv_module(path):
    """read_table's result on ``path``, which the tokenizer reads, after
    checking it and its encoding against the csv module's on a quoted copy."""
    quoted = quoted_copy(path)
    assert ingest._read_unquoted(path, True, ",") is not None
    assert ingest._read_unquoted(quoted, True, ",") is None
    table = ingest.read_table(path)
    assert_same_dataset(ingest.encode_table(*table), ingest.encode_csv(quoted))
    assert_same_table(table, ingest.read_table(quoted))
    return table


def real_lines(cells):
    """CSV lines of a wide real column x beside a categorical column k."""
    return ["x,k"] + [f"{cell},{k % 3}" for k, cell in enumerate(cells)]


def write_lines(tmp_path, lines):
    return write_bytes(tmp_path, ("\r\n".join(lines) + "\r\n").encode("utf-8"))


class TestRealColumns:
    """A wide column keeps its bytes, whenever it turned wide, and is read
    as reals, without a dictionary, if at end of file every present cell
    parses and more than MAX_CARD of them differ."""

    @pytest.mark.parametrize("text_row", [3, 20], ids=["first-block", "later-block"])
    def test_text_label_turns_the_column_into_a_dictionary(self, tmp_path, monkeypatch,
                                                           text_row):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", 7)
        cells = [f"{100 + k * 0.37:.6f}" for k in range(40)]
        cells[9], cells[text_row] = " ? ", "some text"
        cells[30] = cells[2]  # a label seen before the switch
        table = read_like_the_csv_module(write_lines(tmp_path, real_lines(cells)))
        column = table[1][0]
        assert isinstance(column, ingest.EncodedColumn)
        assert column.labels[column.codes[text_row]] == "some text"
        assert column.codes[30] == column.codes[2]

    @pytest.mark.parametrize("block_rows", [7, ingest.BLOCK_ROWS])
    @pytest.mark.parametrize("spellings, values, kind", [
        (1, ingest.MAX_CARD, "categorical"),
        (2, ingest.MAX_CARD, "numeric"),
        (1, ingest.MAX_CARD + 1, "numeric"),
    ], ids=["max-card-labels", "two-labels-per-real", "max-card-plus-one-reals"])
    def test_few_distinct_reals_keep_their_labels(self, tmp_path, monkeypatch, block_rows,
                                                  spellings, values, kind):
        # Each real is written with nine or ten decimals: distinct labels,
        # one value.
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        labels = [f"{v}.{'0' * (9 + s)}" for s in range(spellings) for v in range(values)]
        cells = [labels[k % len(labels)] for k in range(3 * len(labels))] + ["?"]
        table = read_like_the_csv_module(write_lines(tmp_path, real_lines(cells)))
        column = table[1][0]
        assert isinstance(column, ingest.RealColumn) == (len(labels) == values > ingest.MAX_CARD)
        assert encoded(column).labels == labels + ["?"]
        spec = ingest.encode_table(*table).schema[0]
        assert spec.kind == kind
        if kind == "categorical":
            assert spec.categories == labels

    @pytest.mark.parametrize("block_rows", [7, ingest.BLOCK_ROWS])
    def test_odd_wide_cells_stay_reals(self, tmp_path, monkeypatch, block_rows):
        # Stripped, each odd cell is a missing token or a real; unstripped,
        # " ? " and "\x1c1.5" are neither.
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        odd = [" ? ", "NAN", "-nan", "inf", "1_0", "\x1c1.5"]
        cells = [f"{k * 0.37 - 5:.7f}" if k % 3 else odd[k // 3 % len(odd)] for k in range(90)]
        table = read_like_the_csv_module(write_lines(tmp_path, real_lines(cells)))
        column = table[1][0]
        assert isinstance(column, ingest.RealColumn)
        assert {"?", "NAN", "-nan", "inf", "1_0", "1.5"} <= set(encoded(column).labels)
        assert column.row_present.tolist() == [cell != " ? " for cell in cells]

    @pytest.mark.parametrize("block_rows", [3, ingest.BLOCK_ROWS])
    @pytest.mark.parametrize("case", ["ids", "wide-real-later", "wide-real-then-text"])
    def test_a_column_that_turns_wide_later_is_typed_at_the_end(self, tmp_path, monkeypatch,
                                                                block_rows, case):
        # The header and the first rows fill the first block, so data row
        # 2 * block_rows lies in the third.
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        rows = 4 * block_rows + 20
        if case == "ids":
            # Distinct 8-digit ids outgrow the lookup at the third block;
            # " ? " and "?" are narrow, the padded ids from the fourth wide.
            cells = [str(10_000_000 + (7919 * k) % 90_000_000) for k in range(rows)]
            for k in range(rows):
                if k % 11 == 5:
                    cells[k] = "?" if k % 2 else " ? "
                elif k >= 3 * block_rows and k % 7 == 0:
                    cells[k] = f" {cells[k]}  "
        else:
            # Five narrow reals, then a wide real in the third block and
            # distinct reals after it.
            cells = [f"{k % 5 * 0.25:.2f}" if k < 2 * block_rows else f"{k * 0.37:.3f}"
                     for k in range(rows)]
            cells[3], cells[2 * block_rows] = "?", "123.4567890"
            if case == "wide-real-then-text":
                cells[2 * block_rows + 2] = "some text"
        column = read_like_the_csv_module(write_lines(tmp_path, real_lines(cells)))[1][0]
        real = case != "wide-real-then-text"
        assert isinstance(column, ingest.RealColumn if real else ingest.EncodedColumn)
        if real:
            assert column.row_present.tolist() == [cell.strip() != "?" for cell in cells]

    def test_recipe_reals_never_reach_the_dictionary(self, tmp_path, monkeypatch):
        names, rows = TABLES["recipe"]
        path = str(datasets.write_csv(tmp_path / "t.csv", rows, header=names))
        calls = []
        positions = ingest._positions

        def spy(index, cells, n, count):
            cells = list(cells)
            calls.append(cells)
            return positions(index, cells, n, count)
        monkeypatch.setattr(ingest, "_positions", spy)
        table = ingest.read_table(path)
        dataset = ingest.encode_table(*table)
        # Only the categorical columns' distinct keys, in first-row order.
        assert calls == [list(dict.fromkeys(row[j] for row in rows)) for j in range(3)]
        kinds = [type(column).__name__ for column in table[1]]
        assert kinds == ["EncodedColumn"] * 3 + ["RealColumn"] * 2
        assert [spec.kind for spec in dataset.schema] == ["categorical"] * 3 + ["numeric"] * 2
        monkeypatch.setattr(ingest, "_positions", positions)
        assert_same_dataset(dataset, ingest.encode_csv(quoted_copy(path)))


# sha256 of schema_dump, then the codes' dtype and bytes, of each table of
# TABLES: encode_csv, which equals the prefix of 5,000 rows (more than any
# table holds), and encode_table on the prefixes of 5, 12 and 13 rows.
GOLDEN = {
    "balance-scale": {
        "csv": "7a680859bf3bc31abad449f68b70be10c328f774d841571e6737f1b9e6906e97",
        5: "b441c7782d63f7c96d930395ad12a5f0a03b70b60b0e85199d91df679bd0ff9d",
        12: "5a462e1e30ff3d965c93c4e5d12dbcf41fb3ee4cfad9e51cc22c9c38929afa6d",
        13: "35b74f1167d674c3592f1c79a3390d49667aa0578865af177a90461070433f32"},
    "decorated": {
        "csv": "5a69815b6692ebbc7475a1a07d0d48431dd781f30713ef96772e9ef25935a767",
        5: "989eeda4f8d736b539f603ff5c8c4e7fba8f97b853f7f69e268624a1020bf610",
        12: "6bb52075c1329b2449617069f030de4ae573cef979a506be193d27683c3b2764",
        13: "fddd27db648f73700c767433cc2b137baec8f457757a263ff69594c45e804290"},
    "mammographic": {
        "csv": "d6aaf07a83cd65e56ab7fb10a09b26abe371e09a1d3e975037cc89084f103436",
        5: "8a92f2f0a99ea4ef918ec54371b48436c29d1ce67d869782083e12ed953afbe7",
        12: "4dab2640fe9fe21949ce2d0300b7720d3d68bb4be76fdf24e2c14651a43d892e",
        13: "ce61159e1389c3002196eaa80545f3046666f6fe28b66b3446dd0682aa60194d"},
    "recipe": {
        "csv": "88053468c3f2ee6e1548b39a2ee77cc28e311ceaa5f1edb34b07d7448cefe988",
        5: "893c60c3034875b5833bf7fc734fa41d8565ab1db977bdfeb4e13e662cd26d51",
        12: "3b85ecfad316aa919fd1f28420941bfb9faac262b9a0f6560713f7643a0d882c",
        13: "cd6cc8f989d39fd4044d25bbbc6d95ca56911e3052fde39fb025d93797e7bedf"},
}


def digest(dataset):
    return hashlib.sha256(ingest.schema_dump(dataset).encode() + str(dataset.codes.dtype).encode()
                          + dataset.codes.tobytes()).hexdigest()


@pytest.mark.filterwarnings("ignore:dropping")
@pytest.mark.parametrize("reader", ["tokenizer", "csv-module"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_golden_digests(tmp_path, monkeypatch, table, reader):
    # A change that moves these bytes on purpose updates GOLDEN and says why.
    names, rows = TABLES[table]
    path = str(datasets.write_csv(tmp_path / "t.csv", rows, header=names))
    assert ingest._read_unquoted(path, True, ",") is not None
    if reader == "csv-module":
        monkeypatch.setattr(ingest, "_read_unquoted", lambda *args: None)
    got = {"csv": digest(ingest.encode_csv(path))}
    names, columns = ingest.read_table(path)
    for size in (5, 12, 13, 5000):
        got[size] = digest(ingest.encode_table(names, [column.prefix(size) for column in columns]))
    assert got.pop(5000) == got["csv"]
    assert got == GOLDEN[table]


# Labels float() reads in unusual ways: signed NaN, infinity, negative zero,
# a digit separator, padding and non-ASCII digits.  It rejects "0x10".
ODD_REALS = ["-nan", "inf", "-0", "1_0", " 1.5 ", "١٢"]


class TestMerge:
    @pytest.mark.parametrize("labels", [
        sorted(ingest.MISSING_TOKENS) + ODD_REALS + ["0x10", "2.5"],
        sorted(ingest.MISSING_TOKENS) + ODD_REALS,
        [f"{k / 7:.6f}" for k in range(300)] + ["?", "nan", "text"],
    ], ids=["text-label", "all-reals", "text-label-last"])
    def test_labels_match_a_per_label_float_oracle(self, labels):
        # Each label appears once, then again in reverse, so codes repeat.
        rows = list(range(len(labels))) + list(range(len(labels)))[::-1]
        index = {label: row for row, label in enumerate(labels)}
        column = ingest._merge(index, [np.array(rows[:5]), np.array(rows[5:])], len(rows))
        assert column.labels == labels
        assert column.codes.tolist() == rows
        assert column.present.tolist() == [lab not in ingest.MISSING_TOKENS for lab in labels]
        parsed, values = [], []
        for label in labels:
            try:
                values.append(float(label))
                parsed.append(True)
            except ValueError:
                values.append(float("nan"))
                parsed.append(False)
        assert column.parsed.tolist() == parsed
        assert column.values.view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()


class TestPartition:
    def test_balanced_split(self):
        store = ingest.partition(np.arange(20).reshape(10, 2), 3)
        sizes = np.diff(store.offsets).tolist()
        assert sizes == [4, 3, 3]

    def test_single_partition_identity(self):
        data = np.arange(10).reshape(5, 2)
        store = ingest.partition(data, 1)
        assert store.num_partitions == 1
        assert np.array_equal(store.block(0), data)

    def test_clamp_when_p_exceeds_n(self):
        with pytest.warns(UserWarning, match="clamping"):
            store = ingest.partition(np.arange(4).reshape(2, 2), 5)
        assert store.num_partitions == 2

    def test_concat_identity_for_all_p(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 5, size=(17, 3))
        for p in range(1, 18):
            store = ingest.partition(data, p)
            back = np.concatenate([store.block(i) for i in range(store.num_partitions)])
            assert np.array_equal(back, data)
            assert min(np.diff(store.offsets)) >= 1

    def test_blocks_are_read_only(self):
        store = ingest.partition(np.arange(4).reshape(2, 2), 2)
        with pytest.raises(ValueError):
            store.block(0)[0, 0] = 99


class TestReplicate:
    def _tiny(self):
        rows = [["a"], ["b"], ["c"]]
        schema = ingest.infer_schema(["c0"], rows)
        return ingest.discretize(rows, schema)

    def test_identity_at_same_size(self):
        ds = self._tiny()
        assert ingest.replicate_to_size(ds, 3, seed=1) is ds

    def test_prefix_preserved_and_rows_duplicated(self):
        ds = self._tiny()
        grown = ingest.replicate_to_size(ds, 10, seed=1)
        assert grown.n == 10
        assert np.array_equal(grown.codes[:3], ds.codes)
        assert set(grown.codes[3:, 0].tolist()) <= set(ds.codes[:, 0].tolist())

    def test_deterministic_for_fixed_seed(self):
        ds = self._tiny()
        a = ingest.replicate_to_size(ds, 50, seed=9)
        b = ingest.replicate_to_size(ds, 50, seed=9)
        assert np.array_equal(a.codes, b.codes)

    def test_shrinking_rejected(self):
        ds = self._tiny()
        with pytest.raises(SchemaError):
            ingest.replicate_to_size(ds, 2, seed=0)

    def test_forest_duplication_counts(self):
        # the benchmark rule: 581,012 rows grown to 600,000 appends 18,988
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 3, size=(581_012 // 997, 2)).astype(np.int32)  # scaled stand-in
        ds = ingest.CategoricalDataset(
            [ingest.ColumnSpec(f"c{j}", "categorical", categories=["0", "1", "2"])
             for j in range(2)], codes)
        grown = ingest.replicate_to_size(ds, ds.n + 19, seed=0)
        assert grown.n - ds.n == 19
        assert np.array_equal(grown.codes[:ds.n], ds.codes)


class TestSchemaDump:
    def test_format(self):
        rows = [["a", "1.5"], ["b", "2.5"], ["a", "3.5"]]
        schema = [ingest.ColumnSpec("cat", "categorical", categories=["a", "b"]),
                  ingest.ColumnSpec("num", "numeric")]
        ds = ingest.discretize(rows, schema, bins=2)
        dump = ingest.schema_dump(ds)
        lines = dump.strip().split("\n")
        assert lines[0] == "cat,categorical,2"
        assert lines[1].startswith("num,numeric,-inf|")
