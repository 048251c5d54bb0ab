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
        for j, column in enumerate(columns):
            index = {}
            codes = [index.setdefault(row[j].strip(), len(index)) for row in rows]
            labels = list(index)
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
        for size in (60, 61, 333, len(rows) - 1, len(rows), len(rows) + 50):
            want = ingest.discretize(rows[:size], ingest.infer_schema(names, rows[:size]))
            got = ingest.encode_table(names, [column.prefix(size) for column in columns])
            assert_same_dataset(got, want)

    def test_in_memory_rows_are_stripped(self):
        rows = [[" a", "1 "], ["a ", " 2"], ["b", "3"]]
        schema = ingest.infer_schema(["c", "k"], rows)
        assert schema[0].categories == ["a", "b"] and schema[1].categories == ["1", "2", "3"]
        assert ingest.discretize(rows, schema).codes.tolist() == [[0, 0], [0, 1], [1, 2]]


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
