"""Loading, schema inference, discretization, and partitioning of tabular data.

The clustering core consumes purely categorical records, so mixed-type
input is normalized here: numeric columns are quantile-binned, missing
cells become an explicit per-column category, and the encoded rows are
split into contiguous partitions that the map-reduce engine schedules.

Each column is dictionary-encoded in one pass: its distinct labels in
first-appearance order, plus one int code per cell.
"""
from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIOError, SchemaError

# Cell values treated as missing ("?" is the usual marker in UCI exports).
MISSING_TOKENS = frozenset({"", "?", "NA", "na", "NaN", "nan", "NULL", "null"})


@dataclass
class ColumnSpec:
    """Schema entry for one column of the encoded dataset.

    Categorical columns carry their distinct labels in first-appearance
    order; numeric columns carry ascending bin edges whose first and last
    entries are -inf/+inf sentinels, so every real lands in exactly one
    bin.  ``has_missing`` appends one extra category for missing cells.
    """

    name: str
    kind: str  # "categorical" | "numeric"
    categories: list[str] = field(default_factory=list)
    bin_edges: np.ndarray | None = None
    has_missing: bool = False

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"column {self.name!r}: duplicate category labels")
        elif self.bin_edges is not None:
            edges = np.asarray(self.bin_edges, dtype=float)
            if edges[0] != -np.inf or edges[-1] != np.inf:
                raise SchemaError(f"column {self.name!r}: bin edges must start/end with inf sentinels")
            if not np.all(np.diff(edges) > 0):
                raise SchemaError(f"column {self.name!r}: bin edges not strictly ascending")
            self.bin_edges = edges

    @property
    def cardinality(self) -> int:
        """Number of category codes this column can emit."""
        if self.kind == "categorical":
            base = len(self.categories)
        else:
            base = len(self.bin_edges) - 1 if self.bin_edges is not None else 0
        return base + (1 if self.has_missing else 0)


@dataclass
class CategoricalDataset:
    """Encoded records: n rows of Q category codes plus the schema."""

    schema: list[ColumnSpec]
    codes: np.ndarray  # (n, Q) int32

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def num_columns(self) -> int:
        return self.codes.shape[1]

    @property
    def cardinalities(self) -> list[int]:
        return [col.cardinality for col in self.schema]

    @property
    def total_categories(self) -> int:
        """J, the summed cardinality over all columns."""
        return int(sum(self.cardinalities))

    def validate(self):
        cards = np.asarray(self.cardinalities)
        if self.codes.shape[1] != len(self.schema):
            raise SchemaError("codes width does not match schema length")
        if np.any(self.codes < 0) or np.any(self.codes >= cards[None, :]):
            raise SchemaError("category code out of range for its column")


@dataclass(frozen=True)
class PartitionedStore:
    """Immutable contiguous row blocks over a 2-D array.

    Blocks are disjoint, ordered, and concatenate back to the original
    row order, which is what lets the membership job reassemble its
    output deterministically by partition index.
    """

    data: np.ndarray
    offsets: np.ndarray  # (P + 1,) prefix offsets, offsets[-1] == n

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def num_partitions(self) -> int:
        return len(self.offsets) - 1

    def block(self, pid: int) -> np.ndarray:
        return self.data[self.offsets[pid]:self.offsets[pid + 1]]


def load_csv(path, has_header: bool = True, delimiter: str = ","):
    """Read a rectangular CSV into (column names, list of text rows).

    Raises DataIOError for a missing or empty file, and for a ragged row,
    a byte that is not UTF-8 or a cell csv cannot read, naming the
    offending 1-based line number.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = []
        names = None
        width = None
        try:
            for row in reader:
                if not row:
                    continue  # blank line
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise DataIOError(f"{path}: ragged row at line {reader.line_num}: "
                                      f"expected {width} cells, got {len(row)}")
                if has_header and names is None:
                    names = [cell.strip() for cell in row]
                    continue
                rows.append([cell.strip() for cell in row])
        except UnicodeDecodeError as exc:
            # Bytes that are not UTF-8, and only those, escape to lone surrogates.
            with open(path, "rb") as raw:
                text = raw.read().decode("utf-8", "surrogateescape")
            lineno = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
            raise DataIOError(f"{path}: line {lineno} is not UTF-8: {exc.reason}") from exc
        except csv.Error as exc:
            raise DataIOError(f"{path}: unreadable line {reader.line_num}: {exc}") from exc
    if width is None or not rows:
        raise DataIOError(f"{path}: no data rows")
    if names is None:
        names = [f"col{j}" for j in range(width)]
    return names, rows


def _parse_real(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _dictionary_encode(rows, j):
    """Dictionary-encode column j: (labels, codes, present).

    ``labels`` holds the distinct cells in first-appearance order, ``codes``
    the index of each row's cell into it, and ``present`` marks the labels
    that are not missing tokens.
    """
    index = {}
    codes = np.fromiter((index.setdefault(row[j], len(index)) for row in rows),
                        dtype=np.intp, count=len(rows))
    present = np.array([label not in MISSING_TOKENS for label in index], dtype=bool)
    return list(index), codes, present


def infer_schema(names, rows, numeric_detect: float = 0.95, max_card: int = 12):
    """Classify each column as numeric or categorical.

    A column is numeric iff at least ``numeric_detect`` of its non-missing
    cells parse as reals AND it has more than ``max_card`` distinct cell
    strings; otherwise it is categorical with labels in first-appearance
    order.  Raises SchemaError if a column has no non-missing cells.
    """
    if not rows:
        raise SchemaError("empty table")
    schema = []
    for j in range(len(rows[0])):
        labels, codes, present = _dictionary_encode(rows, j)
        if not present.any():
            raise SchemaError(f"column {names[j]!r}: all cells missing")
        counts = np.bincount(codes)[present]
        labels = [label for label, ok in zip(labels, present) if ok]
        n_present = int(counts.sum())
        n_parsed = int(sum(cnt for label, cnt in zip(labels, counts)
                           if _parse_real(label) is not None))
        has_missing = n_present < len(rows)
        if n_parsed >= numeric_detect * n_present and len(labels) > max_card:
            schema.append(ColumnSpec(names[j], "numeric", has_missing=has_missing))
        else:
            schema.append(ColumnSpec(names[j], "categorical",
                                     categories=labels, has_missing=has_missing))
    return schema


def discretize(rows, schema, bins: int = 4) -> CategoricalDataset:
    """Encode text rows into category codes under the given schema.

    Numeric columns get quantile bins (edges at i/bins quantiles of the
    observed values, deduplicated); missing cells map to the column's
    dedicated missing category.  Columns that end up with fewer than two
    categories are dropped with a warning, since they carry no signal and
    would make the category-mass matrix singular.
    """
    if bins < 2:
        raise SchemaError(f"bins must be >= 2, got {bins}")
    kept_specs = []
    kept_codes = []
    for j, spec in enumerate(schema):
        labels, codes, present = _dictionary_encode(rows, j)
        # lut maps each label to its category code; missing labels get the
        # column's dedicated missing category, one past the last.
        if spec.kind == "numeric":
            values = np.array([_parse_real(label) if ok else np.nan
                               for label, ok in zip(labels, present)], dtype=float)
            present &= ~np.isnan(values)
            if not present.any():
                raise SchemaError(f"column {spec.name!r}: no parseable values")
            qs = np.quantile(values[codes[present[codes]]], [i / bins for i in range(1, bins)])
            inner = np.unique(qs)
            raw = np.searchsorted(inner, values[present], side="left")
            # Skewed data can leave quantile bins empty; merge those away so
            # every category has nonzero mass downstream.
            occupied = np.unique(raw)
            remap = np.zeros(len(inner) + 1, dtype=np.int32)
            remap[occupied] = np.arange(len(occupied))
            inner = inner[occupied[:-1]] if len(occupied) > 1 else inner[:0]
            edges = np.concatenate(([-np.inf], inner, [np.inf]))
            out = ColumnSpec(spec.name, "numeric", bin_edges=edges,
                             has_missing=not present.all())
            if out.cardinality < 2:
                warnings.warn(f"dropping constant numeric column {spec.name!r}")
                continue
            lut = np.full(len(labels), len(occupied), dtype=np.int32)
            lut[present] = remap[raw]
        else:
            index = {label: k for k, label in enumerate(spec.categories)}
            try:
                lut = np.array([index[label] if ok else len(index)
                                for label, ok in zip(labels, present)], dtype=np.int32)
            except KeyError as exc:
                raise SchemaError(f"column {spec.name!r}: label {exc.args[0]!r} "
                                  "not in schema") from None
            out = ColumnSpec(spec.name, "categorical", categories=list(spec.categories),
                             has_missing=not present.all())
            if out.cardinality < 2:
                warnings.warn(f"dropping single-category column {spec.name!r}")
                continue
        kept_specs.append(out)
        kept_codes.append(lut[codes])
    if not kept_specs:
        raise SchemaError("no usable columns after encoding")
    dataset = CategoricalDataset(kept_specs, np.column_stack(kept_codes))
    dataset.validate()
    return dataset


def encode_csv(path, has_header=True, delimiter=",", bins=4,
               numeric_detect=0.95, max_card=12) -> CategoricalDataset:
    """load_csv + infer_schema + discretize in one call."""
    names, rows = load_csv(path, has_header=has_header, delimiter=delimiter)
    schema = infer_schema(names, rows, numeric_detect=numeric_detect, max_card=max_card)
    return discretize(rows, schema, bins=bins)


def partition(data, num_partitions: int) -> PartitionedStore:
    """Split rows into contiguous, order-preserving blocks.

    Block sizes differ by at most one.  num_partitions is clamped to the
    row count (with a warning) so no partition is ever empty.

    ``data`` may be a CategoricalDataset or any 2-D array (float rows are
    used when clustering already-projected coordinates directly).
    """
    array = data.codes if isinstance(data, CategoricalDataset) else np.asarray(data)
    if array.ndim != 2:
        raise SchemaError("partition expects a 2-D row array")
    n = array.shape[0]
    if num_partitions < 1:
        raise SchemaError(f"partition count must be >= 1, got {num_partitions}")
    if num_partitions > n:
        warnings.warn(f"partition count {num_partitions} exceeds row count {n}; clamping")
        num_partitions = max(n, 1)
    sizes = np.full(num_partitions, n // num_partitions, dtype=np.int64)
    sizes[: n % num_partitions] += 1
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return PartitionedStore(array.copy(), offsets)


def replicate_to_size(dataset: CategoricalDataset, target_n: int, seed: int) -> CategoricalDataset:
    """Grow a dataset to target_n rows by appending uniformly resampled rows.

    The first n rows are the original dataset unchanged; the appended rows
    are drawn with replacement by a generator seeded with ``seed``, so the
    result is reproducible.
    """
    n = dataset.n
    if target_n < n:
        raise SchemaError(f"target size {target_n} below current {n}; take a subset instead")
    if target_n == n:
        return dataset
    rng = np.random.default_rng(seed)
    extra = rng.integers(0, n, size=target_n - n)
    codes = np.concatenate([dataset.codes, dataset.codes[extra]], axis=0)
    return CategoricalDataset(dataset.schema, codes)


def schema_dump(dataset: CategoricalDataset) -> str:
    """One audit line per column: name,kind,cardinality_or_edges."""
    lines = []
    for col in dataset.schema:
        if col.kind == "categorical":
            detail = str(col.cardinality)
        else:
            detail = "|".join(f"{e:g}" for e in col.bin_edges)
            if col.has_missing:
                detail += "|+missing"
        lines.append(f"{col.name},{col.kind},{detail}")
    return "\n".join(lines) + "\n"
