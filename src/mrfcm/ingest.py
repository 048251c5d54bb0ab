"""Loading, schema inference and discretization of tabular data.

The clustering core consumes purely categorical records, so mixed-type
input is normalized here: numeric columns are quantile-binned and missing
cells become an explicit per-column category.  ``partition`` splits the
encoded rows into the contiguous blocks that the map-reduce engine
schedules; it and ``PartitionedStore`` live in ``engine``, which consumes
them, and are re-exported here.

A CSV is read once, in blocks of rows.  Each column is dictionary-encoded
(its distinct stripped cells, or labels, in first-appearance order plus
one int code per cell) or, if it holds many distinct reals, kept as one
float per row.  A file the csv module would split at every delimiter byte
is tokenized from its bytes with numpy; there a column's block holds one
integer key per row if its cells fit 8 bytes, else its cells' bytes, each
gathered with the byte after it, which becomes its LF.  At end of file the
package's one dedup (``engine.first_appearance``) finds the distinct keys
of a column of keys alone: more than BLOCK_ROWS make it wide, otherwise
they are written as bytes and replayed into the dictionary.  Any other
column is wide, its keys written as bytes.  Only a wide column can be a
RealColumn, if every present cell is a real and more than MAX_CARD of them
differ; typed once, it keeps only its head's bytes, the blocks that took
it past MAX_CARD.  Otherwise its bytes are replayed too, one label decoder
for all.  A wide column's cells are parsed block by block, by ``float``
mapped in C: a block of printable ASCII without the space straight from
its bytes, any other decoded and stripped first.  Quoted or irregular
files, and every input error message, go through the csv module.  A
dictionary column's distinct labels alone are classified, each parsed once
by ``float``; every numeric column is binned from its per-row floats.
``load_csv``, ``infer_schema`` and ``discretize`` encode rows held in
memory the same way.
"""
from __future__ import annotations

import codecs
import csv
import os
import re
import stat
import warnings
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import itemgetter

import numpy as np

from .engine import PartitionedStore, partition  # re-exported: callers split datasets here
from .engine import first_appearance
from .errors import DataIOError, SchemaError

# Cell values treated as missing ("?" is the usual marker in UCI exports).
MISSING_TOKENS = frozenset({"", "?", "NA", "na", "NaN", "nan", "NULL", "null"})
# The same tokens as bytes, and the longest's length: a longer cell is present.
_MISSING_BYTES = frozenset(token.encode() for token in MISSING_TOKENS)
_MISSING_WIDEST = max(map(len, _MISSING_BYTES))
# Thresholds of infer_schema's numeric test.
NUMERIC_DETECT = 0.95
MAX_CARD = 12
# Domain bound on J, the categories of all columns: the MCA fit
# eigendecomposes a J x J matrix, whose cost grows as J**3.
MAX_CATEGORIES = 2048
# Rows read before each encoding step: the text of at most this many rows
# is held at once.
BLOCK_ROWS = 8192
# Bytes per read of the byte tokenizer, which cuts them into blocks of lines.
_CHUNK_BYTES = 1 << 16


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


def _read_csv(path, has_header, delimiter):
    """Yield the column names, then the data rows in lists of at most BLOCK_ROWS.

    Cells are yielded as read; only the header's names are stripped.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataIOError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        block, width, count = [], None, 0
        try:
            for row in reader:
                if not row:
                    continue  # blank line
                if width is None:
                    width = len(row)
                    if has_header:
                        yield [cell.strip() for cell in row]
                        continue
                    yield [f"col{j}" for j in range(width)]
                elif len(row) != width:
                    raise DataIOError(f"{path}: ragged row at line {reader.line_num}: "
                                      f"expected {width} cells, got {len(row)}")
                block.append(row)
                if len(block) == BLOCK_ROWS:
                    yield block
                    count, block = count + len(block), []
        except UnicodeDecodeError as exc:
            # Bytes that are not UTF-8, and only those, escape to lone surrogates.
            with open(path, "rb") as raw:
                text = raw.read().decode("utf-8", "surrogateescape")
            lineno = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
            raise DataIOError(f"{path}: line {lineno} is not UTF-8: {exc.reason}") from exc
        except csv.Error as exc:
            raise DataIOError(f"{path}: unreadable line {reader.line_num}: {exc}") from exc
    if count + len(block) == 0:
        raise DataIOError(f"{path}: no data rows")
    yield block


def load_csv(path, has_header: bool = True, delimiter: str = ","):
    """Read a rectangular CSV into (column names, list of stripped text rows).

    A leading UTF-8 byte-order mark is skipped.  Raises DataIOError for a
    missing or empty file, and for a ragged row, a byte that is not UTF-8
    or a cell csv cannot read, naming the offending 1-based line number.
    ``read_table`` reads the same way but keeps no rows.
    """
    blocks = _read_csv(path, has_header, delimiter)
    names = next(blocks)
    return names, [list(map(str.strip, row)) for block in blocks for row in block]


@dataclass(frozen=True)
class EncodedColumn:
    """One column, dictionary-encoded: its distinct stripped cells (labels)
    in first-appearance order and each row's label index.  Per label,
    ``present`` marks those that are not missing tokens, ``parsed`` those
    that float() accepts, and ``values`` holds the float (NaN where none).
    """

    labels: list[str]
    codes: np.ndarray
    present: np.ndarray
    parsed: np.ndarray
    values: np.ndarray

    def prefix(self, n: int) -> EncodedColumn:
        """The column of the first n rows, whose labels come first."""
        k = int(self.codes[:n].max()) + 1
        return EncodedColumn(self.labels[:k], self.codes[:n], self.present[:k],
                             self.parsed[:k], self.values[:k])


@dataclass(frozen=True)
class RealColumn:
    """A column whose present cells all parse as reals, more than MAX_CARD
    of them distinct, so numeric, and kept only as its rows: per row,
    ``row_present`` marks the stripped cells that are not missing tokens
    and ``row_values`` holds their floats (NaN elsewhere).  ``text`` holds
    only its head as ``_wide_text`` bytes: the blocks up to the one that
    took its distinct reals past MAX_CARD.
    """

    text: tuple[bytes, ...]
    row_present: np.ndarray
    row_values: np.ndarray

    def prefix(self, n: int) -> RealColumn | EncodedColumn:
        """The column of the first n rows, as ``read_table`` gives it: the
        head's replay, cut, short of the head's end; else its rows, cut."""
        if n < sum(block.count(b"\n") for block in self.text):
            return _replay(self.text).prefix(n)
        return RealColumn(self.text, self.row_present[:n], self.row_values[:n])


def _parse_real(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _positions(index, cells, n, count):
    """Map ``count`` cells, stripped, to the row where each first appears,
    counting rows from ``n``; ``index`` records new cells."""
    return np.fromiter(map(index.setdefault, map(str.strip, cells), range(n, n + count)),
                       dtype=np.intp, count=count)


def _merge(index, parts, n) -> EncodedColumn:
    """A column's EncodedColumn from the map its reader built: ``index`` maps
    each label to the row where it first appears, in ascending row order, and
    ``parts`` holds, block by block, that first row for each of the n rows."""
    labels = list(index)
    dense = np.empty(n, dtype=np.int32)  # so the codes are int32, as the dataset's
    dense[np.fromiter(index.values(), dtype=np.intp, count=len(index))] = np.arange(len(index))
    return EncodedColumn(labels, dense[np.concatenate(parts)], *_classify(labels))


def _floats(cells, present):
    """float() of the ``present`` cells, mapped in C, with NaN elsewhere;
    None if a present cell is not a real."""
    values = np.full(len(cells), np.nan)
    try:
        values[present] = np.fromiter(map(float, compress(cells, present)), float,
                                      np.count_nonzero(present))
    except ValueError:
        return None
    return values


def _classify(labels):
    """(present, parsed, values) of distinct labels, as EncodedColumn holds
    them: each label is parsed once, by float(), with NaN where it is not a
    real.  Of the missing tokens, those float() accepts ("nan", "NaN") count
    as parsed."""
    present = ~np.fromiter(map(MISSING_TOKENS.__contains__, labels), bool, len(labels))
    reals = np.array(list(map(_parse_real, labels)), dtype=object)
    return present, np.not_equal(reals, None), reals.astype(float)


def _encode(width, blocks) -> list[EncodedColumn]:
    """Dictionary-encode the first ``width`` columns of row blocks in one pass.

    Each stripped cell maps to the row where it first appears; a lookup over
    those rows turns them into dense first-appearance codes.  Only the
    distinct labels are classified and parsed.
    """
    index = [{} for _ in range(width)]
    parts = [[np.empty(0, dtype=np.intp)] for _ in range(width)]
    n = 0
    for rows in blocks:
        for j in range(width):
            parts[j].append(_positions(index[j], map(itemgetter(j), rows), n, len(rows)))
        n += len(rows)
    # Popping frees each dictionary once its column is encoded.
    return [_merge(index.pop(0), parts.pop(0), n) for _ in range(width)]


# Masks that keep the first k bytes of a little-endian 8-byte word, k = 0..8.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# The key type of a block of cells of at most k bytes, k = 0..8: the
# narrowest that holds them, but not uint8, which numpy sorts slowly.
_KEY_TYPES = (np.uint16,) * 3 + (np.uint32,) * 2 + (np.uint64,) * 4


def _cells(buf, delimiter):
    """(starts, lengths) of the cells of a block of whole lines, as (rows,
    width) arrays with blank lines dropped; None if rows differ in width or
    a CR byte is not followed by LF.

    Every line ends in LF, and a CR before it ends the line's last cell.
    """
    seps = np.flatnonzero((buf == delimiter) | (buf == 10))
    seps = seps.astype(np.int32 if buf.size < 2 ** 31 else np.intp)
    starts = np.zeros_like(seps)
    starts[1:] = seps[:-1] + 1
    cr = buf[seps - 1] == 13
    lengths = seps - starts - cr
    ends = np.flatnonzero(buf[seps] == 10)  # each line's last cell
    if np.count_nonzero(buf == 13) != np.count_nonzero(cr[ends]):
        return None
    counts = np.diff(ends, prepend=-1)
    blank = (counts == 1) & (lengths[ends] == 0)
    if blank.any():
        keep = np.repeat(~blank, counts)
        starts, lengths, counts = starts[keep], lengths[keep], counts[~blank]
    if not counts.size:
        return starts.reshape(0, 0), lengths.reshape(0, 0)
    if (counts != counts[0]).any():
        return None
    return starts.reshape(-1, counts[0]), lengths.reshape(-1, counts[0])


def _key_bytes(keys):
    """Narrow cells as ``_wide_text`` bytes, from their keys.  Each key, as 8
    little-endian bytes, is its cell padded with NUL bytes, which no cell
    holds: an LF goes in after the cell and the NUL bytes are dropped.
    """
    cells = np.zeros((len(keys), 9), dtype=np.uint8)
    cells[:, :8] = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
    cells[np.arange(len(keys)), np.count_nonzero(cells, axis=1)] = 10
    return cells[cells != 0].tobytes()


def _key_column(blocks) -> RealColumn | EncodedColumn:
    """A column whose blocks are all keys.  One dedup (``first_appearance``)
    finds the distinct keys.  With more than BLOCK_ROWS of them, the rows,
    as bytes in blocks of BLOCK_ROWS, are typed by ``_wide_column``.
    Otherwise the distinct keys, in first-row order, are replayed as bytes,
    so keys that strip to one label share its code, and each row takes its
    key's code by one gather."""
    keys = np.concatenate(blocks)
    blocks.clear()
    first, _, inverse = first_appearance(keys)
    if len(first) > BLOCK_ROWS:
        text = [_key_bytes(keys[i:i + BLOCK_ROWS]) for i in range(0, len(keys), BLOCK_ROWS)]
        del keys, first, inverse  # freed before the bytes are typed
        return _wide_column(text)
    column = _replay([_key_bytes(keys[first])])
    return replace(column, codes=column.codes[inverse])


def _wide_text(buf, at, size):
    """One column's cells in a block as bytes: one gather from the block as
    read of every cell with the byte after it, written as LF in the copy."""
    step = size + 1
    ends = np.cumsum(step, dtype=step.dtype)
    # In the dtype of the cell positions (int32 for blocks under 2 GiB):
    # an int64 gather index over the block's bytes takes twice as long.
    gather = np.repeat(at - ends + step, step)
    gather += np.arange(len(gather), dtype=gather.dtype)
    text = buf[gather]
    text[ends - 1] = 10
    return text.tobytes()


def _split(text):
    """The decoded cells of ``_wide_text``'s bytes."""
    return text.decode("utf-8").split("\n")[:-1]


def _replay(text) -> EncodedColumn:
    """The EncodedColumn of a column's ``_wide_text`` bytes blocks, their
    cells mapped through ``_positions`` in row order."""
    index, parts, n = {}, [], 0
    for block in text:
        cells = _split(block)
        parts.append(_positions(index, cells, n, len(cells)))
        n += len(cells)
    return _merge(index, parts, n)


def _block_reals(block):
    """(present, values) of the stripped cells of one ``_wide_text`` bytes
    block: ``present`` marks those that are not missing tokens, and
    ``values`` is ``_floats`` of them, None if a present cell is not a real.

    In a plain block, whose bytes other than its LFs all lie in 33-126
    (printable ASCII without the space), each cell is its own stripped text
    and float() reads its bytes as it reads that text.  So a plain block is
    typed from its bytes: one split, and a lookup in _MISSING_BYTES for only
    the cells no longer than the longest missing token.  Any other block is
    decoded and stripped first, and each cell looked up in MISSING_TOKENS.
    """
    cells = block.split(b"\n")[:-1]
    buf = np.frombuffer(block, dtype=np.uint8)
    # In uint8, bytes below 33 wrap past 126: this counts every byte outside
    # 33-126, the LFs included.
    if np.count_nonzero(buf - 33 > 126 - 33) != len(cells):
        cells = list(map(str.strip, _split(block)))
        present = ~np.fromiter(map(MISSING_TOKENS.__contains__, cells), bool, len(cells))
    else:
        present = np.ones(len(cells), dtype=bool)
        spans = np.diff(np.flatnonzero(buf == 10), prepend=-1)  # each cell and its LF
        short = np.flatnonzero(spans <= _MISSING_WIDEST + 1)
        present[short] = [cells[i] not in _MISSING_BYTES for i in short.tolist()]
    return present, _floats(cells, present)


def _wide_column(text) -> RealColumn | EncodedColumn:
    """The column of ``_wide_text`` bytes blocks: a RealColumn if every
    present cell, stripped, is a real and more than MAX_CARD of them differ,
    otherwise their replay.  Each block is typed on its own by
    ``_block_reals``, from its bytes if they are plain, and the first block
    with a present cell that is not a real ends the typing.  Equal reals
    count once, as NaNs and zeros of either sign do; they are counted up to
    the block that takes them past MAX_CARD, the last a RealColumn keeps."""
    reals, seen = [], np.empty(0)
    for block in text:
        present, values = _block_reals(block)
        if values is None:
            return _replay(text)
        if len(seen) <= MAX_CARD:
            seen = np.unique(np.concatenate((seen, values[present])), equal_nan=True)
            head = len(reals) + 1
        reals.append((present, values))
    if len(seen) <= MAX_CARD:
        return _replay(text)
    present, values = zip(*reals)
    return RealColumn(tuple(text[:head]), np.concatenate(present), np.concatenate(values))


def _read_unquoted(path, has_header, delimiter):
    """``read_table``'s result, tokenized with numpy from the file's bytes,
    or None if the csv module must read the file.

    Taken only where csv would split every line at each delimiter byte: no
    quote, NUL or lone CR byte in the file, an ASCII delimiter that is none
    of those nor LF, UTF-8 text, rows of one width, cells within
    ``csv.field_size_limit()`` and at least one data row.  Each block of a
    column is typed on its own: one key per cell if its cells all fit 8
    bytes, in the narrowest of uint16, uint32 and uint64 that holds the
    widest (no NUL byte means zero padding is unambiguous), else its cells'
    bytes, each gathered with the byte after it as its LF (``_wide_text``);
    a block is copied once, for its keys.  A column is typed once, at end
    of file: by ``_key_column`` if all its blocks are keys, else by
    ``_wide_column``, its key blocks written as bytes (``_key_bytes``);
    both decode labels through ``_replay``.
    """
    if len(delimiter) != 1 or not delimiter.isascii() or delimiter in '\0\r\n"':
        return None
    try:
        with open(path, "rb") as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return None  # a pipe cannot be read again by the csv module
            return _tokenize(fh, has_header, ord(delimiter))
    except (OSError, UnicodeDecodeError):
        return None


def _line_blocks(fh):
    """The rest of an open binary file in blocks of BLOCK_ROWS lines, the
    last block holding what is left.  The file is read in chunks of
    _CHUNK_BYTES; a chunk's bytes after the last cut in it are carried into
    the next block."""
    parts, lines = [], 0  # the block so far, and its whole lines
    while chunk := fh.read(_CHUNK_BYTES):
        ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
        start = 0
        for cut in ends[BLOCK_ROWS - 1 - lines::BLOCK_ROWS].tolist():
            parts.append(chunk[start:cut + 1])
            yield b"".join(parts)
            parts, start = [], cut + 1
        lines = (lines + len(ends)) % BLOCK_ROWS
        parts.append(chunk[start:])
    if tail := b"".join(parts):
        yield tail


def _tokenize(fh, has_header, delimiter):
    """``_read_unquoted`` on an open binary file and a delimiter byte."""
    if fh.read(3) != codecs.BOM_UTF8:
        fh.seek(0)
    names, n, limit = None, 0, csv.field_size_limit()
    for data in _line_blocks(fh):
        if b'"' in data or b"\0" in data or data.endswith(b"\r"):
            return None
        if not data.endswith(b"\n"):
            data += b"\n"
        buf = np.frombuffer(data, dtype=np.uint8)
        cells = _cells(buf, delimiter)
        if cells is None or (cells[1].size and cells[1].max() > limit):
            return None
        starts, lengths = cells
        if not starts.size:
            continue
        if names is None:
            width = starts.shape[1]
            if has_header:
                names = [data[s:s + k].decode("utf-8").strip()
                         for s, k in zip(starts[0].tolist(), lengths[0].tolist())]
                starts, lengths = starts[1:], lengths[1:]
            else:
                names = [f"col{j}" for j in range(width)]
            parts = [[] for _ in range(width)]  # per block, keys or bytes
        elif starts.shape[1] != width:
            return None
        rows = len(starts)
        if not rows:
            continue
        # The 8 bytes from each position, little-endian: the block's one copy.
        words = np.ndarray(buf.size, "<u8", data + bytes(7), strides=(1,))
        for j in range(width):
            at, size = starts[:, j], lengths[:, j]
            widest = size.max()
            if widest <= 8:
                parts[j].append((words[at] & _BYTE_MASKS[size]).astype(_KEY_TYPES[widest]))
            else:
                parts[j].append(_wide_text(buf, at, size))
        n += rows
    if not n:
        return None
    columns = []
    for j in range(width):
        blocks, parts[j] = parts[j], None  # freed once the column is typed
        if all(isinstance(block, np.ndarray) for block in blocks):
            columns.append(_key_column(blocks))
        else:
            columns.append(_wide_column([b if isinstance(b, bytes) else _key_bytes(b) for b in blocks]))
    return names, columns


def read_table(path, has_header: bool = True, delimiter: str = ","):
    """(column names, encoded columns) of a CSV, read as ``load_csv`` reads
    it and encoded block by block as it is read, so no text rows are kept.
    Each column is an EncodedColumn, or a RealColumn, whose head's bytes
    replay (``_replay``) to the csv module's EncodedColumn of the head's rows.

    ``_read_unquoted`` reads plain delimited files; any other file, and
    every error message, goes through the csv module.
    """
    table = _read_unquoted(path, has_header, delimiter)
    if table is not None:
        return table
    blocks = _read_csv(path, has_header, delimiter)
    names = next(blocks)
    return names, _encode(len(names), blocks)


def _schema(names, columns) -> list[ColumnSpec]:
    schema = []
    for name, column in zip(names, columns):
        if isinstance(column, RealColumn):  # more than MAX_CARD distinct reals, so numeric
            schema.append(ColumnSpec(name, "numeric", has_missing=not column.row_present.all()))
            continue
        if not column.present.any():
            raise SchemaError(f"column {name!r}: all cells missing")
        counts = np.bincount(column.codes, minlength=len(column.labels))
        n_present = int(counts[column.present].sum())
        n_parsed = int(counts[column.present & column.parsed].sum())
        has_missing = n_present < len(column.codes)
        if n_parsed >= NUMERIC_DETECT * n_present and column.present.sum() > MAX_CARD:
            schema.append(ColumnSpec(name, "numeric", has_missing=has_missing))
        else:
            labels = [label for label, ok in zip(column.labels, column.present) if ok]
            schema.append(ColumnSpec(name, "categorical", categories=labels,
                                     has_missing=has_missing))
    return schema


def _width(rows, width):
    """``width``, once every row is known to hold that many cells."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"row {i}: expected {width} cells, got {len(row)}")
    return width


def infer_schema(names, rows):
    """Classify each column as numeric or categorical.

    A column is numeric iff at least ``NUMERIC_DETECT`` of its non-missing
    cells parse as reals AND it has more than ``MAX_CARD`` distinct cell
    strings; otherwise it is categorical with labels in first-appearance
    order.  Cells are compared stripped of surrounding whitespace, as
    ``load_csv`` returns them.  Raises SchemaError if a row does not hold
    one cell per name, or a column has no non-missing cells.
    """
    if not rows:
        raise SchemaError("empty table")
    return _schema(names, _encode(_width(rows, len(names)), [rows]))


def check_bins(bins):
    """Raise SchemaError unless ``bins`` lies in [2, MAX_CATEGORIES], the bound on J."""
    if not 2 <= bins <= MAX_CATEGORIES:
        raise SchemaError(f"bins must be in [2, {MAX_CATEGORIES}], got {bins}")


def _discretize(schema, columns, bins) -> CategoricalDataset:
    """The dataset of ``columns`` under ``schema``.  Each column is taken off
    the list and freed as soon as its int32 codes exist, so the caller's
    list ends empty and no column outlives its own encoding."""
    check_bins(bins)
    kept_specs = []
    kept_codes = []
    for spec in schema:
        out, codes = _discretize_column(spec, columns.pop(0), bins)
        if out.cardinality < 2:
            what = "constant numeric" if out.kind == "numeric" else "single-category"
            warnings.warn(f"dropping {what} column {spec.name!r}")
            continue
        kept_specs.append(out)
        kept_codes.append(codes)
    if not kept_specs:
        raise SchemaError("no usable columns after encoding")
    dataset = CategoricalDataset(kept_specs, np.column_stack(kept_codes))
    dataset.validate()
    if dataset.total_categories > MAX_CATEGORIES:
        widest = max(kept_specs, key=lambda spec: spec.cardinality)
        raise SchemaError(f"{dataset.total_categories} categories, more than {MAX_CATEGORIES}; "
                          f"column {widest.name!r} has {widest.cardinality}")
    return dataset


def _discretize_column(spec, column, bins):
    """(ColumnSpec, int32 codes) of one column.  Missing cells get the
    column's dedicated missing category, one past the last.  Numeric
    columns are binned row by row."""
    if spec.kind == "numeric":
        if isinstance(column, RealColumn):
            values, present = column.row_values, column.row_present
        else:
            values, present = column.values[column.codes], column.present[column.codes]
        ok = present & ~np.isnan(values)
        if not ok.any():
            raise SchemaError(f"column {spec.name!r}: no parseable values")
        values = values[ok]
        # Quantiles between infinite cells are NaN, and no finite value
        # lies beyond an infinite one: both are dropped.
        with np.errstate(invalid="ignore"):
            qs = np.quantile(values, [i / bins for i in range(1, bins)])
        inner = np.unique(qs[np.isfinite(qs)])
        raw = np.searchsorted(inner, values, side="left")
        # Skewed data can leave quantile bins empty; merge those away so
        # every category has nonzero mass downstream.
        occupied = np.bincount(raw) > 0
        rank = np.cumsum(occupied) - 1
        edges = np.concatenate(([-np.inf], inner[np.flatnonzero(occupied)[:-1]], [np.inf]))
        out = ColumnSpec(spec.name, "numeric", bin_edges=edges, has_missing=not ok.all())
        codes = np.full(len(ok), rank[-1] + 1, dtype=np.int32)
        codes[ok] = rank[raw]
        return out, codes
    index = {label: k for k, label in enumerate(spec.categories)}
    try:
        lut = np.array([index[label] if ok else len(index)
                        for label, ok in zip(column.labels, column.present)], dtype=np.int32)
    except KeyError as exc:
        raise SchemaError(f"column {spec.name!r}: label {exc.args[0]!r} "
                          "not in schema") from None
    out = ColumnSpec(spec.name, "categorical", categories=list(spec.categories),
                     has_missing=not column.present.all())
    return out, lut[column.codes]


def discretize(rows, schema, bins: int = 4) -> CategoricalDataset:
    """Encode text rows into category codes under the given schema.

    Numeric columns get quantile bins (edges at i/bins quantiles of the
    observed values, deduplicated; non-finite quantiles, which infinite
    cells can give, are left out); missing cells map to the column's
    dedicated missing category.  Cells are stripped of surrounding
    whitespace first, as ``load_csv`` returns them.  Columns that end up
    with fewer than two categories are dropped with a warning, since they
    carry no signal and would make the category-mass matrix singular.
    A row that does not hold one cell per schema column raises SchemaError,
    as do more than ``MAX_CATEGORIES`` categories in all.
    """
    return _discretize(schema, _encode(_width(rows, len(schema)), [rows]), bins)


def encode_table(names, columns, bins: int = 4) -> CategoricalDataset:
    """infer_schema + discretize on columns ``read_table`` encoded.  The
    columns are encoded from a copy of the list, which stays as it was."""
    return _discretize(_schema(names, columns), list(columns), bins)


def encode_csv(path, has_header=True, delimiter=",", bins=4) -> CategoricalDataset:
    """load_csv + infer_schema + discretize, reading and encoding the file
    once.  ``read_table``'s columns go to ``_discretize`` itself, which frees
    each once its codes exist."""
    names, columns = read_table(path, has_header=has_header, delimiter=delimiter)
    return _discretize(_schema(names, columns), columns, bins)


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
