"""Tabular dataset ingestion, column statistics, and predicate-set support.

Datasets are column-oriented: continuous columns are float64 arrays,
categorical columns are int64 code arrays backed by a per-column value
dictionary on the schema.  Categorical values are interned in first-seen
order, so the same schema object can ingest a training file and later a
test file; values unseen at training time receive fresh codes and thus
never match predicates built from training codes.

load_csv has two readers that give the same arrays, schema and errors.
The columnar reader takes the file in blocks of 256 KiB and
parses whole columns with numpy; it reads only what it can show it
reads exactly as csv.reader and float() do (unquoted UTF-8 without
stray control characters) and otherwise hands the file to the row
parser, which is the only one that raises DataError.  Neither changes
the schema unless the whole file loads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
KINDS = (CONTINUOUS, CATEGORICAL)


class DataError(ValueError):
    """Raised for schema violations and ingestion failures."""


@dataclass
class Column:
    """One declared column: a name, a kind, and (if categorical) its values."""

    name: str
    kind: str
    values: list[str]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CONTINUOUS and self.values:
            raise DataError(f"column {self.name!r}: continuous columns carry no value dictionary")


class Schema:
    """Ordered column declarations plus categorical value dictionaries."""

    def __init__(self, columns: list[Column]):
        if not columns:
            raise DataError("schema has no columns")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise DataError("schema has duplicate column names")
        for c in columns:
            if len(set(c.values)) != len(c.values):
                raise DataError(f"column {c.name!r}: duplicate categorical values")
        self.columns = list(columns)
        self._by_name = {c.name: c for c in self.columns}
        # code tables mirror Column.values; intern() keeps both in sync
        self._codes: dict[str, dict[str, int]] = {
            c.name: {v: i for i, v in enumerate(c.values)}
            for c in self.columns
            if c.kind == CATEGORICAL
        }

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def continuous_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == CONTINUOUS]

    @property
    def categorical_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == CATEGORICAL]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}") from None

    def kind(self, name: str) -> str:
        return self.column(name).kind

    def intern(self, name: str, value: str) -> int:
        """Return the code for a categorical value, extending the dictionary."""
        table = self._codes[name]
        code = table.get(value)
        if code is None:
            code = len(table)
            table[value] = code
            self._by_name[name].values.append(value)
        return code

    def code_for(self, name: str, value: str) -> int | None:
        """Look up a categorical value's code without extending the dictionary."""
        return self._codes[name].get(value)

    def value_of(self, name: str, code: int) -> str:
        values = self.column(name).values
        if not 0 <= code < len(values):
            raise DataError(f"column {name!r}: no value with code {code}")
        return values[code]

    def copy(self) -> "Schema":
        return Schema([Column(c.name, c.kind, list(c.values)) for c in self.columns])

    def to_dict(self) -> dict:
        out = []
        for c in self.columns:
            entry: dict = {"name": c.name, "kind": c.kind}
            if c.kind == CATEGORICAL:
                entry["values"] = list(c.values)
            out.append(entry)
        return {"columns": out}

    @classmethod
    def from_dict(cls, payload: dict) -> "Schema":
        if not isinstance(payload, dict) or not isinstance(payload.get("columns"), list):
            raise DataError("schema JSON must be an object with a 'columns' list")
        columns = []
        for i, entry in enumerate(payload["columns"]):
            if not isinstance(entry, dict):
                raise DataError(f"schema column entry {i} is not an object")
            name = entry.get("name")
            kind = entry.get("kind")
            if not isinstance(name, str) or not name:
                raise DataError("schema column entry lacks a name")
            values = entry.get("values", [])
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise DataError(f"column {name!r}: 'values' must be a list of strings")
            columns.append(Column(name, kind, list(values)))
        return cls(columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.kind}" for c in self.columns)
        return f"Schema({cols})"


def load_schema(path: str) -> Schema:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from None
    try:
        return Schema.from_dict(payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_schema(schema: Schema, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass
class DataPoint:
    """One row: continuous values as floats, categorical values as codes."""

    values: dict[str, float | int]

    def __getitem__(self, name: str) -> float | int:
        try:
            return self.values[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}") from None


def _provisional_code(schema: Schema, name: str, value: str, new: dict[str, int]) -> int:
    """value's code in column name, or the code intern() will give it once
    the caller has checked everything; new collects those values in order."""
    code = schema.code_for(name, value)
    if code is None:
        code = new.setdefault(value, len(schema.column(name).values) + len(new))
    return code


def _intern_unseen(schema: Schema, unseen: dict[str, dict[str, int]]) -> None:
    for name, new in unseen.items():
        for value in new:
            schema.intern(name, value)


class Dataset:
    """A fixed table over a schema; columns are numpy arrays."""

    def __init__(self, schema: Schema, arrays: dict[str, np.ndarray]):
        if set(arrays) != set(schema.names):
            raise DataError("dataset arrays do not match schema columns")
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise DataError("dataset columns have unequal lengths")
        self.schema = schema
        self._arrays = arrays
        self.row_count = lengths.pop()

    @classmethod
    def from_columns(cls, schema: Schema, columns: dict[str, list]) -> "Dataset":
        """Build a dataset from python lists; categorical entries are value strings.

        New categorical values enter the schema only once every column
        has been checked, so a failed build leaves the schema unchanged.
        """
        arrays: dict[str, np.ndarray] = {}
        unseen: dict[str, dict[str, int]] = {}
        for col in schema.columns:
            raw = columns[col.name]
            if col.kind == CONTINUOUS:
                arr = np.asarray(raw, dtype=np.float64)
                if not np.all(np.isfinite(arr)):
                    raise DataError(f"column {col.name!r}: non-finite value")
                arrays[col.name] = arr
            else:
                new = unseen[col.name] = {}
                code_of: dict[str, int] = {}
                codes = []
                for v in raw:
                    value = str(v)
                    code = code_of.get(value)
                    if code is None:
                        code = code_of[value] = _provisional_code(schema, col.name, value, new)
                    codes.append(code)
                arrays[col.name] = np.asarray(codes, dtype=np.int64)
        dataset = cls(schema, arrays)
        _intern_unseen(schema, unseen)
        return dataset

    def column(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}") from None

    def row(self, index: int) -> DataPoint:
        if not 0 <= index < self.row_count:
            raise DataError(f"row index {index} out of range (0..{self.row_count - 1})")
        values: dict[str, float | int] = {}
        for col in self.schema.columns:
            cell = self._arrays[col.name][index]
            values[col.name] = float(cell) if col.kind == CONTINUOUS else int(cell)
        return DataPoint(values)

    def iter_rows(self):
        for i in range(self.row_count):
            yield self.row(i)

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, {n: a[idx] for n, a in self._arrays.items()})


def load_csv(path: str, schema: Schema) -> Dataset:
    """Parse a comma-separated file against a schema.

    The header must contain every schema column (extra file columns are
    ignored).  Continuous cells must parse as finite numbers; empty cells
    are rejected.  Categorical values are interned into the schema's
    dictionaries in first-seen order, extending them in place, and only
    once the whole file has parsed: on error the schema is unchanged.
    Errors name the offending zero-based data row and column.

    The dialect is csv.reader's default (comma delimiter, double-quote
    quoting, LF, CRLF or CR line ends) over UTF-8.  A file with no quote,
    no control character but tab, LF and the CR of a CRLF, and no cell
    the row parser would reject is read column by column; any other file
    goes through the row parser, with the same result or error.
    """
    dataset = _load_columns(path, schema)
    return dataset if dataset is not None else _load_rows(path, schema)


# The columnar reader's unit of work: a block is this many bytes plus the
# rest of the line it ends in, and no temporary grows much past a few
# times that.  Larger blocks parse no faster; they leave more of the heap
# resident after the load, since glibc serves every allocation below the
# largest buffer freed so far from the heap instead of a fresh mapping.
_BLOCK_BYTES = 1 << 18

# Bytes that make the columnar reader give up: a quote starts csv quoting;
# NUL is dropped from the end of numpy byte strings; \x1c-\x1f are
# whitespace to loadtxt but not to float() in an ASCII cell.  A CR is
# allowed as the first half of a CRLF only, which _cells checks.
_UNPLAIN = bytes(range(0x20)).translate(None, b"\t\n\r") + b'"'


def _plain(chunk: bytes) -> bool:
    """Whether chunk is UTF-8 and free of the bytes in _UNPLAIN."""
    if len(chunk.translate(None, _UNPLAIN)) != len(chunk):
        return False
    try:
        chunk.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _cells(buf: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Start offsets and byte lengths of every cell of LF- or CRLF-ended
    lines, as (lines, width) arrays.  None unless every line has exactly
    width cells, no cell is empty (a blank line, which loadtxt would skip,
    is an empty cell), every CR ends a line before its LF and no cell
    outgrows csv's field limit."""
    newline = buf == ord("\n")
    ends = np.flatnonzero(newline | (buf == ord(",")))
    lines = len(ends) // width
    if len(ends) != lines * width:
        return None
    ends = ends.reshape(lines, width)
    if np.count_nonzero(newline) != lines or not newline[ends[:, -1]].all():
        return None
    starts = np.empty_like(ends)
    flat = starts.reshape(-1)
    flat[0] = 0
    np.add(ends.reshape(-1)[:-1], 1, out=flat[1:])
    lengths = ends - starts
    crlf = buf[ends[:, -1] - 1] == ord("\r")
    lengths[:, -1] -= crlf
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf):
        return None
    if not lengths.all() or lengths.max() > csv.field_size_limit():
        return None
    return starts, lengths


def _first_seen(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, seen: dict[bytes, int]) -> np.ndarray:
    """Each cell's rank in `seen`, which maps every value met so far to its
    rank of first appearance and is extended in cell order.

    Cells are compared as fixed-width byte strings, gathered through an
    index matrix of at most _BLOCK_BYTES per np.unique call."""
    width = int(lengths.max())
    offsets = np.arange(width)
    step = max(1, _BLOCK_BYTES // (8 * width))
    out = []
    for lo in range(0, len(starts), step):
        at = starts[lo : lo + step, None] + offsets
        np.minimum(at, len(buf) - 1, out=at)
        matrix = buf[at]
        matrix[offsets >= lengths[lo : lo + step, None]] = 0
        keys = matrix.view(f"S{width}").ravel()
        values, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        values = values.tolist()
        rank = np.empty(len(values), dtype=np.int64)
        for u in np.argsort(first).tolist():
            rank[u] = seen.setdefault(values[u], len(seen))
        out.append(rank[inverse.ravel()])
    return np.concatenate(out)


def _load_columns(path: str, schema: Schema) -> Dataset | None:
    """load_csv's columnar path, or None when it cannot show that it reads
    the file exactly as _load_rows does; None leaves the schema untouched.

    The file is read in blocks of about _BLOCK_BYTES that end on a line
    boundary.  Cells are located from the comma and newline offsets,
    continuous columns parsed by np.loadtxt, and categorical values
    ranked by first appearance with np.unique; the schema interns them
    only after the last block has passed.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n") or not _plain(line):
            return None
        header = line.decode("utf-8").removesuffix("\n").removesuffix("\r")
        names = header.split(",")
        position = {name: pos for pos, name in enumerate(names)}
        if "\r" in header or len(position) != len(names) or not set(schema.names) <= set(names):
            return None
        if max(map(len, names)) > csv.field_size_limit():
            return None
        width = len(names)
        cont = [c.name for c in schema.columns if c.kind == CONTINUOUS]
        cat = [c.name for c in schema.columns if c.kind == CATEGORICAL]
        usecols = [position[n] for n in cont]
        parts: dict[str, list[np.ndarray]] = {n: [] for n in schema.names}
        seen: dict[str, dict[bytes, int]] = {n: {} for n in cat}
        rows = 0
        while block := fh.read(_BLOCK_BYTES):
            block += fh.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
            buf = np.frombuffer(block, dtype=np.uint8)
            cells = _cells(buf, width) if _plain(block) else None
            if cells is None:
                return None
            starts, lengths = cells
            rows += len(starts)
            if cont:
                # latin-1 makes each byte one character: an ASCII cell reads
                # as in UTF-8, and any other cell holds a UTF-8 lead byte that
                # latin-1 makes a letter, which loadtxt rejects
                try:
                    values = np.loadtxt(
                        io.BytesIO(block),
                        dtype=np.float64,
                        delimiter=",",
                        comments=None,
                        quotechar=None,
                        usecols=usecols,
                        ndmin=2,
                        encoding="latin-1",
                    )
                except ValueError:
                    return None
                if not np.isfinite(values).all():
                    return None
                for name, column in zip(cont, values.T):
                    parts[name].append(column.copy())
            for name in cat:
                pos = position[name]
                parts[name].append(_first_seen(buf, starts[:, pos], lengths[:, pos], seen[name]))
    if not rows:
        return None

    arrays: dict[str, np.ndarray] = {}
    for name in cont:
        arrays[name] = np.concatenate(parts.pop(name))
    for name in cat:
        codes = [schema.intern(name, value.decode("utf-8")) for value in seen[name]]
        arrays[name] = np.asarray(codes, dtype=np.int64)[np.concatenate(parts.pop(name))]
    return Dataset(schema, arrays)


def _load_rows(path: str, schema: Schema) -> Dataset:
    """load_csv's row parser: csv.reader and float() cell by cell.  It
    takes any file and words every DataError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except csv.Error as exc:  # not a ValueError: a cell over csv.field_size_limit(), say
            raise DataError(f"{path}: header: {exc}") from None
        positions: dict[str, int] = {}
        for pos, name in enumerate(header):
            if name in positions and name in schema.names:
                raise DataError(f"{path}: duplicate header column {name!r}")
            positions.setdefault(name, pos)
        for name in schema.names:
            if name not in positions:
                raise DataError(f"{path}: header omits schema column {name!r}")

        cont_cols = [(c.name, positions[c.name]) for c in schema.columns if c.kind == CONTINUOUS]
        cat_cols = [(c.name, positions[c.name]) for c in schema.columns if c.kind == CATEGORICAL]
        cont_data: dict[str, list[float]] = {n: [] for n, _ in cont_cols}
        cat_data: dict[str, list[int]] = {n: [] for n, _ in cat_cols}
        # values the schema lacks, with the codes intern() will give them
        unseen: dict[str, dict[str, int]] = {n: {} for n, _ in cat_cols}

        width = max(positions[n] for n in schema.names) + 1
        i = -1
        try:
            for i, record in enumerate(reader):
                if len(record) < width:
                    raise DataError(f"{path}: row {i}: expected at least {width} fields, got {len(record)}")
                for name, pos in cont_cols:
                    cell = record[pos]
                    if cell == "":
                        raise DataError(f"{path}: row {i}, column {name!r}: missing value")
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(f"{path}: row {i}, column {name!r}: cannot parse {cell!r} as a number") from None
                    if not math.isfinite(value):
                        raise DataError(f"{path}: row {i}, column {name!r}: non-finite value {cell!r}")
                    cont_data[name].append(value)
                for name, pos in cat_cols:
                    cell = record[pos]
                    if cell == "":
                        raise DataError(f"{path}: row {i}, column {name!r}: missing value")
                    cat_data[name].append(_provisional_code(schema, name, cell, unseen[name]))
        except csv.Error as exc:
            raise DataError(f"{path}: row {i + 1}: {exc}") from None

    arrays: dict[str, np.ndarray] = {}
    for name, _ in cont_cols:
        arrays[name] = np.asarray(cont_data[name], dtype=np.float64)
    for name, _ in cat_cols:
        arrays[name] = np.asarray(cat_data[name], dtype=np.int64)
    if not arrays or len(next(iter(arrays.values()))) == 0:
        raise DataError(f"{path}: no data rows")
    _intern_unseen(schema, unseen)
    return Dataset(schema, arrays)


def format_number(value: float) -> str:
    """Render a float the way rule files and CSV output spell it.

    Integral values print without a decimal point; everything else uses
    the shortest representation that parses back to the same float.
    """
    v = float(value)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def write_csv(dataset: Dataset, path: str) -> None:
    """Serialize a dataset; continuous cells round-trip through repr."""
    schema = dataset.schema
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        columns = []
        for col in schema.columns:
            arr = dataset.column(col.name)
            if col.kind == CONTINUOUS:
                columns.append([repr(float(v)) for v in arr])
            else:
                columns.append([schema.value_of(col.name, int(v)) for v in arr])
        for i in range(dataset.row_count):
            writer.writerow([column[i] for column in columns])


@dataclass(frozen=True)
class ContinuousStats:
    mean: float
    std: float
    minimum: float
    maximum: float


@dataclass
class ColumnStats:
    """Per-column training statistics used to build boundary rules."""

    continuous: dict[str, ContinuousStats]
    categorical: dict[str, list[str]]


def compute_column_stats(dataset: Dataset) -> ColumnStats:
    """Mean, population standard deviation, and extrema per continuous
    column; the set of seen values per categorical column."""
    if dataset.row_count == 0:
        raise DataError("cannot compute statistics on an empty dataset")
    continuous: dict[str, ContinuousStats] = {}
    categorical: dict[str, list[str]] = {}
    for col in dataset.schema.columns:
        arr = dataset.column(col.name)
        if col.kind == CONTINUOUS:
            continuous[col.name] = ContinuousStats(
                mean=float(arr.mean()),
                std=float(arr.std()),
                minimum=float(arr.min()),
                maximum=float(arr.max()),
            )
        else:
            codes = sorted(int(c) for c in np.unique(arr))
            categorical[col.name] = [dataset.schema.value_of(col.name, c) for c in codes]
    return ColumnStats(continuous, categorical)


def load_labels(path: str) -> np.ndarray:
    """Parse a labels file: one 0 or 1 per line, anomalies marked 1."""
    labels: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            if text not in ("0", "1"):
                raise DataError(f"{path}: line {i}: label must be 0 or 1, got {text!r}")
            labels.append(int(text))
    if not labels:
        raise DataError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


def support(dataset: Dataset, predicates) -> float:
    """Fraction of rows on which every predicate in the set holds.

    The empty set has support 1.  Rows are a multiset: duplicates count
    separately.
    """
    if dataset.row_count == 0:
        raise DataError("support is undefined on an empty dataset")
    mask = np.ones(dataset.row_count, dtype=bool)
    for p in predicates:
        mask &= p.mask(dataset)
    return int(np.count_nonzero(mask)) / dataset.row_count
