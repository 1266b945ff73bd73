"""Tabular dataset ingestion and column statistics.

Datasets are column-oriented: continuous columns are float64 arrays,
categorical columns are int64 code arrays backed by a per-column value
dictionary on the schema.  Categorical values are interned in first-seen
order, so the same schema object can ingest a training file and later a
test file; values unseen at training time receive fresh codes and thus
never match predicates built from training codes.

load_csv has two readers that give the same arrays, schema and errors.
The columnar reader takes the file in blocks of 256 KiB and codes each
column's cells by their text, one integer sort per column and block
(dictionary decoding, as in column stores).  Categorical columns rank
the distinct texts by first appearance; continuous columns call float()
once per distinct text, except that a block whose texts are mostly
distinct is parsed by np.loadtxt.  It reads only what it can show it
reads exactly as csv.reader and float() do (unquoted UTF-8 without
stray control characters) and otherwise hands the file to the row
parser, which is the only one that raises DataError.  Neither changes
the schema unless every row loads.

load_row reads one record: the header, the line ends before the record
(or csv.reader's split of the earlier records when those hold a quote, a
lone CR or a line longer than a block), and the record itself, which the
row parser checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable, Iterator
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


def _not_utf8(path: str, exc: UnicodeDecodeError, offset: int) -> DataError:
    """The error for a file that is not UTF-8; exc came from decoding the
    bytes that start at offset in the file."""
    byte = exc.object[exc.start]
    return DataError(f"{path}: not UTF-8: byte {byte:#04x} at offset {offset + exc.start} ({exc.reason})")


def read_text(path: str) -> str:
    """The whole file at path as UTF-8 text with universal newlines; a
    byte that is not UTF-8 raises DataError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:  # read() decodes every byte in one call
            raise _not_utf8(path, exc, 0) from None


def load_schema(path: str) -> Schema:
    try:
        payload = json.loads(read_text(path))
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
    def from_columns(cls, schema: Schema, columns: dict[str, list | np.ndarray]) -> "Dataset":
        """Build a dataset from python lists or arrays; categorical entries
        are value strings.  A float64 array is kept, not copied.

        New categorical values enter the schema only once every column
        has been checked, so a failed build leaves the schema unchanged.
        """
        arrays: dict[str, np.ndarray] = {}
        # values the schema lacks, with the codes intern() will give them
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
                        code = schema.code_for(col.name, value)
                        if code is None:
                            code = new[value] = len(col.values) + len(new)
                        code_of[value] = code
                    codes.append(code)
                arrays[col.name] = np.asarray(codes, dtype=np.int64)
        dataset = cls(schema, arrays)
        for name, new in unseen.items():
            for value in new:
                schema.intern(name, value)
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

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, {n: a[idx] for n, a in self._arrays.items()})


def load_csv(path: str, schema: Schema) -> Dataset:
    """Parse a comma-separated file against a schema.

    The header must contain every schema column (extra file columns are
    ignored).  Continuous cells must parse as finite numbers; empty cells
    are rejected.  Categorical values are interned into the schema's
    dictionaries in first-seen order, extending them in place, and only
    once every row has parsed: on error the schema is unchanged.  Errors
    name the offending zero-based data row and column, or the offset of a
    byte that is not UTF-8.

    The dialect is csv.reader's default (comma delimiter, double-quote
    quoting, LF, CRLF or CR line ends) over UTF-8.  A file with no quote,
    no control character but tab, LF and the CR of a CRLF, and no cell
    the row parser would reject is read column by column, unless a
    continuous column's block of mostly distinct texts holds a number
    np.loadtxt refuses (1_0, a non-ASCII digit or space); any other file
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

# The longest line the columnar reader reads: a longer one, or a file
# whose lines end in CR alone, goes to the row parser after at most this
# many bytes.  It is not _BLOCK_BYTES, so that blocks far shorter than a
# line still read a file column by column.
_LINE_BYTES = 1 << 18

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


def _cells(buf: np.ndarray, width: int, used: list[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """Start offsets and byte lengths of every cell of LF- or CRLF-ended
    lines, as (lines, width) arrays.  None unless every line has exactly
    width cells, no cell at a position in used is empty (a blank line,
    which loadtxt would skip, is an empty cell), every CR ends a line
    before its LF and no cell outgrows csv's field limit."""
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
    # lengths.all() first: it is the common case and needs no column gather
    if not (lengths.all() or lengths[:, used].all()) or lengths.max() > csv.field_size_limit():
        return None
    return starts, lengths


def _words(block: bytes) -> np.ndarray:
    """The little-endian 8-byte word at each offset 0..len(block) of block
    padded with 8 zero bytes: a read-only view, one word per byte."""
    return np.ndarray((len(block) + 1,), dtype="<u8", buffer=block + bytes(8), strides=(1,))


# _MASKS[r] keeps the low r bytes of a little-endian word
_MASKS = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)


# An odd multiplier for _distinct's key mix: 2**64 over the golden ratio
_MIX = np.uint64(0x9E3779B97F4A7C15)

# A continuous column whose block holds more than one distinct text per
# this many cells is parsed by np.loadtxt, not text by text with float()
_DISTINCT_SHARE = 4


def _dedupe(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key's first position, in key order, and each key's
    index among the distinct keys.  One unstable sort: the first position
    is the least of a run of equal sorted keys."""
    order = np.argsort(keys)
    ordered = keys[order]
    heads = np.empty(len(keys), dtype=bool)
    heads[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(heads))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(heads) - 1
    return first, inverse


def _distinct(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The cells' texts as a dictionary: each distinct text's first cell,
    and each cell's index among the distinct texts, as _dedupe gives
    them.  None when two different texts share a key.

    A cell's key is its first 8-byte word (words is _words(block)),
    masked to the cell's bytes, into which each further word is mixed by
    an odd multiply, a shift and an xor.  The zero bytes of the mask
    cannot make two texts equal, since a plain block holds no NUL, so
    cells of at most 8 bytes are keyed by their text.  One sort groups
    equal keys, and when a cell is longer every word of every cell is
    compared with its group's first cell, so equal codes mean equal
    texts."""
    masked = []
    for j in range(0, int(lengths.max()), 8):
        at = np.minimum(starts + j, len(words) - 1)
        masked.append(words[at] & _MASKS[np.clip(lengths - j, 0, 8)])
    key = masked[0]
    for word in masked[1:]:
        key = key * _MIX
        key ^= key >> 29  # the multiply carries low bits up only
        key ^= word
    first, code = _dedupe(key)
    if len(masked) > 1:
        head = first[code]
        if not all(np.array_equal(word[head], word) for word in masked):
            return None
    return first, code


def _first_seen(
    block: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, seen: dict[bytes, int]
) -> np.ndarray | None:
    """Each cell's rank in `seen`, which maps every value met so far to its
    rank of first appearance and is extended in cell order (words is
    _words(block)).  The cells are coded by _distinct, so each distinct
    value is sliced from block once; None when two texts share a key."""
    found = _distinct(words, starts, lengths)
    if found is None:
        return None
    first, code = found
    order = np.argsort(first)
    at = first[order]
    ends = starts[at] + lengths[at]
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = [seen.setdefault(block[s:e], len(seen)) for s, e in zip(starts[at].tolist(), ends.tolist())]
    return rank[code]


def _numbers(block: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """float() of each cell's text, the str csv.reader yields for it; None
    unless every value parses and is finite."""
    ends = starts + lengths
    try:
        values = np.array([float(block[s:e].decode("utf-8")) for s, e in zip(starts.tolist(), ends.tolist())])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _load_columns(path: str, schema: Schema) -> Dataset | None:
    """load_csv's columnar path, or None when it cannot show that it reads
    the file exactly as _load_rows does; None leaves the schema untouched.

    The file is read in blocks of about _BLOCK_BYTES that end on a line
    boundary.  A line longer than _LINE_BYTES (every line of a file whose
    lines end in CR alone, say) gives None after at most that many bytes.
    Cells are located from the comma and newline offsets and each
    column's block of cells is coded by text (_distinct).  A
    categorical column ranks its texts by first appearance (_first_seen);
    the schema interns them only after the last block has passed.  A
    continuous column calls float() once per distinct text and gathers
    the values by code, unless its block holds more than one distinct
    text per _DISTINCT_SHARE cells: such columns are parsed by one
    np.loadtxt call per block.  A column the schema does not read may
    hold empty cells.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_LINE_BYTES)
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
        used = [position[n] for n in schema.names]
        parts: dict[str, list[np.ndarray]] = {n: [] for n in schema.names}
        seen: dict[str, dict[bytes, int]] = {n: {} for n in cat}
        taken = 0
        while block := fh.read(_BLOCK_BYTES):
            tail = fh.readline(_LINE_BYTES)
            if len(tail) == _LINE_BYTES and not tail.endswith(b"\n"):
                return None
            block += tail
            if not block.endswith(b"\n"):
                block += b"\n"
            cells = _cells(np.frombuffer(block, dtype=np.uint8), width, used) if _plain(block) else None
            if cells is None:
                return None
            starts, lengths = cells
            taken += len(starts)
            words = _words(block)
            by_loadtxt = []
            for name in cont:
                pos = position[name]
                found = _distinct(words, starts[:, pos], lengths[:, pos])
                if found is None:
                    return None
                first, code = found
                if len(first) * _DISTINCT_SHARE > len(code):
                    by_loadtxt.append(name)
                    continue
                values = _numbers(block, starts[first, pos], lengths[first, pos])
                if values is None:
                    return None
                parts[name].append(values[code])
            if by_loadtxt:
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
                        usecols=[position[n] for n in by_loadtxt],
                        ndmin=2,
                        encoding="latin-1",
                    )
                except ValueError:
                    return None
                if not np.isfinite(values).all():
                    return None
                for name, column in zip(by_loadtxt, values.T):
                    parts[name].append(column.copy())
            for name in cat:
                pos = position[name]
                codes = _first_seen(block, words, starts[:, pos], lengths[:, pos], seen[name])
                if codes is None:
                    return None
                parts[name].append(codes)
    if not taken:
        return None

    arrays: dict[str, np.ndarray] = {}
    for name in cont:
        arrays[name] = np.concatenate(parts.pop(name))
    for name in cat:
        codes = [schema.intern(name, value.decode("utf-8")) for value in seen[name]]
        arrays[name] = np.asarray(codes, dtype=np.int64)[np.concatenate(parts.pop(name))]
    return Dataset(schema, arrays)


class _Lines:
    """The lines of binary file fh from offset on, split at LF, CR and
    CRLF as a text file opened with newline="" splits them; end is the
    offset after the last line taken.  fh is read at most a block at a
    time, so a file whose lines end in CR alone is not read whole."""

    def __init__(self, fh, offset: int):
        fh.seek(offset)
        self.fh = fh
        self.end = offset

    def __iter__(self) -> Iterator[bytes]:
        held = b""
        while raw := self.fh.readline(_BLOCK_BYTES):
            lines = (held + raw).splitlines(keepends=True)
            # a read that stops short of an LF may end inside a line or between a CR and its LF
            held = b"" if raw.endswith(b"\n") else lines.pop()
            for line in lines:
                self.end += len(line)
                yield line
        if held:
            self.end += len(held)
            yield held


def _utf8_lines(path: str, lines: Iterable[bytes], offset: int = 0) -> Iterator[str]:
    """Each of lines, the first of which starts at byte offset of the file
    at path, decoded from UTF-8 one at a time: no byte after the last line
    taken is decoded."""
    for raw in lines:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, offset) from None
        offset += len(raw)
        yield text


def _load_rows(path: str, schema: Schema) -> Dataset:
    """load_csv's row parser: csv.reader and float() cell by cell.  It
    takes any file and words every DataError.

    A text file decodes a chunk ahead of the records taken, so a byte
    that is not UTF-8 can stop it before an earlier row's error.  Then
    the file is parsed again through _utf8_lines, which decodes only the
    lines csv.reader takes."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_rows(path, fh, schema)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            return _parse_rows(path, _utf8_lines(path, _Lines(fh, 0)), schema)


def _parse_rows(path: str, lines: Iterable[str], schema: Schema) -> Dataset:
    """_load_rows over the file's lines."""
    reader = csv.reader(lines)
    return _parse_records(path, reader, schema, _header(path, reader, schema))


def _header(path: str, reader, schema: Schema) -> dict[str, int]:
    """Each header name's first position; the header is the next record
    of csv reader."""
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
    return positions


def _parse_records(
    path: str, records: Iterable[list[str]], schema: Schema, positions: dict[str, int], first: int = 0
) -> Dataset:
    """The records' schema cells checked and parsed, the records numbered
    from first in errors; Dataset.from_columns codes the categorical
    values once every record has parsed."""
    cont_cols = [(c.name, positions[c.name]) for c in schema.columns if c.kind == CONTINUOUS]
    cat_cols = [(c.name, positions[c.name]) for c in schema.columns if c.kind == CATEGORICAL]
    columns: dict[str, list] = {n: [] for n in schema.names}
    # one string object per distinct value, however many cells repeat it
    distinct: dict[str, str] = {}

    width = max(positions[n] for n in schema.names) + 1
    i = first - 1
    try:
        for i, record in enumerate(records, first):
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
                columns[name].append(value)
            for name, pos in cat_cols:
                cell = record[pos]
                if cell == "":
                    raise DataError(f"{path}: row {i}, column {name!r}: missing value")
                columns[name].append(distinct.setdefault(cell, cell))
    except csv.Error as exc:
        raise DataError(f"{path}: row {i + 1}: {exc}") from None

    if i < first:
        raise DataError(f"{path}: no data rows")
    return Dataset.from_columns(schema, columns)


def load_row(path: str, schema: Schema, row: int) -> Dataset:
    """Data row `row` (zero-based) of a CSV file as a one-row Dataset.

    The result, error and interned values are those of load_csv on the
    file holding only the header and record `row`, except that an error
    names row `row` and a byte that is not UTF-8 by its offset in this
    file.  A header fault, an empty file and a file with no data rows
    raise load_csv's errors, and a row past the last record raises
    DataError naming the file's record count.

    Only the header and the record are decoded and checked, so no other
    record can fail the load.  The record is found by its line ends:
    while the bytes before it hold no quote and no lone CR, each LF ends
    one record, and the LFs are counted block by block.  From the first
    block that holds one, or a line longer than a block, csv.reader
    splits the records instead; of these, only one it cannot split (a
    field over csv.field_size_limit()) raises DataError, naming that row.
    """
    if row < 0:
        raise DataError(f"row must be at least 0, got {row}")
    with open(path, "rb") as fh:
        lines = _Lines(fh, 0)
        positions = _header(path, csv.reader(_utf8_lines(path, lines)), schema)
        start, count = _record_start(path, fh, lines.end, row)
        record = None
        if count == row:
            try:
                record = next(csv.reader(_utf8_lines(path, _Lines(fh, start), start)), None)
            except csv.Error as exc:
                raise DataError(f"{path}: row {row}: {exc}") from None
    if record is not None:
        return _parse_records(path, [record], schema, positions, row)
    if not count:
        raise DataError(f"{path}: no data rows")
    raise DataError(f"row {row} out of range: file has {count} rows")


def _record_start(path: str, fh, offset: int, row: int) -> tuple[int, int]:
    """Where record `row` of binary file fh starts, counting from the
    record at offset, and the records before that point: row, or fewer
    when the file ends first.  Cells are not checked."""
    fh.seek(offset)
    taken = 0
    while taken < row and (block := fh.read(_BLOCK_BYTES)):
        tail = fh.readline(_BLOCK_BYTES)
        # a line that runs on past another block, like a quote or a lone CR, is left to csv.reader
        long_line = len(tail) == _BLOCK_BYTES and not tail.endswith(b"\n")
        block += tail
        buf = np.frombuffer(block, dtype=np.uint8)
        lf = buf == ord("\n")
        # else a block ends with an LF or at the end of the file, where a last line may lack one
        ends = int(np.count_nonzero(lf)) + (not block.endswith(b"\n"))
        if ends > row - taken:
            cut = np.flatnonzero(lf)[row - taken - 1] + 1
            block, buf, lf, ends = block[:cut], buf[:cut], lf[:cut], row - taken
        if long_line or b'"' in block or (b"\r" in block and _lone_cr(buf, lf)):
            return _split_records(path, fh, offset, row, taken)
        offset += len(block)
        taken += ends
    return offset, taken


def _lone_cr(buf: np.ndarray, lf: np.ndarray) -> bool:
    """Whether some CR in buf is not followed by an LF (lf is buf == LF)."""
    cr = buf == ord("\r")
    return np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & lf[1:])


def _split_records(path: str, fh, offset: int, row: int, taken: int) -> tuple[int, int]:
    """_record_start from record `taken`, which starts at offset, with the
    records split by csv.reader; bytes that are not UTF-8 are kept as
    surrogates, one per byte.  NUL is read as another character, as
    csv.reader reads it since Python 3.11."""
    lines = _Lines(fh, offset)
    reader = csv.reader(line.decode("utf-8", "surrogateescape").replace("\0", "\1") for line in lines)
    while taken < row:
        try:
            next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise DataError(f"{path}: row {taken}: {exc}") from None
        taken += 1
    return lines.end, taken


def format_number(value: float) -> str:
    """Render a float the way rule files and CSV output spell it.

    Integral values print without a decimal point; everything else uses
    the shortest representation that parses back to the same float.
    """
    v = float(value)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# write_csv's unit of work: the rows it renders and writes per str.join.
_WRITE_ROWS = 1 << 12


def _cell_texts(dataset: Dataset, col: Column) -> tuple[list[str], np.ndarray]:
    """The text write_csv prints for each distinct value of a column, and
    each row's index into those texts.

    Continuous values are told apart by bit pattern, so -0.0 keeps its
    own text.  Raises DataError for a code with no value and for a value
    load_csv would refuse: a non-finite number or an empty string.
    """
    name = col.name
    if col.kind == CONTINUOUS:
        values = np.asarray(dataset.column(name), dtype=np.float64)
        bits, index = np.unique(values.view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
        finite = np.isfinite(distinct)
        if not finite.all():
            raise DataError(f"column {name!r}: cannot write non-finite value {float(distinct[finite.argmin()])!r}")
        return [repr(value) for value in distinct.tolist()], index
    codes = np.asarray(dataset.column(name), dtype=np.int64)
    bad = (codes < 0) | (codes >= len(col.values))
    if bad.any():
        raise DataError(f"column {name!r}: no value with code {codes[bad.argmax()]}")
    used, index = np.unique(codes, return_inverse=True)
    buf = io.StringIO()
    writer = csv.writer(buf)
    texts = []
    for code in used.tolist():
        value = col.values[code]
        if value == "":
            raise DataError(f"column {name!r}: cannot write an empty value")
        writer.writerow([value])
        texts.append(buf.getvalue().removesuffix(writer.dialect.lineterminator))
        buf.seek(0)
        buf.truncate()
    return texts, index


def write_csv(dataset: Dataset, path: str) -> None:
    """Serialize a dataset in csv.writer's default dialect: comma
    delimiter, CRLF line ends, quotes only around a value holding a
    comma, a quote or a line break, UTF-8.

    Continuous cells are the repr of the float, which float() reads back
    bit for bit.  Each column's text is rendered once per distinct value
    and gathered by row, _WRITE_ROWS rows per write.  A value load_csv
    would refuse (a non-finite number, an empty categorical value) or a
    categorical code with no value raises DataError naming the column,
    before the file is opened.
    """
    schema = dataset.schema
    columns = []
    for j, col in enumerate(schema.columns):
        texts, index = _cell_texts(dataset, col)
        end = "," if j < len(schema.columns) - 1 else "\r\n"
        columns.append((np.array([text + end for text in texts], dtype=object), index))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(schema.names)
        for lo in range(0, dataset.row_count, _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, dataset.row_count)
            block = np.empty((hi - lo, len(columns)), dtype=object)
            for j, (texts, index) in enumerate(columns):
                block[:, j] = texts[index[lo:hi]]
            fh.write("".join(block.ravel().tolist()))


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
            minimum, maximum = float(arr.min()), float(arr.max())
            with np.errstate(over="ignore", invalid="ignore"):
                mean, std = float(arr.mean()), float(arr.std())
            if not math.isfinite(mean + std):
                # a sum or a square overflowed: divided by max |x|, the values and their mean and std lie in [-1, 1]
                scale = max(-minimum, maximum)
                scaled = arr / scale
                mean, std = float(scaled.mean()) * scale, float(scaled.std()) * scale
            continuous[col.name] = ContinuousStats(mean=mean, std=std, minimum=minimum, maximum=maximum)
        else:
            bad = (arr < 0) | (arr >= len(col.values))
            if bad.any():
                dataset.schema.value_of(col.name, int(arr[bad].min()))  # raises for the least code with no value
            codes = np.flatnonzero(np.bincount(arr)).tolist()
            categorical[col.name] = [col.values[c] for c in codes]
    return ColumnStats(continuous, categorical)


def load_labels(path: str) -> np.ndarray:
    """Parse a labels file: one 0 or 1 per line, anomalies marked 1."""
    labels: list[int] = []
    for i, line in enumerate(read_text(path).split("\n")):
        text = line.strip()
        if not text:
            continue
        if text not in ("0", "1"):
            raise DataError(f"{path}: line {i}: label must be 0 or 1, got {text!r}")
        labels.append(int(text))
    if not labels:
        raise DataError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)
