"""Schema handling, CSV ingestion, column statistics, and support."""

import csv
import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invarmine import data
from invarmine.data import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    DataError,
    Dataset,
    Schema,
    compute_column_stats,
    format_number,
    load_csv,
    load_labels,
    load_row,
    load_schema,
    save_schema,
    write_csv,
)
from invarmine.predicates import CategoricalEquals, Interval
from invarmine.synth import planted_rule_data, random_mixed_dataset

from helpers import make_dataset, make_schema, support, write_text
from oracles import first_seen_by_byte_strings, load_csv_by_rows, write_csv_by_rows


class TestSchema:
    def test_empty_schema_rejected(self):
        with pytest.raises(DataError, match="no columns"):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            make_schema(cont=("X1",), cat=("X1",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="unknown kind"):
            Column("X1", "ordinal", [])

    def test_continuous_columns_carry_no_values(self):
        with pytest.raises(DataError, match="no value dictionary"):
            Column("X1", CONTINUOUS, ["a"])

    def test_intern_extends_in_first_seen_order(self):
        schema = make_schema(cat=("U1",))
        assert schema.intern("U1", "b") == 0
        assert schema.intern("U1", "a") == 1
        assert schema.intern("U1", "b") == 0
        assert schema.column("U1").values == ["b", "a"]

    def test_code_for_does_not_extend(self):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        assert schema.code_for("U1", "a") == 0
        assert schema.code_for("U1", "z") is None
        assert schema.column("U1").values == ["a"]

    def test_value_of_range_checked(self):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        assert schema.value_of("U1", 0) == "a"
        with pytest.raises(DataError, match="no value with code"):
            schema.value_of("U1", 1)

    def test_unknown_column_lookup(self):
        schema = make_schema(cont=("X1",))
        with pytest.raises(DataError, match="unknown column"):
            schema.column("X9")

    def test_copy_is_independent(self):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        twin = schema.copy()
        twin.intern("U1", "b")
        assert schema.column("U1").values == ["a"]
        assert twin.column("U1").values == ["a", "b"]

    def test_round_trip_through_file(self, tmp_path):
        schema = make_schema(cont=("X1",), cat=("U1",))
        schema.intern("U1", "a")
        path = str(tmp_path / "schema.json")
        save_schema(schema, path)
        assert load_schema(path) == schema

    def test_load_schema_rejects_bad_json(self, tmp_path):
        path = write_text(tmp_path / "schema.json", "not json {")
        with pytest.raises(DataError, match="not valid JSON"):
            load_schema(path)

    def test_load_schema_names_a_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "schema.json"
        content = b'{"columns": [{"name": "X\xe9", "kind": "continuous"}]}'
        path.write_bytes(content)
        with pytest.raises(DataError) as exc:
            load_schema(str(path))
        at = content.index(b"\xe9")
        assert str(exc.value) == f"{path}: not UTF-8: byte 0xe9 at offset {at} (invalid continuation byte)"


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1,U1\n1.5,a\n2.5,b\n3.5,a\n")
        dataset = load_csv(path, make_schema(cont=("X1",), cat=("U1",)))
        assert dataset.row_count == 3
        assert dataset.column("X1").tolist() == [1.5, 2.5, 3.5]
        assert dataset.column("U1").tolist() == [0, 1, 0]

    def test_header_omitting_column_names_it(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1\n1.0\n")
        with pytest.raises(DataError, match="omits schema column 'U1'"):
            load_csv(path, make_schema(cont=("X1",), cat=("U1",)))

    def test_unparseable_number_cites_row_and_column(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1\n1.0\nabc\n")
        with pytest.raises(DataError, match="row 1, column 'X1'.*'abc'"):
            load_csv(path, make_schema(cont=("X1",)))

    def test_missing_cell_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1,U1\n1.0,\n")
        with pytest.raises(DataError, match="row 0, column 'U1': missing"):
            load_csv(path, make_schema(cont=("X1",), cat=("U1",)))

    def test_non_finite_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1\ninf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, make_schema(cont=("X1",)))

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path, make_schema(cont=("X1",)))

    def test_header_only(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, make_schema(cont=("X1",)))

    def test_short_row_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1,U1\n1.0\n")
        with pytest.raises(DataError, match="row 0"):
            load_csv(path, make_schema(cont=("X1",), cat=("U1",)))

    def test_extra_columns_ignored(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "noise,X1\nhello,1.0\n")
        dataset = load_csv(path, make_schema(cont=("X1",)))
        assert dataset.schema.names == ["X1"]
        assert dataset.column("X1").tolist() == [1.0]

    def test_duplicate_schema_header_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1,X1\n1.0,2.0\n")
        with pytest.raises(DataError, match="duplicate header"):
            load_csv(path, make_schema(cont=("X1",)))

    def test_unseen_categorical_values_extend_the_schema(self, tmp_path):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        path = write_text(tmp_path / "d.csv", "U1\nz\na\n")
        dataset = load_csv(path, schema)
        assert dataset.column("U1").tolist() == [1, 0]
        assert schema.column("U1").values == ["a", "z"]

    def test_round_trip_is_bit_exact(self, tmp_path):
        dataset = make_dataset(
            cont={"X1": [0.1, 1 / 3, -2.75, 1e-12]},
            cat={"U1": ["a", "b", "a", "c"]},
        )
        path = str(tmp_path / "d.csv")
        write_csv(dataset, path)
        again = load_csv(path, dataset.schema.copy())
        assert again.column("X1").tolist() == dataset.column("X1").tolist()
        assert again.column("U1").tolist() == dataset.column("U1").tolist()

    def test_failed_load_leaves_the_schema_unchanged(self, tmp_path):
        schema = make_schema(cont=("X1",), cat=("U1",))
        schema.intern("U1", "a")
        path = write_text(tmp_path / "d.csv", "X1,U1\n1.0,z\nabc,q\n")
        with pytest.raises(DataError, match="row 1, column 'X1': cannot parse 'abc'"):
            load_csv(path, schema)
        assert schema.column("U1").values == ["a"]
        assert schema.code_for("U1", "z") is None

    @pytest.mark.parametrize(
        "content",
        [b"X1,U1\n1,a\n2,\xff\n", b'X1,U1\n"1",a\n2,\xff\n', b"X1,U1\r\n1,a\r\n2,\xc3\r\n"],
        ids=["columnar", "quoted", "truncated character"],
    )
    def test_a_byte_that_is_not_utf8_is_a_data_error_naming_the_file(self, tmp_path, content):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        schema = make_schema(cont=("X1",), cat=("U1",))
        with pytest.raises(DataError) as exc:
            load_csv(str(path), schema)
        at = content.index(b"2,") + 2
        reason = "invalid start byte" if content[at] == 0xFF else "invalid continuation byte"
        assert str(exc.value) == f"{path}: not UTF-8: byte {content[at]:#04x} at offset {at} ({reason})"
        assert schema.column("U1").values == []

    def test_an_earlier_bad_cell_wins_over_a_later_byte_that_is_not_utf8(self, tmp_path):
        # both in the first 8 KiB that a text file decodes at once
        path = tmp_path / "d.csv"
        path.write_bytes(b'X1,U1\n"1",a\nabc,b\n' + b"3,a\n" * 100 + b"4,\xff\n")
        with pytest.raises(DataError, match="row 1, column 'X1': cannot parse 'abc' as a number"):
            load_csv(str(path), make_schema(cont=("X1",), cat=("U1",)))

    @pytest.mark.parametrize("where", ["header", "row 1"])
    def test_cell_over_the_csv_field_limit_is_a_data_error(self, tmp_path, where):
        long = "a" * (csv.field_size_limit() + 1)
        if where == "header":
            text = f"X1,U1,{long}\n1.0,a,b\n"
        else:
            text = f"X1,U1\n1.0,a\n2.0,{long}\n3.0,b\n"
        path = write_text(tmp_path / "d.csv", text)
        schema = make_schema(cont=("X1",), cat=("U1",))
        with pytest.raises(DataError) as exc:
            load_csv(path, schema)
        assert str(exc.value).startswith(f"{path}: {where}: field larger than field limit")
        assert schema.column("U1").values == []


def _contents(dataset):
    """Each column as (dtype, bytes), and the schema as a dict."""
    columns = {n: (dataset.column(n).dtype, dataset.column(n).tobytes()) for n in dataset.schema.names}
    return columns, dataset.schema.to_dict()


def _outcome(loader, path, schema):
    """_contents of what the loader reads, or the exception as (type,
    message, schema dict); the loader gets a private copy of the schema."""
    schema = schema.copy()
    try:
        return _contents(loader(path, schema))
    except Exception as exc:  # the oracle's exceptions are compared, not judged
        return type(exc), str(exc), schema.to_dict()


def assert_reads_like_the_row_parser(path, schema):
    """load_csv agrees with the frozen row parser: equal arrays and schema,
    or the same exception with the schema untouched.  Returns whether the
    columnar path read the file."""
    expected = _outcome(load_csv_by_rows, path, schema)
    got = _outcome(load_csv, path, schema)
    if len(expected) == 3:
        assert got == (expected[0], expected[1], schema.to_dict())
    else:
        assert got == expected
    untouched = schema.copy()
    columnar = data._load_columns(path, untouched)
    if columnar is None:
        assert untouched == schema
        return False
    assert _contents(columnar) == expected
    return True


def _schema_with_values():
    schema = make_schema(cont=("X1", "X2"), cat=("U1", "U2"))
    schema.intern("U1", "lo")
    return schema


# files both readers must agree on; True marks those the columnar path reads
LOADER_CASES = {
    "LF": (b"X1,U1,X2,U2\n1.5,a,2,b\n-0,lo,3e2,b\n", True),
    "CRLF": (b"X1,U1,X2,U2\r\n1.5,a,2,b\r\n2.5,b,3,c\r\n", True),
    "no final newline": (b"X1,U1,X2,U2\n1.5,a,2,b\n2.5,b,3,c", True),
    "mixed line ends": (b"X1,U1,X2,U2\r\n1.5,a,2,b\n2.5,b,3,c\r\n", True),
    "padded numbers": (b"X1,U1,X2,U2\n 1.5,a,\t2,b\n3,a,4 ,b\n", True),
    "NBSP-padded number": (b"X1,U1,X2,U2\n1,a,\xc2\xa02,b\n", False),
    "non-ASCII values": ("X1,U1,X2,U2\n1,\u00e9,2,\u65e5\u672c\n1,\u00e9,2, a\n".encode(), True),
    "extra columns": (b"Z,X1,U1,X2,U2,W\nq,1,a,2,b,r\n", True),
    "schema columns reordered": (b"U2,X2,U1,X1\nb,2,a,1\n", True),
    "quoted cell with comma": (b'X1,U1,X2,U2\n1,"a,b",2,c\n', False),
    "quote inside a cell": (b'X1,U1,X2,U2\n1,a"b,2,c\n', False),
    "blank line": (b"X1,U1,X2,U2\n1,a,2,b\n\n2,a,3,b\n", False),
    "blank CRLF line": (b"X1,U1,X2,U2\r\n1,a,2,b\r\n\r\n", False),
    "short row": (b"X1,U1,X2,U2\n1,a,2\n", False),
    "long row": (b"X1,U1,X2,U2\n1,a,2,b,c\n", False),
    "short row then long row": (b"X1,U1,X2,U2\n1,a\n2,b,1,a,2,b\n", False),
    "empty categorical cell": (b"X1,U1,X2,U2\n1,,2,b\n", False),
    "empty extra cell": (b"X1,U1,X2,U2,Z\n1,a,2,b,\n", True),
    "empty extra cells, CRLF": (b"Z,X1,U1,X2,U2,W\r\n,1,a,2,b,\r\nq,2,b,3,c,\r\n", True),
    "underscore": (b"X1,U1,X2,U2\n1_0,a,2,b\n", False),
    "Arabic-Indic digit": ("X1,U1,X2,U2\n\u0661,a,2,b\n".encode(), False),
    "full-width digit": ("X1,U1,X2,U2\n\uff11,a,2,b\n".encode(), False),
    "nan": (b"X1,U1,X2,U2\nnan,a,2,b\n", False),
    "inf": (b"X1,U1,X2,U2\n1,a,-inf,b\n", False),
    "overflow": (b"X1,U1,X2,U2\n1e400,a,2,b\n", False),
    "not a number": (b"X1,U1,X2,U2\n1,a,abc,b\n", False),
    "file separator padding": (b"X1,U1,X2,U2\n1\x1c,a,2,b\n", False),
    "NUL": (b"X1,U1,X2,U2\n1,a\x00,2,b\n", False),
    "lone CR": (b"X1,U1,X2,U2\n1,a\r2,b\n", False),
    "CR before a comma": (b"X1,U1,X2,U2\n1,a\r,2,b\n", False),
    "invalid UTF-8": (b"X1,U1,X2,U2\n1,\xff,2,b\n", False),
    "invalid UTF-8 in an extra column": (b"X1,U1,X2,U2,Z\n1,a,2,b,\xc3\n", False),
    "duplicate schema header": (b"X1,U1,X2,U2,X1\n1,a,2,b,3\n", False),
    "duplicate extra header": (b"X1,U1,X2,U2,Z,Z\n1,a,2,b,3,4\n", False),
    "header omits a column": (b"X1,U1,X2\n1,a,2\n", False),
    "header only": (b"X1,U1,X2,U2\n", False),
    "empty file": (b"", False),
    "byte order mark": (b"\xef\xbb\xbfX1,U1,X2,U2\n1,a,2,b\n", False),
    "only CR line ends": (b"X1,U1,X2,U2\r1,a,2,b\r", False),
    "bad value after a good block": (b"X1,U1,X2,U2\n1,a,2,b\n" * 40 + b"1,z,x,b\n", False),
}

# categorical values around the 8-byte words the columnar reader codes
# cells by; _word_rows puts each value in both columns and in several rows
WORD_VALUES = {
    "7-, 8- and 9-byte values": ["abcdefg", "abcdefgh", "abcdefghi"],
    "16- and 17-byte values": ["abcdefghijklmnop", "abcdefghijklmnopq"],
    "values sharing their first 8 bytes": ["abcdefghX", "abcdefghY"],
    "values sharing their first 16 bytes": ["abcdefghijklmnopX", "abcdefghijklmnopY"],
    "a value that prefixes another": ["ab", "abcdefghijk", "abcdefghij"],
    "a UTF-8 character across bytes 8-9": ["abcdefg\u00e9", "abcdefg\u00e8", "abcdefg"],
}


def _word_rows(values, template):
    rows = [template.format(i=i, a=a, b=b) for i, (a, b) in enumerate(zip(values + values[::-1], values[1:] + values))]
    return "".join(row + "\n" for row in rows).encode()


LOADER_CASES.update(
    (name, (b"X1,U1,X2,U2\n" + _word_rows(values, "{i},{a},-{i},{b}"), True)) for name, values in WORD_VALUES.items()
)


# A continuous column takes float() once per distinct text where its block
# holds at least data._DISTINCT_SHARE cells per text, so each case repeats
# its rows that often.  A 16-byte block holds at most 3 of these rows and
# hands every continuous cell to np.loadtxt: the cases flagged ONE_BLOCK
# hold a number loadtxt refuses and only float() reads, so they are
# columnar as one block and go to the row parser in 16-byte blocks.
ONE_BLOCK = "columnar as one block"


def _repeated(*rows):
    return b"X1,U1,X2,U2\n" + "".join(row + "\n" for row in rows).encode() * data._DISTINCT_SHARE


LOADER_CASES.update(
    {
        "signed zeros and trailing zeros": (_repeated("-0.0,a,1.5,b", "0.0,a,1.50,b"), True),
        # 17- and 18-byte texts differing in their first or their last word
        "three-word numbers": (
            _repeated(
                "1.234567890123456,a,-1.234567890123456,b",
                "2.234567890123456,a,0.1234567890123456,b",
                "1.234567890123457,a,-1.234567890123456,b",
            ),
            True,
        ),
        "tab- and space-padded numbers": (_repeated(" 1.5,a,\t2,b", "1.5 ,a,2\t,b", "\t 3 ,a, \t2,b"), True),
        "underscores": (_repeated("1_0,a,2,b", "3,a,1_000.5,b"), ONE_BLOCK),
        "NBSP-padded numbers": (_repeated("\u00a01,a,2\u00a0,b", "1,a,2,b"), ONE_BLOCK),
        "Arabic-Indic digits": (_repeated("\u0661\u0662,a,2,b", "12,a,2,b"), ONE_BLOCK),
        "full-width digits": (_repeated("\uff11.\uff15,a,2,b", "1.5,a,2,b"), ONE_BLOCK),
        "repeated nan": (_repeated("1,a,2,b", "nan,a,2,b"), False),
        "repeated inf": (_repeated("1,a,-inf,b", "1,a,2,b"), False),
        "repeated overflow": (_repeated("1e999,a,2,b", "1,a,2,b"), False),
    }
)


# without a continuous column no loadtxt call sees the file
CATEGORICAL_CASES = {
    "CRLF": (b"U1,U2\r\na,b\r\nc,d\r\n", True),
    "lone CR": (b"U1,U2\na\rb,c\n", False),
    "trailing NUL": (b"U1,U2\na\x00,b\n", False),
    "blank line": (b"U1,U2\na,b\n\nc,d\n", False),
}
CATEGORICAL_CASES.update((name, (b"U1,U2\n" + _word_rows(values, "{a},{b}"), True)) for name, values in WORD_VALUES.items())

# one short continuous column: a 16-byte block holds 5 or more rows
NUMBER_CASES = {
    # the first block's 9 texts are distinct, so np.loadtxt parses them;
    # float() reads each later block's one text, which loadtxt refuses
    "distinct block, then repeated ones": (b"X1\n" + b"".join(b"%d\n" % i for i in range(1, 10)) + b"1_0\n" * 35, True),
}

# with one column a blank line is an empty schema cell, not a short row
ONE_COLUMN_CASES = {
    "one column": (b"U1\na\nb\n", True),
    "blank line": (b"U1\na\n\nb\n", False),
    "blank CRLF line": (b"U1\r\na\r\n\r\nb\r\n", False),
    "blank last line": (b"U1\na\n\n", False),
}


def _categorical_schema():
    schema = make_schema(cat=("U1", "U2"))
    schema.intern("U2", "d")
    return schema


def _one_column_schema():
    return make_schema(cat=("U1",))


def _number_schema():
    return make_schema(cont=("X1",))


@pytest.mark.parametrize("block", [None, 16], ids=["one block", "16-byte blocks"])
@pytest.mark.parametrize(
    "content,columnar,schema",
    [(*case, _schema_with_values) for case in LOADER_CASES.values()]
    + [(*case, _categorical_schema) for case in CATEGORICAL_CASES.values()]
    + [(*case, _number_schema) for case in NUMBER_CASES.values()]
    + [(*case, _one_column_schema) for case in ONE_COLUMN_CASES.values()],
    ids=list(LOADER_CASES)
    + [f"categorical only, {name}" for name in CATEGORICAL_CASES]
    + [f"one number column, {name}" for name in NUMBER_CASES]
    + [f"one column, {name}" for name in ONE_COLUMN_CASES],
)
def test_loader_case_reads_like_the_row_parser(tmp_path, content, columnar, schema, block):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    if columnar == ONE_BLOCK:
        columnar = block is None
    with mock.patch.object(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES):
        assert assert_reads_like_the_row_parser(str(path), schema()) == columnar


@pytest.mark.parametrize(
    "rows",
    [("1.234567890,a,2,b", "2.234567890,a,2,b"), ("1,aaaaaaaaZ,2,b", "1,bbbbbbbbZ,2,b")],
    ids=["continuous", "categorical"],
)
def test_a_key_clash_sends_the_file_to_the_row_parser(tmp_path, rows):
    # with no multiply a multi-word cell's key is its last word: these
    # cells differ in their first 8 bytes only, so they share a key
    path = tmp_path / "d.csv"
    path.write_bytes(_repeated(*rows))
    assert assert_reads_like_the_row_parser(str(path), _schema_with_values())
    with mock.patch.object(data, "_MIX", np.uint64(0)):
        assert not assert_reads_like_the_row_parser(str(path), _schema_with_values())


def test_values_first_seen_in_a_later_block(tmp_path):
    rng = np.random.default_rng(5)
    pool = ["lo", "hi", "\u00e9t\u00e9", "a", "zz" * 9]
    lines = ["X1,U1,X2,U2"]
    for i in range(300):
        # the pool widens as the file goes on, so later blocks bring new values
        u1 = pool[int(rng.integers(1 + min(i // 60, 4)))]
        lines.append(f"{rng.normal()!r},{u1},{i},{pool[int(rng.integers(5))]}")
    path = tmp_path / "d.csv"
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    for block in (1, 7, 64, 1 << 20):
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            assert assert_reads_like_the_row_parser(str(path), _schema_with_values())


CONT_CELLS = ["0", "1.5", "-2.25", "1e5", "-0", ".5", " 3", "4 ", "\u00a05", "\t6", "1_0", "\u0661",
              "\uff11", "nan", "inf", "-inf", "1e400", "abc", "", "0x10", "1.5.2", '"7"', '"8,5"']
CAT_CELLS = ["a", "b", "lo", "hi", "\u00e9", "\u65e5\u672c", " a", "a b", "", '"c,d"', 'x"y', "1"]
CAT_CELLS += [value for values in WORD_VALUES.values() for value in values]


@st.composite
def csv_files(draw):
    """Bytes of a small CSV over _schema_with_values()'s columns: mostly
    well formed, with row-shape, line-end and byte-level damage mixed in."""
    names = draw(st.permutations(["X1", "U1", "X2", "U2"]))
    header = list(names) + draw(st.lists(st.sampled_from(["Z", "X1", "U1", ""]), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(names)))
    numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(CONT_CELLS))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(numbers if name.startswith("X") else st.sampled_from(CAT_CELLS)) for name in header]
        shape = draw(st.sampled_from(["keep"] * 6 + ["short", "long", "blank"]))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row.append(draw(st.sampled_from(CAT_CELLS)))
        lines.append("" if shape == "blank" else ",".join(row))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    content = text.encode("utf-8")
    for damage in draw(st.lists(st.sampled_from([b"\x00", b"\r", b"\xff", b"\x1d", b'"', b"\n"]), max_size=1)):
        at = draw(st.integers(0, len(content)))
        content = content[:at] + damage + content[at:]
    return content


@pytest.mark.parametrize("block", [None, 3], ids=["one block", "3-byte blocks"])
@given(content=csv_files(), schema=st.sampled_from([_schema_with_values, _categorical_schema]))
def test_generated_files_read_like_the_row_parser(tmp_path_factory, block, content, schema):
    path = tmp_path_factory.mktemp("generated") / "d.csv"
    path.write_bytes(content)
    with mock.patch.object(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES):
        assert_reads_like_the_row_parser(str(path), schema())


def _records(content):
    """content's records as csv.reader splits them, header first, each as
    its bytes.  Lines split as newline="" splits them, and latin-1 keeps
    every byte, since csv's special characters are ASCII; NUL, which
    csv.reader refused before Python 3.11, is read as another byte."""
    lines = content.splitlines(keepends=True)
    taken = 0

    def fed():
        nonlocal taken
        for line in lines:
            taken += 1
            yield line.decode("latin-1").replace("\x00", "\x01")

    records, done = [], 0
    for _ in csv.reader(fed()):
        records.append(b"".join(lines[done:taken]))
        done = taken
    return records


def _expected_row(path, content, k, schema):
    """What load_row(path, schema, k) must give for content: load_csv's
    outcome on the file of the header and record k alone, with its error
    naming row k and a byte that is not UTF-8 by its offset in content.
    Past the last record, the out-of-range error naming the record count
    replaces load_csv's "no data rows", as a header fault does not."""
    records = _records(content)
    if k + 1 >= len(records):
        path.write_bytes(b"".join(records[:1]))
        expected = _outcome(load_csv, str(path), schema)
        if len(records) > 1 and expected[1] == f"{path}: no data rows":
            expected = (DataError, f"row {k} out of range: file has {len(records) - 1} rows", schema.to_dict())
        return expected
    header, record = records[0], records[k + 1]
    path.write_bytes(header + record)
    expected = _outcome(load_csv, str(path), schema)
    if len(expected) == 3:
        shift = len(b"".join(records[: k + 1])) - len(header)
        message = expected[1].replace(f"{path}: row 0", f"{path}: row {k}")
        message = re.sub(r"at offset (\d+)", lambda m: f"at offset {int(m[1]) + shift}", message)
        expected = (expected[0], message, expected[2])
    return expected


def assert_row_reads_like_its_record_alone(path, content, k, schema):
    """load_row(path, schema, k) on content gives _expected_row's
    outcome, with the schema untouched on error.  Returns whether the
    records before k were split by csv.reader, not by their line ends."""
    expected = _expected_row(path, content, k, schema)
    path.write_bytes(content)
    split = mock.Mock(wraps=data._split_records)
    with mock.patch.object(data, "_split_records", split):
        assert _outcome(lambda p, s: load_row(p, s, k), str(path), schema) == expected
    return split.called


@pytest.mark.parametrize("block", [None, 3, 16], ids=["one block", "3-byte blocks", "16-byte blocks"])
@given(content=csv_files(), schema=st.sampled_from([_schema_with_values, _categorical_schema]), k=st.integers(0, 8))
def test_a_row_reads_like_the_file_of_its_record_alone(tmp_path_factory, block, content, schema, k):
    path = tmp_path_factory.mktemp("one_row") / "d.csv"
    with mock.patch.object(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES):
        assert_row_reads_like_its_record_alone(path, content, k, schema())


def _numbered_rows(count, end="\n"):
    """A header and count 4-byte rows (5 with CRLF) over X1 and U1."""
    return ("X1,U1" + end + "".join(f"{i % 10},{'ab'[i % 2]}{end}" for i in range(count))).encode()


class TestFirstRows:
    """load_row(path, schema, k) against load_csv of the file of the
    header and record k alone: the records before k are found by their
    line ends, or split by csv.reader after a quote or a lone CR."""

    @staticmethod
    def schema():
        return make_schema(cont=("X1",), cat=("U1",))

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_every_k_around_block_boundaries_stays_columnar(self, tmp_path, monkeypatch, end):
        # 6- or 8-byte reads plus the rest of the line: blocks of two rows, so
        # record k starts a block for every even k and is inside one for odd k;
        # the file reads columnar and load_row counts line ends only
        monkeypatch.setattr(data, "_BLOCK_BYTES", 6 if end == "\n" else 8)
        content = _numbered_rows(9, end)
        path = tmp_path / "d.csv"
        for k in range(12):
            assert not assert_row_reads_like_its_record_alone(path, content, k, self.schema())
        assert assert_reads_like_the_row_parser(str(path), self.schema())
        assert load_row(str(path), self.schema(), 8).column("X1").tolist() == [8.0]
        with pytest.raises(DataError, match="^row 9 out of range: file has 9 rows$"):
            load_row(str(path), self.schema(), 9)

    # lines that send a whole file to the row parser or fail it
    AFTER_ROW_K = {
        "quote": '3,"q"',
        "short line": "3",
        "bad cell": "abc,a",
        "empty cell": "3,",
        "blank line": "",
        "lone CR": "3,a\r4,b",
        "NUL": "3,a\x00",
        "not UTF-8": "3,\udcff",
    }

    @staticmethod
    def _with_line(line, end, at, count):
        """_numbered_rows(count, end) with line as record `at`."""
        rows = _numbered_rows(count, end).split(end.encode())
        rows.insert(at + 1, line.encode("utf-8", "surrogateescape"))
        return end.encode().join(rows)

    @pytest.mark.parametrize("block", [None, 6], ids=["one block", "6-byte blocks"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("line", AFTER_ROW_K.values(), ids=AFTER_ROW_K.keys())
    def test_a_bad_line_after_row_k_changes_nothing(self, tmp_path, monkeypatch, block, end, line):
        monkeypatch.setattr(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES)
        for k in (0, 1, 2, 3):
            content = self._with_line(line, end, k + 1, 5)
            assert not assert_row_reads_like_its_record_alone(tmp_path / "d.csv", content, k, self.schema())
            assert load_row(str(tmp_path / "d.csv"), self.schema(), k).column("X1").tolist() == [k]

    @pytest.mark.parametrize("block", [None, 6], ids=["one block", "6-byte blocks"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("line", AFTER_ROW_K.values(), ids=AFTER_ROW_K.keys())
    def test_a_bad_line_before_row_k_changes_nothing(self, tmp_path, monkeypatch, block, end, line):
        monkeypatch.setattr(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES)
        path = tmp_path / "d.csv"
        for k in (1, 2, 3):
            for at in range(k):
                content = self._with_line(line, end, at, 5)
                split = assert_row_reads_like_its_record_alone(path, content, k, self.schema())
                assert split == (line in ('3,"q"', "3,a\r4,b"))
                # the lone CR line is the records 3,a and 4,b
                x1 = k - 1 if "\r" not in line else 4 if k == at + 1 else k - 2
                assert load_row(str(path), self.schema(), k).column("X1").tolist() == [x1]

    @pytest.mark.parametrize("line", AFTER_ROW_K.values(), ids=AFTER_ROW_K.keys())
    def test_the_row_parser_stops_at_row_k(self, tmp_path, line):
        # the quoted first cell sends the records to csv.reader, which splits them through row 2 only
        content = b'X1,U1\n"1",a\n2,b\n3,c\n' + (line + "\n").encode("utf-8", "surrogateescape") + b"4,a\n"
        path = tmp_path / "d.csv"
        assert assert_row_reads_like_its_record_alone(path, content, 2, self.schema())
        assert load_row(str(path), self.schema(), 2).column("X1").tolist() == [3.0]

    def test_a_nul_before_row_k_is_another_character(self, tmp_path):
        # csv.reader refused NUL before Python 3.11; the split reads it on every version
        path = tmp_path / "d.csv"
        content = b'X1,U1\n"1",a\n2,b\x00\n3,c\n'
        assert assert_row_reads_like_its_record_alone(path, content, 2, self.schema())
        assert load_row(str(path), self.schema(), 2).column("X1").tolist() == [3.0]

    def test_errors_in_row_k_name_it(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'X1,U1\n1,a\n"2",b\nabc,c\n3,\xff\n4\n')
        expected = {
            2: f"{path}: row 2, column 'X1': cannot parse 'abc' as a number",
            3: f"{path}: not UTF-8: byte 0xff at offset 24 (invalid start byte)",
            4: f"{path}: row 4: expected at least 2 fields, got 1",
        }
        for k, message in expected.items():
            with pytest.raises(DataError) as exc:
                load_row(str(path), self.schema(), k)
            assert str(exc.value) == message

    def test_a_record_csv_cannot_split_is_named(self, tmp_path):
        path = write_text(tmp_path / "d.csv", 'X1,U1\n"1",a\n2,bbbbbbbbbb\n3,c\n')
        limit = csv.field_size_limit(8)
        try:
            with pytest.raises(DataError, match=r"d\.csv: row 1: field larger than field limit \(8\)$"):
                load_row(path, self.schema(), 2)
        finally:
            csv.field_size_limit(limit)

    def test_a_file_of_lone_crs_is_not_read_whole(self, tmp_path, monkeypatch):
        # with no LF in the file, a binary readline would return all of it as one line
        monkeypatch.setattr(data, "_BLOCK_BYTES", 4096)
        path = tmp_path / "d.csv"
        path.write_bytes(b"X1,U1\r" + b"".join(b"%d,v\r" % i for i in range(100_000)))
        tracemalloc.start()
        try:
            got = load_row(str(path), self.schema(), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.column("X1").tolist() == [3.0]
        assert peak < path.stat().st_size / 4

    def test_values_after_row_k_are_not_interned(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "X1,U1\n1,a\n2,b\n3,c\n")
        schema = self.schema()
        load_row(path, schema, 1)
        assert schema.column("U1").values == ["b"]

    @pytest.mark.parametrize("row", [-1, -5])
    def test_a_negative_row_is_a_data_error(self, tmp_path, row):
        # refused before the file is opened: a missing file would be an OSError
        with pytest.raises(DataError, match=f"row must be at least 0, got {row}"):
            load_row(str(tmp_path / "missing.csv"), self.schema(), row)

    def test_a_header_only_file_has_no_data_rows(self, tmp_path):
        for text in ("X1,U1\n", "X1,U1"):
            with pytest.raises(DataError, match=r"d\.csv: no data rows$"):
                load_row(write_text(tmp_path / "d.csv", text), self.schema(), 0)
        with pytest.raises(DataError, match=r"d\.csv: empty file$"):
            load_row(write_text(tmp_path / "d.csv", ""), self.schema(), 3)
        with pytest.raises(DataError, match=r"d\.csv: header omits schema column 'U1'$"):
            load_row(write_text(tmp_path / "d.csv", "X1\n1\n"), self.schema(), 3)


@st.composite
def coder_blocks(draw):
    """Blocks of 1-20-byte cells for the categorical coder: few distinct
    values, most sharing a prefix that ends on or near a word boundary,
    with the cell offsets and lengths of each block."""
    prefix = st.sampled_from([b"", b"abcdefg", b"abcdefgh", b"abcdefghi", b"abcdefghijklmnop", b"\xc3"])
    tail = st.lists(st.sampled_from([0x61, 0x62, 0x2C, 0x0A, 0x01, 0xC3, 0xA9, 0xFF]), max_size=12).map(bytes)
    value = st.tuples(prefix, tail).map(lambda p: (p[0] + p[1])[:20]).filter(len)
    pool = draw(st.lists(value, min_size=1, max_size=8))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        gaps = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
        block, starts = b"", []
        for cell, gap in zip(cells, gaps):
            block += b";" * gap
            starts.append(len(block))
            block += cell
        lengths = np.array([len(cell) for cell in cells], dtype=np.int64)
        blocks.append((block + b"\n", np.array(starts, dtype=np.int64), lengths))
    return blocks


class _CountedLookups(dict):
    """A first-seen dict that counts its setdefault calls."""

    lookups = 0

    def setdefault(self, key, default=None):
        self.lookups += 1
        return super().setdefault(key, default)


@given(blocks=coder_blocks())
def test_first_seen_codes_like_the_byte_string_reference(blocks):
    seen, expected_seen = _CountedLookups(), {}
    for block, starts, lengths in blocks:
        expected = first_seen_by_byte_strings(np.frombuffer(block, dtype=np.uint8), starts, lengths, expected_seen)
        lookups = seen.lookups
        got = data._first_seen(block, data._words(block), starts, lengths, seen)
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist()
        assert list(seen.items()) == list(expected_seen.items())
        # equal cells share one key whatever bytes follow them
        assert seen.lookups - lookups == len({block[s : s + n] for s, n in zip(starts, lengths)})


def test_columnar_peak_memory_is_at_most_the_row_parsers(tmp_path):
    dataset, _ = planted_rule_data(100_000, seed=0)
    path = str(tmp_path / "tall.csv")
    write_csv(dataset, path)
    peaks = []
    for loader in (load_csv_by_rows, load_csv):
        tracemalloc.start()
        try:
            loader(path, dataset.schema.copy())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert data._load_columns(path, dataset.schema.copy()) is not None
    assert peaks[1] <= peaks[0]


# every character csv.writer quotes, and some it writes as they are
WRITER_CHARS = [",", '"', "\r", "\n", " ", "\t", "a", "Z", "1", "\u00e9", "\u65e5", "\U0001f600"]
WRITER_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-05, 0.1, -2.5, 1 / 3, 1e300, 123456789.0]


@st.composite
def writable_datasets(draw):
    """A Dataset write_csv accepts: finite floats (some in int64 arrays)
    and non-empty categorical values that need every kind of quoting."""
    rows = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, CATEGORICAL, "int64"]), min_size=1, max_size=4))
    columns, arrays = [], {}
    for j, kind in enumerate(kinds):
        name = draw(st.sampled_from(["X", "a,b", 'q"', "\u00e9 t"])) + str(j)
        if kind == CATEGORICAL:
            value = st.text(st.sampled_from(WRITER_CHARS), min_size=1, max_size=4)
            values = draw(st.lists(value, min_size=1, max_size=5, unique=True))
            columns.append(Column(name, CATEGORICAL, values))
            cells = st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows)
            arrays[name] = np.asarray(draw(cells), dtype=np.int64)
        elif kind == "int64":
            columns.append(Column(name, CONTINUOUS, []))
            cells = st.lists(st.integers(-(2**53), 2**53), min_size=rows, max_size=rows)
            arrays[name] = np.asarray(draw(cells), dtype=np.int64)
        else:
            columns.append(Column(name, CONTINUOUS, []))
            number = st.one_of(st.sampled_from(WRITER_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
            arrays[name] = np.asarray(draw(st.lists(number, min_size=rows, max_size=rows)), dtype=np.float64)
    return Dataset(Schema(columns), arrays)


@pytest.mark.parametrize("block", [None, 3], ids=["one block", "3-row blocks"])
@given(dataset=writable_datasets())
def test_write_csv_writes_the_row_writers_bytes(tmp_path_factory, block, dataset):
    directory = tmp_path_factory.mktemp("written")
    write_csv_by_rows(dataset, str(directory / "rows.csv"))
    with mock.patch.object(data, "_WRITE_ROWS", block or data._WRITE_ROWS):
        write_csv(dataset, str(directory / "d.csv"))
    assert (directory / "d.csv").read_bytes() == (directory / "rows.csv").read_bytes()
    again = load_csv(str(directory / "d.csv"), dataset.schema.copy())
    for col in dataset.schema.columns:
        dtype = np.float64 if col.kind == CONTINUOUS else np.int64
        assert again.column(col.name).tobytes() == np.asarray(dataset.column(col.name), dtype=dtype).tobytes()


class TestWriteCsv:
    def test_dialect(self, tmp_path):
        schema = Schema([Column("X1", CONTINUOUS, []), Column("U 1", CATEGORICAL, ["a,b", 'say "hi"', "x\ny", "plain"])])
        dataset = Dataset(schema, {"X1": np.array([-0.0, 1e16, 1e-05, 2.0]), "U 1": np.array([0, 1, 2, 3])})
        path = tmp_path / "d.csv"
        write_csv(dataset, str(path))
        assert path.read_bytes() == (
            b'X1,U 1\r\n-0.0,"a,b"\r\n1e+16,"say ""hi"""\r\n1e-05,"x\ny"\r\n2.0,plain\r\n'
        )

    def test_an_unquoted_file_takes_the_columnar_reader(self, tmp_path):
        dataset, _ = planted_rule_data(500, seed=3)
        path = str(tmp_path / "d.csv")
        write_csv(dataset, path)
        assert data._load_columns(path, dataset.schema.copy()) is not None

    def test_an_empty_table_is_its_header(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(make_dataset(cont={"X1": []}, cat={"U1": []}), str(path))
        assert path.read_bytes() == b"X1,U1\r\n"

    def test_an_unused_empty_value_is_not_written(self, tmp_path):
        schema = Schema([Column("U1", CATEGORICAL, ["", "a"])])
        path = tmp_path / "d.csv"
        write_csv(Dataset(schema, {"U1": np.array([1, 1])}), str(path))
        assert path.read_bytes() == b"U1\r\na\r\na\r\n"

    @pytest.mark.parametrize(
        "dataset,message",
        [
            (
                lambda: Dataset.from_columns(make_schema(cont=("X1",), cat=("U1",)), {"X1": [1.0, 2.0], "U1": ["", "a"]}),
                "column 'U1': cannot write an empty value",
            ),
            (
                lambda: Dataset(make_schema(cont=("X1",)), {"X1": np.array([1.0, np.nan])}),
                "column 'X1': cannot write non-finite value nan",
            ),
            (
                lambda: Dataset(make_schema(cont=("X1", "X2")), {"X1": np.array([1.0, 2.0]), "X2": np.array([0.0, -np.inf])}),
                "column 'X2': cannot write non-finite value -inf",
            ),
        ],
        ids=["empty categorical value", "nan", "-inf"],
    )
    def test_a_value_load_csv_refuses_is_not_written(self, tmp_path, dataset, message):
        path = tmp_path / "d.csv"
        with pytest.raises(DataError) as exc:
            write_csv(dataset(), str(path))
        assert str(exc.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("codes,bad", [([3], 3), ([-1], -1), ([0, 2, -1], 2)], ids=["3", "-1", "first bad row"])
    def test_a_code_with_no_value_writes_no_file(self, tmp_path, codes, bad):
        schema = Schema([Column("X1", CONTINUOUS, []), Column("U1", CATEGORICAL, ["a", "b"])])
        dataset = Dataset(schema, {"X1": np.zeros(len(codes)), "U1": np.asarray(codes, dtype=np.int64)})
        path = tmp_path / "d.csv"
        with pytest.raises(DataError) as exc:
            write_csv(dataset, str(path))
        assert str(exc.value) == f"column 'U1': no value with code {bad}"
        assert not path.exists()

    @pytest.mark.parametrize(
        "table,digest",
        [
            (lambda: planted_rule_data(2000, 7)[0], "cc523cdf41ce763914f152623bc8227319dc9b425e659907a44a17497bd69de2"),
            (lambda: planted_rule_data(1000, 11, 0.05)[0], "226abd2d74836e6413845cbdc470c19ec475ac9baa9bc3381933668130c23d1b"),
            (lambda: random_mixed_dataset(3000, 12, 8, 0), "79f5a2438b5b64b5deba97eec298961ca7d56a594c7ba99dc71c30441851b1ab"),
        ],
        ids=["planted_rule_data(2000, 7)", "planted_rule_data(1000, 11, 0.05)", "random_mixed_dataset(3000, 12, 8, 0)"],
    )
    def test_generated_tables_keep_their_bytes(self, tmp_path, table, digest):
        path = tmp_path / "d.csv"
        write_csv(table(), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestColumnStats:
    def test_constant_column(self):
        stats = compute_column_stats(make_dataset(cont={"X1": [1.0, 1.0, 1.0]}))
        s = stats.continuous["X1"]
        assert (s.mean, s.std, s.minimum, s.maximum) == (1.0, 0.0, 1.0, 1.0)

    def test_two_point_column_uses_population_std(self):
        stats = compute_column_stats(make_dataset(cont={"X1": [0.0, 10.0]}))
        s = stats.continuous["X1"]
        assert (s.mean, s.std, s.minimum, s.maximum) == (5.0, 5.0, 0.0, 10.0)

    @pytest.mark.parametrize(
        "low, high, mean, std",
        [
            (1.7e308, 1.7000000000000001e308, 1.7000000000000001e308, 1.334578589881209e292),
            (-1.7e308, 1.7e308, 0.0, 1.7e308),
        ],
        ids=["sum-overflows", "squares-overflow"],
    )
    def test_columns_near_the_float_maximum_stay_finite(self, low, high, mean, std):
        with np.errstate(all="raise"):
            stats = compute_column_stats(make_dataset(cont={"X1": [low, high] * 10}))
        s = stats.continuous["X1"]
        assert (s.mean, s.std, s.minimum, s.maximum) == (mean, std, low, high)

    def test_seen_values(self):
        stats = compute_column_stats(make_dataset(cat={"U1": ["a", "a", "b"]}))
        assert stats.categorical["U1"] == ["a", "b"]

    def test_seen_values_are_in_code_order_without_unused_ones(self):
        schema = make_schema(cat=("U1",))
        for value in ("w", "x", "y", "z"):
            schema.intern("U1", value)
        dataset = Dataset(schema, {"U1": np.array([3, 1, 3, 1, 3], dtype=np.int64)})
        assert compute_column_stats(dataset).categorical["U1"] == ["x", "z"]

    @pytest.mark.parametrize("codes, bad", [([0, 5, 2, 7], 2), ([1, -1, 9, -3], -3)], ids=["too large", "negative"])
    def test_a_code_with_no_value_is_a_data_error(self, codes, bad):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        schema.intern("U1", "b")
        dataset = Dataset(schema, {"U1": np.array(codes, dtype=np.int64)})
        with pytest.raises(DataError) as exc:
            compute_column_stats(dataset)
        assert str(exc.value) == f"column 'U1': no value with code {bad}"

    def test_empty_dataset_rejected(self):
        dataset = make_dataset(cont={"X1": []})
        with pytest.raises(DataError, match="empty"):
            compute_column_stats(dataset)


class TestSupport:
    def test_empty_predicate_set(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0]})
        assert support(dataset, []) == 1.0

    def test_one_of_four_rows(self):
        dataset = make_dataset(
            cont={"X1": [1.0, 6.0, 6.0, 9.0]},
            cat={"U1": ["a", "a", "b", "b"]},
        )
        preds = [Interval("X1", 5.0, 8.0), CategoricalEquals("U1", 0)]
        assert support(dataset, preds) == 0.25

    def test_false_everywhere(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0]})
        assert support(dataset, [Interval("X1", 100.0, 200.0)]) == 0.0

    def test_unknown_column_rejected(self):
        dataset = make_dataset(cont={"X1": [1.0]})
        with pytest.raises(DataError, match="unknown column"):
            support(dataset, [Interval("X9", 0.0, 1.0)])

    def test_empty_dataset_rejected(self):
        dataset = make_dataset(cont={"X1": []})
        with pytest.raises(DataError, match="undefined"):
            support(dataset, [])


@st.composite
def dataset_and_predicates(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    grid = [-2.0, -0.5, 0.0, 1.0, 3.5]
    x = draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n))
    u = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    dataset = make_dataset(cont={"X1": x}, cat={"U1": u})
    bounds = sorted(grid) + [float("inf")]
    preds = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(bounds) - 2))
            j = draw(st.integers(min_value=i + 1, max_value=len(bounds) - 1))
            preds.append(Interval("X1", bounds[i], bounds[j]))
        else:
            code = dataset.schema.code_for("U1", draw(st.sampled_from(["a", "b", "c"])))
            if code is None:
                code = 0
            preds.append(CategoricalEquals("U1", code))
    return dataset, preds


@given(dataset_and_predicates())
def test_support_is_anti_monotone(case):
    dataset, preds = case
    for k in range(len(preds)):
        assert support(dataset, preds) <= support(dataset, preds[:k])


@given(dataset_and_predicates(), st.randoms(use_true_random=False))
def test_support_is_permutation_invariant(case, rnd):
    dataset, preds = case
    order = list(range(dataset.row_count))
    rnd.shuffle(order)
    shuffled = dataset.take(order)
    assert support(shuffled, preds) == support(dataset, preds)


class TestRowsAndPoints:
    def test_row_out_of_range(self):
        dataset = make_dataset(cont={"X1": [1.0]})
        with pytest.raises(DataError, match="out of range"):
            dataset.row(1)

    def test_point_unknown_column(self):
        dataset = make_dataset(cont={"X1": [1.0]})
        with pytest.raises(DataError, match="unknown column"):
            dataset.row(0)["X9"]

    def test_take_keeps_schema_and_order(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0, 3.0]})
        subset = dataset.take([2, 0])
        assert subset.column("X1").tolist() == [3.0, 1.0]
        assert subset.schema is dataset.schema


class TestFromColumns:
    @pytest.mark.parametrize(
        "columns",
        [
            {"U1": ["a", "b"], "X1": [1.0, float("nan")], "U2": ["c", "d"]},
            {"U1": ["a", "b"], "X1": [1.0, 2.0], "U2": ["c"]},
        ],
        ids=["non-finite value", "unequal lengths"],
    )
    def test_failed_build_leaves_the_schema_unchanged(self, columns):
        schema = Schema(
            [Column("U1", CATEGORICAL, ["b"]), Column("X1", CONTINUOUS, []), Column("U2", CATEGORICAL, [])]
        )
        before = schema.to_dict()
        with pytest.raises(DataError):
            Dataset.from_columns(schema, columns)
        assert schema.to_dict() == before
        assert schema.column("U1").values == ["b"]

    def test_new_values_get_first_seen_codes_after_the_known_ones(self):
        schema = Schema([Column("U1", CATEGORICAL, ["b"]), Column("X1", CONTINUOUS, [])])
        dataset = Dataset.from_columns(schema, {"U1": ["c", "b", "a", "c"], "X1": [1.0, 2.0, 3.0, 4.0]})
        assert dataset.column("U1").tolist() == [1, 0, 2, 1]
        assert schema.column("U1").values == ["b", "c", "a"]


class TestLabels:
    def test_parse_with_blank_lines(self, tmp_path):
        path = write_text(tmp_path / "labels.txt", "0\n1\n\n0\n")
        assert load_labels(path).tolist() == [0, 1, 0]

    def test_bad_token_cites_line(self, tmp_path):
        path = write_text(tmp_path / "labels.txt", "0\ntwo\n")
        with pytest.raises(DataError, match="line 1"):
            load_labels(path)

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "labels.txt", "\n\n")
        with pytest.raises(DataError, match="no labels"):
            load_labels(path)

    def test_a_byte_that_is_not_utf8_is_named_with_the_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_bytes(b"0\r\n1\r\n\xff\r\n")
        with pytest.raises(DataError) as exc:
            load_labels(str(path))
        assert str(exc.value) == f"{path}: not UTF-8: byte 0xff at offset 6 (invalid start byte)"

    def test_line_numbers_count_every_line_end(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_bytes(b"0\r1\r\n\n2\n")
        with pytest.raises(DataError, match="line 3: label must be 0 or 1, got '2'"):
            load_labels(str(path))


def test_format_number_integral_values_drop_the_point():
    assert format_number(5.0) == "5"
    assert format_number(-3.0) == "-3"
    assert format_number(0.0) == "0"


def test_format_number_fractional_values_round_trip():
    for v in (7.1, 0.1, -2.75, 1 / 3):
        assert float(format_number(v)) == v
