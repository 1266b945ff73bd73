"""Schema handling, CSV ingestion, column statistics, and support."""

import csv
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
    load_schema,
    save_schema,
    support,
    write_csv,
)
from invarmine.predicates import CategoricalEquals, Interval
from invarmine.synth import planted_rule_data

from helpers import make_dataset, make_schema, write_text
from oracles import load_csv_by_rows


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
    "empty extra cell": (b"X1,U1,X2,U2,Z\n1,a,2,b,\n", False),
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


# without a continuous column no loadtxt call sees the file
CATEGORICAL_CASES = {
    "CRLF": (b"U1,U2\r\na,b\r\nc,d\r\n", True),
    "lone CR": (b"U1,U2\na\rb,c\n", False),
    "trailing NUL": (b"U1,U2\na\x00,b\n", False),
    "blank line": (b"U1,U2\na,b\n\nc,d\n", False),
}


def _categorical_schema():
    schema = make_schema(cat=("U1", "U2"))
    schema.intern("U2", "d")
    return schema


@pytest.mark.parametrize("block", [None, 16], ids=["one block", "16-byte blocks"])
@pytest.mark.parametrize(
    "content,columnar,schema",
    [(*case, _schema_with_values) for case in LOADER_CASES.values()]
    + [(*case, _categorical_schema) for case in CATEGORICAL_CASES.values()],
    ids=list(LOADER_CASES) + [f"categorical only, {name}" for name in CATEGORICAL_CASES],
)
def test_loader_case_reads_like_the_row_parser(tmp_path, content, columnar, schema, block):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with mock.patch.object(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES):
        assert assert_reads_like_the_row_parser(str(path), schema()) == columnar


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


class TestColumnStats:
    def test_constant_column(self):
        stats = compute_column_stats(make_dataset(cont={"X1": [1.0, 1.0, 1.0]}))
        s = stats.continuous["X1"]
        assert (s.mean, s.std, s.minimum, s.maximum) == (1.0, 0.0, 1.0, 1.0)

    def test_two_point_column_uses_population_std(self):
        stats = compute_column_stats(make_dataset(cont={"X1": [0.0, 10.0]}))
        s = stats.continuous["X1"]
        assert (s.mean, s.std, s.minimum, s.maximum) == (5.0, 5.0, 0.0, 10.0)

    def test_seen_values(self):
        stats = compute_column_stats(make_dataset(cat={"U1": ["a", "a", "b"]}))
        assert stats.categorical["U1"] == ["a", "b"]

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


def test_format_number_integral_values_drop_the_point():
    assert format_number(5.0) == "5"
    assert format_number(-3.0) == "-3"
    assert format_number(0.0) == "0"


def test_format_number_fractional_values_round_trip():
    for v in (7.1, 0.1, -2.75, 1 / 3):
        assert float(format_number(v)) == v
