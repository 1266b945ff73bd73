"""Schema handling, CSV ingestion, column statistics, and support."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

from helpers import make_dataset, make_schema, write_text


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
