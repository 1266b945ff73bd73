"""Predicate forms, canonical rendering, and catalog generation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarmine.data import CATEGORICAL, CONTINUOUS, Column, ColumnStats, DataError, Dataset, Schema
from invarmine.detect import DetectionConfig, detect, score_dataset, score_point
from invarmine.mining import InvariantRule, RuleSet
from invarmine.predicates import (
    CategoricalDisjunction,
    CategoricalEquals,
    CompiledRules,
    Interval,
    Membership,
    Range,
    gen_categorical_predicates,
    gen_continuous_predicates,
)

from helpers import make_dataset, support
from oracles import holds_by_row, iter_rows, reports_by_row_loop, score_by_row, support_by_rows

INF = float("inf")


def schema_with(values_by_column):
    width = max(len(vs) for vs in values_by_column.values())
    padded = {c: list(vs) + [vs[-1]] * (width - len(vs)) for c, vs in values_by_column.items()}
    return make_dataset(cat=padded).schema


class TestRendering:
    def test_canonical_strings(self):
        schema = schema_with({"U1": ["0"], "U2": ["x", "1"], "U3": ["y", "q", "2"]})
        cases = [
            (Interval("X3", -INF, 7.1), "X3 < 7.1"),
            (Interval("X1", 5.0, 10.0), "5 <= X1 < 10"),
            (Interval("X1", 5.0, INF), "X1 >= 5"),
            (CategoricalEquals("U1", 0), "U1 = 0"),
            (CategoricalDisjunction((("U2", 1), ("U3", 2))), "U2 = 1 | U3 = 2"),
            (Range("X2", -3.0, 3.0), "-3 <= X2 <= 3"),
        ]
        for predicate, text in cases:
            assert predicate.render(schema) == text

    def test_membership_renders_sorted_values(self):
        schema = schema_with({"U1": ["b", "a"]})
        assert Membership("U1", frozenset({0, 1})).render(schema) == "U1 in {a,b}"


class TestEvaluation:
    def test_interval_is_half_open(self):
        dataset = make_dataset(cont={"X1": [7.0, 10.0, 5.0, 4.9]})
        p = Interval("X1", 5.0, 10.0)
        mask = [True, False, True, False]
        assert p.mask(dataset).tolist() == mask
        rule = InvariantRule((), (p,), 1.0)
        assert [CompiledRules([rule]).score({"X1": v}) == 0.0 for v in (7.0, 10.0, 5.0, 4.9)] == mask

    def test_range_is_closed(self):
        dataset = make_dataset(cont={"X1": [-3.0, 3.0, 3.1]})
        assert Range("X1", -3.0, 3.0).mask(dataset).tolist() == [True, True, False]

    def test_membership_rejects_unseen_value(self):
        dataset = make_dataset(cat={"U1": ["a", "b", "z"]})
        seen_in_training = Membership("U1", frozenset({0, 1}))
        assert seen_in_training.mask(dataset).tolist() == [True, True, False]

    def test_disjunction_spans_columns(self):
        dataset = make_dataset(cat={"U1": ["a", "b"], "U2": ["x", "x"]})
        p = CategoricalDisjunction((("U1", 0), ("U2", 0)))
        assert p.mask(dataset).tolist() == [True, True]
        assert p.columns() == ("U1", "U2")

    def test_invalid_shapes_rejected(self):
        with pytest.raises(DataError, match="empty interval"):
            Interval("X1", 5.0, 5.0)
        with pytest.raises(DataError, match="empty range"):
            Range("X1", 3.0, -3.0)
        with pytest.raises(DataError, match="at least two"):
            CategoricalDisjunction((("U1", 0),))
        with pytest.raises(DataError, match="duplicate"):
            CategoricalDisjunction((("U1", 0), ("U1", 0)))
        with pytest.raises(DataError, match="empty"):
            Membership("U1", frozenset())


# interval and range ends: both infinities and both zeros among them
BOUNDS = [-INF, -1.25, -0.0, 0.0, 0.75, 2.0, INF]
# row values: every bound and the floats next to it on both sides (the
# one just below an upper end is the last value an interval keeps; next
# to the infinities are the extreme finite floats), and NaN.  Both zeros
# stay: they are told apart by repr, not by ==.
EDGES = [float(v) for b in BOUNDS for v in (b, np.nextafter(b, -INF), np.nextafter(b, INF))]
VALUES = list({repr(v): v for v in EDGES}.values()) + [float("nan")]
CODES = [0, 1, 2, 3]  # each categorical column's schema values; -1 is unseen


@st.composite
def any_predicate(draw):
    kind = draw(st.sampled_from(["interval", "range", "equals", "membership", "disjunction"]))
    if kind == "interval":
        return Interval("X1", *draw(st.sampled_from([(a, b) for a in BOUNDS for b in BOUNDS if a < b])))
    if kind == "range":
        return Range("X1", *draw(st.sampled_from([(a, b) for a in BOUNDS for b in BOUNDS if a <= b])))
    column = draw(st.sampled_from(["U1", "U2"]))
    if kind == "equals":
        return CategoricalEquals(column, draw(st.sampled_from(CODES)))
    if kind == "membership":
        return Membership(column, frozenset(draw(st.sets(st.sampled_from(CODES), min_size=1))))
    branches = st.tuples(st.sampled_from(["U1", "U2"]), st.sampled_from(CODES))
    return CategoricalDisjunction(tuple(draw(st.lists(branches, min_size=2, max_size=5, unique=True))))


@st.composite
def rules_and_rows(draw):
    """A ruleset over X1, U1 and U2 with rules of every predicate kind,
    a table of edge values and unseen codes, and rule ids to ignore."""
    schema = Schema([
        Column("X1", CONTINUOUS, []),
        Column("U1", CATEGORICAL, ["a", "b", "c", "d"]),
        Column("U2", CATEGORICAL, ["p", "q", "r", "s"]),
    ])
    predicates = draw(st.lists(any_predicate(), min_size=1, max_size=6, unique=True))
    rules = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        picked = draw(st.permutations(predicates))
        cut = draw(st.integers(min_value=0, max_value=len(picked) - 1))
        end = draw(st.integers(min_value=cut + 1, max_value=len(picked)))
        support = draw(st.sampled_from([0.1, 0.25, 0.3, 0.7, 1.0]))
        rules.append(InvariantRule(tuple(picked[:cut]), tuple(picked[cut:end]), support))
    n = draw(st.integers(min_value=1, max_value=20))
    codes = st.lists(st.sampled_from([-1] + CODES), min_size=n, max_size=n)
    dataset = Dataset(schema, {
        "X1": np.array(draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)), dtype=np.float64),
        "U1": np.array(draw(codes), dtype=np.int64),
        "U2": np.array(draw(codes), dtype=np.int64),
    })
    ruleset = RuleSet(
        schema=schema,
        stats=ColumnStats({}, {}),
        theta=0.1,
        gamma=0.0,
        max_set_size=6,
        supports={},
        rules=rules,
    )
    ignore = frozenset(draw(st.sets(st.integers(min_value=0, max_value=len(rules) - 1))))
    return ruleset, dataset, ignore


@settings(max_examples=400)  # enough to meet each kind at each edge value
@given(rules_and_rows())
def test_compiled_point_and_batch_paths_agree_with_the_reference(case):
    ruleset, dataset, ignore = case
    compiled = ruleset.compiled.predicates
    kept = dataclasses.replace(ruleset, rules=[r for rid, r in enumerate(ruleset.rules) if rid not in ignore])
    batch = score_dataset(kept, dataset)
    for i, point in enumerate(iter_rows(dataset)):
        reference = [holds_by_row(p, point) for p in compiled.predicates]
        assert [bool(compiled.mask(k, dataset)[i]) for k in range(len(reference))] == reference
        assert [bool(p.mask(dataset)[i]) for p in compiled.predicates] == reference
        expected = score_by_row(ruleset, point, ignore)
        assert score_point(kept, point) == expected
        assert batch[i] == expected
    config = DetectionConfig(ignore_rules=ignore)
    reports = detect(ruleset, dataset, config)
    assert list(reports) == reports_by_row_loop(ruleset, dataset, config)
    # the CSR layout: ascending rows, each with a non-empty run of ascending rule ids
    hit, starts, ids = reports.hit.tolist(), reports.starts.tolist(), reports.ids.tolist()
    assert all(a < b for a, b in zip(hit, hit[1:]))
    assert len(starts) == len(hit) + 1 and starts[0] == 0 and starts[-1] == len(ids)
    for lo, hi in zip(starts, starts[1:]):
        rule_ids = [reports.violations[k].rule_id for k in ids[lo:hi]]
        assert rule_ids and all(a < b for a, b in zip(rule_ids, rule_ids[1:]))


class TestCategoricalGeneration:
    def test_two_common_values(self):
        dataset = make_dataset(cat={"U1": ["a"] * 60 + ["b"] * 40})
        catalog = gen_categorical_predicates(dataset, theta=0.2)
        assert catalog.pairs() == [
            (CategoricalEquals("U1", 0), 0.6),
            (CategoricalEquals("U1", 1), 0.4),
        ]

    def test_rare_pool_needs_strictly_more_than_theta(self):
        values = ["a"] * 50 + ["b"] * 30 + ["c"] * 12 + ["d"] * 8
        dataset = make_dataset(cat={"U1": values})

        catalog = gen_categorical_predicates(dataset, theta=0.2)
        assert [type(p) for p in catalog.predicates] == [CategoricalEquals] * 2
        assert catalog.supports == [0.5, 0.3]  # (c|d) support 0.20 is not > 0.20

        catalog = gen_categorical_predicates(dataset, theta=0.15)
        assert catalog.predicates[2] == CategoricalDisjunction((("U1", 2), ("U1", 3)))
        assert catalog.supports[2] == 0.2

    def test_all_common_leaves_no_leftovers(self):
        dataset = make_dataset(cat={"U1": ["a", "b", "a", "b"]})
        catalog = gen_categorical_predicates(dataset, theta=0.3)
        assert all(isinstance(p, CategoricalEquals) for p in catalog.predicates)

    def test_weak_total_yields_nothing_from_the_residue(self):
        values = ["a"] * 90 + ["b"] * 6 + ["c"] * 4
        dataset = make_dataset(cat={"U1": values})
        catalog = gen_categorical_predicates(dataset, theta=0.2)
        assert catalog.predicates == [CategoricalEquals("U1", 0)]

    def test_single_leftover_is_dropped(self):
        dataset = make_dataset(cat={"U1": ["a"] * 85 + ["b"] * 15})
        catalog = gen_categorical_predicates(dataset, theta=0.2)
        assert catalog.predicates == [CategoricalEquals("U1", 0)]

    def test_pool_resets_when_tail_can_stand_alone(self):
        # four rare values, each 10 percent: pools (b|c) and (d|e)
        values = ["a"] * 60 + ["b"] * 10 + ["c"] * 10 + ["d"] * 10 + ["e"] * 10
        dataset = make_dataset(cat={"U1": values})
        catalog = gen_categorical_predicates(dataset, theta=0.15)
        assert catalog.predicates == [
            CategoricalEquals("U1", 0),
            CategoricalDisjunction((("U1", 1), ("U1", 2))),
            CategoricalDisjunction((("U1", 3), ("U1", 4))),
        ]
        assert catalog.supports == [0.6, 0.2, 0.2]

    def test_weak_tail_merges_into_the_last_pool(self):
        # (b|c) clears 0.15 but the leftover d (0.06) cannot, so it merges
        values = ["a"] * 74 + ["b"] * 10 + ["c"] * 10 + ["d"] * 6
        dataset = make_dataset(cat={"U1": values})
        catalog = gen_categorical_predicates(dataset, theta=0.15)
        assert catalog.predicates == [
            CategoricalEquals("U1", 0),
            CategoricalDisjunction((("U1", 1), ("U1", 2), ("U1", 3))),
        ]
        assert catalog.supports == [0.74, 0.26]

    def test_schema_value_without_training_rows_is_skipped(self):
        # the schema lists c, but no row of the table holds it: c is neither
        # an equality predicate nor a branch of the rare pool
        values = ["a"] * 80 + ["b"] * 10 + ["c"] * 5 + ["d"] * 10
        full = make_dataset(cat={"U1": values})
        dataset = full.take([i for i, v in enumerate(values) if v != "c"])
        assert dataset.schema.value_of("U1", 2) == "c"
        catalog = gen_categorical_predicates(dataset, theta=0.15)
        assert catalog.pairs() == [
            (CategoricalEquals("U1", 0), 0.8),
            (CategoricalDisjunction((("U1", 1), ("U1", 3))), 0.2),
        ]

    def test_pools_can_span_columns_with_mask_based_support(self):
        # U1=b and U2=y are rare and overlap on one row; the pool's support
        # must count that row once (0.3, not 0.4)
        u1 = ["a"] * 8 + ["b", "b"]
        u2 = ["x"] * 7 + ["y", "y", "x"]
        dataset = make_dataset(cat={"U1": u1, "U2": u2})
        catalog = gen_categorical_predicates(dataset, theta=0.25)
        pools = [p for p in catalog.predicates if isinstance(p, CategoricalDisjunction)]
        assert pools == [CategoricalDisjunction((("U1", 1), ("U2", 1)))]
        assert support(dataset, pools) == 0.3
        emitted = dict(catalog.pairs())
        assert emitted[pools[0]] == 0.3


class TestContinuousGeneration:
    def test_single_cutoff_even_mass(self):
        dataset = make_dataset(cont={"X1": [4.0] * 5 + [6.0] * 5})
        catalog = gen_continuous_predicates(dataset, {"X1": [5.0]}, theta=0.2)
        assert catalog.pairs() == [
            (Interval("X1", -INF, 5.0), 0.5),
            (Interval("X1", 5.0, INF), 0.5),
        ]

    def test_quarter_mass_in_each_of_four_bins(self):
        values = [1.0] * 5 + [3.0] * 5 + [5.0] * 5 + [7.0] * 5
        dataset = make_dataset(cont={"X1": values})
        catalog = gen_continuous_predicates(dataset, {"X1": [2.0, 4.0, 6.0]}, theta=0.2)
        assert catalog.pairs() == [
            (Interval("X1", -INF, 2.0), 0.25),
            (Interval("X1", 2.0, 4.0), 0.25),
            (Interval("X1", 4.0, 6.0), 0.25),
            (Interval("X1", 6.0, INF), 0.25),
        ]

    def test_never_anchored_emits_nothing(self):
        dataset = make_dataset(cont={"X1": [4.0] * 5 + [6.0] * 5})
        catalog = gen_continuous_predicates(dataset, {"X1": [5.0]}, theta=0.6)
        assert catalog.pairs() == []

    def test_weak_final_tail_is_suppressed(self):
        values = [1.0] * 82 + [9.0] * 18
        dataset = make_dataset(cont={"X1": values})
        catalog = gen_continuous_predicates(dataset, {"X1": [5.0]}, theta=0.2)
        assert catalog.pairs() == [(Interval("X1", -INF, 5.0), 0.82)]

    def test_tail_emitted_after_loop_spans_skipped_bins(self):
        # bins after the anchor are each too small, but the whole tail clears
        values = [1.0] * 40 + [6.0] * 25 + [9.0] * 35
        dataset = make_dataset(cont={"X1": values})
        catalog = gen_continuous_predicates(dataset, {"X1": [5.0, 8.0]}, theta=0.3)
        assert catalog.pairs() == [
            (Interval("X1", -INF, 5.0), 0.4),
            (Interval("X1", 5.0, INF), 0.6),
        ]

    def test_weak_tail_widens_the_last_bin(self):
        # [2, 6) clears theta but [6, inf) cannot, so the bin widens to [2, inf)
        values = [1.0] * 30 + [4.0] * 50 + [9.0] * 20
        dataset = make_dataset(cont={"X1": values})
        catalog = gen_continuous_predicates(dataset, {"X1": [2.0, 6.0]}, theta=0.25)
        assert catalog.pairs() == [
            (Interval("X1", -INF, 2.0), 0.3),
            (Interval("X1", 2.0, INF), 0.7),
        ]

    def test_columns_without_cutoffs_are_skipped(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0], "X2": [1.0, 2.0]})
        catalog = gen_continuous_predicates(dataset, {"X2": [1.5]}, theta=0.3)
        assert all(p.column == "X2" for p in catalog.predicates)


@st.composite
def generation_case(draw):
    n = 40
    cont_grid = [0.0, 2.0, 4.0, 6.0, 8.0]
    x = draw(st.lists(st.sampled_from(cont_grid), min_size=n, max_size=n))
    u = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.sampled_from([1.0, 3.0, 5.0, 7.0]), min_size=1)))
    theta = draw(st.sampled_from([0.1, 0.2, 0.3, 0.45]))
    dataset = make_dataset(cont={"X1": x}, cat={"U1": u})
    return dataset, cuts, theta


@given(generation_case())
def test_every_emitted_predicate_clears_theta(case):
    dataset, cuts, theta = case
    catalog = gen_categorical_predicates(dataset, theta)
    catalog2 = gen_continuous_predicates(dataset, {"X1": cuts}, theta)
    for p, cached in catalog.pairs() + catalog2.pairs():
        true_support = support_by_rows(dataset, [p])
        assert cached == true_support
        assert true_support > theta


@given(generation_case())
def test_interval_predicates_are_disjoint_per_column(case):
    dataset, cuts, theta = case
    catalog = gen_continuous_predicates(dataset, {"X1": cuts}, theta)
    intervals = [p for p in catalog.predicates if isinstance(p, Interval)]
    for i, a in enumerate(intervals):
        for b in intervals[i + 1 :]:
            assert not np.any(a.mask(dataset) & b.mask(dataset))


@given(generation_case())
def test_same_column_categorical_predicates_are_disjoint(case):
    dataset, _, theta = case
    catalog = gen_categorical_predicates(dataset, theta)
    same_column = [p for p in catalog.predicates if p.columns() == ("U1",)]
    for i, a in enumerate(same_column):
        for b in same_column[i + 1 :]:
            assert not np.any(a.mask(dataset) & b.mask(dataset))


@given(generation_case())
def test_leftover_coverage_when_the_pool_total_clears_theta(case):
    dataset, _, theta = case
    n = dataset.row_count
    arr = dataset.column("U1")
    leftovers = []
    union = np.zeros(n, dtype=bool)
    for code in range(len(dataset.schema.column("U1").values)):
        hit = arr == code
        count = int(hit.sum())
        if count and not count / n > theta:
            leftovers.append(("U1", code))
            union |= hit
    catalog = gen_categorical_predicates(dataset, theta)
    pools = [p for p in catalog.predicates if isinstance(p, CategoricalDisjunction)]
    placements = {item: sum(item in p.items for p in pools) for item in leftovers}
    if int(union.sum()) / n > theta:
        assert all(count == 1 for count in placements.values())
    else:
        assert all(count <= 1 for count in placements.values())
