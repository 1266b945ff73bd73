"""Frequent-set mining, closedness, rule generation, and rule files."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invarmine import mining
from invarmine.data import (
    CATEGORICAL,
    Column,
    ColumnStats,
    ContinuousStats,
    DataError,
    Dataset,
    Schema,
)
from invarmine.mining import (
    BOUNDARY,
    MINED,
    FrequentSet,
    InvariantRule,
    MiningConfig,
    MiningError,
    RuleSet,
    boundary_rules,
    count_sets,
    filter_closed,
    generate_rules,
    load_ruleset,
    mine_frequent_sets,
    save_ruleset,
)
from invarmine.pipeline import train_ruleset
from invarmine.predicates import (
    CategoricalDisjunction,
    CategoricalEquals,
    Interval,
    Membership,
    PredicateCatalog,
    Range,
)
from invarmine.synth import planted_rule_data, random_mixed_dataset

from helpers import build_catalog, make_dataset, make_schema, mine, random_predicates, support
from oracles import (
    closed_by_full_scan,
    closed_by_universe_probe,
    frequent_sets_by_dfs,
    frequent_sets_by_enumeration,
    rules_by_subset_scan,
)

INF = float("inf")


def indicator_dataset(n, *row_sets):
    """One continuous column per row set; predicate i holds exactly there."""
    cont = {}
    for i, rows in enumerate(row_sets):
        values = [0.0 if r in rows else 5.0 for r in range(n)]
        cont[f"X{i + 1}"] = values
    return make_dataset(cont=cont)


def indicator_predicates(count):
    return [Interval(f"X{i + 1}", -INF, 1.0) for i in range(count)]


def count_table(dataset, catalog):
    """count_sets' table at theta 0.1 for hand-built closed sets."""
    return count_sets(dataset, catalog, 0.1, 6)


class TestConfig:
    def test_bounds(self):
        with pytest.raises(MiningError, match="theta"):
            MiningConfig(theta=0.0, gamma=0.5)
        with pytest.raises(MiningError, match="theta"):
            MiningConfig(theta=1.0, gamma=0.5)
        with pytest.raises(MiningError, match="gamma"):
            MiningConfig(theta=0.2, gamma=1.0)
        with pytest.raises(MiningError, match="max_set_size"):
            MiningConfig(theta=0.2, gamma=0.5, max_set_size=1)

    @pytest.mark.parametrize("size", [2.5, True, "3"])
    def test_max_set_size_must_be_an_int(self, size):
        with pytest.raises(MiningError, match="max_set_size must be None or an integer >= 2"):
            MiningConfig(theta=0.2, gamma=0.5, max_set_size=size)

    def test_gamma_zero_and_unbounded_size_are_legal(self):
        cfg = MiningConfig(theta=0.2, gamma=0.0, max_set_size=None)
        assert cfg.gamma == 0.0 and cfg.max_set_size is None


class TestFrequentSets:
    def test_perfectly_correlated_pair(self):
        dataset = indicator_dataset(10, {0, 1, 2, 3}, {0, 1, 2, 3})
        catalog = build_catalog(dataset, indicator_predicates(2))
        found = mine(dataset, catalog, MiningConfig(theta=0.1, gamma=0.5))
        assert found == [FrequentSet((0, 1), 0.4)]
        assert found[0].support == support(dataset, catalog.predicates)

    def test_rare_member_scales_the_floor(self):
        # p1 support 0.15, p2 support 0.9, co-occurrence 0.09
        p1_rows = set(range(15))
        p2_rows = set(range(6, 96))
        dataset = indicator_dataset(100, p1_rows, p2_rows)
        catalog = build_catalog(dataset, indicator_predicates(2))
        assert catalog.supports == [0.15, 0.9]

        strict = mine(dataset, catalog, MiningConfig(theta=0.05, gamma=0.7))
        assert strict == []  # 0.09 is not > max(0.05, 0.7 * 0.15)

        lax = mine(dataset, catalog, MiningConfig(theta=0.05, gamma=0.5))
        assert lax == [FrequentSet((0, 1), 0.09)]

    def test_support_equal_to_theta_is_excluded(self):
        dataset = indicator_dataset(4, {0}, {0})
        catalog = build_catalog(dataset, indicator_predicates(2))
        assert mine(dataset, catalog, MiningConfig(theta=0.25, gamma=0.0)) == []
        found = mine(dataset, catalog, MiningConfig(theta=0.2, gamma=0.0))
        assert found == [FrequentSet((0, 1), 0.25)]

    def test_max_set_size_caps_enumeration(self):
        rows = {0, 1, 2}
        dataset = indicator_dataset(6, rows, rows, rows)
        catalog = build_catalog(dataset, indicator_predicates(3))
        found = mine(dataset, catalog, MiningConfig(theta=0.1, gamma=0.0, max_set_size=2))
        assert {s.ids for s in found} == {(0, 1), (0, 2), (1, 2)}

    def test_output_order_is_canonical(self):
        rows = {0, 1, 2}
        dataset = indicator_dataset(6, rows, rows, rows)
        catalog = build_catalog(dataset, indicator_predicates(3))
        found = mine(dataset, catalog, MiningConfig(theta=0.1, gamma=0.0))
        assert [s.ids for s in found] == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_empty_catalog(self):
        dataset = indicator_dataset(4, {0})
        catalog = PredicateCatalog([])
        assert mine(dataset, catalog, MiningConfig(0.2, 0.5)) == []
        assert frequent_sets_by_enumeration(dataset, catalog, 0.2, 0.5, 6) == {}


class TestBruteForce:
    def test_agrees_with_the_miner_on_a_small_case(self):
        dataset = indicator_dataset(8, {0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5})
        catalog = build_catalog(dataset, indicator_predicates(3))
        mined = mine(dataset, catalog, MiningConfig(theta=0.2, gamma=0.3))
        expected = frequent_sets_by_enumeration(dataset, catalog, 0.2, 0.3, 6)
        assert expected  # the case is not vacuous
        # the enumeration visits sets by size, then lexicographically: the miner's order
        assert [(s.ids, s.support) for s in mined] == list(expected.items())


@st.composite
def dfs_instance(draw):
    """A table wide enough for multi-word packed rows, with a catalog whose
    cached supports are sometimes not the rows' own (the miner must still
    read them exactly as the reference does)."""
    n = draw(st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(5, 260)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    dataset = make_dataset(
        cont={
            "X1": rng.choice([-4.0, -1.0, 0.5, 2.0, 6.0], size=n).tolist(),
            "X2": rng.normal(size=n).tolist(),
        },
        cat={
            "U1": rng.choice(["a", "b", "c", "d"], size=n, p=[0.4, 0.3, 0.2, 0.1]).tolist(),
            "U2": rng.choice(["p", "q"], size=n).tolist(),
        },
    )
    catalog = build_catalog(dataset, random_predicates(dataset, rng, max_preds=14))
    if draw(st.booleans()):
        catalog = PredicateCatalog([(p, float(rng.random())) for p in catalog.predicates])
    theta = draw(st.sampled_from([0.02, 0.05, 0.15, 0.3]))
    gamma = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9]))
    cap = draw(st.sampled_from([2, 3, 6, None]))
    return dataset, catalog, MiningConfig(theta, gamma, cap)


class TestMatchesDfsReference:
    """count_sets then mine_frequent_sets against tests/oracles.py::frequent_sets_by_dfs:
    the same FrequentSet list, supports and order."""

    @given(dfs_instance())
    def test_generated_tables(self, case):
        dataset, catalog, config = case
        assert mine(dataset, catalog, config) == frequent_sets_by_dfs(dataset, catalog, config)

    @pytest.mark.parametrize("n", [64, 128])
    def test_whole_word_row_counts(self, n):
        rng = np.random.default_rng(n)
        dataset = make_dataset(
            cont={"X1": rng.normal(size=n).tolist()}, cat={"U1": rng.choice(["a", "b"], size=n).tolist()}
        )
        catalog = build_catalog(dataset, random_predicates(dataset, rng, max_preds=10))
        config = MiningConfig(0.05, 0.3, None)
        found = mine(dataset, catalog, config)
        assert found  # the case is not vacuous
        assert found == frequent_sets_by_dfs(dataset, catalog, config)

    def test_sets_failing_gamma_are_still_extended(self):
        dataset = random_mixed_dataset(3000, 6, 4, seed=1)
        catalog = train_ruleset(dataset, MiningConfig(0.05, 0.5)).catalog
        config = MiningConfig(0.05, 0.5, 6)
        found = mine(dataset, catalog, config)
        assert found == frequent_sets_by_dfs(dataset, catalog, config)
        # some output set's prefix passed theta (it was extended) but failed gamma
        emitted = {s.ids for s in found}
        assert any(len(s.ids) > 2 and s.ids[:-1] not in emitted for s in found)

    @pytest.mark.parametrize("supports", [[], [0.2, 0.25]], ids=["empty catalog", "no root above theta"])
    def test_nothing_to_mine(self, supports):
        dataset = indicator_dataset(8, {0, 1}, {0, 1, 2, 3, 4})
        catalog = PredicateCatalog(list(zip(indicator_predicates(len(supports)), supports)))
        config = MiningConfig(0.25, 0.0, None)
        assert mine(dataset, catalog, config) == []
        assert frequent_sets_by_dfs(dataset, catalog, config) == []


class TestEnumerationBound:
    def test_past_the_bound_raises(self, monkeypatch):
        dataset = indicator_dataset(10, *[set(range(8))] * 6)
        catalog = build_catalog(dataset, indicator_predicates(6))
        config = MiningConfig(0.1, 0.0, None)
        # every set passes: 6 root checks, then one check per set of size 2..6
        checks = 6 + 2**6 - 6 - 1
        monkeypatch.setattr(mining, "_MAX_CANDIDATE_CHECKS", checks)
        assert len(mine(dataset, catalog, config)) == 2**6 - 6 - 1
        monkeypatch.setattr(mining, "_MAX_CANDIDATE_CHECKS", checks - 1)
        message = f"passed {checks - 1} candidate checks; raise theta .* or lower max_set_size"
        with pytest.raises(MiningError, match=message):
            count_sets(dataset, catalog, config.theta, config.max_set_size)


class TestClosed:
    def test_pair_absorbed_by_equal_support_triple(self):
        sets = [
            FrequentSet((0, 1), 0.4),
            FrequentSet((0, 1, 2), 0.4),
        ]
        assert filter_closed(sets) == [FrequentSet((0, 1, 2), 0.4)]

    def test_distinct_supports_all_retained(self):
        sets = [
            FrequentSet((0, 1), 0.5),
            FrequentSet((0, 2), 0.4),
            FrequentSet((0, 1, 2), 0.3),
        ]
        assert [s.ids for s in filter_closed(sets)] == [(0, 1), (0, 2), (0, 1, 2)]

    def test_equal_support_chain_keeps_only_the_maximum(self):
        sets = [
            FrequentSet((0, 1), 0.4),
            FrequentSet((0, 1, 2), 0.4),
            FrequentSet((0, 1, 2, 3), 0.4),
        ]
        assert [s.ids for s in filter_closed(sets)] == [(0, 1, 2, 3)]


class TestRuleGeneration:
    def test_subset_antecedent_implies_the_rest(self):
        # p1 rows strictly inside p2 rows: sigma(p1) = sigma(pair)
        dataset = indicator_dataset(10, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5})
        catalog = build_catalog(dataset, indicator_predicates(2))
        counts = count_table(dataset, catalog)
        closed = filter_closed(mine_frequent_sets(counts, catalog, MiningConfig(0.1, 0.0), dataset.row_count))
        rules = generate_rules(closed, catalog, counts)
        assert rules == [
            InvariantRule(
                antecedent=(catalog.predicates[0],),
                consequent=(catalog.predicates[1],),
                support=0.4,
                kind=MINED,
            )
        ]

    def test_no_rule_when_neither_side_reaches_full_support(self):
        dataset = indicator_dataset(10, {0, 1, 2, 3, 4, 5}, {2, 3, 4, 5, 6, 7})
        catalog = build_catalog(dataset, indicator_predicates(2))
        closed = [FrequentSet((0, 1), 0.4)]
        assert generate_rules(closed, catalog, count_table(dataset, catalog)) == []

    def test_non_minimal_antecedents_suppressed_in_triples(self):
        dataset = indicator_dataset(10, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6})
        catalog = build_catalog(dataset, indicator_predicates(3))
        closed = [FrequentSet((0, 1, 2), 0.4)]
        rules = generate_rules(closed, catalog, count_table(dataset, catalog))
        assert len(rules) == 1
        assert rules[0].antecedent == (catalog.predicates[0],)
        assert rules[0].consequent == (catalog.predicates[1], catalog.predicates[2])

    def test_two_minimal_antecedents_give_two_rules(self):
        shared = {0, 1, 2, 3}
        dataset = indicator_dataset(10, shared, shared, {0, 1, 2, 3, 4, 5})
        catalog = build_catalog(dataset, indicator_predicates(3))
        closed = [FrequentSet((0, 1, 2), 0.4)]
        rules = generate_rules(closed, catalog, count_table(dataset, catalog))
        assert [r.antecedent for r in rules] == [
            (catalog.predicates[0],),
            (catalog.predicates[1],),
        ]
        assert all(len(r.consequent) == 2 for r in rules)

    def test_the_count_table_gives_the_same_rules(self):
        dataset = indicator_dataset(10, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6})
        catalog = build_catalog(dataset, indicator_predicates(3))
        counts = count_table(dataset, catalog)
        closed = filter_closed(mine_frequent_sets(counts, catalog, MiningConfig(0.1, 0.0), dataset.row_count))
        assert counts == {(0,): 4, (1,): 6, (2,): 7, (0, 1): 4, (0, 2): 4, (1, 2): 6, (0, 1, 2): 4}
        rules = generate_rules(closed, catalog, counts)
        # {1} => {2} from the closed (1, 2), then {0} => {1, 2} from (0, 1, 2)
        assert [r.antecedent for r in rules] == [(catalog.predicates[1],), (catalog.predicates[0],)]

    @pytest.mark.parametrize("missing", [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,)])
    def test_a_missing_count_raises(self, missing):
        # the one closed set (0, 1, 2) reads every entry: its own count, the
        # three that put each member in D, and the three one-member antecedents
        dataset = indicator_dataset(10, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5})
        catalog = build_catalog(dataset, indicator_predicates(3))
        counts = count_table(dataset, catalog)
        closed = filter_closed(mine_frequent_sets(counts, catalog, MiningConfig(0.1, 0.0), dataset.row_count))
        assert [s.ids for s in closed] == [(0, 1, 2)]
        assert len(counts) == 7
        del counts[missing]
        with pytest.raises(MiningError, match=rf"count table has no entry for predicate set {re.escape(str(missing))}$"):
            generate_rules(closed, catalog, counts)

    def test_rule_invariants_enforced(self):
        p = Interval("X1", -INF, 1.0)
        q = Interval("X1", 1.0, INF)
        with pytest.raises(MiningError, match="consequent is empty"):
            InvariantRule(antecedent=(p,), consequent=(), support=0.5)
        with pytest.raises(MiningError, match="overlap"):
            InvariantRule(antecedent=(p,), consequent=(p,), support=0.5)
        with pytest.raises(MiningError, match="kind"):
            InvariantRule(antecedent=(p,), consequent=(q,), support=0.5, kind="other")
        with pytest.raises(MiningError, match="support"):
            InvariantRule(antecedent=(p,), consequent=(q,), support=0.0)


class TestBoundaryRules:
    def test_spread_dominated_by_three_sigma(self):
        stats = ColumnStats(
            continuous={"X1": ContinuousStats(mean=0.0, std=1.0, minimum=-2.0, maximum=2.0)},
            categorical={},
        )
        rules = boundary_rules(stats, make_schema(cont=("X1",)))
        assert rules == [
            InvariantRule(antecedent=(), consequent=(Range("X1", -3.0, 3.0),), support=1.0, kind=BOUNDARY)
        ]

    def test_spread_dominated_by_observed_extremes(self):
        stats = ColumnStats(
            continuous={"X1": ContinuousStats(mean=0.0, std=0.1, minimum=-2.0, maximum=2.0)},
            categorical={},
        )
        rules = boundary_rules(stats, make_schema(cont=("X1",)))
        assert rules[0].consequent == (Range("X1", -2.0, 2.0),)

    def test_membership_over_seen_values(self):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        schema.intern("U1", "b")
        stats = ColumnStats(continuous={}, categorical={"U1": ["a", "b"]})
        rules = boundary_rules(stats, schema)
        assert rules[0].consequent == (Membership("U1", frozenset({0, 1})),)
        assert rules[0].support == 1.0
        assert rules[0].antecedent == ()

    def test_rules_follow_schema_order(self):
        schema = make_schema(cont=("X1",), cat=("U1",))
        schema.intern("U1", "a")
        stats = ColumnStats(
            continuous={"X1": ContinuousStats(0.0, 1.0, -1.0, 1.0)},
            categorical={"U1": ["a"]},
        )
        rules = boundary_rules(stats, schema)
        assert [type(r.consequent[0]) for r in rules] == [Range, Membership]


@st.composite
def mining_instance(draw):
    n = draw(st.integers(min_value=5, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    x = rng.choice([-4.0, -1.0, 0.5, 2.0, 6.0], size=n).tolist()
    u = rng.choice(["a", "b", "c", "d"], size=n).tolist()
    w = rng.choice(["p", "q"], size=n).tolist()
    dataset = make_dataset(cont={"X1": x}, cat={"U1": u, "U2": w})
    predicates = random_predicates(dataset, rng, max_preds=8)
    theta = draw(st.sampled_from([0.05, 0.15, 0.3, 0.5]))
    gamma = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9]))
    cap = draw(st.sampled_from([2, 3, 6, None]))
    return dataset, build_catalog(dataset, predicates), theta, gamma, cap


@given(mining_instance())
def test_miner_matches_full_enumeration(case):
    dataset, catalog, theta, gamma, cap = case
    mined = mine(dataset, catalog, MiningConfig(theta, gamma, cap))
    expected = frequent_sets_by_enumeration(dataset, catalog, theta, gamma, cap)
    assert {s.ids: s.support for s in mined} == expected


@given(mining_instance())
def test_one_count_table_serves_every_gamma(case):
    """sweep filters one theta's table for each of its gammas."""
    dataset, catalog, theta, _, cap = case
    counts = count_sets(dataset, catalog, theta, cap)
    for gamma in [0.0, 0.3, 0.7, 0.9]:
        mined = mine_frequent_sets(counts, catalog, MiningConfig(theta, gamma, cap), dataset.row_count)
        expected = frequent_sets_by_enumeration(dataset, catalog, theta, gamma, cap)
        assert {s.ids: s.support for s in mined} == expected


@given(mining_instance())
def test_closed_filter_matches_full_superset_scan(case):
    dataset, catalog, theta, gamma, cap = case
    mined = mine(dataset, catalog, MiningConfig(theta, gamma, cap))
    closed = filter_closed(mined)
    expected = closed_by_full_scan({s.ids: s.support for s in mined})
    assert {s.ids: s.support for s in closed} == expected
    assert closed == [s for s in mined if s.ids in expected]  # the input sets, in input order


@given(mining_instance())
def test_generated_rules_have_confidence_one_and_minimal_antecedents(case):
    dataset, catalog, theta, gamma, cap = case
    counts = count_sets(dataset, catalog, theta, cap)
    closed = filter_closed(mine_frequent_sets(counts, catalog, MiningConfig(theta, gamma, cap), dataset.row_count))
    rules = generate_rules(closed, catalog, counts)
    for rule in rules:
        whole = support(dataset, rule.antecedent + rule.consequent)
        assert support(dataset, rule.antecedent) == whole
        assert whole == rule.support
    # no emitted antecedent strictly contains another antecedent of the same set
    by_set = {}
    for rule in rules:
        key = frozenset(rule.antecedent + rule.consequent)
        by_set.setdefault(key, []).append(set(rule.antecedent))
    for antecedents in by_set.values():
        for i, a in enumerate(antecedents):
            for b in antecedents[i + 1 :]:
                assert not (a < b or b < a)


@given(mining_instance())
def test_count_table_path_matches_the_three_stage_reference(case):
    """The pipeline's path (one enumeration filling the count table, closedness
    by the subset walk, rules from each set's D) against the reference path:
    the dfs miner, the universe probe and the bigint subset scan."""
    dataset, catalog, theta, gamma, cap = case
    config = MiningConfig(theta, gamma, cap)
    counts = count_sets(dataset, catalog, theta, cap)
    frequent = mine_frequent_sets(counts, catalog, config, dataset.row_count)
    closed = filter_closed(frequent)
    rules = generate_rules(closed, catalog, counts)
    ref_frequent = frequent_sets_by_dfs(dataset, catalog, config)
    ref_closed = closed_by_universe_probe(ref_frequent)
    assert (frequent, closed, rules) == (ref_frequent, ref_closed, rules_by_subset_scan(ref_closed, dataset, catalog))


@given(mining_instance())
def test_count_table_holds_every_set_above_theta_with_its_row_count(case):
    dataset, catalog, theta, gamma, cap = case
    counts = count_sets(dataset, catalog, theta, cap)
    n = dataset.row_count
    above_theta = set(frequent_sets_by_enumeration(dataset, catalog, theta, 0.0, cap))
    above_theta |= {(i,) for i, p in enumerate(catalog.predicates) if support(dataset, [p]) > theta}
    assert set(counts) == above_theta
    for ids, count in counts.items():
        assert count == round(support(dataset, [catalog.predicates[i] for i in ids]) * n)


def wide_blocks(n_rows, seeds):
    """planted_rule_data tables side by side, block b's columns suffixed _b."""
    columns, data = [], {}
    for b, seed in enumerate(seeds):
        block, _ = planted_rule_data(n_rows, seed)
        for col in block.schema.columns:
            values = block.column(col.name).tolist()
            if col.kind == CATEGORICAL:
                values = [block.schema.value_of(col.name, code) for code in values]
            columns.append(Column(f"{col.name}_{b}", col.kind, []))
            data[f"{col.name}_{b}"] = values
    return Dataset.from_columns(Schema(columns), data)


def test_wide_rule_file_is_byte_identical_to_the_reference_path(tmp_path):
    """Training on a wide table (three planted blocks) writes the same bytes as
    a rule file whose mined rules come from the three-stage reference path."""
    dataset = wide_blocks(2000, [0, 1, 2])
    config = MiningConfig(0.1, 0.3)
    result = train_ruleset(dataset, config)
    trained, catalog = result.ruleset, result.catalog
    closed = closed_by_universe_probe(mine(dataset, catalog, config))
    bounds = boundary_rules(trained.stats, dataset.schema)
    reference = RuleSet(
        schema=dataset.schema.copy(),
        stats=trained.stats,
        theta=config.theta,
        gamma=config.gamma,
        max_set_size=config.max_set_size,
        # the whole catalog: save_ruleset writes only what the rules read
        supports=dict(catalog.pairs()) | {r.consequent[0]: 1.0 for r in bounds},
        rules=rules_by_subset_scan(closed, dataset, catalog) + bounds,
    )
    assert sum(r.kind == MINED for r in reference.rules) > 100  # the case is not vacuous
    save_ruleset(trained, str(tmp_path / "trained.json"))
    save_ruleset(reference, str(tmp_path / "reference.json"))
    assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


class TestRuleSetFiles:
    def build(self):
        dataset = make_dataset(
            cont={"X1": [1.0, 2.0, 6.0, 9.0]},
            cat={"U1": ["a", "a", "b", "c"], "U2": ["m", "m", "m", "n"]},
        )
        catalog = build_catalog(
            dataset,
            [
                Interval("X1", -INF, 5.0),
                Interval("X1", 5.0, INF),
                CategoricalEquals("U1", 0),
                CategoricalDisjunction((("U1", 1), ("U2", 1))),
            ],
        )
        rules = [
            InvariantRule(
                antecedent=(catalog.predicates[2],),
                consequent=(catalog.predicates[0],),
                support=0.5,
                kind=MINED,
            ),
            InvariantRule(
                antecedent=(catalog.predicates[1],),
                consequent=(catalog.predicates[3],),
                support=0.5,
                kind=MINED,
            ),
            InvariantRule(
                antecedent=(),
                consequent=(Membership("U1", frozenset({0, 1, 2})),),
                support=1.0,
                kind=BOUNDARY,
            ),
            InvariantRule(
                antecedent=(),
                consequent=(Range("X1", -3.0, 12.5),),
                support=1.0,
                kind=BOUNDARY,
            ),
            InvariantRule(
                antecedent=(),
                consequent=(Membership("U2", frozenset({0, 1})),),
                support=1.0,
                kind=BOUNDARY,
            ),
        ]
        stats = ColumnStats(
            continuous={"X1": ContinuousStats(4.5, 3.2, 1.0, 9.0)},
            categorical={"U1": ["a", "b", "c"], "U2": ["m", "n"]},
        )
        # the supports of the predicates the rules read, as a rule file lists them
        read = {p for r in rules for p in (*r.antecedent, *r.consequent)}
        supports = {p: s for p, s in catalog.pairs() if p in read}
        supports.update((r.consequent[0], 1.0) for r in rules if r.kind == BOUNDARY)
        return RuleSet(
            schema=dataset.schema.copy(),
            stats=stats,
            theta=0.2,
            gamma=0.6,
            max_set_size=None,
            supports=supports,
            rules=rules,
        )

    def test_round_trip_preserves_everything(self, tmp_path):
        ruleset = self.build()
        path = str(tmp_path / "rules.json")
        save_ruleset(ruleset, path)
        again = load_ruleset(path)
        assert again == ruleset
        assert again != replace(ruleset, supports=dict(list(ruleset.supports.items())[:-1]))
        with pytest.raises(TypeError):
            hash(again)
        assert again.max_set_size is None
        assert again.stats.continuous == ruleset.stats.continuous
        assert again.stats.categorical == ruleset.stats.categorical

    def test_rule_text_rendering(self):
        ruleset = self.build()
        assert ruleset.rule_text(ruleset.rules[0]) == "{U1 = a} => {X1 < 5}"
        assert ruleset.rule_text(ruleset.rules[1]) == "{X1 >= 5} => {U1 = b | U2 = n}"
        assert ruleset.rule_text(ruleset.rules[3]) == "{} => {-3 <= X1 <= 12.5}"

    def test_saving_a_predicate_without_a_support_names_it(self, tmp_path):
        ruleset = self.build()
        unknown = replace(ruleset, supports={p: s for p, s in ruleset.supports.items() if p.render(ruleset.schema) != "X1 < 5"})
        path = tmp_path / "rules.json"
        with pytest.raises(MiningError, match=re.escape("no training support for ['X1 < 5']")):
            save_ruleset(unknown, str(path))
        assert not path.exists()

    def test_file_is_stable_json_with_texts(self, tmp_path):
        import json

        ruleset = self.build()
        path = tmp_path / "rules.json"
        save_ruleset(ruleset, str(path))
        payload = json.loads(path.read_text())
        assert payload["format"] == "invariant-ruleset"
        assert "catalog_size" not in payload
        assert [p["id"] for p in payload["predicates"]] == list(range(7))
        texts = [p["text"] for p in payload["predicates"]]
        assert "X1 < 5" in texts
        assert all("text" in r for r in payload["rules"])

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(DataError, match="not a rule file"):
            load_ruleset(str(path))
        path.write_text("not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_ruleset(str(path))

    def test_load_names_a_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "rules.json"
        save_ruleset(self.build(), str(path))
        content = path.read_bytes()
        at = content.index(b"X1")
        path.write_bytes(content[:at] + b"\xff" + content[at + 1 :])
        with pytest.raises(DataError) as exc:
            load_ruleset(str(path))
        assert str(exc.value) == f"{path}: not UTF-8: byte 0xff at offset {at} (invalid start byte)"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("theta", 1.5, "theta must lie in (0, 1), got 1.5"),
            ("theta", True, "theta must lie in (0, 1), got True"),
            ("gamma", -3, "gamma must lie in [0, 1), got -3"),
            ("max_set_size", 2.5, "max_set_size must be None or an integer >= 2, got 2.5"),
            ("max_set_size", True, "max_set_size must be None or an integer >= 2, got True"),
        ],
    )
    def test_load_checks_the_parameters(self, tmp_path, key, value, message):
        import json

        path = tmp_path / "rules.json"
        save_ruleset(self.build(), str(path))
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError) as exc:
            load_ruleset(str(path))
        assert str(exc.value) == f"{path}: malformed rule file: {message}"

    # each edit leaves a file that used to load and score against the wrong rules
    SILENTLY_WRONG = {
        "rules an object": (lambda p: p.update(rules={}), "rules must be a list, got dict"),
        "rules a string": (lambda p: p.update(rules=""), "rules must be a list, got str"),
        "predicates an object": (lambda p: p.update(predicates={}), "predicates must be a list, got dict"),
        "version 2": (lambda p: p.update(version=2), "unsupported version 2; this reader knows version 1"),
        "version true": (lambda p: p.update(version=True), "unsupported version True; this reader knows version 1"),
        "rule id out of place": (
            lambda p: p["rules"][1].update(id=2),
            "rules entry 1 has id 2, not its position 1",
        ),
        "rules reordered": (lambda p: p["rules"].reverse(), "rules entry 0 has id 4, not its position 0"),
        "predicate id out of place": (
            lambda p: p["predicates"][0].update(id="0"),
            "predicates entry 0 has id '0', not its position 0",
        ),
    }

    # each edit moves a predicate (ids as build interns them) off the kind of column it reads
    WRONG_COLUMN_KIND = {
        "interval on a categorical column": (
            lambda p: p["predicates"][0].update(column="U1"),
            "interval predicate reads 'U1', not a continuous column of the schema",
        ),
        "range on a categorical column": (
            lambda p: p["predicates"][5].update(column="U2"),
            "range predicate reads 'U2', not a continuous column of the schema",
        ),
        "equals on a continuous column": (
            lambda p: p["predicates"][2].update(column="X1"),
            "equals predicate reads 'X1', not a categorical column of the schema",
        ),
        "equals on an unknown column": (
            lambda p: p["predicates"][2].update(column="Q"),
            "equals predicate reads 'Q', not a categorical column of the schema",
        ),
        "interval on an unknown column": (
            lambda p: p["predicates"][1].update(column="Q"),
            "interval predicate reads 'Q', not a continuous column of the schema",
        ),
        "membership on a continuous column": (
            lambda p: p["predicates"][4].update(column="X1"),
            "membership predicate reads 'X1', not a categorical column of the schema",
        ),
        "disjunction item on a continuous column": (
            lambda p: p["predicates"][3]["items"][1].__setitem__(0, "X1"),
            "disjunction predicate reads 'X1', not a categorical column of the schema",
        ),
    }

    @pytest.mark.parametrize(
        "edit, message",
        [*SILENTLY_WRONG.values(), *WRONG_COLUMN_KIND.values()],
        ids=[*SILENTLY_WRONG, *WRONG_COLUMN_KIND],
    )
    def test_load_rejects_a_silently_wrong_file(self, tmp_path, edit, message):
        import json

        path = tmp_path / "rules.json"
        save_ruleset(self.build(), str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError) as exc:
            load_ruleset(str(path))
        assert str(exc.value) == f"{path}: malformed rule file: {message}"
