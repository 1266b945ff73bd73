"""End-to-end training behavior and the synthetic generators."""

import hashlib

import numpy as np
import pytest

from invarmine.data import CATEGORICAL, CONTINUOUS, Column, Dataset, Schema, load_csv, write_csv
from invarmine.detect import DetectionConfig, detect, score_dataset, write_reports
from invarmine.evaluate import holdout_split
from invarmine.mining import BOUNDARY, MiningConfig, save_ruleset
from invarmine.pipeline import train_ruleset
from invarmine.synth import X3_HIGH, planted_rule_data, random_mixed_dataset

from helpers import make_dataset


class TestTraining:
    def test_two_runs_produce_identical_rulesets(self, tmp_path):
        train, _ = planted_rule_data(200, seed=5)
        first = train_ruleset(train, MiningConfig(theta=0.2, gamma=0.3, max_set_size=4))
        second = train_ruleset(train, MiningConfig(theta=0.2, gamma=0.3, max_set_size=4))
        assert first.ruleset == second.ruleset
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_ruleset(first.ruleset, str(a))
        save_ruleset(second.ruleset, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_timings_cover_every_stage(self):
        train, _ = planted_rule_data(120, seed=5)
        result = train_ruleset(train, MiningConfig(theta=0.25, gamma=0.0, max_set_size=3))
        assert set(result.timings) == {"stats", "trees", "predicates", "mining", "rules", "total"}
        assert all(v >= 0.0 for v in result.timings.values())

    def test_single_continuous_column_skips_regression(self):
        dataset = make_dataset(
            cont={"X1": [float(i % 5) for i in range(20)]},
            cat={"U1": ["a" if i % 5 < 3 else "b" for i in range(20)]},
        )
        result = train_ruleset(dataset, MiningConfig(theta=0.3, gamma=0.0))
        assert result.warnings == [
            "column 'X1': no other continuous column to regress on; tree skipped"
        ]

    def test_all_categorical_data_skips_trees_but_trains(self):
        dataset = make_dataset(
            cat={
                "U1": ["a", "a", "a", "b", "b", "b", "a", "a"],
                "U2": ["x", "y", "x", "y", "x", "y", "x", "y"],
            }
        )
        result = train_ruleset(dataset, MiningConfig(theta=0.25, gamma=0.0))
        assert result.warnings == [
            "column 'U1': no continuous columns to split on; tree skipped",
            "column 'U2': no continuous columns to split on; tree skipped",
        ]
        kinds = {r.kind for r in result.ruleset.rules}
        assert BOUNDARY in kinds
        assert score_dataset(result.ruleset, dataset).max() == 0.0

    def test_extreme_theta_leaves_only_boundary_rules(self):
        dataset = make_dataset(
            cont={"X1": [float(i) for i in range(100)]},
            cat={"U1": ["a" if i < 60 else "b" for i in range(100)]},
        )
        result = train_ruleset(dataset, MiningConfig(theta=0.99, gamma=0.0))
        # min_leaf 99 forbids any split and no single value clears 0.99,
        # so the catalog holds at most the whole-column disjunction
        assert len(result.ruleset.catalog) <= 1
        assert [r.kind for r in result.ruleset.rules] == [BOUNDARY, BOUNDARY]

    def test_ruleset_schema_is_isolated_from_the_training_data(self):
        train, _ = planted_rule_data(120, seed=5)
        result = train_ruleset(train, MiningConfig(theta=0.25, gamma=0.0, max_set_size=3))
        assert result.ruleset.schema == train.schema
        assert result.ruleset.schema is not train.schema

    def test_planted_training_scores_itself_zero(self):
        train, _ = planted_rule_data(250, seed=41)
        result = train_ruleset(train, MiningConfig(theta=0.15, gamma=0.3, max_set_size=4))
        mined = [r for r in result.ruleset.rules if r.kind != BOUNDARY]
        assert mined  # the planted structure must yield real rules
        assert float(score_dataset(result.ruleset, train).max()) == 0.0


class TestPlantedData:
    def test_clean_data_honors_the_invariant(self):
        dataset, labels = planted_rule_data(500, seed=13)
        assert labels.sum() == 0
        x1 = dataset.column("X1")
        x2 = dataset.column("X2")
        x3 = dataset.column("X3")
        antecedent = (x1 >= 5.0) & (x1 < 10.0) & (x2 >= 20.4)
        assert np.all(x3[antecedent] < 7.1)

    def test_violations_break_the_invariant_and_are_labeled(self):
        dataset, labels = planted_rule_data(400, seed=17, violation_rate=0.1)
        assert int(labels.sum()) == 40
        x1 = dataset.column("X1")
        x2 = dataset.column("X2")
        x3 = dataset.column("X3")
        bad = labels == 1
        assert np.all(x1[bad] == 7.0)
        assert np.all(x2[bad] == 2 * 20.4 - 16.0)
        assert np.all(x3[bad] >= 7.1)
        assert set(np.unique(x3[bad])) <= set(X3_HIGH)
        clean_antecedent = (x1 >= 5.0) & (x1 < 10.0) & (x2 >= 20.4) & ~bad
        assert np.all(x3[clean_antecedent] < 7.1)

    def test_same_seed_same_table(self):
        a, labels_a = planted_rule_data(150, seed=23, violation_rate=0.05)
        b, labels_b = planted_rule_data(150, seed=23, violation_rate=0.05)
        assert np.array_equal(labels_a, labels_b)
        for name in a.schema.names:
            assert np.array_equal(a.column(name), b.column(name))

    def test_different_seeds_differ(self):
        a, _ = planted_rule_data(150, seed=1)
        b, _ = planted_rule_data(150, seed=2)
        assert any(
            not np.array_equal(a.column(name), b.column(name)) for name in a.schema.names
        )


class TestRandomMixedData:
    def test_shape_and_schema(self):
        dataset = random_mixed_dataset(80, n_continuous=3, n_categorical=2, seed=11)
        assert dataset.row_count == 80
        assert dataset.schema.continuous_names == ["X1", "X2", "X3"]
        assert dataset.schema.categorical_names == ["U1", "U2"]
        assert all(
            dataset.schema.kind(n) == (CONTINUOUS if n.startswith("X") else CATEGORICAL)
            for n in dataset.schema.names
        )

    def test_determinism(self):
        a = random_mixed_dataset(60, 2, 2, seed=3)
        b = random_mixed_dataset(60, 2, 2, seed=3)
        for name in a.schema.names:
            assert np.array_equal(a.column(name), b.column(name))

    def test_needs_both_column_kinds(self):
        with pytest.raises(ValueError, match="at least one column of each kind"):
            random_mixed_dataset(50, 0, 2, seed=1)
        with pytest.raises(ValueError, match="at least one column of each kind"):
            random_mixed_dataset(50, 2, 0, seed=1)


class TestGeneratorCoding:
    """The generators code categorical columns themselves; the result must
    equal what Dataset.from_columns builds from the same value strings."""

    @staticmethod
    def rebuilt(dataset):
        schema = Schema([Column(c.name, c.kind, []) for c in dataset.schema.columns])
        columns = {}
        for col in dataset.schema.columns:
            codes = dataset.column(col.name)
            columns[col.name] = codes if col.kind == CONTINUOUS else [col.values[k] for k in codes]
        return Dataset.from_columns(schema, columns)

    @pytest.mark.parametrize(
        "generate",
        [
            lambda n, seed: planted_rule_data(n, seed)[0],
            lambda n, seed: planted_rule_data(n, seed, 0.05)[0],
            lambda n, seed: random_mixed_dataset(n, 12, 8, seed),
            lambda n, seed: random_mixed_dataset(n, 1, 3, seed),
        ],
        ids=["planted", "planted-violations", "random-12-8", "random-1-3"],
    )
    def test_codes_equal_the_list_builders(self, generate):
        for seed in range(30):
            for n in (1, 2, 5, 200, 3000):
                dataset = generate(n, seed)
                expected = self.rebuilt(dataset)
                for col, want in zip(dataset.schema.columns, expected.schema.columns):
                    assert col.values == want.values, (seed, n, col.name)
                    got, codes = dataset.column(col.name), expected.column(col.name)
                    assert got.dtype == codes.dtype and np.array_equal(got, codes), (seed, n, col.name)


class TestPinnedOutputs:
    """SHA-256 of the rule file and the score report on two generated
    cases.  The test table goes through write_csv and load_csv against the
    rule file's schema, as `invarmine score` reads it.  A change meant to
    alter outputs updates these digests and records old and new values."""

    @pytest.mark.parametrize(
        "tables, theta, gamma, rules_digest, report_digest",
        [
            (
                lambda: (planted_rule_data(2000, 7)[0], planted_rule_data(1000, 11, 0.05)[0]),
                0.15,
                0.3,
                "1baca44141c80b62095684c288d8034893d16c8519cc04a89975b2b4d86f6c1e",
                "1ff2f1d9a65a9a6387af294e7366dc060156136d2f6615aa8dd4279d14135324",
            ),
            # theta 0.05 mines rules beyond the boundary ones and flags rows of the held-out part
            (
                lambda: holdout_split(random_mixed_dataset(3000, 12, 8, 0)),
                0.05,
                0.0,
                "991feaf88dd8ff4c3178ba49743a0e678310c18ddf3f0f892ceab8f074e3c6d1",
                "602cb2a5282c43d20c088fdba2fe7a078c25a6d8a1ef941cc7db96ab2a005404",
            ),
        ],
        ids=["planted", "random_mixed"],
    )
    def test_rule_file_and_report_keep_their_bytes(self, tmp_path, tables, theta, gamma, rules_digest, report_digest):
        train, test = tables()
        ruleset = train_ruleset(train, MiningConfig(theta=theta, gamma=gamma)).ruleset
        rules, data, report = tmp_path / "rules.json", tmp_path / "test.csv", tmp_path / "report.txt"
        save_ruleset(ruleset, str(rules))
        write_csv(test, str(data))
        reports = detect(ruleset, load_csv(str(data), ruleset.schema.copy()), DetectionConfig())
        write_reports(reports, ruleset, str(report))
        assert hashlib.sha256(rules.read_bytes()).hexdigest() == rules_digest
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
