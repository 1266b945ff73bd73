"""End-to-end training behavior and the synthetic generators."""

import hashlib
import json
import math
import shutil
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invarmine import cli, data
from invarmine.data import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    DataError,
    Dataset,
    Schema,
    load_csv,
    save_schema,
    write_csv,
)
from invarmine.detect import DetectionConfig, detect, score_dataset, score_point, write_reports
from invarmine.evaluate import holdout_split
from invarmine.mining import BOUNDARY, MiningConfig, MiningError, load_ruleset, save_ruleset
from invarmine.pipeline import train_ruleset
from invarmine.synth import X3_HIGH, planted_rule_data, random_mixed_dataset

from helpers import BENCH, load_script, make_dataset
from oracles import rewrite_with_whole_catalog


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
        assert len(result.catalog) <= 1
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


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutputs:
    """SHA-256 of the rule file, the score report and `invarmine explain`'s
    output on two generated cases.  The test table goes through write_csv
    and load_csv against the rule file's schema, as `invarmine score` reads
    it.  A change meant to alter outputs updates these digests and records
    old and new values."""

    CASES = {
        "planted": (lambda: (planted_rule_data(2000, 7)[0], planted_rule_data(1000, 11, 0.05)[0]), 0.15, 0.3),
        # theta 0.05 mines rules beyond the boundary ones and flags rows of the held-out part
        "random_mixed": (lambda: holdout_split(random_mixed_dataset(3000, 12, 8, 0)), 0.05, 0.0),
    }

    @classmethod
    def built(cls, tmp_path, case):
        """The case's rule file, test CSV and score report under tmp_path,
        with the reports detect gave."""
        tables, theta, gamma = cls.CASES[case]
        train, test = tables()
        ruleset = train_ruleset(train, MiningConfig(theta=theta, gamma=gamma)).ruleset
        rules, data, report = tmp_path / "rules.json", tmp_path / "test.csv", tmp_path / "report.txt"
        save_ruleset(ruleset, str(rules))
        write_csv(test, str(data))
        reports = detect(ruleset, load_csv(str(data), ruleset.schema.copy()), DetectionConfig())
        write_reports(reports, ruleset, str(report))
        return rules, data, report, reports

    # each case's rule file and score report SHA-256
    DIGESTS = {
        "planted": (
            "e8ff6546f6934b8da66116e7f5ab41179d1087fd60be4f8bb12136163c379c22",
            "1ff2f1d9a65a9a6387af294e7366dc060156136d2f6615aa8dd4279d14135324",
        ),
        "random_mixed": (
            "b6ab051f09f551ed5375ea1e35c2f45568281e1e92b7aa5ef46df3f8bf690066",
            "602cb2a5282c43d20c088fdba2fe7a078c25a6d8a1ef941cc7db96ab2a005404",
        ),
    }

    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_rule_file_and_report_keep_their_bytes(self, tmp_path, case):
        rules, _, report, _ = self.built(tmp_path, case)
        assert (_sha256(rules), _sha256(report)) == self.DIGESTS[case]

    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_a_test_table_read_in_4_kib_blocks_keeps_the_bytes(self, tmp_path, case):
        """The same digests when the columnar reader crosses block
        boundaries: values first seen in a later block, and the columns
        np.loadtxt took in an earlier one."""
        with mock.patch.object(data, "_BLOCK_BYTES", 4096):
            rules, test, report, _ = self.built(tmp_path, case)
        assert test.stat().st_size > 8 * 4096
        assert (_sha256(rules), _sha256(report)) == self.DIGESTS[case]

    @pytest.mark.parametrize(
        "case, digests",
        [
            (
                "planted",
                {
                    27: "69848d6687e57dc06929759eade8b3d2f4c599c25b89aa430bba4c5004bba253",
                    527: "5019653393d208542fd9d07d7e16c92dc2d43efe3743db9dcdb2274e00ad3eb8",
                    991: "d916f153b4f8b73f8dbafe80ca1732a35d76f111cda52cf777e6f30621bc4c0e",
                },
            ),
            (
                "random_mixed",
                {
                    17: "59104170e75b149ffd6eb9608787a6cd7f06577188822e6a995f86a5e013099c",
                    240: "ea709bb7ef1627e06df66bbec82ff9f7e6dfbbdfcf7cf9daa6600ffda0965235",
                    591: "988e9280198b948d42029df250d3ada3bb32661b4dee3b2f06784f930ea7c842",
                },
            ),
        ],
        ids=["planted", "random_mixed"],
    )
    def test_explain_keeps_its_bytes(self, tmp_path, capsys, case, digests):
        """explain through the CLI on the first, a middle and the last flagged row."""
        rules, data, _, reports = self.built(tmp_path, case)
        flagged = [r.row for r in reports if r.is_anomaly]
        got = {}
        for row in (flagged[0], flagged[len(flagged) // 2], flagged[-1]):
            assert cli.main(["explain", "--rules", str(rules), "--data", str(data), "--row", str(row)]) == 0
            got[row] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert got == digests


def _read(rules):
    return {p for r in rules for p in (*r.antecedent, *r.consequent)}


class TestRuleFilePredicates:
    """A rule file lists the predicates its rules read, each with its
    training support, and nothing more of the catalog."""

    @staticmethod
    def trained(case="planted"):
        tables, theta, gamma = TestPinnedOutputs.CASES[case]
        train, test = tables()
        return train_ruleset(train, MiningConfig(theta=theta, gamma=gamma)), test

    @pytest.mark.parametrize("case", list(TestPinnedOutputs.CASES))
    def test_every_predicate_entry_is_read_with_its_training_support(self, tmp_path, case):
        result, _ = self.trained(case)
        path = tmp_path / "rules.json"
        save_ruleset(result.ruleset, str(path))
        payload = json.loads(path.read_text())
        entries = payload["predicates"]
        assert {i for r in payload["rules"] for i in r["antecedent"] + r["consequent"]} == set(range(len(entries)))
        catalog = dict(result.catalog.pairs())
        envelopes = {r.consequent[0] for r in result.ruleset.rules if r.kind == BOUNDARY}
        supports = load_ruleset(str(path)).supports
        assert len(supports) == len(entries)
        for p, sup in supports.items():
            assert sup == (catalog[p] if p in catalog else 1.0) and (p in catalog or p in envelopes)
        assert len(catalog) > sum(p in catalog for p in supports)  # the catalog has unread predicates

    def test_a_file_of_kept_rules_lists_only_what_they_read(self, tmp_path):
        """Leaving rules out the way score_point's docstring says."""
        result, test = self.trained()
        ruleset = result.ruleset
        kept = replace(ruleset, rules=[r for i, r in enumerate(ruleset.rules) if r.kind == BOUNDARY or i == 0])
        path = str(tmp_path / "rules.json")
        save_ruleset(kept, path)
        loaded = load_ruleset(path)
        assert set(loaded.supports) == _read(kept.rules) < _read(ruleset.rules)
        assert loaded.rules == kept.rules
        scores = score_dataset(loaded, test)
        assert scores.any() and np.array_equal(scores, score_dataset(kept, test))

    def test_a_file_with_the_whole_catalog_loads_as_its_rewrite(self, tmp_path):
        """Files written with the whole catalog and catalog_size still load;
        saved again, they are the file training writes now."""
        result, test = self.trained()
        new, old, again = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "again.json"
        save_ruleset(result.ruleset, str(new))
        shutil.copy(new, old)
        rewrite_with_whole_catalog(old, result.ruleset, result.catalog)
        payload = json.loads(old.read_text())
        assert payload["catalog_size"] == len(result.catalog)
        assert len(payload["predicates"]) > len(json.loads(new.read_text())["predicates"])
        loaded = load_ruleset(str(old))
        save_ruleset(loaded, str(again))
        assert again.read_bytes() == new.read_bytes()
        scores = score_dataset(loaded, test)
        assert scores.any() and np.array_equal(scores, score_dataset(load_ruleset(str(new)), test))


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, only read."""
    return load_script("workloads", BENCH)


@pytest.mark.parametrize("block", [None, 4096], ids=["256 KiB blocks", "4 KiB blocks"])
@pytest.mark.parametrize(
    "name, rules_digest, report_digest",
    [
        (
            "tall",
            "04510a55d2cbf6c267a5695bb430b0e30b87dbf6786d1f348a39865493425ba4",
            "5cdb59922a8333cb6ac183e432c6ca5cf50acf12eb7f50a371a883f1f7c9cd5b",
        ),
        (
            "noisy",
            "6587f05ab094f2365ede37f0b8b8936688bd9e9f05389aece0de75e4c4a1b901",
            "c1a5ba53639bc5f2872fe6cf567229be334de29292a2e9381239a05fa8ba15e9",
        ),
        (
            "wide",
            "1360c12c2fc5d7abe98265e598c664370cf72e1e94e6991a9791f10c94f3519c",
            "adf72aaa0faf3774db29f5e38d1ebc0aea4adfea7e884de41e6b15cd2b6ac01c",
        ),
    ],
    ids=["tall", "noisy", "wide"],
)
def test_bench_instances_keep_their_bytes(tmp_path, capsys, workloads, block, name, rules_digest, report_digest):
    """The bench workloads at scale 0.05 (training seed 0, test seed
    10000): both tables written with write_csv, then `invarmine train`
    and `invarmine score` through the CLI, which load them with load_csv.
    The rule file and the score report keep their SHA-256."""
    workload = workloads.WORKLOADS[name]
    train, test, _ = workloads.make_tables(workload, 0, 10000, 0.05)
    schema, train_csv, test_csv = tmp_path / "schema.json", tmp_path / "train.csv", tmp_path / "test.csv"
    rules, report = tmp_path / "rules.json", tmp_path / "report.jsonl"
    save_schema(train.schema, str(schema))
    write_csv(train, str(train_csv))
    write_csv(test, str(test_csv))
    theta, gamma = str(workload.theta), str(workload.gamma)
    with mock.patch.object(data, "_BLOCK_BYTES", block or data._BLOCK_BYTES):
        trained = cli.main(
            ["train", "--data", str(train_csv), "--schema", str(schema), "--theta", theta, "--gamma", gamma,
             "--out", str(rules)]
        )
        scored = cli.main(["score", "--rules", str(rules), "--data", str(test_csv), "--out", str(report)])
    capsys.readouterr()
    assert (trained, scored) == (0, 1)
    assert (_sha256(rules), _sha256(report)) == (rules_digest, report_digest)


def test_the_bench_tracer_finds_every_name_it_wraps():
    """bench/tracing.py wraps CLI and pipeline functions by name; a name
    the program no longer has would drop its per-layer metrics."""
    tracer = load_script("tracing", BENCH).Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


# Floats that have broken training before or sit at an edge of float64:
# the extremes, signed zeros, neighbouring floats, integers where the
# float spacing is 2, and small integers.
ADVERSARIAL_FLOATS = [
    sys.float_info.max,
    -sys.float_info.max,
    math.nextafter(sys.float_info.max, 0.0),
    5e-324,
    -5e-324,
    0.0,
    -0.0,
    1.0,
    math.nextafter(1.0, 2.0),
    1.7e308,
    math.nextafter(1.7e308, math.inf),
    1e16,
    1e16 + 2,
    2.0,
    3.0,
    -1.0,
]

# csv.reader refused NUL before Python 3.11
CATEGORY_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1, max_size=4)


@st.composite
def adversarial_tables(draw):
    """A schema of 0-3 continuous and 0-2 categorical columns (one at
    least) and 2-40 rows: continuous cells from ADVERSARIAL_FLOATS,
    categorical cells from a pool of 1-3 texts per column."""
    n_rows = draw(st.integers(2, 40))
    n_cont = draw(st.integers(0, 3))
    n_cat = draw(st.integers(0 if n_cont else 1, 2))
    columns = {}
    for j in range(n_cont):
        pool = draw(st.lists(st.sampled_from(ADVERSARIAL_FLOATS), min_size=1, max_size=4))
        columns[f"X{j}"] = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    for j in range(n_cat):
        pool = draw(st.lists(CATEGORY_TEXT, min_size=1, max_size=3, unique=True))
        columns[f"U{j}"] = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    return columns


@given(
    columns=adversarial_tables(),
    theta=st.sampled_from([0.1, 0.25, 0.5]),
    gamma=st.sampled_from([0.0, 0.3]),
)
def test_adversarial_floats_train_and_score_their_own_rows_clean(tmp_path_factory, columns, theta, gamma):
    """write_csv, load_csv, train, a rule file round trip and scoring the
    training rows, with warnings as errors: each run succeeds or raises
    DataError or MiningError, the training rows score 0, by score_dataset
    and by score_point, and every rule holds on every training row."""
    schema = Schema([Column(name, CONTINUOUS if name.startswith("X") else CATEGORICAL, []) for name in columns])
    directory = tmp_path_factory.mktemp("adversarial")
    path, rules = str(directory / "train.csv"), str(directory / "rules.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            write_csv(Dataset.from_columns(schema, columns), path)
            train = load_csv(path, schema.copy())
            ruleset = train_ruleset(train, MiningConfig(theta=theta, gamma=gamma)).ruleset
            save_ruleset(ruleset, rules)
            loaded = load_ruleset(rules)
            rows = load_csv(path, loaded.schema.copy())
            scores = score_dataset(loaded, rows)
        except (DataError, MiningError):
            return
        points = [score_point(loaded, rows.row(i)) for i in range(rows.row_count)]
    assert scores.tolist() == [0.0] * train.row_count
    assert points == [0.0] * train.row_count
    for rule in ruleset.rules:
        held = np.ones(train.row_count, dtype=bool)
        for p in rule.antecedent:
            held &= p.mask(train)
        for p in rule.consequent:
            assert p.mask(train)[held].all(), ruleset.rule_text(rule)
