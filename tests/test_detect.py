"""Scoring, threshold semantics, rule deactivation, and explanations."""

import dataclasses
import importlib
import json
import pickle
import re
import sys

import numpy as np
import pytest

from invarmine import cli
from invarmine import predicates as predicates_module
from invarmine.data import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    ColumnStats,
    ContinuousStats,
    DataError,
    DataPoint,
    Dataset,
    Schema,
    load_csv,
    write_csv,
)
from invarmine.detect import (
    AnomalyReport,
    DetectionConfig,
    SchemaMismatchError,
    detect,
    explain,
    score_dataset,
    score_point,
    write_reports,
)
from invarmine.mining import BOUNDARY, MINED, InvariantRule, MiningConfig, RuleSet, load_ruleset, save_ruleset
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

from helpers import make_dataset, make_schema
from oracles import reports_by_row_loop, score_by_row, write_reports_by_json_dumps

INF = float("inf")

# the package's `detect` name is the function, so reach the module by import
detect_module = importlib.import_module("invarmine.detect")


def envelope_ruleset():
    """Two mined rules over a single continuous column X.

    rule 0: X >= 0  =>  X < 10   (support 0.30)
    rule 1: X >= 5  =>  X < 20   (support 0.25)
    """
    schema = make_schema(cont=("X",))
    rules = [
        InvariantRule(
            antecedent=(Interval("X", 0.0, INF),),
            consequent=(Interval("X", -INF, 10.0),),
            support=0.30,
            kind=MINED,
        ),
        InvariantRule(
            antecedent=(Interval("X", 5.0, INF),),
            consequent=(Interval("X", -INF, 20.0),),
            support=0.25,
            kind=MINED,
        ),
    ]
    return RuleSet(
        schema=schema,
        stats=ColumnStats(continuous={"X": ContinuousStats(1.0, 1.0, -5.0, 9.0)}, categorical={}),
        theta=0.2,
        gamma=0.0,
        max_set_size=6,
        catalog=PredicateCatalog([]),
        rules=rules,
    )


def x_dataset(values):
    return make_dataset(cont={"X": values})


class TestScoring:
    def test_clean_rows_score_zero(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([1.0, -5.0, 7.0])
        assert score_dataset(ruleset, dataset).tolist() == [0.0, 0.0, 0.0]
        assert score_point(ruleset, dataset.row(0)) == 0.0

    def test_score_sums_supports_of_violated_rules(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([1.0, 50.0, -5.0, 15.0])
        scores = score_dataset(ruleset, dataset)
        assert scores.tolist() == [0.0, 0.30 + 0.25, 0.0, 0.30]
        assert score_point(ruleset, dataset.row(1)) == 0.30 + 0.25

    def test_point_and_dataset_scoring_agree_rowwise(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([-20.0, -1.0, 0.0, 4.9, 5.0, 9.9, 10.0, 15.0, 20.0, 99.0])
        scores = score_dataset(ruleset, dataset)
        for i in range(dataset.row_count):
            assert score_point(ruleset, dataset.row(i)) == scores[i]

    def test_boundary_violation_adds_a_full_point(self):
        schema = make_schema(cont=("X",))
        ruleset = RuleSet(
            schema=schema,
            stats=ColumnStats(continuous={"X": ContinuousStats(0.0, 1.0, -3.0, 3.0)}, categorical={}),
            theta=0.2,
            gamma=0.0,
            max_set_size=6,
            catalog=PredicateCatalog([]),
            rules=[
                InvariantRule(
                    antecedent=(), consequent=(Range("X", -3.0, 3.0),), support=1.0, kind=BOUNDARY
                )
            ],
        )
        assert score_dataset(ruleset, x_dataset([9.0, 0.0, -3.0, 3.0])).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_schema_mismatch_is_rejected(self):
        ruleset = envelope_ruleset()
        with pytest.raises(SchemaMismatchError):
            score_dataset(ruleset, make_dataset(cont={"Y": [1.0]}))
        with pytest.raises(SchemaMismatchError):
            score_dataset(ruleset, make_dataset(cat={"X": ["a"]}))


class TestThreshold:
    def build(self):
        schema = make_schema(cont=("X",))
        rules = [
            InvariantRule(
                antecedent=(Interval("X", 0.0, INF),),
                consequent=(Interval("X", -INF, 10.0),),
                support=0.25,
            ),
            InvariantRule(
                antecedent=(Interval("X", 0.0, INF),),
                consequent=(Interval("X", -INF, 20.0),),
                support=0.25,
            ),
        ]
        return RuleSet(
            schema=schema,
            stats=ColumnStats(continuous={"X": ContinuousStats(1.0, 1.0, -5.0, 9.0)}, categorical={}),
            theta=0.2,
            gamma=0.0,
            max_set_size=6,
            catalog=PredicateCatalog([]),
            rules=rules,
        )

    def test_score_equal_to_phi_is_not_anomalous(self):
        ruleset = self.build()
        dataset = x_dataset([50.0])  # violates both rules, score exactly 0.5
        reports = detect(ruleset, dataset, DetectionConfig(phi=0.5))
        assert reports[0].score == 0.5
        assert not reports[0].is_anomaly
        flagged = detect(ruleset, dataset, DetectionConfig(phi=0.25))
        assert flagged[0].is_anomaly

    def test_phi_must_be_non_negative(self):
        with pytest.raises(DataError, match="phi"):
            DetectionConfig(phi=-0.1)

    def test_nan_phi_is_rejected(self):
        with pytest.raises(DataError, match="phi"):
            DetectionConfig(phi=float("nan"))

    def test_infinite_phi_is_rejected(self):
        with pytest.raises(DataError, match="phi must be non-negative and finite"):
            DetectionConfig(phi=float("inf"))


class TestDeactivation:
    """detect leaves rules out by id; the scoring functions score the RuleSet
    they are given, so leaving rules out there means a RuleSet without them."""

    @staticmethod
    def without(ruleset, ignored):
        kept = [r for rid, r in enumerate(ruleset.rules) if rid not in ignored]
        return dataclasses.replace(ruleset, rules=kept)

    def test_ignored_rule_contributes_nothing(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([50.0])
        for ignored, expected in [({1}, 0.30), ({0}, 0.25), ({0, 1}, 0.0)]:
            assert score_by_row(ruleset, dataset.row(0), ignored) == expected
            assert score_dataset(self.without(ruleset, ignored), dataset)[0] == expected
            assert score_point(self.without(ruleset, ignored), dataset.row(0)) == expected

    def test_detect_honors_ignore_set(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([50.0])
        reports = detect(ruleset, dataset, DetectionConfig(phi=0.0, ignore_rules=frozenset({0})))
        assert [v.rule_id for v in reports[0].violations] == [1]
        assert reports[0].score == 0.25

    def test_unknown_rule_id_is_rejected(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([1.0])
        with pytest.raises(DataError, match="no rule with id 5"):
            detect(ruleset, dataset, DetectionConfig(ignore_rules=frozenset({5})))
        with pytest.raises(DataError, match="no rule with id -1"):
            detect(ruleset, dataset, DetectionConfig(ignore_rules=frozenset({-1})))

    def test_deactivation_never_raises_a_score(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([-20.0, -1.0, 0.0, 4.9, 5.0, 9.9, 10.0, 15.0, 20.0, 99.0])
        base = score_dataset(ruleset, dataset)
        for rid in range(len(ruleset.rules)):
            reduced = score_dataset(self.without(ruleset, {rid}), dataset)
            assert np.all(reduced <= base)
            by_id = detect(ruleset, dataset, DetectionConfig(ignore_rules=frozenset({rid})))
            assert np.array_equal(reduced, by_id.scores)


class TestCompiledForm:
    """A RuleSet compiles its rules once, and other rules never meet that compiled form."""

    def test_compiled_once_per_ruleset(self):
        ruleset = envelope_ruleset()
        score_point(ruleset, x_dataset([50.0]).row(0))
        assert ruleset.compiled is ruleset.compiled

    def test_the_rules_cannot_change_in_place(self):
        ruleset = envelope_ruleset()
        score_point(ruleset, x_dataset([50.0]).row(0))
        assert isinstance(ruleset.rules, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ruleset.rules = ruleset.rules[:1]
        with pytest.raises(TypeError):
            ruleset.rules[0] = ruleset.rules[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ruleset.rules[0].support = 0.5

    def test_replaced_rules_are_scored_after_a_first_score(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([50.0, 15.0])
        assert score_point(ruleset, dataset.row(0)) == 0.30 + 0.25
        assert score_dataset(ruleset, dataset).tolist() == [0.30 + 0.25, 0.30]
        second_only = dataclasses.replace(ruleset, rules=ruleset.rules[1:])
        assert score_point(second_only, dataset.row(0)) == 0.25
        assert score_dataset(second_only, dataset).tolist() == [0.25, 0.0]
        wider = (Interval("X", -INF, 60.0),)
        widened = dataclasses.replace(
            ruleset, rules=[dataclasses.replace(r, consequent=wider) for r in ruleset.rules]
        )
        assert score_point(widened, dataset.row(0)) == 0.0
        assert score_dataset(widened, dataset).tolist() == [0.0, 0.0]
        # the first ruleset still scores its own rules
        assert score_point(ruleset, dataset.row(0)) == 0.30 + 0.25

    @pytest.mark.parametrize("atoms", [4, 1])
    def test_a_scored_ruleset_pickles(self, atoms):
        ruleset = envelope_ruleset()
        if atoms == 1:
            boundary = InvariantRule((), (Range("X", -3.0, 3.0),), 1.0, BOUNDARY)
            ruleset = dataclasses.replace(ruleset, rules=[boundary])
        assert len(ruleset.compiled.predicates.lo) == atoms
        point = x_dataset([50.0]).row(0)
        score = score_point(ruleset, point)
        copy = pickle.loads(pickle.dumps(ruleset))
        assert copy == ruleset
        assert score_point(copy, point) == score > 0


class TestPointInputs:
    """What score_point needs from a point, and what it rejects."""

    @staticmethod
    def xy_rules():
        schema = make_schema(cont=("X", "Y"))
        return hand_ruleset(
            schema,
            [
                InvariantRule((), (Range("X", -3.0, 3.0),), 1.0, BOUNDARY),
                InvariantRule((Interval("X", 0.0, INF),), (Interval("Y", -INF, 1.0),), 0.25),
            ],
        )

    def test_a_column_no_active_rule_reads_may_be_missing(self):
        ruleset = envelope_ruleset()  # reads X only
        assert score_point(ruleset, DataPoint({"X": 50.0})) == 0.30 + 0.25
        assert score_point(ruleset, DataPoint({"X": 50.0, "Z": 1.0})) == 0.30 + 0.25
        ruleset = self.xy_rules()
        boundary_only = dataclasses.replace(ruleset, rules=ruleset.rules[:1])  # reads X only
        assert score_point(boundary_only, DataPoint({"X": 5.0})) == 1.0

    def test_a_missing_column_an_active_rule_reads_is_a_data_error(self):
        ruleset = self.xy_rules()
        with pytest.raises(DataError, match="unknown column 'Y'"):
            score_point(ruleset, DataPoint({"X": 5.0}))
        with pytest.raises(DataError, match="unknown column 'X'"):
            score_point(dataclasses.replace(ruleset, rules=ruleset.rules[:1]), DataPoint({"Y": 5.0}))

    def test_no_rules_score_every_point_zero(self):
        ruleset = hand_ruleset(make_schema(cont=("X",)), [])
        assert score_point(ruleset, DataPoint({})) == 0.0
        assert score_dataset(ruleset, x_dataset([1.0, 99.0])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("value", [None, "abc", "1.5", [1.0]])
    def test_a_value_that_is_not_a_number_is_a_data_error(self, value):
        message = f"column 'Y' holds {re.escape(repr(value))}, not a number"
        with pytest.raises(DataError, match=message):
            score_point(self.xy_rules(), DataPoint({"X": 5.0, "Y": value}))

    def test_a_column_read_past_a_predicates_first_atom_is_checked(self):
        # U = a holds the disjunction before its V atom is reached
        schema = Schema([Column("U", CATEGORICAL, ["a", "b"]), Column("V", CATEGORICAL, ["a", "b"])])
        either = CategoricalDisjunction((("U", 0), ("V", 0)))
        ruleset = hand_ruleset(schema, [InvariantRule((), (either,), 1.0, BOUNDARY)])
        assert score_point(ruleset, DataPoint({"U": 0, "V": 1})) == 0.0
        with pytest.raises(DataError, match="column 'V' holds None, not a number"):
            score_point(ruleset, DataPoint({"U": 0, "V": None}))


# Column names and categorical values that are Python source, quotes,
# newlines, keywords, names the generated scorer uses, or not ASCII
HOSTILE_TEXTS = [
    "__import__('sys').modules.__setitem__('pwned', 1)",
    "x0",
    "p0) or (1",
    "S0",
    "get",
    "values",
    "'''",
    '"\n    return 1.0\n#',
    "def",
    "None",
    "\u00e9 \u65e5 \U0001f600",
]


class TestGeneratedScorer:
    """score_point runs Python generated from the rules: what the source can
    hold, how far it scales, and which calls build it."""

    @staticmethod
    def hostile_ruleset(tmp_path):
        """A rule file, saved and loaded, whose column names and values are
        HOSTILE_TEXTS, with a table of rows that break some of its rules."""
        cont, cat = HOSTILE_TEXTS[:5], HOSTILE_TEXTS[5:]
        schema = Schema([Column(c, CONTINUOUS, []) for c in cont] + [Column(c, CATEGORICAL, list(HOSTILE_TEXTS)) for c in cat])
        rng = np.random.default_rng(7)
        columns = {c: rng.integers(-3, 4, 200).astype(float).tolist() for c in cont}
        columns.update({c: rng.choice(HOSTILE_TEXTS, 200).tolist() for c in cat})
        dataset = Dataset.from_columns(schema, columns)
        rules = []
        for j, c in enumerate(cont):
            rules.append(InvariantRule((), (Range(c, -2.0, 2.0),), 1.0, BOUNDARY))
            rules.append(InvariantRule((Interval(c, 0.0, INF),), (Interval(cont[j - 1], -INF, 1.0),), 0.25))
        for j, c in enumerate(cat):
            rules.append(InvariantRule((), (Membership(c, frozenset(range(0, 11, 2))),), 1.0, BOUNDARY))
            either = CategoricalDisjunction(((cat[j - 1], 1), (c, 3), (c, 4)))
            rules.append(InvariantRule((CategoricalEquals(c, 5), Range(cont[j % 5], -1.0, 1.0)), (either,), 0.125))
        path = str(tmp_path / "rules.json")
        save_ruleset(hand_ruleset(schema, rules), path)
        ruleset = load_ruleset(path)
        return ruleset, Dataset.from_columns(ruleset.schema.copy(), columns)

    def test_names_and_values_are_never_source(self, tmp_path):
        ruleset, dataset = self.hostile_ruleset(tmp_path)
        scores = score_dataset(ruleset, dataset)
        assert 0 < np.count_nonzero(scores) < dataset.row_count
        assert len(set(scores.tolist())) > 3
        for i in range(dataset.row_count):
            point = dataset.row(i)
            assert score_point(ruleset, point) == scores[i] == score_by_row(ruleset, point)
        assert "pwned" not in sys.modules

    def test_five_thousand_rules_agree_row_by_row(self):
        rng = np.random.default_rng(11)
        values = [f"v{k}" for k in range(60)]
        schema = Schema([Column("X", CONTINUOUS, []), Column("U", CATEGORICAL, values), Column("V", CATEGORICAL, values)])
        n = 60
        dataset = Dataset(
            schema,
            {
                "X": rng.integers(0, 10, n).astype(np.float64),
                "U": rng.integers(0, 60, n),
                "V": rng.integers(0, 60, n),
            },
        )
        pool = []
        for _ in range(300):
            # about 30 of 60 codes, drawn at random: some 15 runs of consecutive codes
            pool.append(Membership(str(rng.choice(["U", "V"])), frozenset(rng.choice(60, 30, replace=False).tolist())))
            cut = float(rng.integers(1, 10))
            pool.append(Interval("X", -INF, cut) if rng.random() < 0.5 else Interval("X", cut, INF))
        pool = list(dict.fromkeys(pool))
        rules = []
        for _ in range(5000):
            picked = rng.choice(len(pool), int(rng.integers(1, 5)), replace=False).tolist()
            split = int(rng.integers(0, len(picked)))
            rules.append(
                InvariantRule(
                    tuple(pool[k] for k in picked[:split]),
                    tuple(pool[k] for k in picked[split:]),
                    float(rng.integers(1, 1000)) / 1000,
                )
            )
        ruleset = hand_ruleset(schema, rules)
        scores = score_dataset(ruleset, dataset)
        assert len(set(scores.tolist())) > n // 2
        for i in range(n):
            assert score_point(ruleset, dataset.row(i)) == scores[i]
        assert score_point(ruleset, dataset.row(0)) == score_by_row(ruleset, dataset.row(0))

    def test_only_score_point_builds_the_scorer(self, tmp_path, monkeypatch):
        train, _ = planted_rule_data(300, seed=5)
        test, _ = planted_rule_data(300, seed=6, violation_rate=0.05)
        rules, data, out = str(tmp_path / "rules.json"), str(tmp_path / "test.csv"), str(tmp_path / "r.jsonl")
        save_ruleset(train_ruleset(train, MiningConfig(theta=0.15, gamma=0.3)).ruleset, rules)
        write_csv(test, data)
        ruleset = load_ruleset(rules)
        dataset = load_csv(data, ruleset.schema.copy())

        def refuse(compiled):
            raise AssertionError("the scorer was built")

        monkeypatch.setattr(predicates_module, "_scorer", refuse)
        scores = score_dataset(ruleset, dataset)
        reports = detect(ruleset, dataset, DetectionConfig())
        flagged = int(np.flatnonzero(scores)[0])
        explain(reports[flagged], ruleset)
        write_reports(reports, ruleset, out)
        assert cli.main(["score", "--rules", rules, "--data", data, "--out", out]) == 1
        assert cli.main(["explain", "--rules", rules, "--data", data, "--row", str(flagged)]) == 0
        assert "score" not in vars(ruleset.compiled)
        monkeypatch.undo()
        assert score_point(ruleset, dataset.row(flagged)) == scores[flagged]
        assert "score" in vars(ruleset.compiled)


class TestDetectReports:
    def test_one_report_per_row_in_order(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([1.0, 50.0, 15.0])
        reports = detect(ruleset, dataset, DetectionConfig())
        assert [r.row for r in reports] == [0, 1, 2]
        assert [r.is_anomaly for r in reports] == [False, True, True]

    def test_violations_come_in_rule_id_order_with_failed_predicates(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([50.0])
        (report,) = detect(ruleset, dataset, DetectionConfig())
        assert [v.rule_id for v in report.violations] == [0, 1]
        assert report.violations[0].failed == (Interval("X", -INF, 10.0),)
        assert report.violations[1].failed == (Interval("X", -INF, 20.0),)

    def test_failed_lists_only_the_predicates_that_failed(self):
        schema = make_schema(cont=("X",))
        p_low = Interval("X", -INF, 10.0)
        p_high = Interval("X", -5.0, INF)
        ruleset = RuleSet(
            schema=schema,
            stats=ColumnStats(continuous={"X": ContinuousStats(0.0, 1.0, -4.0, 9.0)}, categorical={}),
            theta=0.2,
            gamma=0.0,
            max_set_size=6,
            catalog=PredicateCatalog([]),
            rules=[
                InvariantRule(
                    antecedent=(Interval("X", 0.0, INF),),
                    consequent=(p_low, p_high),
                    support=0.4,
                )
            ],
        )
        (report,) = detect(ruleset, x_dataset([50.0]), DetectionConfig())
        assert report.violations[0].failed == (p_low,)


class TestReportsSequence:
    """detect's return value works as a read-only list of AnomalyReport."""

    @staticmethod
    def reports_and_reference():
        dataset = x_dataset([1.0, 50.0, 15.0, 7.0])
        ruleset = envelope_ruleset()
        config = DetectionConfig()
        return detect(ruleset, dataset, config), reports_by_row_loop(ruleset, dataset, config)

    def test_length_and_indexing(self):
        reports, reference = self.reports_and_reference()
        assert len(reports) == 4
        assert reports[1] == reference[1]
        assert reports[-1] == reference[3]
        with pytest.raises(IndexError):
            reports[4]
        with pytest.raises(IndexError):
            reports[-5]

    def test_equal_to_the_reference_list(self):
        reports, reference = self.reports_and_reference()
        assert list(reports) == reference

    def test_scores_are_read_only(self):
        reports, _ = self.reports_and_reference()
        assert reports.scores.tolist() == [0.0, 0.55, 0.3, 0.0]
        assert reports.anomaly_count() == 2
        with pytest.raises(ValueError):
            reports.scores[0] = 1.0

    def test_one_row_unpacks(self):
        ruleset = envelope_ruleset()
        (report,) = detect(ruleset, x_dataset([50.0]), DetectionConfig())
        assert report.row == 0 and report.is_anomaly
        assert explain(report, ruleset).row == 0

    def test_empty_table(self, tmp_path):
        ruleset = envelope_ruleset()
        reports = detect(ruleset, x_dataset([]), DetectionConfig())
        assert len(reports) == 0 and list(reports) == [] and reports.anomaly_count() == 0
        path = tmp_path / "empty.jsonl"
        write_reports(reports, ruleset, str(path))
        assert path.read_bytes() == b""


class TestExplain:
    def test_clean_row_has_nothing_to_explain(self):
        ruleset = envelope_ruleset()
        report = AnomalyReport(row=3, score=0.0, is_anomaly=False, violations=[])
        with pytest.raises(DataError, match="row 3 violates no rules; nothing to explain"):
            explain(report, ruleset)

    def test_mined_rule_explanation(self):
        ruleset = envelope_ruleset()
        dataset = x_dataset([15.0])
        (report,) = detect(ruleset, dataset, DetectionConfig())
        explanation = explain(report, ruleset)
        assert explanation.row == 0 and explanation.score == 0.30
        (entry,) = explanation.entries
        assert entry.rule_id == 0
        assert entry.rule_text == "{X >= 0} => {X < 10}"
        assert entry.columns == ("X",)
        assert entry.conditions == ("X < 10",)
        assert entry.evidence == (
            "in training, whenever 'X >= 0' held (30.0% of rows), "
            "'X < 10' always held as well; this row meets the condition but breaks the outcome"
        )

    def test_boundary_rule_explanation_for_an_unseen_value(self):
        schema = make_schema(cat=("U1",))
        schema.intern("U1", "a")
        schema.intern("U1", "b")
        ruleset = RuleSet(
            schema=schema.copy(),
            stats=ColumnStats(continuous={}, categorical={"U1": ["a", "b"]}),
            theta=0.2,
            gamma=0.0,
            max_set_size=6,
            catalog=PredicateCatalog([]),
            rules=[
                InvariantRule(
                    antecedent=(),
                    consequent=(Membership("U1", frozenset({0, 1})),),
                    support=1.0,
                    kind=BOUNDARY,
                )
            ],
        )
        dataset = Dataset.from_columns(schema, {"U1": ["a", "z"]})
        reports = detect(ruleset, dataset, DetectionConfig())
        assert not reports[0].violations
        explanation = explain(reports[1], ruleset)
        (entry,) = explanation.entries
        assert entry.columns == ("U1",)
        assert entry.conditions == ("U1 in {a,b}",)
        assert entry.evidence == (
            "every training row satisfied 'U1 in {a,b}'; this row falls outside that envelope"
        )

    def test_two_violations_give_two_entries(self):
        ruleset = envelope_ruleset()
        (report,) = detect(ruleset, x_dataset([50.0]), DetectionConfig())
        explanation = explain(report, ruleset)
        assert [e.rule_id for e in explanation.entries] == [0, 1]

    def test_text_layout(self):
        ruleset = envelope_ruleset()
        (report,) = detect(ruleset, x_dataset([15.0]), DetectionConfig())
        text = explain(report, ruleset).text()
        assert text.splitlines()[0] == "row 0: anomaly score 0.3"
        assert "- rule 0: {X >= 0} => {X < 10}" in text
        assert "  implicated columns: X" in text
        assert "  failed conditions: X < 10" in text


class TestReportFiles:
    def test_jsonl_round_trip(self, tmp_path):
        ruleset = envelope_ruleset()
        dataset = x_dataset([1.0, 50.0, 15.0])
        reports = detect(ruleset, dataset, DetectionConfig())
        path = tmp_path / "reports.jsonl"
        write_reports(reports, ruleset, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [r["row"] for r in rows] == [0, 1, 2]
        assert rows[0]["violations"] == []
        assert rows[1]["is_anomaly"] is True
        v0 = rows[1]["violations"][0]
        assert v0["rule_id"] == 0
        assert v0["rule"] == "{X >= 0} => {X < 10}"
        assert v0["support"] == 0.30
        assert v0["failed"] == ["X < 10"]


class TestOnTrainedRules:
    def test_training_rows_never_flagged_and_scorers_agree(self):
        train, _ = planted_rule_data(300, seed=3)
        ruleset = train_ruleset(train, MiningConfig(theta=0.2, gamma=0.3)).ruleset
        scores = score_dataset(ruleset, train)
        assert float(scores.max()) == 0.0
        probe, _ = planted_rule_data(40, seed=9, violation_rate=0.3)
        probe_scores = score_dataset(ruleset, probe)
        for i in range(probe.row_count):
            assert score_point(ruleset, probe.row(i)) == probe_scores[i]


class TestCategoricalCodes:
    """A table meets a rule file by categorical value, not by code."""

    @pytest.fixture(scope="class")
    def ruleset(self):
        train, _ = planted_rule_data(2000, seed=7)
        return train_ruleset(train, MiningConfig(theta=0.15, gamma=0.3)).ruleset

    def test_own_schema_scores_like_the_rule_file_schema(self, ruleset, tmp_path):
        own, _ = planted_rule_data(1000, seed=11, violation_rate=0.0)
        for name in ("U2", "U4"):
            assert own.schema.column(name).values != ruleset.schema.column(name).values
        path = str(tmp_path / "test.csv")
        write_csv(own, path)
        reloaded = load_csv(path, ruleset.schema.copy())
        assert score_dataset(ruleset, own).tolist() == score_dataset(ruleset, reloaded).tolist()
        config = DetectionConfig()
        assert list(detect(ruleset, own, config)) == list(detect(ruleset, reloaded, config))

    def test_unseen_value_breaks_its_boundary_rule(self, ruleset):
        source, _ = planted_rule_data(20, seed=11, violation_rate=0.0)
        columns = {
            c.name: source.column(c.name).tolist()
            if c.kind == CONTINUOUS
            else [source.schema.value_of(c.name, int(v)) for v in source.column(c.name)]
            for c in source.schema.columns
        }
        columns["U2"][0] = "zzz"  # first seen, so it takes code 0 in its own schema
        fresh = Schema([Column(c.name, c.kind, []) for c in source.schema.columns])
        dataset = Dataset.from_columns(fresh, columns)
        assert fresh.code_for("U2", "zzz") == 0
        (report, *_) = detect(ruleset, dataset, DetectionConfig())
        broken = [v for v in report.violations if v.rule.kind == BOUNDARY]
        assert [v.failed[0].columns() for v in broken] == [("U2",)]
        assert report.score >= 1.0
        assert score_dataset(ruleset, dataset)[0] == report.score


def hand_ruleset(schema, rules):
    return RuleSet(
        schema=schema,
        stats=ColumnStats(continuous={}, categorical={}),
        theta=0.2,
        gamma=0.0,
        max_set_size=6,
        catalog=PredicateCatalog([]),
        rules=rules,
    )


def xy_ruleset(schema):
    """rule 0: X >= 0 => X < 10, Y < 5, Y >= -5   (support 0.25)
    rule 1: Y >= 0 => X < 20, Y < 8            (support 0.5)"""
    return hand_ruleset(
        schema,
        [
            InvariantRule(
                antecedent=(Interval("X", 0.0, INF),),
                consequent=(Interval("X", -INF, 10.0), Interval("Y", -INF, 5.0), Interval("Y", -5.0, INF)),
                support=0.25,
            ),
            InvariantRule(
                antecedent=(Interval("Y", 0.0, INF),),
                consequent=(Interval("X", -INF, 20.0), Interval("Y", -INF, 8.0)),
                support=0.5,
            ),
        ],
    )


# X, Y pairs that fail different subsets of the consequents of both rules; the list repeats once
XY_ROWS = [(1, 1), (50, 1), (1, 6), (1, -9), (50, 6), (50, -9), (15, 9), (25, 2), (25, 9), (-1, 9), (-1, -9)] * 2


class TestMatchesRowLoopReference:
    """detect and write_reports give what the per-row loop and the
    per-row json.dumps writer give: equal reports, byte-identical files."""

    @staticmethod
    def check(ruleset, dataset, config, tmp_path):
        reports = detect(ruleset, dataset, config)
        reference = reports_by_row_loop(ruleset, dataset, config)
        assert list(reports) == reference
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
        write_reports(reports, ruleset, str(ours))
        write_reports_by_json_dumps(reference, ruleset, str(theirs))
        assert ours.read_bytes() == theirs.read_bytes()
        return reports

    @pytest.mark.parametrize(
        "config",
        [DetectionConfig(), DetectionConfig(phi=0.9), DetectionConfig(ignore_rules=frozenset({0, 3, 4}))],
        ids=["default", "phi", "ignore"],
    )
    def test_trained_planted_table(self, tmp_path, config):
        train, _ = planted_rule_data(400, seed=3)
        ruleset = train_ruleset(train, MiningConfig(theta=0.2, gamma=0.3)).ruleset
        probe, _ = planted_rule_data(200, seed=9, violation_rate=0.3)
        reports = self.check(ruleset, probe, config, tmp_path)
        assert any(r.violations for r in reports)

    @pytest.mark.parametrize("seed, mined", [(0, 0), (3, 43)])
    def test_trained_random_mixed_table(self, tmp_path, seed, mined):
        train = random_mixed_dataset(300, 3, 3, seed)
        ruleset = train_ruleset(train, MiningConfig(theta=0.1, gamma=0.3)).ruleset
        assert sum(r.kind == MINED for r in ruleset.rules) == mined
        reports = self.check(ruleset, random_mixed_dataset(150, 3, 3, seed + 100), DetectionConfig(), tmp_path)
        assert any(r.violations for r in reports)

    def test_rows_failing_different_consequents(self, tmp_path):
        dataset = make_dataset(cont={"X": [x for x, _ in XY_ROWS], "Y": [y for _, y in XY_ROWS]})
        ruleset = xy_ruleset(dataset.schema)
        reports = self.check(ruleset, dataset, DetectionConfig(), tmp_path)
        failed = {v.failed for r in reports for v in r.violations if v.rule_id == 0}
        assert len(failed) == 5
        # the second copy of each row shares its twin's RuleViolation objects
        half = len(XY_ROWS) // 2
        rows = list(reports)
        for a, b in zip(rows[:half], rows[half:]):
            assert len(a.violations) == len(b.violations)
            assert all(u is v for u, v in zip(a.violations, b.violations))

    def test_rows_scoring_exactly_phi(self, tmp_path):
        dataset = make_dataset(cont={"X": [x for x, _ in XY_ROWS], "Y": [y for _, y in XY_ROWS]})
        ruleset = xy_ruleset(dataset.schema)
        reports = self.check(ruleset, dataset, DetectionConfig(phi=0.5), tmp_path)
        scores = {r.score for r in reports}
        assert {0.25, 0.5, 0.75} <= scores
        assert [r.is_anomaly for r in reports] == [r.score > 0.5 for r in reports]

    def test_ignore_rules(self, tmp_path):
        dataset = make_dataset(cont={"X": [x for x, _ in XY_ROWS], "Y": [y for _, y in XY_ROWS]})
        ruleset = xy_ruleset(dataset.schema)
        reports = self.check(ruleset, dataset, DetectionConfig(ignore_rules=frozenset({0})), tmp_path)
        assert {v.rule_id for r in reports for v in r.violations} == {1}

    def test_values_that_json_must_escape(self, tmp_path):
        values = ["café", 'say "hi"', "back\\slash", "日本", "tab\there"]
        dataset = make_dataset(cont={"X": [0.5, 3.0, 0.5, 2.0, 9.0, 9.0]}, cat={"C": values + ["café"]})
        schema = dataset.schema
        ruleset = hand_ruleset(
            schema,
            [
                InvariantRule(
                    antecedent=(),
                    consequent=(Membership("C", frozenset({0, 1, 2})),),
                    support=1.0,
                    kind=BOUNDARY,
                ),
                InvariantRule(
                    antecedent=(Interval("X", 1.0, INF),),
                    consequent=(Membership("C", frozenset({0, 3})), Interval("X", -INF, 5.0)),
                    support=1 / 3,
                ),
            ],
        )
        reports = self.check(ruleset, dataset, DetectionConfig(), tmp_path)
        text = (tmp_path / "ours.jsonl").read_text(encoding="utf-8")
        assert '\\u00e9' in text and '\\"hi\\"' in text and "back\\\\slash" in text
        assert [len(r.violations) for r in reports] == [0, 1, 0, 1, 2, 1]

    @pytest.mark.parametrize("phi", [0.0, 0.5], ids=["phi0", "phi0.5"])
    @pytest.mark.parametrize("block", [1, 4, 5])
    def test_table_spanning_writer_blocks(self, tmp_path, monkeypatch, block, phi):
        monkeypatch.setattr(detect_module, "_WRITE_ROWS", block)
        dataset = make_dataset(cont={"X": [x for x, _ in XY_ROWS], "Y": [y for _, y in XY_ROWS]})
        ruleset = xy_ruleset(dataset.schema)
        reports = self.check(ruleset, dataset, DetectionConfig(phi=phi), tmp_path)
        violated = [r.row for r in reports if r.violations]
        # violated rows on both sides of a block edge, in at least two blocks
        assert any(r % block == block - 1 and r + 1 in violated for r in violated)
        assert len({r // block for r in violated}) >= 2
        if phi:
            assert any(not r.is_anomaly for r in reports if r.violations)

    def test_more_consequents_than_an_int64_has_bits(self, tmp_path):
        # row X fails the consequents X < t for every t <= X: bits past 63 tell these rows apart
        xs = [0.5, 62.5, 63.5, 64.5, 65.5, 69.5, 70.5, 64.5, 0.5]
        dataset = x_dataset(xs)
        cuts = [Interval("X", -INF, float(t)) for t in range(1, 71)]
        ruleset = hand_ruleset(dataset.schema, [InvariantRule((), tuple(cuts), 0.5)])
        reports = self.check(ruleset, dataset, DetectionConfig(), tmp_path)
        failed = [len(r.violations[0].failed) if r.violations else 0 for r in reports]
        assert failed == [0, 62, 63, 64, 65, 69, 70, 64, 0]
        assert reports[3].violations[0] is reports[7].violations[0]

    def test_no_row_violated(self, tmp_path):
        train, _ = planted_rule_data(300, seed=5)
        ruleset = train_ruleset(train, MiningConfig(theta=0.2, gamma=0.3)).ruleset
        reports = list(self.check(ruleset, train, DetectionConfig(), tmp_path))
        assert all(r.violations == [] and r.score == 0.0 for r in reports)
        # every clean row owns its empty list
        assert len({id(r.violations) for r in reports}) == len(reports)


# rows that open or close a run of rows with as many digits, or a writer block of 9, 10 or 11 rows
EDGE_ROWS = [0, 8, 9, 10, 11, 17, 18, 19, 20, 21, 22, 99, 100, 999, 1000, 9999, 10000, 10009]
WRITER_ROWS = 10_010


@pytest.fixture(scope="module")
def writer_tables(tmp_path_factory):
    """Per table kind: the ruleset, detect's reports and the bytes the
    per-row json.dumps writer gives for the row loop's reports.  Flagged
    rows cycle through the nine XY_ROWS pairs that break a rule."""
    flagged_pairs = XY_ROWS[1:10]
    flagged = {
        "edges": EDGE_ROWS,
        "none": [],
        "all": range(WRITER_ROWS),
        "empty": [],
    }
    tables = {}
    for kind, rows in flagged.items():
        n = 0 if kind == "empty" else WRITER_ROWS
        pairs = [(1, 1)] * n
        for r in rows:
            pairs[r] = flagged_pairs[r % len(flagged_pairs)]
        dataset = make_dataset(cont={"X": [x for x, _ in pairs], "Y": [y for _, y in pairs]})
        ruleset = xy_ruleset(dataset.schema)
        config = DetectionConfig(phi=0.5)
        path = tmp_path_factory.mktemp("writer") / f"{kind}.jsonl"
        write_reports_by_json_dumps(reports_by_row_loop(ruleset, dataset, config), ruleset, str(path))
        reports = detect(ruleset, dataset, config)
        tables[kind] = ruleset, reports, path.read_bytes()
    return tables


class TestWriterBlocksAndDigits:
    """write_reports gives the per-row json.dumps writer's bytes where row
    numbers gain a digit (9 -> 10 ... 9999 -> 10000) and where writer
    blocks open and close, on and next to those rows."""

    @pytest.mark.parametrize("kind", ["edges", "none", "all", "empty"])
    @pytest.mark.parametrize("block", [9, 10, 11, 1000, None])
    def test_bytes_equal_the_json_dumps_writer(self, writer_tables, tmp_path, monkeypatch, kind, block):
        if block:
            monkeypatch.setattr(detect_module, "_WRITE_ROWS", block)
        ruleset, reports, expected = writer_tables[kind]
        path = tmp_path / "ours.jsonl"
        write_reports(reports, ruleset, str(path))
        assert path.read_bytes() == expected

    def test_flagged_rows_open_and_close_blocks_and_digit_runs(self, writer_tables):
        _, reports, _ = writer_tables["edges"]
        flagged = set(reports.hit.tolist())
        assert flagged == set(EDGE_ROWS) and reports.anomaly_count() > 0
        assert len(writer_tables["all"][1].hit) == WRITER_ROWS
        for block in (9, 10, 11):
            assert {0, block - 1, block, 2 * block - 1} <= flagged
        # each run of rows with as many digits starts and ends flagged
        assert {0, WRITER_ROWS - 1} | {10**d + e for d in range(1, 5) for e in (-1, 0)} <= flagged
        # flagged rows next to each other, with no clean line between them
        assert {8, 9, 10, 11} <= flagged

    def test_rows_sharing_violations_keep_their_own_scores(self, tmp_path):
        ruleset = xy_ruleset(make_schema(cont=("X", "Y")))
        violation = detect_module.RuleViolation(0, ruleset.rules[0], ruleset.rules[0].consequent[:1])
        # rows 0, 2 and 3 carry the same violation but two scores, which only a hand-built Reports can give
        reports = detect_module.Reports(
            scores=np.array([0.25, 0.0, 0.75, 0.25]),
            phi=0.5,
            violations=(violation,),
            hit=np.array([0, 2, 3]),
            starts=np.array([0, 1, 2, 3]),
            ids=np.array([0, 0, 0]),
        )
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
        write_reports(reports, ruleset, str(ours))
        write_reports_by_json_dumps(reports, ruleset, str(theirs))
        assert ours.read_bytes() == theirs.read_bytes()
        lines = [json.loads(line) for line in ours.read_text().splitlines()]
        flags = [(0.25, False), (0.0, False), (0.75, True), (0.25, False)]
        assert [(r["score"], r["is_anomaly"]) for r in lines] == flags
