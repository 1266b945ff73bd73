"""Metrics, the hyperparameter sweep, and threshold tuning."""

import tempfile
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from invarmine import mining
from invarmine.data import DataError
from invarmine.evaluate import (
    DEFAULT_MAX_FPR,
    DEFAULT_THETA_CANDIDATES,
    LabeledScores,
    PRF1,
    SweepCell,
    false_positive_rate,
    holdout_split,
    prf1_at_threshold,
    roc_auc,
    roc_points,
    standardized_pauc,
    sweep,
    tune_theta,
)
from invarmine.mining import MiningConfig, MiningError
from invarmine.pipeline import data_stage, theta_stage
from invarmine.synth import planted_rule_data

from helpers import make_dataset
from oracles import (
    area_by_segments,
    auc_by_pair_counting,
    roc_curve_by_recount,
    standardize_partial_area,
    sweep_by_retraining,
)


def labeled(scores, labels):
    return LabeledScores(np.asarray(scores, dtype=float), np.asarray(labels))


class TestLabeledScores:
    def test_validation(self):
        with pytest.raises(DataError, match="equal length"):
            labeled([1.0, 2.0], [1])
        with pytest.raises(DataError, match="no scores"):
            labeled([], [])
        with pytest.raises(DataError, match="0 .*or 1"):
            labeled([1.0], [2])

    def test_fractional_labels_are_refused_before_the_integer_cast(self):
        # cast first, these labels would read [0, 1, 0] and the ranking would score AUC 1.0
        with pytest.raises(DataError, match="labels must be 0 .*or 1"):
            LabeledScores(np.array([0.7, 1.9, 0.0]), np.array([0.1, 0.9, 0.5]))
        with pytest.raises(DataError, match="labels must be 0 .*or 1"):
            labeled([0.7, 1.9], [np.nan, 1.0])
        ls = LabeledScores(np.array([0.7, 1.9]), np.array([0.0, 1.0]))
        assert ls.labels.dtype == np.int64 and ls.labels.tolist() == [0, 1]
        assert LabeledScores(np.array([0.7, 1.9]), np.array([False, True])).labels.tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_are_refused(self, bad):
        with pytest.raises(DataError, match="scores must be finite"):
            labeled([0.7, bad, 0.1], [1, 0, 0])


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(labeled([0.9, 0.8, 0.1, 0.0], [1, 1, 0, 0])) == 1.0

    def test_all_scores_tied_is_chance(self):
        assert roc_auc(labeled([0.5] * 4, [1, 0, 1, 0])) == 0.5
        assert roc_auc(labeled([1.0, 1.0], [1, 0])) == 0.5

    def test_worked_example(self):
        ls = labeled([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
        assert roc_auc(ls) == 0.75
        fpr, tpr = roc_points(ls)
        assert fpr.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]
        assert tpr.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="at least one anomaly and one normal"):
            roc_auc(labeled([0.1, 0.2], [1, 1]))
        with pytest.raises(DataError, match="at least one anomaly and one normal"):
            roc_auc(labeled([0.1, 0.2], [0, 0]))


class TestStandardizedPauc:
    def test_perfect_curve_scores_one(self):
        ls = labeled([3.0, 3.0, 1.0, 1.0], [1, 1, 0, 0])
        assert standardized_pauc(ls, 0.1) == 1.0

    def test_diagonal_scores_half(self):
        ls = labeled([1.0] * 4, [1, 0, 1, 0])
        assert standardized_pauc(ls, 0.1) == 0.5

    def test_cap_one_equals_plain_auc(self):
        ls = labeled([0.9, 0.8, 0.7, 0.6, 0.5, 0.4], [1, 0, 1, 1, 0, 0])
        assert standardized_pauc(ls, 1.0) == roc_auc(ls)

    def test_six_point_worked_example(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        labels = [1, 0, 1, 1, 0, 0]
        got = standardized_pauc(labeled(scores, labels), 0.1)
        # raw partial area is 0.1 * (1/3); chance level is 0.005
        expected = 0.5 * (1.0 + (0.1 / 3.0 - 0.005) / (0.1 - 0.005))
        assert got == pytest.approx(expected, abs=1e-12)
        points = roc_curve_by_recount(scores, labels)
        oracle = standardize_partial_area(area_by_segments(points, 0.1), 0.1)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_cap_bounds(self):
        ls = labeled([0.9, 0.1], [1, 0])
        with pytest.raises(DataError, match="max_fpr"):
            standardized_pauc(ls, 0.0)
        with pytest.raises(DataError, match="max_fpr"):
            standardized_pauc(ls, 1.5)


@st.composite
def labeled_instance(draw):
    n = draw(st.integers(min_value=3, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    labels[0] = 1
    labels[1] = 0
    # a small score vocabulary forces plenty of ties
    scores = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0, 2.0], size=n)
    return scores, labels


@given(labeled_instance())
def test_auc_equals_pair_counting(case):
    scores, labels = case
    got = roc_auc(labeled(scores, labels))
    assert got == pytest.approx(auc_by_pair_counting(scores, labels), abs=1e-12)


@given(labeled_instance())
def test_auc_is_invariant_under_monotone_transforms(case):
    scores, labels = case
    base = roc_auc(labeled(scores, labels))
    assert roc_auc(labeled(2.0 * scores + 1.0, labels)) == base
    assert roc_auc(labeled(np.exp(scores), labels)) == base


@given(labeled_instance(), st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]))
def test_pauc_matches_segment_oracle(case, cap):
    scores, labels = case
    got = standardized_pauc(labeled(scores, labels), cap)
    points = roc_curve_by_recount(scores, labels)
    expected = standardize_partial_area(area_by_segments(points, cap), cap)
    assert got == pytest.approx(expected, abs=1e-12)


class TestPrf1:
    def test_perfect_predictions(self):
        got = prf1_at_threshold(labeled([1.0, 1.0, 0.0, 0.0], [1, 1, 0, 0]), 0.5)
        assert got == PRF1(precision=1.0, recall=1.0, f1=1.0, degenerate=False)

    def test_mixed_counts(self):
        # 8 caught anomalies, 2 missed, 2 false alarms, 8 true negatives
        scores = [1.0] * 8 + [0.0] * 2 + [1.0] * 2 + [0.0] * 8
        labels = [1] * 10 + [0] * 10
        got = prf1_at_threshold(labeled(scores, labels), 0.5)
        assert (got.precision, got.recall) == (0.8, 0.8)
        assert got.f1 == pytest.approx(0.8, abs=1e-12)
        assert not got.degenerate

    def test_no_predicted_positives_is_degenerate(self):
        got = prf1_at_threshold(labeled([0.0, 0.0], [1, 0]), 0.0)
        assert got == PRF1(precision=0.0, recall=0.0, f1=0.0, degenerate=True)

    def test_no_true_anomalies_is_degenerate(self):
        got = prf1_at_threshold(labeled([1.0, 0.0], [0, 0]), 0.5)
        assert got.degenerate and got.recall == 0.0

    def test_threshold_is_strict(self):
        got = prf1_at_threshold(labeled([0.5, 0.0], [1, 0]), 0.5)
        assert got.degenerate  # the 0.5 score does not exceed phi = 0.5


class TestFalsePositiveRate:
    def test_counts_strictly_above(self):
        scores = np.array([0.0, 0.2, 0.0, 0.6])
        assert false_positive_rate(scores) == 0.5
        assert false_positive_rate(scores, phi=0.2) == 0.25
        assert false_positive_rate(scores, phi=1.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no scores"):
            false_positive_rate(np.array([]))


@cache
def sweep_tables(empty):
    """The sweep tests' tables; with empty, the training table has no rows."""
    train, _ = planted_rule_data(150, seed=21)
    test, labels = planted_rule_data(80, seed=22, violation_rate=0.2)
    return (train.take(np.arange(0)) if empty else train), test, labels


class TestSweep:
    def test_full_grid_evaluates_every_cell(self):
        train, test, labels = sweep_tables(False)
        result = sweep(train, test, labels, [0.2, 0.3], [0.0, 0.5], max_set_size=4)
        assert [(c.theta, c.gamma) for c in result.cells] == [
            (0.2, 0.0),
            (0.2, 0.5),
            (0.3, 0.0),
            (0.3, 0.5),
        ]
        for cell in result.cells:
            assert cell.error is None
            assert cell.rule_count > 0
            assert 0.0 <= cell.auc <= 1.0
            assert 0.0 <= cell.pauc <= 1.0

    def test_bad_cell_records_error_and_sweep_continues(self):
        train, test, labels = sweep_tables(False)
        result = sweep(train, test, labels, [1.5, 0.3], [0.0], max_set_size=4)
        bad, good = result.cells
        assert "theta must lie in (0, 1)" in bad.error
        assert bad.rule_count is None and bad.auc is None
        assert good.error is None and good.rule_count > 0

    def test_sweep_is_deterministic(self):
        train, test, labels = sweep_tables(False)
        first = sweep(train, test, labels, [0.25], [0.0, 0.5], max_set_size=4)
        second = sweep(train, test, labels, [0.25], [0.0, 0.5], max_set_size=4)
        assert first.cells == second.cells

    def test_csv_layout(self, tmp_path):
        cells = [
            SweepCell(theta=0.2, gamma=0.5, rule_count=12, auc=0.875, pauc=0.5,
                      f1=0.8, precision=1.0, recall=2.0 / 3.0),
            SweepCell(theta=0.9, gamma=0.5, error="boom"),
        ]
        from invarmine.evaluate import SweepResult

        path = tmp_path / "grid.csv"
        SweepResult(cells).to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,gamma,rule_count,auc,pauc,f1,precision,recall"
        assert lines[1] == f"0.2,0.5,12,0.875,0.5,0.8,1.0,{2.0 / 3.0!r}"
        assert lines[2] == "0.9,0.5,,,,,,"


@given(
    theta_grid=st.lists(st.sampled_from([0.1, 0.15, 0.2, 0.3, 1.5]), min_size=1, max_size=3),
    gamma_grid=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), min_size=1, max_size=3),
    max_set_size=st.sampled_from([2, 3, 4, None, 1]),
    empty=st.sampled_from([False, False, False, True]),
)
@example(theta_grid=[0.2, 0.3, 0.2], gamma_grid=[0.0, 0.5], max_set_size=4, empty=False)
@example(theta_grid=[1.5, 0.2], gamma_grid=[0.0, 0.5], max_set_size=4, empty=False)
@example(theta_grid=[0.2], gamma_grid=[1.0, 0.5], max_set_size=4, empty=False)
@example(theta_grid=[0.2, 0.3], gamma_grid=[0.0], max_set_size=1, empty=False)
@example(theta_grid=[1.5, 0.2], gamma_grid=[1.0, 0.0], max_set_size=1, empty=False)
@example(theta_grid=[0.2, 0.3, 0.2], gamma_grid=[0.0, 0.5], max_set_size=4, empty=True)
@example(theta_grid=[1.5, 0.2], gamma_grid=[1.0, 0.0], max_set_size=1, empty=True)
def test_sweep_equals_retraining_every_cell(theta_grid, gamma_grid, max_set_size, empty):
    """Shared stages change nothing: the cells, errors included, and the CSV
    bytes are those of training each cell from scratch."""
    train, test, labels = sweep_tables(empty)
    args = (train, test, labels, theta_grid, gamma_grid, max_set_size, DEFAULT_MAX_FPR)
    shared, retrained = sweep(*args), sweep_by_retraining(*args)
    assert shared.cells == retrained.cells
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "shared.csv", Path(tmp) / "retrained.csv"]
        shared.to_csv(str(paths[0]))
        retrained.to_csv(str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSharedStageErrors:
    def counted(self, monkeypatch, name, stage):
        calls = []

        def run(*args):
            calls.append(args)
            return stage(*args)

        monkeypatch.setattr(f"invarmine.evaluate.{name}", run)
        return calls

    def test_a_failed_theta_stage_runs_once_and_fails_each_of_its_cells(self, monkeypatch):
        train, test, labels = sweep_tables(False)
        # on this table theta 0.3's sets take 94 candidate checks and theta 0.1's 587,
        # so 200 counts the first but not the second
        monkeypatch.setattr(mining, "_MAX_CANDIDATE_CHECKS", 200)
        calls = self.counted(monkeypatch, "theta_stage", theta_stage)
        result = sweep(train, test, labels, [0.1, 0.3, 0.1], [0.0, 0.5, 0.9], max_set_size=4)
        assert [args[2] for args in calls] == [0.1, 0.3]
        budget = (
            "frequent-set enumeration passed 200 candidate checks; "
            "raise theta (now 0.1) or lower max_set_size (now 4)"
        )
        assert [c.error for c in result.cells if c.theta == 0.1] == [budget] * 6
        assert all(c.error is None and c.rule_count > 0 for c in result.cells if c.theta == 0.3)

    def test_a_failed_data_stage_runs_once_and_fails_each_cell_that_needs_it(self, monkeypatch):
        train, test, labels = sweep_tables(True)
        calls = self.counted(monkeypatch, "data_stage", data_stage)
        result = sweep(train, test, labels, [0.2, 1.5, 0.3], [0.0, 0.5], max_set_size=4)
        assert len(calls) == 1
        empty, bad = "cannot compute statistics on an empty dataset", "theta must lie in (0, 1), got 1.5"
        assert [c.error for c in result.cells] == [empty, empty, bad, bad, empty, empty]


class FakeTuneTarget:
    """Stands in for training and scoring inside the tuner."""

    def __init__(self, rule_counts, positive_counts, n_validation=200):
        self.rule_counts = rule_counts
        self.positive_counts = positive_counts
        self.n_validation = n_validation
        self.trained_thetas = []

    def train(self, dataset, config):
        assert isinstance(config, MiningConfig)
        self.trained_thetas.append(config.theta)
        ruleset = SimpleNamespace(theta=config.theta, rules=[object()] * self.rule_counts[config.theta])
        return SimpleNamespace(ruleset=ruleset)

    def score(self, ruleset, validation):
        scores = np.zeros(self.n_validation)
        scores[: self.positive_counts[ruleset.theta]] = 0.4
        return scores

    def install(self, monkeypatch):
        monkeypatch.setattr("invarmine.evaluate.train_ruleset", self.train)
        monkeypatch.setattr("invarmine.evaluate.score_dataset", self.score)


class TestTuneTheta:
    def dataset(self):
        return make_dataset(cont={"X": [1.0, 2.0, 3.0]})

    def test_most_rules_below_target_wins(self, monkeypatch):
        fake = FakeTuneTarget(rule_counts={0.2: 20, 0.1: 30}, positive_counts={0.2: 1, 0.1: 4})
        fake.install(monkeypatch)
        tuning = tune_theta(self.dataset(), self.dataset(), gamma=0.5, target_fpr=0.01,
                            candidates=[0.1, 0.2])
        assert fake.trained_thetas == [0.2, 0.1]  # evaluated largest first
        assert (tuning.theta, tuning.rule_count, tuning.fpr) == (0.2, 20, 0.005)
        assert not tuning.fell_back
        assert [(t.theta, t.rule_count, t.fpr) for t in tuning.trials] == [
            (0.2, 20, 0.005),
            (0.1, 30, 0.02),
        ]

    def test_fallback_to_largest_candidate(self, monkeypatch):
        fake = FakeTuneTarget(rule_counts={0.2: 20, 0.1: 30}, positive_counts={0.2: 1, 0.1: 4})
        fake.install(monkeypatch)
        tuning = tune_theta(self.dataset(), self.dataset(), gamma=0.5, target_fpr=0.001,
                            candidates=[0.1, 0.2])
        assert tuning.fell_back
        assert tuning.theta == 0.2

    def test_rule_count_tie_prefers_smaller_theta(self, monkeypatch):
        fake = FakeTuneTarget(rule_counts={0.2: 10, 0.1: 10}, positive_counts={0.2: 0, 0.1: 0})
        fake.install(monkeypatch)
        tuning = tune_theta(self.dataset(), self.dataset(), gamma=0.5, target_fpr=0.01,
                            candidates=[0.2, 0.1])
        assert tuning.theta == 0.1
        assert not tuning.fell_back

    def test_default_candidate_list(self, monkeypatch):
        counts = {t: 5 for t in DEFAULT_THETA_CANDIDATES}
        fake = FakeTuneTarget(rule_counts=counts, positive_counts={t: 0 for t in counts})
        fake.install(monkeypatch)
        tuning = tune_theta(self.dataset(), self.dataset(), gamma=0.0)
        assert fake.trained_thetas == sorted(DEFAULT_THETA_CANDIDATES, reverse=True)
        assert tuning.theta == min(DEFAULT_THETA_CANDIDATES)

    def test_no_candidates_rejected(self):
        with pytest.raises(MiningError, match="no theta candidates"):
            tune_theta(self.dataset(), self.dataset(), gamma=0.0, candidates=[])

    def test_on_planted_data(self):
        full, _ = planted_rule_data(400, seed=31)
        train, validation = holdout_split(full, 0.2)
        tuning = tune_theta(train, validation, gamma=0.3, target_fpr=0.5,
                            candidates=[0.3, 0.2], max_set_size=4)
        assert not tuning.fell_back
        admissible = [t for t in tuning.trials if t.fpr < 0.5]
        best = max(admissible, key=lambda t: (t.rule_count, -t.theta))
        assert tuning.theta == best.theta
        assert tuning.rule_count == best.rule_count


class TestHoldoutSplit:
    def test_interleaved_split_is_disjoint_and_exhaustive(self):
        dataset = make_dataset(cont={"X": [float(i) for i in range(10)]})
        train, validation = holdout_split(dataset, 0.2)
        assert validation.column("X").tolist() == [0.0, 5.0]
        assert train.column("X").tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0]
        assert train.schema is dataset.schema

    def test_half_split(self):
        dataset = make_dataset(cont={"X": [0.0, 1.0, 2.0, 3.0]})
        train, validation = holdout_split(dataset, 0.5)
        assert validation.column("X").tolist() == [0.0, 2.0]
        assert train.column("X").tolist() == [1.0, 3.0]

    def test_bounds_and_small_datasets(self):
        dataset = make_dataset(cont={"X": [1.0]})
        with pytest.raises(DataError, match="validation_fraction"):
            holdout_split(dataset, 0.0)
        with pytest.raises(DataError, match="validation_fraction"):
            holdout_split(dataset, 1.0)
        with pytest.raises(DataError, match="too small"):
            holdout_split(dataset, 0.2)
