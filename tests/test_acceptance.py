"""Acceptance gate.

Each test exercises one required behavior end to end and prints a single
ACCEPTANCE PASS/FAIL line (run pytest with -s to see them all).  The
benchmark test skips, with an ACCEPTANCE SKIP line, when its datasets
are not present; everything else runs hermetically.
"""

import os
import time

import numpy as np
import pytest

from invarmine.detect import DetectionConfig, detect, explain, score_dataset
from invarmine.evaluate import (
    LabeledScores,
    false_positive_rate,
    holdout_split,
    roc_auc,
    standardized_pauc,
    tune_theta,
)
from invarmine.mining import (
    BOUNDARY,
    MiningConfig,
    count_sets,
    filter_closed,
    generate_rules,
    mine_frequent_sets,
)
from invarmine.pipeline import train_ruleset
from invarmine.predicates import CategoricalDisjunction, CategoricalEquals, Interval
from invarmine.synth import planted_rule_data, random_mixed_dataset

from helpers import build_catalog, load_script, mine, random_predicates
from oracles import (
    area_by_segments,
    auc_by_pair_counting,
    closed_by_full_scan,
    frequent_sets_by_enumeration,
    roc_curve_by_recount,
    standardize_partial_area,
    support_by_rows,
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {status} [{name}] {detail}")
    assert ok, f"{name}: {detail}"


def _skip(name, detail):
    print(f"\nACCEPTANCE SKIP [{name}] {detail}")
    pytest.skip(detail)


def test_01_training_soundness():
    """Training data never scores above zero, across shapes and settings."""
    specs = [
        (500, 3, 2, 0.1, 0.0, 101),
        (900, 6, 5, 0.2, 0.6, 102),
        (1400, 10, 4, 0.3, 0.0, 103),
        (2200, 5, 10, 0.1, 0.6, 104),
        (3000, 12, 8, 0.2, 0.0, 105),
    ]
    started = time.perf_counter()
    rows_total = 0
    worst = 0.0
    for n_rows, n_cont, n_cat, theta, gamma, seed in specs:
        dataset = random_mixed_dataset(n_rows, n_cont, n_cat, seed=seed)
        result = train_ruleset(dataset, MiningConfig(theta=theta, gamma=gamma))
        scores = score_dataset(result.ruleset, dataset)
        worst = max(worst, float(np.abs(scores).max()))
        rows_total += n_rows
    elapsed = time.perf_counter() - started
    _report(
        "training-soundness",
        worst == 0.0 and elapsed < 60.0,
        f"{len(specs)} datasets, {rows_total} rows, max training score {worst}, {elapsed:.1f}s",
    )


def test_02_mining_oracle():
    """The miner and the closedness filter match exhaustive enumeration."""
    instances = 0
    mismatches = 0
    rng = np.random.default_rng(2718)
    while instances < 100:
        n_rows = int(rng.integers(20, 61))
        dataset = random_mixed_dataset(
            n_rows,
            n_continuous=int(rng.integers(1, 4)),
            n_categorical=int(rng.integers(1, 4)),
            seed=int(rng.integers(1_000_000)),
        )
        predicates = random_predicates(dataset, rng, max_preds=10)
        catalog = build_catalog(dataset, predicates)
        theta = float(rng.choice([0.05, 0.1, 0.2, 0.35, 0.5]))
        gamma = float(rng.choice([0.0, 0.3, 0.7, 0.9]))
        cap = int(rng.choice([2, 3, 3, 4]))
        config = MiningConfig(theta, gamma, cap)

        mined = mine(dataset, catalog, config)
        expected = frequent_sets_by_enumeration(dataset, catalog, theta, gamma, cap)
        if {s.ids: s.support for s in mined} != expected:
            mismatches += 1
        closed = filter_closed(mined)
        if {s.ids: s.support for s in closed} != closed_by_full_scan(
            {s.ids: s.support for s in mined}
        ):
            mismatches += 1
        instances += 1
    _report(
        "mining-oracle",
        mismatches == 0,
        f"{instances} random instances, catalogs up to 10 predicates, {mismatches} mismatches",
    )


def test_03_rule_validity():
    """Every learned rule is exact on its training data and none is redundant."""
    cases = [
        (planted_rule_data(300, seed=61)[0], 0.15, 0.3),
        (planted_rule_data(200, seed=62)[0], 0.2, 0.0),
        (random_mixed_dataset(150, 3, 3, seed=63), 0.1, 0.5),
    ]
    rules_checked = 0
    problems = []
    for dataset, theta, gamma in cases:
        ruleset = train_ruleset(dataset, MiningConfig(theta=theta, gamma=gamma, max_set_size=4)).ruleset
        for rule in ruleset.rules:
            rules_checked += 1
            if rule.kind == BOUNDARY:
                if rule.support != 1.0 or support_by_rows(dataset, rule.consequent) != 1.0:
                    problems.append("boundary rule not satisfied by all training rows")
                continue
            full = support_by_rows(dataset, rule.antecedent + rule.consequent)
            if support_by_rows(dataset, rule.antecedent) != full:
                problems.append("confidence below 1")
            if full != rule.support:
                problems.append("stored support wrong")
            singles = [support_by_rows(dataset, [p]) for p in rule.antecedent + rule.consequent]
            if not full > max(theta, gamma * min(singles)):
                problems.append("frequency condition violated")
        # redundancy: no distinct pair with nested sides and equal support
        rules = ruleset.rules
        for i, r1 in enumerate(rules):
            for r2 in rules[i + 1 :]:
                if (
                    r1.support == r2.support
                    and set(r1.antecedent) <= set(r2.antecedent)
                    and set(r1.consequent) <= set(r2.consequent)
                ):
                    problems.append("redundant rule pair")
                if (
                    r1.support == r2.support
                    and set(r2.antecedent) <= set(r1.antecedent)
                    and set(r2.consequent) <= set(r1.consequent)
                ):
                    problems.append("redundant rule pair")
    _report(
        "rule-validity",
        not problems,
        f"{rules_checked} rules over {len(cases)} datasets"
        + (f"; problems: {sorted(set(problems))}" if problems else ""),
    )


def test_04_predicate_generation():
    """Catalog supports clear theta, intervals partition cleanly, and
    pooled categorical values are covered exactly once."""
    cases = [
        (planted_rule_data(400, seed=71)[0], 0.1),
        (planted_rule_data(400, seed=71)[0], 0.25),
        (random_mixed_dataset(300, 4, 4, seed=72), 0.1),
        (random_mixed_dataset(300, 4, 4, seed=72), 0.25),
        (random_mixed_dataset(250, 2, 6, seed=73), 0.15),
    ]
    problems = []
    predicates_checked = 0
    for dataset, theta in cases:
        catalog = train_ruleset(dataset, MiningConfig(theta=theta, gamma=0.0)).catalog

        intervals_by_column = {}
        equality_count = {}
        pool_count = {}
        for pred, cached in catalog.pairs():
            predicates_checked += 1
            true_support = support_by_rows(dataset, [pred])
            if cached != true_support:
                problems.append("cached support differs from a row recount")
            if not true_support > theta:
                problems.append("catalog predicate at or below theta")
            if isinstance(pred, Interval):
                intervals_by_column.setdefault(pred.column, []).append(pred)
            elif isinstance(pred, CategoricalEquals):
                key = (pred.column, int(pred.code))
                equality_count[key] = equality_count.get(key, 0) + 1
            elif isinstance(pred, CategoricalDisjunction):
                for column, code in pred.items:
                    key = (column, int(code))
                    pool_count[key] = pool_count.get(key, 0) + 1

        for column, intervals in intervals_by_column.items():
            ordered = sorted(intervals, key=lambda p: p.lower)
            for a, b in zip(ordered, ordered[1:]):
                if a.upper > b.lower:
                    problems.append(f"overlapping intervals on {column}")

        # a common value gets exactly one equality predicate and joins no
        # pool; a rare value joins at most one pool, and exactly one when
        # the pooled leftovers can clear theta together
        schema = dataset.schema
        rare_masks = []
        rare_pairs = []
        for name in schema.categorical_names:
            codes = dataset.column(name)
            counts = np.bincount(codes)
            for code, count in enumerate(counts):
                if count == 0:
                    continue
                value_support = int(count) / dataset.row_count
                key = (name, code)
                if value_support > theta:
                    if equality_count.get(key, 0) != 1 or pool_count.get(key, 0) != 0:
                        problems.append("common value not covered by exactly one equality")
                else:
                    if equality_count.get(key, 0) != 0 or pool_count.get(key, 0) > 1:
                        problems.append("rare value covered the wrong way")
                    rare_pairs.append(key)
                    rare_masks.append(codes == code)
        if rare_masks:
            union = np.zeros(dataset.row_count, dtype=bool)
            for mask in rare_masks:
                union |= mask
            if int(union.sum()) / dataset.row_count > theta:
                uncovered = [p for p in rare_pairs if pool_count.get(p, 0) == 0]
                if uncovered:
                    problems.append("pooled leftover value not covered")
    _report(
        "predicate-generation",
        not problems,
        f"{predicates_checked} predicates over {len(cases)} cases"
        + (f"; problems: {sorted(set(problems))}" if problems else ""),
    )


def test_05_planted_anomaly_detection():
    """High AUC on planted violations, and the explanation names the
    column and condition that were broken."""
    started = time.perf_counter()
    train, _ = planted_rule_data(2000, seed=7)
    test, labels = planted_rule_data(1500, seed=11, violation_rate=0.05)
    ruleset = train_ruleset(train, MiningConfig(theta=0.15, gamma=0.3)).ruleset
    scores = score_dataset(ruleset, test)
    auc = roc_auc(LabeledScores(scores, labels))

    reports = detect(ruleset, test, DetectionConfig())
    anomaly_row = int(np.nonzero(labels)[0][0])
    explanation = explain(reports[anomaly_row], ruleset)
    named = any(
        "X3" in entry.columns and "X3 < 7.1" in entry.conditions
        for entry in explanation.entries
    )
    elapsed = time.perf_counter() - started
    _report(
        "planted-detection",
        auc >= 0.95 and named and elapsed < 30.0,
        f"AUC {auc:.4f} on 1500 rows (75 planted violations), "
        f"explanation names X3 < 7.1: {named}, {elapsed:.1f}s",
    )


def test_06_metric_correctness():
    """roc_auc and standardized_pauc match two independent oracles."""
    rng = np.random.default_rng(515)
    caps = [0.05, 0.1, 0.25, 0.5, 1.0]
    worst = 0.0
    sets_checked = 0
    for _ in range(60):
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 1, 0
        if rng.random() < 0.5:
            scores = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0, 2.0], size=n)
        else:
            scores = np.round(rng.normal(size=n) + labels, 2)
        ls = LabeledScores(scores, labels)
        points = roc_curve_by_recount(scores, labels)

        auc = roc_auc(ls)
        worst = max(worst, abs(auc - area_by_segments(points, 1.0)))
        worst = max(worst, abs(auc - auc_by_pair_counting(scores, labels)))
        for cap in caps:
            expected = standardize_partial_area(area_by_segments(points, cap), cap)
            worst = max(worst, abs(standardized_pauc(ls, cap) - expected))
        sets_checked += 1

    perfect = LabeledScores(np.array([2.0, 2.0, 1.0]), np.array([1, 1, 0]))
    tied = LabeledScores(np.array([1.0, 1.0, 1.0, 1.0]), np.array([1, 0, 1, 0]))
    endpoints_exact = (
        roc_auc(perfect) == 1.0
        and standardized_pauc(perfect, 0.1) == 1.0
        and roc_auc(tied) == 0.5
        and standardized_pauc(tied, 0.1) == 0.5
    )
    _report(
        "metric-correctness",
        worst <= 1e-9 and endpoints_exact,
        f"{sets_checked} score sets x {len(caps)} caps, max |deviation| {worst:.2e}, "
        f"exact endpoints: {endpoints_exact}",
    )


def test_07_hyperparameter_monotonicity():
    """With a frozen catalog, rule counts never rise as theta or gamma rise."""
    dataset, _ = planted_rule_data(600, seed=43)
    catalog = train_ruleset(dataset, MiningConfig(theta=0.05, gamma=0.0)).catalog
    thetas = [0.1, 0.2, 0.3, 0.4, 0.5]
    gammas = [0.0, 0.3, 0.6, 0.9]
    frequent_counts = {}
    closed_counts = {}
    rule_counts = {}
    for theta in thetas:
        counts = count_sets(dataset, catalog, theta, MiningConfig.max_set_size)
        for gamma in gammas:
            mined = mine_frequent_sets(counts, catalog, MiningConfig(theta, gamma), dataset.row_count)
            closed = filter_closed(mined)
            rules = generate_rules(closed, catalog, counts)
            frequent_counts[(theta, gamma)] = len(mined)
            closed_counts[(theta, gamma)] = len(closed)
            rule_counts[(theta, gamma)] = len(rules)

    ok = True
    for counts in (frequent_counts, closed_counts, rule_counts):
        for gamma in gammas:
            series = [counts[(theta, gamma)] for theta in thetas]
            ok = ok and all(a >= b for a, b in zip(series, series[1:]))
        for theta in thetas:
            series = [counts[(theta, gamma)] for gamma in gammas]
            ok = ok and all(a >= b for a, b in zip(series, series[1:]))
    grid_rules = [rule_counts[(t, g)] for t in thetas for g in gammas]
    _report(
        "hyperparameter-monotonicity",
        ok,
        f"{len(thetas)}x{len(gammas)} grid, frozen catalog of {len(catalog)} predicates, "
        f"rule counts {max(grid_rules)} down to {min(grid_rules)}, monotone: {ok}",
    )


def test_08_odds_benchmark():
    """Soft-target benchmark on two public tabular anomaly datasets.

    Runs scripts/run_odds_benchmark.py's protocol and targets.  Needs the
    files locally ({name}.npz or {name}.mat with X and y in a directory
    named by ODDS_DATA_DIR); this environment has no network access, so
    the data cannot be fetched here and the test skips when the
    directory is absent.
    """
    directory = os.environ.get("ODDS_DATA_DIR", "")
    if not directory or not os.path.isdir(directory):
        _skip(
            "odds-benchmark",
            "benchmark datasets unavailable (sandbox has no network); "
            "set ODDS_DATA_DIR to a directory with cardio/annthyroid files to run",
        )

    odds = load_script("run_odds_benchmark")
    started = time.perf_counter()
    problems = []
    details = []
    for name, train_n, test_n, auc_center, pauc_center in odds.TARGETS:
        loaded = odds.load_table(directory, name)
        if loaded is None:
            _skip("odds-benchmark", f"{name} not found (or scipy missing) in {directory}")
        outcome = odds.run_protocol(*loaded, train_n, test_n)
        if outcome is None:
            _skip("odds-benchmark", f"{name}: expected at least {train_n} normal rows")
        tuning, auc, pauc = outcome.tuning, outcome.auc, outcome.pauc
        if not tuning.fell_back and not tuning.fpr < odds.TARGET_FPR:
            problems.append(f"{name}: tuned FPR {tuning.fpr} not below {odds.TARGET_FPR}")
        if abs(auc - auc_center) > odds.WINDOW:
            problems.append(f"{name}: AUC {auc:.3f} outside {auc_center}+-{odds.WINDOW}")
        if abs(pauc - pauc_center) > odds.WINDOW:
            problems.append(f"{name}: pAUC {pauc:.3f} outside {pauc_center}+-{odds.WINDOW}")
        details.append(f"{name} theta={tuning.theta:g} AUC={auc:.3f} pAUC={pauc:.3f}")
    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.0f}s (limit 300s)")
    _report(
        "odds-benchmark",
        not problems,
        "; ".join(details) + f", {elapsed:.0f}s"
        + (f"; problems: {problems}" if problems else ""),
    )


def test_09_validation_false_positive_control():
    """Tuned theta keeps clean validation data quiet at phi = 0."""
    full, _ = planted_rule_data(800, seed=83)
    train, validation = holdout_split(full, 0.2)
    tuning = tune_theta(train, validation, gamma=0.3, target_fpr=0.05,
                        candidates=[0.3, 0.2, 0.15], max_set_size=4)
    ruleset = train_ruleset(train, MiningConfig(theta=tuning.theta, gamma=0.3, max_set_size=4)).ruleset
    fpr = false_positive_rate(score_dataset(ruleset, validation))
    _report(
        "validation-fpr-control",
        (not tuning.fell_back) and fpr < 0.05,
        f"theta {tuning.theta:g} picked from 3 candidates, validation FPR {fpr:.4f} < 0.05",
    )
