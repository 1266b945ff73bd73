"""End-to-end training: statistics, trees, predicates, mining, rules.

The whole pipeline is deterministic: tree fitting breaks ties by
column order and threshold, catalogs list categorical predicates
before continuous ones, and mined rules come out in canonical order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .data import Dataset, compute_column_stats
from .mining import (
    MiningConfig,
    RuleSet,
    boundary_rules,
    filter_closed,
    generate_rules,
    mine_frequent_sets,
)
from .predicates import PredicateCatalog, gen_categorical_predicates, gen_continuous_predicates
from .tree import (
    DecisionTree,
    extract_cutoffs,
    fit_classification_tree,
    fit_regression_tree,
    sort_continuous_columns,
)


@dataclass
class TrainResult:
    ruleset: RuleSet
    timings: dict[str, float]
    warnings: list[str]


def _fit_trees(dataset: Dataset, min_leaf: int) -> tuple[list[DecisionTree], list[str]]:
    schema = dataset.schema
    trees: list[DecisionTree] = []
    warnings: list[str] = []
    # every tree splits on the continuous columns: sort them once, share read-only
    sorted_rows = sort_continuous_columns(dataset)
    for name in schema.categorical_names:
        if schema.continuous_names:
            trees.append(fit_classification_tree(dataset, name, min_leaf, sorted_rows))
        else:
            warnings.append(f"column {name!r}: no continuous columns to split on; tree skipped")
    for name in schema.continuous_names:
        tree = fit_regression_tree(dataset, name, min_leaf, sorted_rows)
        if tree is None:
            warnings.append(f"column {name!r}: no other continuous column to regress on; tree skipped")
        else:
            trees.append(tree)
    return trees, warnings


def train_ruleset(dataset: Dataset, config: MiningConfig) -> TrainResult:
    """Learn an invariant ruleset from anomaly-free training data.

    Stages: column statistics; decision trees (one classification tree
    per categorical column, one regression tree per continuous column,
    leaf floor |D| * theta); predicate catalogs; frequent-set mining,
    which also fills the count table with the row count of every set it
    finds above theta, and closedness by a walk over each set's
    immediate subsets; rule generation, which reads each closed set's
    candidate antecedents from that table, plus per-column boundary
    rules.  Timings per stage are returned in seconds.
    """
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    stats = compute_column_stats(dataset)
    timings["stats"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    min_leaf = math.floor(dataset.row_count * config.theta)
    trees, warnings = _fit_trees(dataset, min_leaf)
    timings["trees"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cutoffs = extract_cutoffs(trees)
    categorical = gen_categorical_predicates(dataset, config.theta)
    continuous = gen_continuous_predicates(dataset, cutoffs, config.theta)
    catalog = PredicateCatalog(categorical.pairs() + continuous.pairs())
    timings["predicates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    counts: dict[tuple[int, ...], int] = {}
    frequent = mine_frequent_sets(dataset, catalog, config, counts=counts)
    closed = filter_closed(frequent)
    timings["mining"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules = generate_rules(closed, catalog, counts)
    rules.extend(boundary_rules(stats, dataset.schema))
    timings["rules"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    ruleset = RuleSet(
        schema=dataset.schema.copy(),
        stats=stats,
        theta=config.theta,
        gamma=config.gamma,
        max_set_size=config.max_set_size,
        catalog=catalog,
        rules=rules,
    )
    return TrainResult(ruleset=ruleset, timings=timings, warnings=warnings)
