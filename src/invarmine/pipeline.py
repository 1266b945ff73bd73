"""End-to-end training: statistics, trees, predicates, mining, rules.

Training is three stages, split by what each depends on:

- the data stage (column statistics, the continuous columns' row
  orders) depends on the table alone;
- the theta stage (trees, cut-offs, the predicate catalog, the count
  table of every set above theta) depends on theta and max_set_size;
- the gamma stage (emission, closedness, rules, boundary rules) filters
  that table for one gamma.

train_ruleset runs them in turn; evaluate.sweep runs the first once and
the second once per theta.  The whole pipeline is deterministic: tree
fitting breaks ties by column order and threshold, catalogs list
categorical predicates before continuous ones, and mined rules come out
in canonical order.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from .data import ColumnStats, Dataset, compute_column_stats
from .mining import (
    MiningConfig,
    RuleSet,
    boundary_rules,
    count_sets,
    filter_closed,
    generate_rules,
    mine_frequent_sets,
)
from .predicates import PredicateCatalog, gen_categorical_predicates, gen_continuous_predicates
from .tree import (
    DecisionTree,
    RowOrders,
    extract_cutoffs,
    fit_classification_tree,
    fit_regression_tree,
    sort_continuous_columns,
)


@dataclass
class TrainResult:
    ruleset: RuleSet
    catalog: PredicateCatalog
    timings: dict[str, float]
    warnings: list[str]


@dataclass(frozen=True)
class DataStage:
    stats: ColumnStats
    sorted_rows: RowOrders


@dataclass(frozen=True)
class ThetaStage:
    catalog: PredicateCatalog
    counts: dict[tuple[int, ...], int]
    warnings: list[str]


@contextmanager
def _timed(timings: dict[str, float], stage: str) -> Iterator[None]:
    """Add the block's wall time to timings[stage]."""
    t0 = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


def _fit_trees(
    dataset: Dataset, min_leaf: int, sorted_rows: RowOrders
) -> tuple[list[DecisionTree], list[str]]:
    schema = dataset.schema
    trees: list[DecisionTree] = []
    warnings: list[str] = []
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


def data_stage(dataset: Dataset, timings: dict[str, float]) -> DataStage:
    with _timed(timings, "stats"):
        stats = compute_column_stats(dataset)
    # every tree splits on the continuous columns: sort them once, share read-only
    with _timed(timings, "trees"):
        sorted_rows = sort_continuous_columns(dataset)
    return DataStage(stats, sorted_rows)


def theta_stage(
    dataset: Dataset, data: DataStage, theta: float, max_set_size: int | None, timings: dict[str, float]
) -> ThetaStage:
    with _timed(timings, "trees"):
        trees, warnings = _fit_trees(dataset, math.floor(dataset.row_count * theta), data.sorted_rows)
    with _timed(timings, "predicates"):
        cutoffs = extract_cutoffs(trees)
        categorical = gen_categorical_predicates(dataset, theta)
        continuous = gen_continuous_predicates(dataset, cutoffs, theta)
        catalog = PredicateCatalog(categorical.pairs() + continuous.pairs())
    with _timed(timings, "mining"):
        counts = count_sets(dataset, catalog, theta, max_set_size)
    return ThetaStage(catalog, counts, warnings)


def gamma_stage(
    dataset: Dataset, data: DataStage, shared: ThetaStage, config: MiningConfig, timings: dict[str, float]
) -> RuleSet:
    with _timed(timings, "mining"):
        frequent = mine_frequent_sets(shared.counts, shared.catalog, config, dataset.row_count)
        closed = filter_closed(frequent)
    with _timed(timings, "rules"):
        rules = generate_rules(closed, shared.catalog, shared.counts)
        bounds = boundary_rules(data.stats, dataset.schema)
        read = {p for r in rules for p in (*r.antecedent, *r.consequent)}
        # in catalog order, then the envelopes, which hold on every training row
        supports = {p: s for p, s in shared.catalog.pairs() if p in read} | {r.consequent[0]: 1.0 for r in bounds}
    return RuleSet(
        schema=dataset.schema.copy(),
        stats=data.stats,
        theta=config.theta,
        gamma=config.gamma,
        max_set_size=config.max_set_size,
        supports=supports,
        rules=rules + bounds,
    )


def train_ruleset(dataset: Dataset, config: MiningConfig) -> TrainResult:
    """Learn an invariant ruleset from anomaly-free training data.

    Stages: column statistics; decision trees (one classification tree
    per categorical column, one regression tree per continuous column,
    leaf floor |D| * theta); predicate catalogs; the count table, the
    row count of every set above theta, whose enumeration depends on
    theta alone; emission, a gamma filter over that table, and
    closedness by a walk over each set's immediate subsets; rule
    generation, which reads each closed set's candidate antecedents
    from the table, plus per-column boundary rules.  The ruleset keeps
    the supports of the predicates its rules read, the result the whole
    catalog.  Timings per stage are returned in seconds.
    """
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    data = data_stage(dataset, timings)
    shared = theta_stage(dataset, data, config.theta, config.max_set_size, timings)
    ruleset = gamma_stage(dataset, data, shared, config, timings)
    timings["total"] = time.perf_counter() - t_start
    return TrainResult(ruleset=ruleset, catalog=shared.catalog, timings=timings, warnings=shared.warnings)
