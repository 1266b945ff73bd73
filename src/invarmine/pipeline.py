"""End-to-end training: statistics, trees, predicates, mining, rules.

The whole pipeline is deterministic: tree fitting breaks ties by
column order and threshold, catalogs list categorical predicates
before continuous ones, and mined rules come out in canonical order.
The worker count only parallelizes tree fitting across target columns
and never changes the result.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .data import Dataset, compute_column_stats
from .mining import (
    MiningConfig,
    MiningError,
    RuleSet,
    _tidsets,
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


@dataclass(frozen=True)
class TrainConfig:
    """Mining hyperparameters (checked by MiningConfig when training
    starts) and the tree-fitting thread count: None or at least 1."""

    theta: float
    gamma: float
    max_set_size: int | None = 6
    workers: int | None = None

    def __post_init__(self) -> None:
        w = self.workers
        if w is not None and (isinstance(w, bool) or not isinstance(w, int) or w < 1):
            raise MiningError(f"workers must be None or an integer >= 1, got {w!r}")


@dataclass
class TrainResult:
    ruleset: RuleSet
    timings: dict[str, float]
    warnings: list[str]
    trees: list[DecisionTree]


def _fit_trees(dataset: Dataset, min_leaf: int, workers: int | None) -> tuple[list[DecisionTree], list[str]]:
    schema = dataset.schema
    warnings: list[str] = []
    jobs: list[tuple[str, str]] = []
    if schema.continuous_names:
        jobs += [(name, "classification") for name in schema.categorical_names]
    else:
        warnings += [
            f"column {name!r}: no continuous columns to split on; tree skipped"
            for name in schema.categorical_names
        ]
    jobs += [(name, "regression") for name in schema.continuous_names]
    # every tree splits on the continuous columns: sort them once, share read-only
    sorted_rows = sort_continuous_columns(dataset)

    def run(job: tuple[str, str]) -> DecisionTree | None:
        name, kind = job
        if kind == "classification":
            return fit_classification_tree(dataset, name, min_leaf, sorted_rows)
        return fit_regression_tree(dataset, name, min_leaf, sorted_rows)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fitted = list(pool.map(run, jobs))
    else:
        fitted = [run(job) for job in jobs]

    trees: list[DecisionTree] = []
    for (name, kind), tree in zip(jobs, fitted):
        if tree is None:
            warnings.append(f"column {name!r}: no other continuous column to regress on; tree skipped")
        else:
            trees.append(tree)
    return trees, warnings


def train_ruleset(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Learn an invariant ruleset from anomaly-free training data.

    Stages: column statistics; decision trees (one classification tree
    per categorical column, one regression tree per continuous column,
    leaf floor |D| * theta); predicate catalogs; frequent-set mining and
    closedness filtering; rule generation plus per-column boundary
    rules.  Timings per stage are returned in seconds.
    """
    mining_config = MiningConfig(config.theta, config.gamma, config.max_set_size)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    stats = compute_column_stats(dataset)
    timings["stats"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    min_leaf = math.floor(dataset.row_count * config.theta)
    trees, warnings = _fit_trees(dataset, min_leaf, config.workers)
    timings["trees"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cutoffs = extract_cutoffs(trees)
    catalog = PredicateCatalog.concat(
        gen_categorical_predicates(dataset, config.theta),
        gen_continuous_predicates(dataset, cutoffs, config.theta),
    )
    timings["predicates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tidsets = _tidsets(dataset, catalog)
    frequent = mine_frequent_sets(dataset, catalog, mining_config, tidsets=tidsets)
    closed = filter_closed(frequent)
    timings["mining"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules = generate_rules(closed, dataset, catalog, tidsets=tidsets)
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
    return TrainResult(ruleset=ruleset, timings=timings, warnings=warnings, trees=trees)
