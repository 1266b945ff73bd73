"""Benchmark workloads: seeded input tables and the files the CLI reads.

Every workload is a clean training table plus a test table.  About 1% of
test rows get one continuous cell pushed past the training envelope (the
range a boundary rule accepts), so every workload has flagged rows to
score and explain whatever rules the miner finds.  Labels mark the
injected rows and any planted-rule violations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from invarmine.data import CONTINUOUS, Column, Dataset, Schema, save_schema, write_csv
from invarmine.evaluate import holdout_split
from invarmine.synth import planted_rule_data, random_mixed_dataset

INJECT_RATE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    theta: float
    gamma: float
    train_rows: int
    test_rows: int
    generator: str
    cli_reps: int = 1  # score and explain calls per cycle


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "tall",
            "many rows, few columns and rules: per-row CSV parsing, long-column trees "
            "and the per-row violation loop dominate; mining is under 5% of training",
            theta=0.15,
            gamma=0.3,
            train_rows=100_000,
            test_rows=100_000,
            generator="train planted_rule_data(n, train_seed), test planted_rule_data(n, test_seed, 0.05)",
        ),
        Workload(
            "wide",
            "three planted blocks side by side (24 columns): mining, closedness and rule "
            "generation dominate training and scoring pays per rule",
            theta=0.1,
            gamma=0.3,
            train_rows=20_000,
            test_rows=20_000,
            generator="3 blocks planted_rule_data(n, 3*train_seed+b), test blocks 3*test_seed+b at 0.02",
        ),
        Workload(
            "noisy",
            "random mixed table: trees dominate, every frequent set is closed and no rule "
            "is mined, so mining and scorer changes have nothing to save here",
            theta=0.05,
            gamma=0.3,
            train_rows=20_000,
            test_rows=5_000,
            generator="holdout_split(random_mixed_dataset(25000, 12, 8, train_seed), 0.2)",
            cli_reps=4,  # score and explain take about 0.1 s here, training about 5 s
        ),
    ]
}


def _columns_as_values(dataset: Dataset) -> dict[str, list]:
    """Column lists with categorical codes turned back into value strings."""
    schema = dataset.schema
    out: dict[str, list] = {}
    for col in schema.columns:
        arr = dataset.column(col.name)
        if col.kind == CONTINUOUS:
            out[col.name] = arr.tolist()
        else:
            values = schema.column(col.name).values
            out[col.name] = [values[c] for c in arr.tolist()]
    return out


def wide_blocks(n_rows: int, seeds: list[int], violation_rate: float) -> tuple[Dataset, np.ndarray]:
    """planted_rule_data blocks side by side; block b's columns get suffix _b.

    A row is labelled anomalous when it breaks the planted rule of any block.
    """
    columns: list[Column] = []
    data: dict[str, list] = {}
    labels = np.zeros(n_rows, dtype=np.int64)
    for b, seed in enumerate(seeds):
        block, block_labels = planted_rule_data(n_rows, seed, violation_rate)
        labels |= block_labels
        for name, values in _columns_as_values(block).items():
            columns.append(Column(f"{name}_{b}", block.schema.kind(name), []))
            data[f"{name}_{b}"] = values
    return Dataset.from_columns(Schema(columns), data), labels


def inject_out_of_envelope(
    train: Dataset, test: Dataset, labels: np.ndarray, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Push one continuous cell of ~1% of test rows past the training envelope.

    The envelope is the boundary rule's range: the observed extrema widened
    to mean +/- 3 standard deviations.  Each chosen row gets a value one
    envelope width above the top, so it breaks that column's boundary rule.
    """
    rng = np.random.default_rng([seed, 1])
    n = test.row_count
    rows = np.sort(rng.choice(n, size=max(1, round(n * INJECT_RATE)), replace=False))
    continuous = test.schema.continuous_names
    targets = rng.choice(len(continuous), size=len(rows))
    arrays = {name: test.column(name).copy() for name in test.schema.names}
    for row, k in zip(rows.tolist(), targets.tolist()):
        name = continuous[k]
        col = train.column(name)
        mean, std = float(col.mean()), float(col.std())
        low, high = min(mean - 3 * std, float(col.min())), max(mean + 3 * std, float(col.max()))
        arrays[name][row] = high + (high - low) + 1.0
    out_labels = labels.copy()
    out_labels[rows] = 1
    return Dataset(test.schema, arrays), out_labels


def make_tables(
    workload: Workload, train_seed: int, test_seed: int, scale: float = 1.0
) -> tuple[Dataset, Dataset, np.ndarray]:
    """Training table, test table and test labels.

    The noisy workload's test rows are the holdout of its training seed's
    table, so there test_seed only places the injected cells.  scale
    shrinks the row counts (the self-test runs at a tiny size).
    """
    n_train = max(200, int(workload.train_rows * scale))
    n_test = max(200, int(workload.test_rows * scale))
    if workload.name == "tall":
        train, _ = planted_rule_data(n_train, train_seed)
        test, labels = planted_rule_data(n_test, test_seed, 0.05)
    elif workload.name == "wide":
        train, _ = wide_blocks(n_train, [3 * train_seed + b for b in range(3)], 0.0)
        test, labels = wide_blocks(n_test, [3 * test_seed + b for b in range(3)], 0.02)
    elif workload.name == "noisy":
        full = random_mixed_dataset(n_train + n_test, 12, 8, train_seed)
        train, test = holdout_split(full, n_test / (n_train + n_test))
        labels = np.zeros(test.row_count, dtype=np.int64)
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    test, labels = inject_out_of_envelope(train, test, labels, test_seed)
    return train, test, labels


@dataclass(frozen=True)
class Files:
    schema: str
    train: str
    test: str
    rules: str
    report: str


def write_inputs(
    workload: Workload, train_seed: int, test_seed: int, directory: str, scale: float = 1.0
) -> tuple[Files, np.ndarray]:
    """Generate the tables and write the schema and CSVs the CLI reads."""
    os.makedirs(directory, exist_ok=True)
    files = Files(
        schema=os.path.join(directory, "schema.json"),
        train=os.path.join(directory, "train.csv"),
        test=os.path.join(directory, "test.csv"),
        rules=os.path.join(directory, "rules.json"),
        report=os.path.join(directory, "report.jsonl"),
    )
    train, test, labels = make_tables(workload, train_seed, test_seed, scale)
    save_schema(train.schema, files.schema)
    write_csv(train, files.train)
    write_csv(test, files.test)
    return files, labels
