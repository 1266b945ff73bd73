"""Synthetic mixed-table generators for demos and tests.

planted_rule_data embeds one known invariant: whenever X1 lies in
[5, 10) and X2 is at least 20.4, X3 stays below 7.1.  Every row of a
table built with violation_rate 0 honours it.  The continuous columns
take values from small fixed grids, and each planted threshold is the
midpoint of the two grid values that straddle it, so a tree that
splits between those values proposes exactly that threshold.  Trees
are not bound to make those splits: at theta 0.15 the cut-off X1 = 5
is missing on some seeds, and then no rule is mined.  Indicator
categorical columns are noisy copies of the regimes, and a skewed
four-value column exercises the disjunction pooling path.

Both generators build each categorical column from one numpy string
array, coded with its values in first-seen order, so the table equals
what Dataset.from_columns builds from the same strings.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, Column, Dataset, Schema

# grid values: midpoint(3, 7) = 5, midpoint(7, 13) = 10,
# midpoint(16, 2*20.4-16) = 20.4, midpoint(6.5, 2*7.1-6.5) = 7.1
X1_LOW, X1_IN, X1_HIGH = 3.0, 7.0, 13.0
X2_OUT, X2_IN = 16.0, 2 * 20.4 - 16.0
X3_LOW = 6.5
X3_HIGH = (2 * 7.1 - 6.5, 9.0, 11.0)
X4_GRID = tuple(0.5 + k for k in range(8))
FLIP = 0.1


def _coded(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct strings of values in first-seen order, and each row's
    index into them."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    code = np.empty(len(first), dtype=np.int64)
    code[by_first] = np.arange(len(first))
    return distinct[by_first].tolist(), code[inverse]


def planted_rule_data(
    n_rows: int, seed: int, violation_rate: float = 0.0
) -> tuple[Dataset, np.ndarray]:
    """Rows honoring the planted invariant, plus optional violations.

    Returns the dataset and a 0/1 label array; label 1 rows satisfy the
    antecedent (X1 in [5, 10), X2 >= 20.4) but break the consequent
    (X3 < 7.1).  violation_rate = 0 gives a clean training table.
    """
    rng = np.random.default_rng(seed)
    n_bad = int(round(n_rows * violation_rate))
    labels = np.zeros(n_rows, dtype=np.int64)
    bad_rows = rng.choice(n_rows, size=n_bad, replace=False) if n_bad else np.array([], dtype=np.int64)
    labels[bad_rows] = 1

    x1 = np.empty(n_rows)
    x2 = np.empty(n_rows)
    x3 = np.empty(n_rows)

    # joint regime cells: (X1 in, X2 in) 0.35, (in, out) 0.05,
    # (out, in) 0.10, (out, out) 0.50; X1's outside mass splits
    # 0.25 low / 0.35 high overall
    cell = rng.choice(4, size=n_rows, p=[0.35, 0.05, 0.10, 0.50])
    x1_in = (cell == 0) | (cell == 1)
    x2_in = (cell == 0) | (cell == 2)
    x1[x1_in] = X1_IN
    out_count = int(np.count_nonzero(~x1_in))
    x1[~x1_in] = rng.choice([X1_LOW, X1_HIGH], size=out_count, p=[0.25 / 0.60, 0.35 / 0.60])
    x2[:] = np.where(x2_in, X2_IN, X2_OUT)

    # consequent: deterministic under the antecedent, mixed elsewhere
    antecedent = cell == 0
    high_choice = rng.choice(len(X3_HIGH), size=n_rows)
    else_low = rng.random(n_rows) < 0.4
    x3[:] = np.where(
        antecedent | else_low, X3_LOW, np.asarray(X3_HIGH)[high_choice]
    )

    # violations: force the antecedent to hold and the consequent to fail
    if n_bad:
        x1[bad_rows] = X1_IN
        x2[bad_rows] = X2_IN
        x3[bad_rows] = np.asarray(X3_HIGH)[high_choice[bad_rows]]

    x4 = rng.choice(X4_GRID, size=n_rows)

    def flip(mask: np.ndarray) -> np.ndarray:
        return mask ^ (rng.random(n_rows) < FLIP)

    u1 = np.where(flip(x3 < 7.1), "lo", "hi")
    u2 = rng.choice(["a", "b", "c", "d"], size=n_rows, p=[0.52, 0.30, 0.10, 0.08])
    u3 = np.where(flip(x1 == X1_IN), "mid", "side")
    u4 = np.where(flip(x2 == X2_IN), "hi", "lo")

    columns = {"X1": x1, "X2": x2, "X3": x3, "X4": x4}
    schema_cols = [Column(name, CONTINUOUS, []) for name in columns]
    for name, values in (("U1", u1), ("U2", u2), ("U3", u3), ("U4", u4)):
        distinct, columns[name] = _coded(values)
        schema_cols.append(Column(name, CATEGORICAL, distinct))
    return Dataset(Schema(schema_cols), columns), labels


def random_mixed_dataset(
    n_rows: int, n_continuous: int, n_categorical: int, seed: int
) -> Dataset:
    """A random mixed table with enough structure to mine rules from.

    Continuous columns draw from small value grids or uniform noise;
    categorical columns are either independent with skewed frequencies
    or noisy indicators of a continuous column, so trees find real
    splits on some datasets and nothing on others.
    """
    if n_continuous < 1 or n_categorical < 1:
        raise ValueError("need at least one column of each kind")
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    schema_cols: list[Column] = []
    cont_names: list[str] = []

    for i in range(n_continuous):
        name = f"X{i + 1}"
        cont_names.append(name)
        schema_cols.append(Column(name, CONTINUOUS, []))
        if rng.random() < 0.6:
            n_levels = int(rng.integers(3, 9))
            grid = np.sort(rng.uniform(-50.0, 50.0, size=n_levels))
            masses = rng.dirichlet(np.full(n_levels, 1.5))
            values = rng.choice(grid, size=n_rows, p=masses)
        else:
            values = np.round(rng.uniform(-50.0, 50.0, size=n_rows), 2)
        columns[name] = values

    for i in range(n_categorical):
        name = f"U{i + 1}"
        if rng.random() < 0.5:
            source = columns[cont_names[int(rng.integers(0, n_continuous))]]
            pivot = float(np.median(source))
            flips = rng.random(n_rows) < float(rng.uniform(0.02, 0.15))
            base = source > pivot
            values = np.where(base ^ flips, "hi", "lo")
        else:
            k = int(rng.integers(2, 7))
            vocab = [f"v{j}" for j in range(k)]
            masses = rng.dirichlet(np.full(k, 0.8))
            values = rng.choice(vocab, size=n_rows, p=masses)
        distinct, columns[name] = _coded(values)
        schema_cols.append(Column(name, CATEGORICAL, distinct))

    return Dataset(Schema(schema_cols), columns)
