"""Benchmark on two public tabular anomaly datasets (cardio, annthyroid).

The data is not bundled.  Download the ODDS copies of the two datasets
yourself and drop them into a directory as {name}.npz (arrays X and y)
or the original {name}.mat; point --data-dir or ODDS_DATA_DIR at it.

Protocol per dataset: the first N normal rows form the training table,
the first M of the remaining rows form the labeled test table (N, M
fixed below).  theta is tuned on a holdout of the training table at
gamma = 0.7 for a 1% validation false-positive budget, the final model
is retrained on the full training table, and ranking metrics on the
test table are compared against reference windows.  The acceptance
test tests/test_acceptance.py::test_08_odds_benchmark imports this
module and checks the same protocol against the same targets.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from invarmine.data import CONTINUOUS, Column, Dataset, Schema
from invarmine.detect import score_dataset
from invarmine.evaluate import (
    LabeledScores,
    ThetaTuning,
    holdout_split,
    roc_auc,
    standardized_pauc,
    tune_theta,
)
from invarmine.mining import MiningConfig
from invarmine.pipeline import train_ruleset

# name, train rows, test rows, expected AUC, expected pAUC at cap 0.1
TARGETS = [
    ("cardio", 1099, 696, 0.90, 0.82),
    ("annthyroid", 3998, 2880, 0.60, 0.59),
]
WINDOW = 0.08
GAMMA = 0.7
TARGET_FPR = 0.01


def load_table(directory: str, name: str):
    """X (float matrix) and y (0/1 vector) from {name}.npz or {name}.mat."""
    npz_path = os.path.join(directory, f"{name}.npz")
    if os.path.exists(npz_path):
        data = np.load(npz_path)
        return np.asarray(data["X"], dtype=float), np.asarray(data["y"]).ravel().astype(int)
    mat_path = os.path.join(directory, f"{name}.mat")
    if os.path.exists(mat_path):
        try:
            from scipy.io import loadmat
        except ImportError:
            print(f"{name}: found .mat but scipy is not installed", file=sys.stderr)
            return None
        data = loadmat(mat_path)
        return np.asarray(data["X"], dtype=float), np.asarray(data["y"]).ravel().astype(int)
    return None


def as_dataset(X: np.ndarray) -> Dataset:
    names = [f"X{j + 1}" for j in range(X.shape[1])]
    schema = Schema([Column(n, CONTINUOUS, []) for n in names])
    return Dataset.from_columns(schema, {n: X[:, j].tolist() for j, n in enumerate(names)})


@dataclass
class Outcome:
    tuning: ThetaTuning
    rules: int
    train_rows: int
    test_rows: int
    auc: float
    pauc: float


def run_protocol(X: np.ndarray, y: np.ndarray, train_n: int, test_n: int) -> Outcome | None:
    """The protocol on one table; None when it has fewer than train_n normal rows."""
    normal_idx = np.nonzero(y == 0)[0]
    if len(normal_idx) < train_n:
        return None
    train_idx = normal_idx[:train_n]
    rest = np.setdiff1d(np.arange(len(y)), train_idx)[:test_n]
    train = as_dataset(X[train_idx])
    test = as_dataset(X[rest])

    fit, validation = holdout_split(train, 0.2)
    tuning = tune_theta(fit, validation, gamma=GAMMA, target_fpr=TARGET_FPR)
    ruleset = train_ruleset(train, MiningConfig(theta=tuning.theta, gamma=GAMMA)).ruleset
    ls = LabeledScores(score_dataset(ruleset, test), y[rest])
    return Outcome(tuning, len(ruleset.rules), train.row_count, test.row_count,
                   roc_auc(ls), standardized_pauc(ls, 0.1))


def run_one(directory: str, name: str, train_n: int, test_n: int,
            auc_center: float, pauc_center: float) -> bool:
    loaded = load_table(directory, name)
    if loaded is None:
        print(f"{name}: no {name}.npz or {name}.mat in {directory}, skipping")
        return True
    started = time.perf_counter()
    outcome = run_protocol(*loaded, train_n, test_n)
    elapsed = time.perf_counter() - started
    if outcome is None:
        print(f"{name}: wanted {train_n} normal training rows, file has fewer")
        return False

    auc_ok = abs(outcome.auc - auc_center) <= WINDOW
    pauc_ok = abs(outcome.pauc - pauc_center) <= WINDOW
    fell = " (fell back)" if outcome.tuning.fell_back else ""
    print(f"{name}: theta {outcome.tuning.theta:g}{fell}, {outcome.rules} rules, "
          f"{outcome.train_rows}/{outcome.test_rows} train/test rows, {elapsed:.1f}s")
    print(f"  AUC  {outcome.auc:.3f}  target {auc_center} +- {WINDOW}  "
          f"{'ok' if auc_ok else 'OUTSIDE WINDOW'}")
    print(f"  pAUC {outcome.pauc:.3f}  target {pauc_center} +- {WINDOW}  "
          f"{'ok' if pauc_ok else 'OUTSIDE WINDOW'}")
    return auc_ok and pauc_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=os.environ.get("ODDS_DATA_DIR", ""),
                        help="directory holding the dataset files "
                             "(default: ODDS_DATA_DIR)")
    args = parser.parse_args()
    if not args.data_dir or not os.path.isdir(args.data_dir):
        print("no data directory; pass --data-dir or set ODDS_DATA_DIR "
              "(see the module docstring for the expected files)", file=sys.stderr)
        return 2

    ok = True
    for name, train_n, test_n, auc_center, pauc_center in TARGETS:
        ok = run_one(args.data_dir, name, train_n, test_n, auc_center, pauc_center) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
