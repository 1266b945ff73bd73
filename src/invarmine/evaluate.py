"""Detection metrics and hyperparameter search.

roc_auc integrates the empirical ROC curve with the trapezoid rule,
which credits ties between anomaly and normal scores at half weight.
standardized_pauc integrates the same curve only up to a false
positive rate cap and rescales the partial area so that 0.5 remains
chance level and 1.0 remains perfection:

    0.5 * (1 + (area - amin) / (amax - amin))

with amin = max_fpr^2 / 2 (the diagonal's share) and amax = max_fpr.
At max_fpr = 1 the rescaling is the identity and the value equals
roc_auc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset
from .detect import score_dataset
from .mining import MiningConfig, MiningError
from .pipeline import DataStage, ThetaStage, data_stage, gamma_stage, theta_stage, train_ruleset


@dataclass(frozen=True)
class LabeledScores:
    """Anomaly scores paired with ground-truth labels (1 = anomaly)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.ndim != 1 or len(scores) != len(labels):
            raise DataError("scores and labels must be 1-d arrays of equal length")
        if len(scores) == 0:
            raise DataError("no scores to evaluate")
        # checked as given: the int64 cast would truncate 0.9 to 0
        if not np.all((labels == 0) | (labels == 1)):
            raise DataError("labels must be 0 (normal) or 1 (anomaly)")
        if not np.isfinite(scores).all():
            raise DataError("scores must be finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int64))


def roc_points(ls: LabeledScores) -> tuple[np.ndarray, np.ndarray]:
    """The empirical ROC polyline from (0, 0) to (1, 1).

    One vertex per distinct score, thresholds descending; requires at
    least one anomaly and one normal.
    """
    n_pos = int(ls.labels.sum())
    n_neg = len(ls.labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs at least one anomaly and one normal label")
    order = np.argsort(-ls.scores, kind="mergesort")
    sorted_scores = ls.scores[order]
    sorted_labels = ls.labels[order]
    tps = np.cumsum(sorted_labels)
    fps = np.cumsum(1 - sorted_labels)
    last_of_run = np.nonzero(np.diff(sorted_scores))[0]
    idx = np.append(last_of_run, len(sorted_scores) - 1)
    tpr = np.concatenate(([0.0], tps[idx] / n_pos))
    fpr = np.concatenate(([0.0], fps[idx] / n_neg))
    return fpr, tpr


def roc_auc(ls: LabeledScores) -> float:
    fpr, tpr = roc_points(ls)
    return float(np.trapezoid(tpr, fpr))


DEFAULT_MAX_FPR = 0.1  # the partial AUC cap when none is given


def check_max_fpr(max_fpr: float) -> None:
    if not 0.0 < max_fpr <= 1.0:
        raise DataError(f"max_fpr must lie in (0, 1], got {max_fpr}")


def standardized_pauc(ls: LabeledScores, max_fpr: float) -> float:
    """Partial area under the ROC curve up to max_fpr, standardized."""
    check_max_fpr(max_fpr)
    fpr, tpr = roc_points(ls)
    if max_fpr == 1.0:
        return float(np.trapezoid(tpr, fpr))
    cut = int(np.searchsorted(fpr, max_fpr, side="right"))
    f = fpr[:cut]
    t = tpr[:cut]
    if f[-1] < max_fpr:
        # interpolate the curve at the cap; fpr ends at 1 > max_fpr so a next vertex exists
        f2, t2 = fpr[cut], tpr[cut]
        w = (max_fpr - f[-1]) / (f2 - f[-1])
        f = np.append(f, max_fpr)
        t = np.append(t, t[-1] + w * (t2 - t[-1]))
    area = float(np.trapezoid(t, f))
    amin = max_fpr**2 / 2.0
    amax = max_fpr
    return 0.5 * (1.0 + (area - amin) / (amax - amin))


@dataclass(frozen=True)
class PRF1:
    precision: float
    recall: float
    f1: float
    degenerate: bool  # no predicted positives or no true anomalies


def prf1_at_threshold(ls: LabeledScores, phi: float) -> PRF1:
    """Precision, recall, and F1 with rows predicted anomalous iff score > phi.

    Undefined ratios (no predicted positives, or no true anomalies)
    come back as 0.0 with the degenerate flag set.
    """
    predicted = ls.scores > phi
    actual = ls.labels == 1
    tp = int(np.count_nonzero(predicted & actual))
    pp = int(np.count_nonzero(predicted))
    ap = int(np.count_nonzero(actual))
    degenerate = pp == 0 or ap == 0
    precision = tp / pp if pp else 0.0
    recall = tp / ap if ap else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return PRF1(precision=precision, recall=recall, f1=f1, degenerate=degenerate)


def false_positive_rate(scores: np.ndarray, phi: float = 0.0) -> float:
    """Fraction of (assumed normal) rows scoring strictly above phi."""
    if len(scores) == 0:
        raise DataError("no scores")
    return int(np.count_nonzero(np.asarray(scores) > phi)) / len(scores)


@dataclass
class SweepCell:
    theta: float
    gamma: float
    rule_count: int | None = None
    auc: float | None = None
    pauc: float | None = None
    f1: float | None = None
    precision: float | None = None
    recall: float | None = None
    error: str | None = None


@dataclass
class SweepResult:
    cells: list[SweepCell]

    def to_csv(self, path: str) -> None:
        def cell_str(v) -> str:
            return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("theta,gamma,rule_count,auc,pauc,f1,precision,recall\n")
            for c in self.cells:
                fields = [
                    repr(c.theta),
                    repr(c.gamma),
                    cell_str(c.rule_count),
                    cell_str(c.auc),
                    cell_str(c.pauc),
                    cell_str(c.f1),
                    cell_str(c.precision),
                    cell_str(c.recall),
                ]
                fh.write(",".join(fields) + "\n")


def sweep(
    train: Dataset,
    test: Dataset,
    labels: np.ndarray,
    theta_grid: list[float],
    gamma_grid: list[float],
    max_set_size: int | None = MiningConfig.max_set_size,
    max_fpr: float = DEFAULT_MAX_FPR,
) -> SweepResult:
    """Train and evaluate every (theta, gamma) grid cell, in grid order.

    Training's data stage runs once and its theta stage once per theta,
    when a cell first needs them; each cell runs the gamma stage (a
    filter over its theta's count table) and scoring.  Precision, recall
    and F1 take phi = 0, as tune_theta does: a row is predicted
    anomalous when it breaks any rule.  A cell that fails (for instance
    an out-of-range hyperparameter) records its error and the sweep
    moves on; a shared stage that fails is not run again, and its error
    goes into every cell that needs it.  gamma = 0 is admitted: the
    rarest-member term of the frequency floor simply vanishes.
    """
    timings: dict[str, float] = {}  # the stages' timings, not reported
    stages: dict[tuple, DataStage | ThetaStage | ValueError] = {}

    def once(key: tuple, build):
        """build()'s result, kept under key; a ValueError it raised is kept and raised again."""
        if key not in stages:
            try:
                stages[key] = build()
            except ValueError as exc:
                stages[key] = exc
        if isinstance(stages[key], ValueError):
            raise stages[key]
        return stages[key]

    cells: list[SweepCell] = []
    for pos, theta in enumerate(theta_grid):
        for gamma in gamma_grid:
            cell = SweepCell(theta=theta, gamma=gamma)
            try:
                config = MiningConfig(theta, gamma, max_set_size)
                data = once(("data",), lambda: data_stage(train, timings))
                shared = once(("theta", theta), lambda: theta_stage(train, data, theta, max_set_size, timings))
                ruleset = gamma_stage(train, data, shared, config, timings)
                scores = score_dataset(ruleset, test)
                ls = LabeledScores(scores, labels)
                prf = prf1_at_threshold(ls, 0.0)
                cell.rule_count = len(ruleset.rules)
                cell.auc = roc_auc(ls)
                cell.pauc = standardized_pauc(ls, max_fpr)
                cell.f1 = prf.f1
                cell.precision = prf.precision
                cell.recall = prf.recall
            except ValueError as exc:
                cell.error = str(exc)
            cells.append(cell)
        if theta not in theta_grid[pos + 1 :]:
            stages.pop(("theta", theta), None)  # hold one theta's count table at a time
    return SweepResult(cells)


DEFAULT_THETA_CANDIDATES = [0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05]


@dataclass
class ThetaTrial:
    theta: float
    rule_count: int
    fpr: float


@dataclass
class ThetaTuning:
    theta: float
    rule_count: int
    fpr: float
    fell_back: bool  # no candidate met the false positive target
    trials: list[ThetaTrial]


def tune_theta(
    train: Dataset,
    validation: Dataset,
    gamma: float,
    target_fpr: float = 0.01,
    candidates: list[float] | None = None,
    max_set_size: int | None = MiningConfig.max_set_size,
) -> ThetaTuning:
    """Pick the theta that yields the most rules while the validation
    false positive rate at phi = 0 stays strictly below the target.

    The validation split is assumed anomaly-free.  Ties on rule count
    prefer the smaller theta.  When no candidate meets the target, the
    largest candidate is returned with fell_back set.
    """
    if candidates is None:
        candidates = list(DEFAULT_THETA_CANDIDATES)
    if not candidates:
        raise MiningError("no theta candidates to try")
    trials: list[ThetaTrial] = []
    for theta in sorted(candidates, reverse=True):
        result = train_ruleset(train, MiningConfig(theta, gamma, max_set_size))
        scores = score_dataset(result.ruleset, validation)
        trials.append(
            ThetaTrial(
                theta=theta,
                rule_count=len(result.ruleset.rules),
                fpr=false_positive_rate(scores, 0.0),
            )
        )
    admissible = [t for t in trials if t.fpr < target_fpr]
    if admissible:
        best = max(admissible, key=lambda t: (t.rule_count, -t.theta))
        return ThetaTuning(best.theta, best.rule_count, best.fpr, False, trials)
    fallback = trials[0]  # largest candidate
    return ThetaTuning(fallback.theta, fallback.rule_count, fallback.fpr, True, trials)


def holdout_split(dataset: Dataset, validation_fraction: float = 0.2) -> tuple[Dataset, Dataset]:
    """Deterministic interleaved split: every k-th row goes to validation."""
    if not 0.0 < validation_fraction < 1.0:
        raise DataError(f"validation_fraction must lie in (0, 1), got {validation_fraction}")
    stride = max(2, round(1.0 / validation_fraction))
    idx = np.arange(dataset.row_count)
    val_mask = idx % stride == 0
    if val_mask.all() or not val_mask.any():
        raise DataError("dataset too small to split")
    return dataset.take(idx[~val_mask]), dataset.take(idx[val_mask])
