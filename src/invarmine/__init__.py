"""Self-explaining invariant rules for anomaly detection on mixed tabular data.

Train on anomaly-free rows: decision trees propose cut-offs, cut-offs
become interval predicates (categorical values become equality and
disjunction predicates), and closed frequent predicate sets with
training confidence exactly 1 become invariant rules.  Score new rows
by summing the supports of the rules they violate; every detection
comes with the violated rules, the columns implicated, and the failed
conditions.
"""

from .data import (
    ColumnStats,
    Column,
    DataError,
    DataPoint,
    Dataset,
    Schema,
    compute_column_stats,
    load_csv,
    load_labels,
    load_row,
    load_schema,
    save_schema,
    write_csv,
)
from .detect import (
    AnomalyReport,
    DetectionConfig,
    Explanation,
    SchemaMismatchError,
    detect,
    explain,
    score_dataset,
    score_point,
    write_reports,
)
from .evaluate import (
    LabeledScores,
    PRF1,
    SweepResult,
    ThetaTuning,
    holdout_split,
    prf1_at_threshold,
    roc_auc,
    standardized_pauc,
    sweep,
    tune_theta,
)
from .mining import (
    FrequentSet,
    InvariantRule,
    MiningConfig,
    MiningError,
    RuleSet,
    boundary_rules,
    filter_closed,
    generate_rules,
    load_ruleset,
    mine_frequent_sets,
    save_ruleset,
)
from .pipeline import TrainResult, train_ruleset
from .predicates import (
    CategoricalDisjunction,
    CategoricalEquals,
    Interval,
    Membership,
    Predicate,
    PredicateCatalog,
    Range,
    gen_categorical_predicates,
    gen_continuous_predicates,
)
from .tree import (
    DecisionTree,
    SplitRule,
    TreeError,
    extract_cutoffs,
    fit_classification_tree,
    fit_regression_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyReport",
    "CategoricalDisjunction",
    "CategoricalEquals",
    "Column",
    "ColumnStats",
    "DataError",
    "DataPoint",
    "Dataset",
    "DecisionTree",
    "DetectionConfig",
    "Explanation",
    "FrequentSet",
    "Interval",
    "InvariantRule",
    "LabeledScores",
    "Membership",
    "MiningConfig",
    "MiningError",
    "PRF1",
    "Predicate",
    "PredicateCatalog",
    "Range",
    "RuleSet",
    "Schema",
    "SchemaMismatchError",
    "SplitRule",
    "SweepResult",
    "ThetaTuning",
    "TrainResult",
    "TreeError",
    "boundary_rules",
    "compute_column_stats",
    "detect",
    "explain",
    "extract_cutoffs",
    "filter_closed",
    "fit_classification_tree",
    "fit_regression_tree",
    "gen_categorical_predicates",
    "gen_continuous_predicates",
    "generate_rules",
    "holdout_split",
    "load_csv",
    "load_labels",
    "load_row",
    "load_ruleset",
    "load_schema",
    "mine_frequent_sets",
    "prf1_at_threshold",
    "roc_auc",
    "save_ruleset",
    "save_schema",
    "score_dataset",
    "score_point",
    "standardized_pauc",
    "sweep",
    "train_ruleset",
    "tune_theta",
    "write_csv",
    "write_reports",
]
