"""Command-line interface.

Exit codes: 0 on success, 1 when the score command finds anomalies,
2 for usage errors, 3 for data or pipeline errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import DataError, Dataset, load_csv, load_labels, load_row, load_schema
from .detect import DetectionConfig, check_phi, detect, explain, score_dataset, write_reports
from .evaluate import (
    DEFAULT_MAX_FPR,
    LabeledScores,
    check_max_fpr,
    prf1_at_threshold,
    roc_auc,
    standardized_pauc,
    sweep,
)
from .mining import (
    MINED,
    MiningConfig,
    check_gamma,
    check_max_set_size,
    check_theta,
    load_ruleset,
    save_ruleset,
)
from .pipeline import train_ruleset


def _checked(check, convert=float):
    """An argument type that converts the text and runs the library's own
    check on the value, so a value out of range is a usage error that
    carries the check's message."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    # argparse names the type in its message for text that does not convert
    parse.__name__ = check.__name__.removeprefix("check_")
    return parse


def _set_size(text: str) -> int | None:
    value = int(text)
    return None if value == 0 else value  # 0 means unlimited


_theta = _checked(check_theta)
_gamma = _checked(check_gamma)
_phi = _checked(check_phi)
_max_fpr = _checked(check_max_fpr)
_max_set_size = _checked(check_max_set_size, _set_size)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _float_grid(kind: str, convert):
    def parse(text: str) -> list[float]:
        items = [s.strip() for s in text.split(",") if s.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty {kind} grid")
        values = []
        for item in items:
            try:
                values.append(convert(item))
            except ValueError:  # text that is no number; a range error is an ArgumentTypeError
                raise argparse.ArgumentTypeError(f"invalid {kind} value: {item!r}") from None
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invarmine",
        description="Learn self-explaining invariant rules from anomaly-free tabular "
        "data and use them to detect and explain anomalies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a ruleset from an anomaly-free CSV")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--schema", required=True, help="schema JSON (column names and kinds)")
    p.add_argument("--theta", required=True, type=_theta, help="support floor in (0, 1)")
    p.add_argument("--gamma", required=True, type=_gamma, help="rarest-member floor scale in [0, 1)")
    p.add_argument("--max-set-size", type=_max_set_size, default=MiningConfig.max_set_size,
                   help="predicate set size cap (0 = unlimited)")
    p.add_argument("--out", required=True, help="rule file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a CSV against a rule file")
    p.add_argument("--rules", required=True, help="rule file from train")
    p.add_argument("--data", required=True, help="CSV to score")
    p.add_argument("--phi", type=_phi, default=0.0, help="anomaly threshold (default 0)")
    p.add_argument(
        "--ignore-rule",
        type=_non_negative_int,
        action="append",
        default=[],
        metavar="ID",
        help="deactivate a rule by id (repeatable)",
    )
    p.add_argument("--out", required=True, help="report file to write (one JSON object per row)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("explain", help="explain why one row is anomalous")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--row", required=True, type=_non_negative_int,
                   help="zero-based row index; no other row is parsed")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="compute detection metrics on labeled data")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True, help="one 0/1 label per row")
    p.add_argument("--max-fpr", type=_max_fpr, default=DEFAULT_MAX_FPR,
                   help="partial AUC cap (default %(default)s)")
    p.add_argument("--phi", type=_phi, default=0.0, help="threshold for precision/recall/F1")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid-search theta and gamma, writing metrics per cell")
    p.add_argument("--train", required=True, help="anomaly-free training CSV")
    p.add_argument("--schema", required=True, help="schema JSON")
    p.add_argument("--data", required=True, help="labeled test CSV")
    p.add_argument("--labels", required=True, help="one 0/1 label per test row")
    p.add_argument("--theta-grid", required=True, type=_float_grid("theta", _theta), help="comma-separated")
    p.add_argument("--gamma-grid", required=True, type=_float_grid("gamma", _gamma), help="comma-separated")
    p.add_argument("--max-set-size", type=_max_set_size, default=MiningConfig.max_set_size)
    p.add_argument("--max-fpr", type=_max_fpr, default=DEFAULT_MAX_FPR)
    p.add_argument("--out", required=True, help="CSV of per-cell metrics")
    p.set_defaults(func=cmd_sweep)

    return parser


def cmd_train(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    dataset = load_csv(args.data, schema)
    result = train_ruleset(dataset, MiningConfig(args.theta, args.gamma, args.max_set_size))
    save_ruleset(result.ruleset, args.out)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    mined = sum(1 for r in result.ruleset.rules if r.kind == MINED)
    boundary = len(result.ruleset.rules) - mined
    print(f"rows: {dataset.row_count}")
    print(f"predicates: {len(result.catalog)}")
    print(f"rules: {mined} mined + {boundary} boundary = {len(result.ruleset.rules)}")
    stages = " | ".join(f"{k} {v:.3f}s" for k, v in result.timings.items())
    print(f"timings: {stages}")
    print(f"wrote {args.out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    ruleset = load_ruleset(args.rules)
    dataset = load_csv(args.data, ruleset.schema.copy())
    config = DetectionConfig(phi=args.phi, ignore_rules=frozenset(args.ignore_rule))
    reports = detect(ruleset, dataset, config)
    write_reports(reports, ruleset, args.out)
    anomalies = reports.anomaly_count()
    print(f"scored {len(reports)} rows: {anomalies} anomalies (phi={args.phi:g})")
    print(f"wrote {args.out}")
    return 1 if anomalies else 0


def cmd_explain(args: argparse.Namespace) -> int:
    ruleset = load_ruleset(args.rules)
    # a row's score depends on that row alone, so only the header and that row are parsed
    dataset = load_row(args.data, ruleset.schema.copy(), args.row)
    (report,) = detect(ruleset, dataset, DetectionConfig())
    report.row = args.row
    print(explain(report, ruleset).text())
    return 0


def _labels_for(path: str, dataset: Dataset) -> np.ndarray:
    """The labels file at path, one label per row of dataset."""
    labels = load_labels(path)
    if len(labels) != dataset.row_count:
        raise DataError(f"{path}: label count {len(labels)} does not match row count {dataset.row_count}")
    return labels


def cmd_evaluate(args: argparse.Namespace) -> int:
    ruleset = load_ruleset(args.rules)
    dataset = load_csv(args.data, ruleset.schema.copy())
    labels = _labels_for(args.labels, dataset)
    ls = LabeledScores(score_dataset(ruleset, dataset), labels)
    prf = prf1_at_threshold(ls, args.phi)
    metrics = {
        "auc": roc_auc(ls),
        "pauc": standardized_pauc(ls, args.max_fpr),
        "max_fpr": args.max_fpr,
        "phi": args.phi,
        "precision": prf.precision,
        "recall": prf.recall,
        "f1": prf.f1,
        "degenerate": prf.degenerate,
    }
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    train = load_csv(args.train, schema)
    test = load_csv(args.data, schema)
    labels = _labels_for(args.labels, test)
    result = sweep(
        train,
        test,
        labels,
        theta_grid=args.theta_grid,
        gamma_grid=args.gamma_grid,
        max_set_size=args.max_set_size,
        max_fpr=args.max_fpr,
    )
    result.to_csv(args.out)
    failures = [c for c in result.cells if c.error is not None]
    for c in failures:
        print(f"warning: cell theta={c.theta:g} gamma={c.gamma:g} failed: {c.error}", file=sys.stderr)
    print(f"swept {len(result.cells)} cells ({len(failures)} failed)")
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
