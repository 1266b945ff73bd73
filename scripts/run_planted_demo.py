"""End-to-end walkthrough on synthetic data with one planted invariant.

Trains on a clean table, scores a second table where 5% of rows break
the planted rule, prints the detection metrics, and explains one of the
flagged rows.  Writes the rule file and the score report next to each
other so the CLI commands in the README can be replayed against them.
"""

import argparse
import os

from invarmine.data import write_csv
from invarmine.detect import DetectionConfig, detect, explain, score_dataset, write_reports
from invarmine.evaluate import LabeledScores, prf1_at_threshold, roc_auc, standardized_pauc
from invarmine.mining import BOUNDARY, MiningConfig, save_ruleset
from invarmine.pipeline import train_ruleset
from invarmine.synth import planted_rule_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out", help="where to write files")
    parser.add_argument("--train-rows", type=int, default=2000)
    parser.add_argument("--test-rows", type=int, default=1000)
    parser.add_argument("--theta", type=float, default=0.15)
    parser.add_argument("--gamma", type=float, default=0.3)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    train, _ = planted_rule_data(args.train_rows, seed=7)
    test, labels = planted_rule_data(args.test_rows, seed=11, violation_rate=0.05)

    result = train_ruleset(train, MiningConfig(theta=args.theta, gamma=args.gamma))
    ruleset = result.ruleset
    mined = [r for r in ruleset.rules if r.kind != BOUNDARY]
    print(f"trained on {train.row_count} rows in {result.timings['total']:.2f}s")
    print(f"catalog: {len(ruleset.catalog)} predicates")
    print(f"rules: {len(mined)} mined, {len(ruleset.rules) - len(mined)} boundary")
    for rule in mined:
        print(f"  {ruleset.rule_text(rule)}  (support {rule.support:.2f})")

    scores = score_dataset(ruleset, test)
    ls = LabeledScores(scores, labels)
    prf = prf1_at_threshold(ls, 0.0)
    print(f"\nscored {test.row_count} rows with {int(labels.sum())} planted violations")
    print(f"AUC {roc_auc(ls):.4f}  pAUC@0.1 {standardized_pauc(ls, 0.1):.4f}")
    print(f"precision {prf.precision:.3f}  recall {prf.recall:.3f}  F1 {prf.f1:.3f}")

    reports = detect(ruleset, test, DetectionConfig())
    flagged = [r for r in reports if r.is_anomaly]
    print(f"\n{len(flagged)} rows flagged; explaining the first one:")
    print(explain(flagged[0], ruleset).text())

    rules_path = os.path.join(args.out_dir, "planted_rules.json")
    save_ruleset(ruleset, rules_path)
    write_csv(train, os.path.join(args.out_dir, "planted_train.csv"))
    write_csv(test, os.path.join(args.out_dir, "planted_test.csv"))
    write_reports(reports, ruleset, os.path.join(args.out_dir, "planted_reports.jsonl"))
    print(f"\nwrote {rules_path} and the CSVs/reports beside it")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
