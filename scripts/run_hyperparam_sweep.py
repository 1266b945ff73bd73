"""Grid sweep of theta and gamma on the planted-rule synthetic data.

Each cell retrains from scratch and reports rule count plus detection
metrics on a labeled test table.  The point of the exercise: rule count
shrinks monotonically as either knob rises, and detection quality holds
over a wide band before the mined rules disappear entirely.
"""

import argparse

from invarmine.evaluate import sweep
from invarmine.synth import planted_rule_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-rows", type=int, default=1500)
    parser.add_argument("--test-rows", type=int, default=800)
    parser.add_argument("--theta-grid", type=float, nargs="+",
                        default=[0.05, 0.1, 0.15, 0.2, 0.3, 0.4])
    parser.add_argument("--gamma-grid", type=float, nargs="+",
                        default=[0.0, 0.3, 0.6, 0.9])
    parser.add_argument("--out", default="sweep.csv", help="CSV destination")
    args = parser.parse_args()

    train, _ = planted_rule_data(args.train_rows, seed=7)
    test, labels = planted_rule_data(args.test_rows, seed=11, violation_rate=0.05)

    result = sweep(train, test, labels, args.theta_grid, args.gamma_grid)

    header = f"{'theta':>6} {'gamma':>6} {'rules':>6} {'auc':>7} {'pauc':>7} {'f1':>7}"
    print(header)
    print("-" * len(header))
    for cell in result.cells:
        if cell.error is not None:
            print(f"{cell.theta:>6} {cell.gamma:>6}  failed: {cell.error}")
            continue
        print(f"{cell.theta:>6} {cell.gamma:>6} {cell.rule_count:>6} "
              f"{cell.auc:>7.4f} {cell.pauc:>7.4f} {cell.f1:>7.4f}")

    result.to_csv(args.out)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
