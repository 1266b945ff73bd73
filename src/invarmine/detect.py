"""Rule-based anomaly scoring, detection, and explanation.

A rule is violated on a row when every antecedent predicate holds and
at least one consequent predicate fails.  The anomaly score of a row
is the sum of the supports of its violated rules, so breaking a
boundary rule adds a full point and breaking a mined rule adds its
training support.  A row is reported anomalous when its score strictly
exceeds the threshold phi.  Individual rules can be deactivated by id
without retraining.

Explanations are built per rule from arrays, not per row: the rows that
break a rule through the same failed consequents share one RuleViolation,
and the report writer renders each distinct violation once.
"""

from __future__ import annotations

import gc
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, DataError, DataPoint, Dataset, Schema
from .mining import BOUNDARY, InvariantRule, RuleSet
from .predicates import Predicate


class SchemaMismatchError(DataError):
    """Dataset columns do not match the columns the rules were trained on."""


@dataclass(frozen=True)
class DetectionConfig:
    phi: float = 0.0
    ignore_rules: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        check_phi(self.phi)


def check_phi(phi: float) -> None:
    # also rejects NaN, which no score would exceed, and inf, which no JSON number holds
    if not 0.0 <= phi < math.inf:
        raise DataError(f"phi must be non-negative and finite, got {phi}")


@dataclass(frozen=True)
class RuleViolation:
    rule_id: int
    rule: InvariantRule
    failed: tuple[Predicate, ...]  # the consequent predicates that did not hold


@dataclass
class AnomalyReport:
    row: int
    score: float
    is_anomaly: bool
    violations: list[RuleViolation]


def _active_rules(ruleset: RuleSet, ignore_rules: frozenset[int]) -> list[tuple[int, InvariantRule]]:
    for rid in ignore_rules:
        if not 0 <= rid < len(ruleset.rules):
            raise DataError(f"no rule with id {rid}")
    return [(rid, r) for rid, r in enumerate(ruleset.rules) if rid not in ignore_rules]


def _in_rule_codes(schema: Schema, dataset: Dataset) -> Dataset:
    """The dataset with categorical codes translated to the rule file's by
    value string; values the rule file never saw become -1, which no
    predicate matches.  A column whose value list starts with the rule
    file's already agrees and is not copied."""
    recoded: dict[str, np.ndarray] = {}
    for col in schema.columns:
        theirs = dataset.schema.column(col.name).values
        if col.kind == CATEGORICAL and theirs[: len(col.values)] != col.values:
            ours = [schema.code_for(col.name, v) for v in theirs]
            lookup = np.asarray([-1 if c is None else c for c in ours], dtype=np.int64)
            recoded[col.name] = lookup[dataset.column(col.name)]
    if not recoded:
        return dataset
    return Dataset(schema, {n: recoded.get(n, dataset.column(n)) for n in schema.names})


def _violations(
    ruleset: RuleSet, dataset: Dataset, ignore_rules: frozenset[int]
) -> Iterator[tuple[int, InvariantRule, np.ndarray, list[tuple[Predicate, np.ndarray]]]]:
    """Yield (rule id, rule, violated-row mask, [(consequent predicate,
    failed-row mask)]) for each active rule, in rule-id order.

    This is where a dataset meets a rule file: column names and kinds
    must match in order, and categorical codes are read by value (see
    _in_rule_codes).  Each predicate's mask is computed once and shared
    across rules; violation masks stream one rule at a time.
    """
    expected = [(c.name, c.kind) for c in ruleset.schema.columns]
    if [(c.name, c.kind) for c in dataset.schema.columns] != expected:
        raise SchemaMismatchError(
            "dataset columns do not match the rule file "
            f"(expected {ruleset.schema!r}, got {dataset.schema!r})"
        )
    active = _active_rules(ruleset, ignore_rules)
    dataset = _in_rule_codes(ruleset.schema, dataset)
    n = dataset.row_count
    used = dict.fromkeys(p for _, rule in active for p in rule.antecedent + rule.consequent)
    masks = {p: p.mask(dataset) for p in used}
    for rid, rule in active:
        triggered = np.ones(n, dtype=bool)
        for p in rule.antecedent:
            triggered &= masks[p]
        failed = [(p, ~masks[p]) for p in rule.consequent]
        violated = np.zeros(n, dtype=bool)
        for _, fm in failed:
            violated |= fm
        violated &= triggered
        yield rid, rule, violated, failed


def score_dataset(
    ruleset: RuleSet, dataset: Dataset, ignore_rules: frozenset[int] = frozenset()
) -> np.ndarray:
    """Anomaly score per row, vectorized over the whole dataset."""
    scores = np.zeros(dataset.row_count, dtype=np.float64)
    for _, rule, violated, _ in _violations(ruleset, dataset, ignore_rules):
        np.add(scores, rule.support, out=scores, where=violated)
    return scores


def score_point(
    ruleset: RuleSet, point: DataPoint, ignore_rules: frozenset[int] = frozenset()
) -> float:
    """Anomaly score of a single row, computed predicate by predicate.

    The point must carry categorical codes in the rule file's schema:
    take rows from a dataset loaded against ``ruleset.schema.copy()``.
    """
    score = 0.0
    for _, rule in _active_rules(ruleset, ignore_rules):
        if all(p.holds(point) for p in rule.antecedent) and not all(
            p.holds(point) for p in rule.consequent
        ):
            score += rule.support
    return score


def detect(ruleset: RuleSet, dataset: Dataset, config: DetectionConfig) -> list[AnomalyReport]:
    """Score every row and collect its violated rules.

    Reports come back in row order, one per row, flagged anomalous when
    score > phi.  Violations list only the rules the row actually
    breaks, in rule-id order, each with the consequent predicates that
    failed.  Rows that break a rule through the same failed consequents
    share one (frozen) RuleViolation; every clean row gets its own empty
    list.
    """
    n = dataset.row_count
    scores = np.zeros(n, dtype=np.float64)
    per_row: list[list[RuleViolation] | None] = [None] * n
    for rid, rule, violated, failed in _violations(ruleset, dataset, config.ignore_rules):
        rows = np.flatnonzero(violated)
        if not len(rows):
            continue
        np.add(scores, rule.support, out=scores, where=violated)
        hits = np.column_stack([fm[rows] for _, fm in failed])
        patterns, which = np.unique(hits, axis=0, return_inverse=True)
        shared = [
            RuleViolation(rule_id=rid, rule=rule, failed=tuple(p for (p, _), f in zip(failed, pattern) if f))
            for pattern in patterns.tolist()
        ]
        for row, k in zip(rows.tolist(), which.ravel().tolist()):
            found = per_row[row]
            if found is None:
                per_row[row] = [shared[k]]
            else:
                found.append(shared[k])
    phi = config.phi
    # two new container objects per row and none freed: the collector
    # would run again and again over the growing list and find nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [
            AnomalyReport(row=i, score=s, is_anomaly=s > phi, violations=found or [])
            for i, (s, found) in enumerate(zip(scores.tolist(), per_row))
        ]
    finally:
        if collecting:
            gc.enable()


@dataclass
class ExplanationEntry:
    rule_id: int
    rule_text: str
    columns: tuple[str, ...]
    conditions: tuple[str, ...]
    evidence: str


@dataclass
class Explanation:
    row: int
    score: float
    entries: list[ExplanationEntry]

    def text(self) -> str:
        lines = [f"row {self.row}: anomaly score {self.score:g}"]
        for e in self.entries:
            lines.append(f"- rule {e.rule_id}: {e.rule_text}")
            lines.append(f"  implicated columns: {', '.join(e.columns)}")
            lines.append(f"  failed conditions: {'; '.join(e.conditions)}")
            lines.append(f"  {e.evidence}")
        return "\n".join(lines)


def explain(report: AnomalyReport, ruleset: RuleSet) -> Explanation:
    """Answer, per violated rule: which columns are implicated, what
    condition they failed, and why the rule was believed.

    Raises DataError when the report has no violations to explain.
    """
    if not report.violations:
        raise DataError(f"row {report.row} violates no rules; nothing to explain")
    schema = ruleset.schema
    entries: list[ExplanationEntry] = []
    for v in report.violations:
        columns: list[str] = []
        for p in v.failed:
            for c in p.columns():
                if c not in columns:
                    columns.append(c)
        conditions = tuple(p.render(schema) for p in v.failed)
        if v.rule.kind == BOUNDARY:
            evidence = (
                f"every training row satisfied {conditions[0]!r}; "
                "this row falls outside that envelope"
            )
        else:
            ant = " and ".join(repr(p.render(schema)) for p in v.rule.antecedent)
            held = " and ".join(repr(p.render(schema)) for p in v.failed)
            evidence = (
                f"in training, whenever {ant} held ({v.rule.support:.1%} of rows), "
                f"{held} always held as well; this row meets the condition but breaks the outcome"
            )
        entries.append(
            ExplanationEntry(
                rule_id=v.rule_id,
                rule_text=ruleset.rule_text(v.rule),
                columns=tuple(columns),
                conditions=conditions,
                evidence=evidence,
            )
        )
    return Explanation(row=report.row, score=report.score, entries=entries)


def _json_float(x: float) -> str:
    """x as json.dumps spells it: a finite float's repr without the
    encoder's per-call cost, anything else through json.dumps itself."""
    if type(x) is float and x - x == 0.0:
        return repr(x)
    return json.dumps(x)


def write_reports(reports: list[AnomalyReport], ruleset: RuleSet, path: str) -> None:
    """One JSON object per row: score, flag, and violated rule details.

    Each line is what json.dumps writes for {"row", "score", "is_anomaly",
    "violations": [{"rule_id", "rule", "support", "failed"}, ...]} with
    its default separators.  A violation's object is rendered once per
    distinct (rule id, failed predicates) and reused on every row that
    carries it; lines are written one at a time.
    """
    fragments: dict[tuple[int, tuple[Predicate, ...]], str] = {}

    def fragment(v: RuleViolation) -> str:
        key = (v.rule_id, v.failed)
        text = fragments.get(key)
        if text is None:
            text = fragments[key] = json.dumps(
                {
                    "rule_id": v.rule_id,
                    "rule": ruleset.rule_text(v.rule),
                    "support": v.rule.support,
                    "failed": [p.render(ruleset.schema) for p in v.failed],
                }
            )
        return text

    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            violations = ", ".join([fragment(v) for v in r.violations])
            flag = "true" if r.is_anomaly else "false"
            fh.write(
                f'{{"row": {r.row}, "score": {_json_float(r.score)}, '
                f'"is_anomaly": {flag}, "violations": [{violations}]}}\n'
            )
