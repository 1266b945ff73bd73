"""Rule-based anomaly scoring, detection, and explanation.

A rule is violated on a row when every antecedent predicate holds and
at least one consequent predicate fails.  The anomaly score of a row
is the sum of the supports of its violated rules, so breaking a
boundary rule adds a full point and breaking a mined rule adds its
training support.  A row is reported anomalous when its score strictly
exceeds the threshold phi.  detect, and with it the score command, can
leave rules out by their id in the rule file without retraining; the
scoring functions score whatever rules the RuleSet holds, so a caller
leaves rules out there by scoring a RuleSet without them.

A rule file is compiled once per RuleSet, on first use, into predicate
arrays (predicates.CompiledRules): each predicate an OR of atoms
lo <= value <= hi, index arrays for the antecedents and consequents, and
the supports.  score_dataset, detect and explain build each predicate's
row mask from those arrays.  score_point runs a Python function
generated from them the first time it is called: one comparison chain
per atom and one if per rule, with no numpy call, so a row costs about
1.3-1.9 us with the 20 rules of the benchmark's tall and noisy tables
and about 13 us with 737 rules, on a 2-core x86 box.

Explanations are built per rule from arrays, not per row: the rows that
break a rule through the same failed consequents share one RuleViolation,
found by one integer code per violated row (bit j: consequent j failed).
detect returns the reports as arrays (Reports): the score array, phi,
the distinct RuleViolations and, per violated row, the ids of its
violations in compressed sparse row form.  An AnomalyReport is built
only when a caller indexes or iterates the reports; write_reports
renders the file straight from the arrays, each distinct violation once,
so the score command builds none of them.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence
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
    held-row mask)]) for each active rule, in rule-id order.

    This is where a dataset meets a rule file: column names and kinds
    must match in order, and categorical codes are read by value (see
    _in_rule_codes).  Each predicate's mask comes from the ruleset's
    compiled form, once, and is shared across rules: callers must not
    write to the masks.  Violation masks stream one rule at a time.
    """
    expected = [(c.name, c.kind) for c in ruleset.schema.columns]
    if [(c.name, c.kind) for c in dataset.schema.columns] != expected:
        raise SchemaMismatchError(
            "dataset columns do not match the rule file "
            f"(expected {ruleset.schema!r}, got {dataset.schema!r})"
        )
    for rid in ignore_rules:
        if not 0 <= rid < len(ruleset.rules):
            raise DataError(f"no rule with id {rid}")
    dataset = _in_rule_codes(ruleset.schema, dataset)
    compiled = ruleset.compiled
    predicates, always = compiled.predicates, compiled.always
    masks: dict[int, np.ndarray] = {}

    def held(i: int) -> np.ndarray:
        m = masks.get(i)
        if m is None:
            m = masks[i] = predicates.mask(i, dataset)
        return m

    start, index = compiled.start.tolist(), compiled.index.tolist()
    for rid, rule in enumerate(ruleset.rules):
        if rid in ignore_rules:
            continue
        antecedent = index[start[2 * rid] : start[2 * rid + 1]]
        consequent = index[start[2 * rid + 1] : start[2 * rid + 2]]
        consequent = [(predicates.predicates[i], held(i)) for i in consequent]
        intact = consequent[0][1]
        for _, m in consequent[1:]:
            intact = intact & m
        if antecedent == [always]:
            violated = ~intact
        else:
            triggered = held(antecedent[0])
            for i in antecedent[1:]:
                triggered = triggered & held(i)
            violated = np.greater(triggered, intact)
        yield rid, rule, violated, consequent


def score_dataset(ruleset: RuleSet, dataset: Dataset) -> np.ndarray:
    """Anomaly score per row, vectorized over the whole dataset."""
    scores = np.zeros(dataset.row_count, dtype=np.float64)
    for _, rule, violated, _ in _violations(ruleset, dataset, frozenset()):
        np.add(scores, rule.support, out=scores, where=violated)
    return scores


def score_point(ruleset: RuleSet, point: DataPoint) -> float:
    """Anomaly score of a single row, from the ruleset's compiled form.

    The point must carry categorical codes in the rule file's schema:
    take rows from a dataset loaded against ``ruleset.schema.copy()``.
    It must hold every column the rules read and may omit any other; a
    missing one, or one whose value is not a real number, is a
    DataError.  To leave rules out, score a RuleSet without them
    (``dataclasses.replace(ruleset, rules=kept)``).  The supports of the
    broken rules are added in rule-id order, as score_dataset adds them,
    so both give the same float.

    The first call builds the ruleset's scorer (CompiledRules.score):
    about 0.7-0.9 ms with 20 rules and 17-19 ms with 737.
    """
    compiled = ruleset.compiled
    try:
        return compiled.score(point.values)
    except KeyError as missing:
        raise DataError(f"unknown column {missing.args[0]!r}") from None
    except TypeError:
        for column in compiled.predicates.columns:
            value = point.values[column]
            try:
                value <= 0.0  # the comparison the scorer makes
            except TypeError:
                raise DataError(f"column {column!r} holds {value!r}, not a number") from None
        raise


@dataclass(eq=False, repr=False)
class Reports(Sequence[AnomalyReport]):
    """What detect returns: one AnomalyReport per row, held as arrays.

    ``scores`` is the score array and ``phi`` the threshold.
    ``violations`` holds each distinct RuleViolation once; ``hit`` lists
    the rows that break a rule, ascending, and row ``hit[j]`` breaks
    ``violations[k]`` for k in ``ids[starts[j]:starts[j + 1]]``, in
    rule-id order.  A row absent from ``hit`` is clean.  The arrays are
    read-only.  Each index or iteration builds new AnomalyReport objects,
    each with its own list; write_reports builds none.
    """

    scores: np.ndarray
    phi: float
    violations: tuple[RuleViolation, ...]
    hit: np.ndarray
    starts: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.scores, self.hit, self.starts, self.ids):
            array.flags.writeable = False

    def anomaly_count(self) -> int:
        """Rows whose score exceeds phi, counted on the score array."""
        return int(np.count_nonzero(self.scores > self.phi))

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index: int) -> AnomalyReport:
        i = range(len(self.scores))[operator.index(index)]  # a list's negative index and IndexError
        lo, hi = self.starts[np.searchsorted(self.hit, (i, i + 1))].tolist()  # row i's run, empty if clean
        score = float(self.scores[i])
        found = [self.violations[k] for k in self.ids[lo:hi].tolist()]
        return AnomalyReport(row=i, score=score, is_anomaly=score > self.phi, violations=found)

    def __iter__(self) -> Iterator[AnomalyReport]:
        violations, phi, ids, starts = self.violations, self.phi, self.ids.tolist(), self.starts.tolist()
        hit = self.hit.tolist() + [len(self.scores)]  # no row matches the sentinel
        j = 0
        for i, s in enumerate(self.scores.tolist()):
            found = []
            if i == hit[j]:
                found = [violations[k] for k in ids[starts[j] : starts[j + 1]]]
                j += 1
            yield AnomalyReport(row=i, score=s, is_anomaly=s > phi, violations=found)


def detect(ruleset: RuleSet, dataset: Dataset, config: DetectionConfig) -> Reports:
    """Score every row and collect its violated rules.

    Reports come back in row order, one per row, flagged anomalous when
    score > phi.  Violations list only the rules the row actually
    breaks, in rule-id order, each with the consequent predicates that
    failed.  Rows that break a rule through the same failed consequents
    share one (frozen) RuleViolation.  Each rule's (row, violation id)
    pairs are gathered, and one stable sort by row turns them into the
    runs of Reports, in rule-id order since rules come in id order.
    """
    scores = np.zeros(dataset.row_count, dtype=np.float64)
    violations: list[RuleViolation] = []
    # each rule's violated rows and their violation ids; the empty first pair lets a clean table concatenate
    rows_of, ids_of = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for rid, rule, mask, consequent in _violations(ruleset, dataset, config.ignore_rules):
        rows = np.flatnonzero(mask)
        if not len(rows):
            continue
        np.add(scores, rule.support, out=scores, where=mask)
        rows_of.append(rows)
        if len(consequent) == 1:  # its one consequent failed on every violated row
            ids_of.append(np.full(len(rows), len(violations), dtype=np.intp))
            violations.append(RuleViolation(rule_id=rid, rule=rule, failed=(consequent[0][0],)))
            continue
        # one integer per violated row, bit j set when consequent j failed
        # there; past 63 consequents the bits need python ints
        code = np.zeros(len(rows), dtype=object if len(consequent) > 63 else np.int64)
        for j, (_, held) in enumerate(consequent):
            code |= np.logical_not(held[rows]).astype(code.dtype) << j
        _, first, which = np.unique(code, return_index=True, return_inverse=True)
        ids_of.append(which + len(violations))
        violations.extend(
            RuleViolation(rule_id=rid, rule=rule, failed=tuple(p for p, held in consequent if not held[row]))
            for row in rows[first].tolist()
        )
    rows = np.concatenate(rows_of)
    order = np.argsort(rows, kind="stable")
    hit, opens = np.unique(rows[order], return_index=True)  # where each row's run opens
    starts = np.append(opens, len(rows))
    return Reports(scores, config.phi, tuple(violations), hit, starts, np.concatenate(ids_of)[order])


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


# rows rendered per write: the bytes in memory at once stay bounded
_WRITE_ROWS = 1 << 14

# a row that breaks no rule scores exactly 0.0, and phi >= 0 leaves it unflagged
_CLEAN_HEAD = b'{"row": '
_CLEAN_TAIL = b', "score": 0.0, "is_anomaly": false, "violations": []}\n'


def _clean_lines(start: int, stop: int, digits: int) -> np.ndarray:
    """The clean lines of rows start..stop-1, all with this many digits,
    as a rows x line-width uint8 matrix: one template line tiled, then
    the row number written into its digit columns, last digit first."""
    template = np.frombuffer(_CLEAN_HEAD + b"0" * digits + _CLEAN_TAIL, dtype=np.uint8)
    lines = np.tile(template, (stop - start, 1))
    rows = np.arange(start, stop)
    for column in range(len(_CLEAN_HEAD) + digits - 1, len(_CLEAN_HEAD) - 1, -1):
        lines[:, column] += (rows % 10).astype(np.uint8)
        rows //= 10
    return lines


def write_reports(reports: Reports, ruleset: RuleSet, path: str) -> None:
    """One JSON object per row: score, flag, and violated rule details.

    Takes what detect returned.  Each line is what json.dumps writes for
    {"row", "score", "is_anomaly", "violations": [{"rule_id", "rule",
    "support", "failed"}, ...]} with its default separators.  The lines
    come from the reports' arrays, _WRITE_ROWS rows per write.  Clean
    lines differ only in their row number, so each run of rows with as
    many digits is one template tiled and digit-filled (_clean_lines).
    A violated row's line is its row number and a tail rendered once per
    distinct (score, violation ids) in the block, the ids keyed by their
    bytes; it takes the place of the row's clean line, which is skipped
    by its offset.
    """
    scores, phi, hit, ids = reports.scores, reports.phi, reports.hit, reports.ids
    # row j's run of violation ids is runs[bounds[j]:bounds[j + 1]]
    runs, bounds = ids.tobytes(), (reports.starts * ids.itemsize).tolist()
    schema = ruleset.schema
    fragments = [  # one JSON object per distinct RuleViolation, by violation id
        json.dumps(
            {
                "rule_id": v.rule_id,
                "rule": ruleset.rule_text(v.rule),
                "support": v.rule.support,
                "failed": [p.render(schema) for p in v.failed],
            }
        )
        for v in reports.violations
    ]
    tails: dict[tuple[float, bytes], bytes] = {}  # by score and run bytes; emptied per block to bound it

    def tail(score: float, run: bytes) -> bytes:
        # a score is a finite float, and json.dumps spells one as its repr; json.dumps escapes to ASCII
        rendered = tails[score, run] = (
            f'"score": {score!r}, "is_anomaly": {"true" if score > phi else "false"}, '
            f'"violations": [{", ".join([fragments[k] for k in np.frombuffer(run, dtype=ids.dtype).tolist()])}]}}\n'
        ).encode()
        return rendered

    with open(path, "wb") as fh:
        for start in range(0, len(scores), _WRITE_ROWS):
            stop = min(start + _WRITE_ROWS, len(scores))
            pieces: list[bytes | memoryview] = []
            tails.clear()
            first = start
            while first < stop:  # one run of rows with as many digits: 10**(d-1)..10**d - 1, and row 0
                digits = len(str(first))
                last = min(stop, 10**digits)
                width = len(_CLEAN_HEAD) + digits + len(_CLEAN_TAIL)
                lines = memoryview(_clean_lines(first, last, digits)).cast("B")
                lo, hi = np.searchsorted(hit, (first, last)).tolist()
                at = 0
                for j, i, score in zip(range(lo, hi), hit[lo:hi].tolist(), scores[hit[lo:hi]].tolist()):
                    run = runs[bounds[j] : bounds[j + 1]]
                    offset = (i - first) * width
                    pieces += (lines[at:offset], b'{"row": %d, ' % i, tails.get((score, run)) or tail(score, run))
                    at = offset + width
                pieces.append(lines[at:])
                first = last
            fh.write(b"".join(pieces))
