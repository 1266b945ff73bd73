"""Frequent predicate-set mining and invariant rule generation.

A predicate set S drawn from the catalog is frequent when its support
strictly exceeds a rule-specific floor:

    sigma(S) > max(theta, gamma * min_{p in S} sigma(p))

The gamma term scales the floor to the rarest member, so sets built
from rare predicates must cover a larger share of their members' rows
than theta alone would demand.  This condition is not downward closed
(a set can be frequent while one of its subsets is not), but
sigma(S) > theta alone is, which is what the depth-first enumeration
prunes on.  Each predicate's rows are packed once into a uint64 bit
row; a set's children are counted together with one AND and popcount
over the rows of its candidate list, the later siblings that passed
theta, which is exact because sigma(S + {i, j}) <= sigma(S + {j}).

Frequent sets are then filtered to closed sets (no frequent superset
within the mined collection has equal support), and every closed set
is turned into rules by enumerating its minimal antecedents: the
inclusion-minimal proper subsets whose support equals the support of
the whole set.  Each such antecedent implies the remaining predicates
with confidence exactly 1 on the training data.

Boundary rules are built separately from column statistics: per-column
envelopes with empty antecedent and support 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import (
    CATEGORICAL,
    CONTINUOUS,
    ColumnStats,
    ContinuousStats,
    DataError,
    Dataset,
    Schema,
)
from .predicates import (
    CategoricalDisjunction,
    CategoricalEquals,
    Interval,
    Membership,
    Predicate,
    PredicateCatalog,
    Range,
)

MINED = "mined"
BOUNDARY = "boundary"


class MiningError(ValueError):
    """Raised for invalid mining configuration or oversized enumeration."""


@dataclass(frozen=True)
class MiningConfig:
    """Hyperparameters for the frequency condition and search depth.

    theta in (0, 1) is the global support floor; gamma in [0, 1) scales
    the per-set floor by the rarest member's support (gamma = 0 turns
    that term off); max_set_size caps enumerated set sizes (None means
    unbounded).
    """

    theta: float
    gamma: float
    max_set_size: int | None = 6

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise MiningError(f"theta must lie in (0, 1), got {self.theta}")
        if not 0.0 <= self.gamma < 1.0:
            raise MiningError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.max_set_size is not None and self.max_set_size < 2:
            raise MiningError(f"max_set_size must be at least 2, got {self.max_set_size}")


@dataclass(frozen=True)
class FrequentSet:
    """An ascending tuple of catalog indices with its training support."""

    ids: tuple[int, ...]
    support: float
    closed: bool = False


# Candidate checks one mine_frequent_sets call may make (a check is one
# popcounted row of a node's intersection matrix, about 3 us on a 20k-row
# table).  The benchmark training tables need at most 79k (noisy), so the
# cap is over 100x that.  It is a bound, not a tuning knob: it turns a
# theta or max_set_size loose enough to enumerate for hours into an error
# naming both.
_MAX_CANDIDATE_CHECKS = 10_000_000


def _tidsets(dataset: Dataset, catalog: PredicateCatalog) -> np.ndarray:
    """Row sets as one packed bit matrix, one row per predicate.

    Row i is np.packbits of predicate i's mask, zero-padded to whole
    8-byte words and viewed as uint64, so the shape is (m, ceil(n/64)).
    Only ANDs and popcounts are taken over it, so the bit order inside
    a word does not matter and the padding bits are always 0.
    """
    words = -(-dataset.row_count // 64)
    packed = np.zeros((len(catalog), 8 * words), dtype=np.uint8)
    for i, p in enumerate(catalog.predicates):
        bits = np.packbits(p.mask(dataset))
        packed[i, : bits.size] = bits
    return packed.view(np.uint64)


def mine_frequent_sets(
    dataset: Dataset,
    catalog: PredicateCatalog,
    config: MiningConfig,
    *,
    tidsets: np.ndarray | None = None,
) -> list[FrequentSet]:
    """Enumerate all frequent predicate sets of size 2..max_set_size.

    Depth-first over equivalence classes (Zaki's Eclat): a node is a set
    S in ascending index order with its packed tidset row and a candidate
    list, the ascending indices j > max(S) still worth trying.  One
    popcount over the candidates' rows ANDed with S's row counts every
    child S + {j}; children with sigma > theta are kept, and each keeps
    the passing siblings after it as its own candidate list and its row
    of that AND as its tidset.  This is exact: sigma(S + {i, j}) <=
    sigma(S + {j}), so a sibling that failed theta can only fail again
    below, and the sets visited are exactly those of trying every later
    index.  The gamma term decides output per set and never prunes, since
    it is not anti-monotone.  Output is sorted by size, then
    lexicographically by indices.

    tidsets is the _tidsets matrix when the caller already has it.
    Raises MiningError once the enumeration passes a fixed budget of
    candidate checks.
    """
    n = dataset.row_count
    theta, gamma = config.theta, config.gamma
    cap = config.max_set_size if config.max_set_size is not None else len(catalog)
    singleton = catalog.supports
    out: list[FrequentSet] = []
    tids = _tidsets(dataset, catalog) if tidsets is None else tidsets
    checks = 0

    def passing(rows: np.ndarray, cand: np.ndarray) -> tuple[list[int], list[int]]:
        nonlocal checks
        checks += len(cand)
        if checks > _MAX_CANDIDATE_CHECKS:
            raise MiningError(
                f"frequent-set enumeration passed {_MAX_CANDIDATE_CHECKS} candidate checks; "
                f"raise theta (now {theta}) or lower max_set_size (now {config.max_set_size})"
            )
        counts = np.bitwise_count(rows).sum(axis=1).tolist()
        return [k for k, c in enumerate(counts) if c / n > theta], counts

    def extend(ids: list[int], tid: np.ndarray, min_member: float, cand: np.ndarray) -> None:
        rows = tids[cand] & tid
        kept, counts = passing(rows, cand)
        later = cand[kept]
        for pos, (k, j) in enumerate(zip(kept, later.tolist())):
            sup = counts[k] / n
            new_min = min(min_member, singleton[j])
            ids.append(j)
            if sup > max(theta, gamma * new_min):
                out.append(FrequentSet(tuple(ids), sup))
            if len(ids) < cap and pos + 1 < len(kept):
                extend(ids, rows[k], new_min, later[pos + 1 :])
            ids.pop()

    # Candidates are the indices whose own row count passes theta: that count,
    # not the catalog's cached support, bounds every set containing the index.
    # A root is extended when its cached support passes too; a root whose
    # count fails has no passing child either way.
    everything = np.arange(len(catalog))
    kept, _ = passing(tids, everything)
    frequent = everything[kept]
    for pos, j in enumerate(frequent.tolist()):
        if singleton[j] > theta:
            extend([j], tids[j], singleton[j], frequent[pos + 1 :])

    out.sort(key=lambda s: (len(s.ids), s.ids))
    return out


def filter_closed(sets: list[FrequentSet]) -> list[FrequentSet]:
    """Keep sets with no equal-support frequent superset in the collection.

    Probing immediate supersets suffices: if some frequent superset has
    equal support, a minimal one does, and a minimal one is always one
    element larger (dropping any other extra element keeps the support
    equal and the frequency floor can only fall).
    """
    table = {frozenset(s.ids): s.support for s in sets}
    universe = sorted({i for s in sets for i in s.ids})
    out: list[FrequentSet] = []
    for s in sets:
        base = frozenset(s.ids)
        closed = True
        for x in universe:
            if x in base:
                continue
            sup = table.get(base | {x})
            if sup is not None and sup == s.support:
                closed = False
                break
        if closed:
            out.append(FrequentSet(s.ids, s.support, closed=True))
    return out


@dataclass(frozen=True)
class InvariantRule:
    """antecedent => consequent with training confidence exactly 1.

    Mined rules carry the support of the full predicate set; boundary
    rules have an empty antecedent and support 1, so violating one adds
    a full point to the anomaly score.
    """

    antecedent: tuple[Predicate, ...]
    consequent: tuple[Predicate, ...]
    support: float
    kind: str = MINED

    def __post_init__(self) -> None:
        if not self.consequent:
            raise MiningError("rule consequent is empty")
        if set(self.antecedent) & set(self.consequent):
            raise MiningError("rule antecedent and consequent overlap")
        if self.kind not in (MINED, BOUNDARY):
            raise MiningError(f"unknown rule kind {self.kind!r}")
        if not 0.0 < self.support <= 1.0:
            raise MiningError(f"rule support must lie in (0, 1], got {self.support}")


def generate_rules(
    closed_sets: list[FrequentSet],
    dataset: Dataset,
    catalog: PredicateCatalog,
    *,
    tidsets: np.ndarray | None = None,
) -> list[InvariantRule]:
    """Emit one rule per minimal antecedent of each closed set.

    An antecedent qualifies when its support equals the full set's
    support (confidence exactly 1, compared as row counts so there is
    no floating-point slack); it is kept only when no qualifying proper
    subset of it exists.  tidsets is the _tidsets matrix when the caller
    already has it.
    """
    packed = _tidsets(dataset, catalog) if tidsets is None else tidsets
    # one bigint per row: many small ANDs are cheaper on ints than as numpy calls
    tids = [int.from_bytes(row.tobytes(), "big") for row in packed]
    rules: list[InvariantRule] = []
    for s in closed_sets:
        full_tid = tids[s.ids[0]]
        for i in s.ids[1:]:
            full_tid &= tids[i]
        full_count = full_tid.bit_count()
        minimal: list[set[int]] = []
        for size in range(1, len(s.ids)):
            for ant in combinations(s.ids, size):
                ant_set = set(ant)
                if any(m <= ant_set for m in minimal):
                    continue
                tid = tids[ant[0]]
                for i in ant[1:]:
                    tid &= tids[i]
                if tid.bit_count() == full_count:
                    minimal.append(ant_set)
                    rest = tuple(catalog.predicates[i] for i in s.ids if i not in ant_set)
                    rules.append(
                        InvariantRule(
                            antecedent=tuple(catalog.predicates[i] for i in ant),
                            consequent=rest,
                            support=s.support,
                            kind=MINED,
                        )
                    )
    return rules


def boundary_rules(stats: ColumnStats, schema: Schema) -> list[InvariantRule]:
    """One always-true envelope rule per column, in schema order.

    Continuous columns get a closed range spanning the observed extrema
    widened to at least mean +/- 3 standard deviations; categorical
    columns get membership in the seen values.  Both hold on every
    training row, hence support 1 and empty antecedent.
    """
    rules: list[InvariantRule] = []
    for col in schema.columns:
        if col.kind == CONTINUOUS:
            s = stats.continuous[col.name]
            low = min(s.mean - 3.0 * s.std, s.minimum)
            high = max(s.mean + 3.0 * s.std, s.maximum)
            pred: Predicate = Range(col.name, low, high)
        else:
            codes = []
            for value in stats.categorical[col.name]:
                code = schema.code_for(col.name, value)
                if code is None:
                    raise MiningError(f"column {col.name!r}: value {value!r} missing from schema")
                codes.append(code)
            pred = Membership(col.name, frozenset(codes))
        rules.append(InvariantRule(antecedent=(), consequent=(pred,), support=1.0, kind=BOUNDARY))
    return rules


@dataclass
class RuleSet:
    """Everything needed to score new data and explain the outcome."""

    schema: Schema
    stats: ColumnStats
    theta: float
    gamma: float
    max_set_size: int | None
    catalog: PredicateCatalog
    rules: list[InvariantRule]

    def rule_text(self, rule: InvariantRule) -> str:
        ant = ", ".join(p.render(self.schema) for p in rule.antecedent)
        con = ", ".join(p.render(self.schema) for p in rule.consequent)
        return f"{{{ant}}} => {{{con}}}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSet):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.stats == other.stats
            and self.theta == other.theta
            and self.gamma == other.gamma
            and self.max_set_size == other.max_set_size
            and self.catalog.pairs() == other.catalog.pairs()
            and self.rules == other.rules
        )


def _bound_to_json(v: float) -> float | None:
    return None if v in (float("-inf"), float("inf")) else float(v)


def _predicate_to_json(p: Predicate, schema: Schema) -> dict:
    if isinstance(p, CategoricalEquals):
        return {"type": "equals", "column": p.column, "value": schema.value_of(p.column, p.code)}
    if isinstance(p, CategoricalDisjunction):
        return {
            "type": "disjunction",
            "items": [[c, schema.value_of(c, v)] for c, v in p.items],
        }
    if isinstance(p, Interval):
        return {
            "type": "interval",
            "column": p.column,
            "lower": _bound_to_json(p.lower),
            "upper": _bound_to_json(p.upper),
        }
    if isinstance(p, Range):
        return {"type": "range", "column": p.column, "low": p.low, "high": p.high}
    if isinstance(p, Membership):
        return {
            "type": "membership",
            "column": p.column,
            "values": sorted(schema.value_of(p.column, c) for c in p.codes),
        }
    raise MiningError(f"cannot serialize predicate {p!r}")


def _code_or_fail(schema: Schema, column: str, value: str) -> int:
    code = schema.code_for(column, value)
    if code is None:
        raise DataError(f"column {column!r}: value {value!r} missing from schema")
    return code


def _predicate_from_json(entry: dict, schema: Schema) -> Predicate:
    t = entry["type"]
    if t == "equals":
        return CategoricalEquals(entry["column"], _code_or_fail(schema, entry["column"], entry["value"]))
    if t == "disjunction":
        return CategoricalDisjunction(
            tuple((c, _code_or_fail(schema, c, v)) for c, v in entry["items"])
        )
    if t == "interval":
        lower = float("-inf") if entry["lower"] is None else float(entry["lower"])
        upper = float("inf") if entry["upper"] is None else float(entry["upper"])
        return Interval(entry["column"], lower, upper)
    if t == "range":
        return Range(entry["column"], float(entry["low"]), float(entry["high"]))
    if t == "membership":
        return Membership(
            entry["column"],
            frozenset(_code_or_fail(schema, entry["column"], v) for v in entry["values"]),
        )
    raise DataError(f"unknown predicate type {t!r}")


def save_ruleset(ruleset: RuleSet, path: str) -> None:
    """Write a rule file: schema, statistics, predicates, and rules as JSON."""
    schema = ruleset.schema
    pred_ids: dict[Predicate, int] = {}
    pred_entries: list[dict] = []

    def intern(p: Predicate, sup: float) -> int:
        if p in pred_ids:
            return pred_ids[p]
        pid = len(pred_entries)
        pred_ids[p] = pid
        entry = _predicate_to_json(p, schema)
        entry["id"] = pid
        entry["support"] = float(sup)
        entry["text"] = p.render(schema)
        pred_entries.append(entry)
        return pid

    for p, sup in ruleset.catalog.pairs():
        intern(p, sup)
    catalog_size = len(pred_entries)

    rule_entries = []
    for rid, rule in enumerate(ruleset.rules):
        rule_entries.append(
            {
                "id": rid,
                "kind": rule.kind,
                "antecedent": [intern(p, rule.support) for p in rule.antecedent],
                "consequent": [intern(p, rule.support) for p in rule.consequent],
                "support": float(rule.support),
                "text": ruleset.rule_text(rule),
            }
        )

    stats_entries: dict[str, dict] = {}
    for name, s in ruleset.stats.continuous.items():
        stats_entries[name] = {
            "kind": CONTINUOUS,
            "mean": s.mean,
            "std": s.std,
            "min": s.minimum,
            "max": s.maximum,
        }
    for name, seen in ruleset.stats.categorical.items():
        stats_entries[name] = {"kind": CATEGORICAL, "seen": list(seen)}

    payload = {
        "format": "invariant-ruleset",
        "version": 1,
        "theta": ruleset.theta,
        "gamma": ruleset.gamma,
        "max_set_size": ruleset.max_set_size,
        "schema": schema.to_dict(),
        "column_stats": stats_entries,
        "catalog_size": catalog_size,
        "predicates": pred_entries,
        "rules": rule_entries,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_ruleset(path: str) -> RuleSet:
    """Read a rule file; any malformed content raises DataError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != "invariant-ruleset":
        raise DataError(f"{path}: not a rule file")
    try:
        return _ruleset_from_json(payload)
    except KeyError as exc:
        raise DataError(f"{path}: malformed rule file: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: malformed rule file: {exc}") from None


def _ruleset_from_json(payload: dict) -> RuleSet:
    schema = Schema.from_dict(payload["schema"])

    continuous: dict[str, ContinuousStats] = {}
    categorical: dict[str, list[str]] = {}
    for name, entry in payload["column_stats"].items():
        if entry["kind"] == CONTINUOUS:
            continuous[name] = ContinuousStats(
                mean=float(entry["mean"]),
                std=float(entry["std"]),
                minimum=float(entry["min"]),
                maximum=float(entry["max"]),
            )
        else:
            categorical[name] = list(entry["seen"])
    stats = ColumnStats(continuous, categorical)

    predicates = [_predicate_from_json(entry, schema) for entry in payload["predicates"]]
    supports = [float(entry["support"]) for entry in payload["predicates"]]

    def predicate(index: object) -> Predicate:
        if type(index) is not int or not 0 <= index < len(predicates):
            raise DataError(f"no predicate with index {index!r}")
        return predicates[index]

    catalog_size = payload["catalog_size"]
    if type(catalog_size) is not int or not 0 <= catalog_size <= len(predicates):
        raise DataError(f"catalog_size {catalog_size!r} does not fit {len(predicates)} predicates")
    catalog = PredicateCatalog(list(zip(predicates[:catalog_size], supports[:catalog_size])))

    rules = []
    for entry in payload["rules"]:
        rules.append(
            InvariantRule(
                antecedent=tuple(predicate(i) for i in entry["antecedent"]),
                consequent=tuple(predicate(i) for i in entry["consequent"]),
                support=float(entry["support"]),
                kind=entry["kind"],
            )
        )

    max_set_size = payload["max_set_size"]
    return RuleSet(
        schema=schema,
        stats=stats,
        theta=float(payload["theta"]),
        gamma=float(payload["gamma"]),
        max_set_size=None if max_set_size is None else int(max_set_size),
        catalog=catalog,
        rules=rules,
    )
