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
over the rows of its candidate list, the siblings that passed theta
after it in ascending count order, which is exact because
sigma(S + {i, j}) <= sigma(S + {j}).

That pass, count_sets, is the only place where predicate sets are
counted, and it depends on theta alone.  It records the row count of
every set it finds above theta, singletons included, in a count table
keyed by the ascending id tuple; every subset of such a set is above
theta too, so it is in the table.  Gamma is a filter over that table:
mine_frequent_sets emits the entries that pass the full floor, so one
table serves every gamma of its theta.

Frequent sets are filtered to closed sets (no frequent superset within
the mined collection has equal support) by a walk over subsets: each
emitted T - {x} with T's support is not closed.  Every closed set S is
then turned into rules by finding its minimal antecedents: the
inclusion-minimal proper subsets whose row count equals the count of
the whole set.  Each such antecedent implies the remaining predicates
with confidence exactly 1 on the training data.  Only members in D,
the x with count(S - {x}) = count(S), can be left out of an
antecedent: leaving out any other x drops to a subset of S - {x},
whose count is larger.  So the search reads from the count table only
the sets (S - D) + E, for proper subsets E of D, and skips S outright
when D is empty.

Boundary rules are built separately from column statistics: per-column
envelopes with empty antecedent and support 1.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
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
    read_text,
)
from .predicates import (
    CategoricalDisjunction,
    CategoricalEquals,
    CompiledPredicates,
    CompiledRules,
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
        check_theta(self.theta)
        check_gamma(self.gamma)
        check_max_set_size(self.max_set_size)


def check_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise MiningError(f"theta must lie in (0, 1), got {theta}")


def check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise MiningError(f"gamma must lie in [0, 1), got {gamma}")


def check_max_set_size(max_set_size: int | None) -> None:
    # an exact int: a float would be saved as given and read back truncated
    if max_set_size is not None and (type(max_set_size) is not int or max_set_size < 2):
        raise MiningError(f"max_set_size must be None or an integer >= 2, got {max_set_size!r}")


@dataclass(frozen=True)
class FrequentSet:
    """An ascending tuple of catalog indices with its training support."""

    ids: tuple[int, ...]
    support: float


# Candidate checks one count_sets call may make (a check is one
# popcounted row of a node's intersection matrix, about 3 us on a 20k-row
# table).  The benchmark training tables need at most 48k (wide; noisy
# 29k, tall 398), so the cap is over 200x that.  It is a bound, not a
# tuning knob: it turns a theta or max_set_size loose enough to
# enumerate for hours into an error naming both.
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
    compiled = CompiledPredicates(catalog.predicates)
    for i in range(len(catalog)):
        bits = np.packbits(compiled.mask(i, dataset))
        packed[i, : bits.size] = bits
    return packed.view(np.uint64)


def count_sets(
    dataset: Dataset, catalog: PredicateCatalog, theta: float, max_set_size: int | None
) -> dict[tuple[int, ...], int]:
    """The count table: the row count of every set of size 1..max_set_size
    whose support passes theta, keyed by its ascending ids.

    Depth-first over equivalence classes (Zaki's Eclat): a node is a set
    S with its packed tidset row and a candidate list.  One popcount over
    the candidates' rows ANDed with S's row counts every child S + {j};
    children with sigma > theta are kept, in ascending count order (ties
    by catalog id), and each keeps the passing siblings after it in that
    order as its own candidate list and its row of that AND as its
    tidset.  This is exact: sigma(S + {i, j}) <= sigma(S + {j}), so a
    sibling that failed theta can only fail again below, and each set
    above theta is visited once, along its members in that order.  The
    root pass counts the singletons and orders them the same way.
    Rarest first is the cheap order (Borgelt, FIMI 2003): the rarest
    child ANDs its tidset, the smallest, with the most siblings, so its
    candidates fail early, and the commonest child has the fewest.

    Every root whose count passes is extended, but a set of size 2 or
    more is recorded only when its smallest id caches a catalog support
    above theta.  That keeps the table of the walk in id order, where
    the smallest id was the root and only such roots were extended.  It
    differs from every set above theta only for catalogs whose cached
    supports are not their predicates' row counts on this dataset.

    Raises MiningError once the enumeration passes a fixed budget of
    candidate checks; each table entry is one check, so the budget
    bounds the table too.
    """
    n = dataset.row_count
    cap = max_set_size if max_set_size is not None else len(catalog)
    rooted = [sup > theta for sup in catalog.supports]
    table: dict[tuple[int, ...], int] = {}
    tids = _tidsets(dataset, catalog)
    total = np.uint32 if n < 2**32 else np.uint64  # half the time of the uint64 default
    checks = 0

    def passing(rows: np.ndarray) -> tuple[list[int], list[int]]:
        """The positions of rows whose count passes theta, in ascending
        count order (ties by position), and every row's count."""
        nonlocal checks
        checks += len(rows)
        if checks > _MAX_CANDIDATE_CHECKS:
            raise MiningError(
                f"frequent-set enumeration passed {_MAX_CANDIDATE_CHECKS} candidate checks; "
                f"raise theta (now {theta}) or lower max_set_size (now {max_set_size})"
            )
        hits = np.add.reduce(np.bitwise_count(rows), axis=1, dtype=total).tolist()
        kept = [k for k, c in enumerate(hits) if c / n > theta]
        kept.sort(key=hits.__getitem__)
        return kept, hits

    def extend(ids: list[int], tid: np.ndarray, cand: np.ndarray) -> None:
        rows = tids[cand]
        rows &= tid
        kept, hits = passing(rows)
        later = cand[kept]
        for pos, (k, j) in enumerate(zip(kept, later.tolist())):
            ids.append(j)
            key = tuple(sorted(ids))
            if rooted[key[0]]:
                table[key] = hits[k]
            if len(ids) < cap and pos + 1 < len(kept):
                extend(ids, rows[k], later[pos + 1 :])
            ids.pop()

    # Candidates are the indices whose own row count passes theta: that count,
    # not the catalog's cached support, bounds every set containing the index.
    kept, hits = passing(tids)
    table.update(((j,), hits[j]) for j in kept)
    frequent = np.array(kept, dtype=np.intp)
    for pos, j in enumerate(kept):
        extend([j], tids[j], frequent[pos + 1 :])
    return table


def mine_frequent_sets(
    counts: dict[tuple[int, ...], int], catalog: PredicateCatalog, config: MiningConfig, row_count: int
) -> list[FrequentSet]:
    """The frequent sets of size >= 2 among count_sets' table for config.theta.

    A set is emitted when count / row_count > max(theta, gamma * min
    member support), member supports read from the catalog's cache.  The
    gamma term only filters: it is not anti-monotone, so it never
    prunes the enumeration, and one table serves every gamma.  Output
    is sorted by size, then lexicographically by indices.
    """
    theta, gamma = config.theta, config.gamma
    singleton = catalog.supports
    out: list[FrequentSet] = []
    for ids, count in counts.items():
        if len(ids) < 2:
            continue
        sup = count / row_count
        if sup > max(theta, gamma * min(singleton[i] for i in ids)):
            out.append(FrequentSet(ids, sup))
    out.sort(key=lambda s: (len(s.ids), s.ids))
    return out


def filter_closed(sets: list[FrequentSet]) -> list[FrequentSet]:
    """Keep sets with no equal-support frequent superset in the collection.

    Probing immediate supersets suffices: if some frequent superset has
    equal support, a minimal one does, and a minimal one is always one
    element larger (dropping any other extra element keeps the support
    equal and the frequency floor can only fall).  The probe runs from
    the other end: each set T marks every T - {x} in the collection
    with T's support as not closed, one lookup per member.
    """
    support_of = {s.ids: s.support for s in sets}
    absorbed: set[tuple[int, ...]] = set()
    for s in sets:
        ids = s.ids
        for k in range(len(ids)):
            sub = ids[:k] + ids[k + 1 :]
            if support_of.get(sub) == s.support:
                absorbed.add(sub)
    return [s for s in sets if s.ids not in absorbed]


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
    catalog: PredicateCatalog,
    counts: dict[tuple[int, ...], int],
) -> list[InvariantRule]:
    """Emit one rule per minimal antecedent of each closed set.

    An antecedent qualifies when its row count equals the full set's
    (confidence exactly 1, with no floating-point slack); it is kept
    only when no qualifying proper subset of it exists.  Each set's
    rules come out by antecedent size, then antecedent ids.

    counts is count_sets' table for the theta that found closed_sets;
    a count the search needs and the table lacks raises MiningError.
    """

    def count(ids: tuple[int, ...]) -> int:
        try:
            return counts[ids]
        except KeyError:
            raise MiningError(f"the count table has no entry for predicate set {ids}") from None

    predicates = catalog.predicates
    rules: list[InvariantRule] = []
    for s in closed_sets:
        ids = s.ids
        full = count(ids)
        # D: the members an antecedent may leave out
        drop = [x for k, x in enumerate(ids) if count(ids[:k] + ids[k + 1 :]) == full]
        if not drop:
            continue
        core = [x for x in ids if x not in drop]
        minimal: list[set[int]] = []
        for size in range(len(drop)):
            for extra in combinations(drop, size):
                ant = set(core).union(extra)
                if not ant or any(m <= ant for m in minimal):
                    continue
                if count(tuple(sorted(ant))) == full:
                    minimal.append(ant)
        for ant_ids in sorted((tuple(sorted(a)) for a in minimal), key=lambda a: (len(a), a)):
            rules.append(
                InvariantRule(
                    antecedent=tuple(predicates[i] for i in ant_ids),
                    consequent=tuple(predicates[i] for i in ids if i not in ant_ids),
                    support=s.support,
                    kind=MINED,
                )
            )
    return rules


def boundary_rules(stats: ColumnStats, schema: Schema) -> list[InvariantRule]:
    """One always-true envelope rule per column, in schema order.

    Continuous columns get a closed range spanning the observed extrema
    widened to at least mean +/- 3 standard deviations, but no further
    than the largest finite floats; categorical columns get membership
    in the seen values.  Both hold on every training row, hence support
    1 and empty antecedent.
    """
    rules: list[InvariantRule] = []
    for col in schema.columns:
        if col.kind == CONTINUOUS:
            s = stats.continuous[col.name]
            # near the float maximum, mean +/- 3 std overflows to inf
            low = max(min(s.mean - 3.0 * s.std, s.minimum), -sys.float_info.max)
            high = min(max(s.mean + 3.0 * s.std, s.maximum), sys.float_info.max)
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


@dataclass(frozen=True)
class RuleSet:
    """Everything needed to score new data and explain the outcome.

    Frozen, with the rules kept as a tuple of frozen InvariantRules, so
    the compiled form built on first use can never disagree with them:
    other rules make another RuleSet (dataclasses.replace).  supports
    maps each predicate the rules read to its training support.
    """

    schema: Schema
    stats: ColumnStats
    theta: float
    gamma: float
    max_set_size: int | None
    supports: dict[Predicate, float]
    rules: tuple[InvariantRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @cached_property
    def compiled(self) -> CompiledRules:
        """The rules compiled for scoring, built on first use and kept."""
        return CompiledRules(self.rules)

    def rule_text(self, rule: InvariantRule) -> str:
        ant = ", ".join(p.render(self.schema) for p in rule.antecedent)
        con = ", ".join(p.render(self.schema) for p in rule.consequent)
        return f"{{{ant}}} => {{{con}}}"


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


def _read_column(schema: Schema, t: str, column: str, kind: str) -> str:
    """column, checked to be a schema column of the kind a t predicate reads."""
    if column not in schema.names or schema.kind(column) != kind:
        raise DataError(f"{t} predicate reads {column!r}, not a {kind} column of the schema")
    return column


def _predicate_from_json(entry: dict, schema: Schema) -> Predicate:
    t = entry["type"]
    if t == "equals":
        column = _read_column(schema, t, entry["column"], CATEGORICAL)
        return CategoricalEquals(column, _code_or_fail(schema, column, entry["value"]))
    if t == "disjunction":
        items = [(_read_column(schema, t, c, CATEGORICAL), v) for c, v in entry["items"]]
        return CategoricalDisjunction(tuple((c, _code_or_fail(schema, c, v)) for c, v in items))
    if t == "interval":
        lower = float("-inf") if entry["lower"] is None else float(entry["lower"])
        upper = float("inf") if entry["upper"] is None else float(entry["upper"])
        return Interval(_read_column(schema, t, entry["column"], CONTINUOUS), lower, upper)
    if t == "range":
        column = _read_column(schema, t, entry["column"], CONTINUOUS)
        return Range(column, float(entry["low"]), float(entry["high"]))
    if t == "membership":
        column = _read_column(schema, t, entry["column"], CATEGORICAL)
        return Membership(column, frozenset(_code_or_fail(schema, column, v) for v in entry["values"]))
    raise DataError(f"unknown predicate type {t!r}")


def _shape_error(rid: int, rule: InvariantRule) -> str | None:
    """Why a rule file cannot hold rule rid, or None when it can.

    The kind fixes the shape: a mined rule has an antecedent, and a
    boundary rule has none and support 1.  A boundary rule with an
    antecedent leaves its column unchecked."""
    if (rule.kind == BOUNDARY) == bool(rule.antecedent) or (rule.kind == BOUNDARY and rule.support != 1.0):
        return f"{rule.kind} rule {rid} has {len(rule.antecedent)} antecedent predicates and support {rule.support}"
    return None


def save_ruleset(ruleset: RuleSet, path: str) -> None:
    """Write a rule file: schema, statistics, rules, and the predicates
    the rules read, in ruleset.supports order with their supports.

    A rule load_ruleset would refuse for its shape raises MiningError
    naming its id, before the file is opened."""
    schema = ruleset.schema
    for rid, rule in enumerate(ruleset.rules):
        if shape := _shape_error(rid, rule):
            raise MiningError(shape)
    read = {p for rule in ruleset.rules for p in (*rule.antecedent, *rule.consequent)}
    if missing := read - ruleset.supports.keys():
        raise MiningError(f"no training support for {sorted(p.render(schema) for p in missing)}")
    pred_ids = {p: pid for pid, p in enumerate(p for p in ruleset.supports if p in read)}
    pred_entries = [
        {**_predicate_to_json(p, schema), "id": pid, "support": float(ruleset.supports[p]), "text": p.render(schema)}
        for p, pid in pred_ids.items()
    ]
    rule_entries = [
        {
            "id": rid,
            "kind": rule.kind,
            "antecedent": [pred_ids[p] for p in rule.antecedent],
            "consequent": [pred_ids[p] for p in rule.consequent],
            "support": float(rule.support),
            "text": ruleset.rule_text(rule),
        }
        for rid, rule in enumerate(ruleset.rules)
    ]

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
        "predicates": pred_entries,
        "rules": rule_entries,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_ruleset(path: str) -> RuleSet:
    """Read a rule file; any malformed content raises DataError."""
    try:
        payload = json.loads(read_text(path))
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


def _numbered_entries(payload: dict, key: str) -> list:
    """payload[key], checked to be a list whose entries' ids are their
    positions: rules and antecedents refer to entries by position."""
    entries = payload[key]
    if type(entries) is not list:
        raise DataError(f"{key} must be a list, got {type(entries).__name__}")
    for pos, entry in enumerate(entries):
        eid = entry["id"]
        if type(eid) is not int or eid != pos:
            raise DataError(f"{key} entry {pos} has id {eid!r}, not its position {pos}")
    return entries


def _support(value: object, what: str) -> float:
    """value, checked to be a JSON number in (0, 1]: a training support."""
    if type(value) not in (int, float) or not 0.0 < value <= 1.0:
        raise DataError(f"{what} has support {value!r}, not a number in (0, 1]")
    return float(value)


def _ruleset_from_json(payload: dict) -> RuleSet:
    version = payload["version"]
    if type(version) is not int or version != 1:
        raise DataError(f"unsupported version {version!r}; this reader knows version 1")
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

    pred_entries = _numbered_entries(payload, "predicates")
    predicates = [_predicate_from_json(entry, schema) for entry in pred_entries]
    supports = {p: _support(e["support"], f"predicate {e['id']}") for p, e in zip(predicates, pred_entries)}

    def predicate(index: object) -> Predicate:
        if type(index) is not int or not 0 <= index < len(predicates):
            raise DataError(f"no predicate with index {index!r}")
        return predicates[index]

    rules = []
    for rid, entry in enumerate(_numbered_entries(payload, "rules")):
        rule = InvariantRule(
            antecedent=tuple(predicate(i) for i in entry["antecedent"]),
            consequent=tuple(predicate(i) for i in entry["consequent"]),
            support=_support(entry["support"], f"rule {rid}"),
            kind=entry["kind"],
        )
        if shape := _shape_error(rid, rule):
            raise DataError(shape)
        rules.append(rule)
    # training writes one boundary rule per column; a file short of one scores that column unchecked
    bounded = {c for r in rules if r.kind == BOUNDARY for p in r.consequent for c in p.columns()}
    if bounded != set(schema.names):
        raise DataError(
            f"boundary rules bound columns {sorted(bounded)}, not the schema's {sorted(schema.names)}"
        )

    theta, gamma, max_set_size = payload["theta"], payload["gamma"], payload["max_set_size"]
    check_theta(theta)
    check_gamma(gamma)
    check_max_set_size(max_set_size)
    return RuleSet(
        schema=schema,
        stats=stats,
        theta=float(theta),
        gamma=float(gamma),
        max_set_size=max_set_size,
        supports=supports,
        rules=rules,
    )
