"""Predicate forms and catalog generation.

A predicate is a boolean test on one row.  Catalogs are built from
training data so that every member's training support strictly exceeds
the support floor theta:

* categorical columns yield equality predicates for common values,
  while rare values are pooled left to right into disjunctions that
  clear the floor (a final pool absorbs a tail too weak to stand
  alone);
* continuous columns yield half-open interval predicates [lo, hi)
  whose endpoints come from decision-tree cut-offs, scanned in
  ascending order so that every emitted bin clears the floor.

Support is always the fraction of training rows satisfying the
predicate; comparisons against theta are strict.

What each predicate kind accepts is defined once, by its compiled form
(_atoms): an OR of atoms lo <= value <= hi on one column.  Row masks
(CompiledPredicates.mask, behind every predicate's mask()) and the
one-row scorer (CompiledRules.broken) both evaluate those atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

from .data import (
    CATEGORICAL,
    DataError,
    Dataset,
    Schema,
    format_number,
)


class _Predicate:
    """What the predicate kinds share: their row masks come from the
    compiled form (CompiledPredicates), the one place that defines what
    each kind accepts, and all but the disjunction read one column."""

    def mask(self, dataset: Dataset) -> np.ndarray:
        """The rows of dataset on which the predicate holds."""
        return CompiledPredicates((self,)).mask(0, dataset)

    def columns(self) -> tuple[str, ...]:
        """The columns the predicate reads, in order."""
        return (self.column,)


@dataclass(frozen=True)
class CategoricalEquals(_Predicate):
    """column = value (categorical codes)."""

    column: str
    code: int

    def render(self, schema: Schema) -> str:
        return f"{self.column} = {schema.value_of(self.column, self.code)}"


@dataclass(frozen=True)
class CategoricalDisjunction(_Predicate):
    """(col_a = v1) or (col_b = v2) or ...; at least two branches."""

    items: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise DataError("disjunction needs at least two branches")
        if len(set(self.items)) != len(self.items):
            raise DataError("disjunction has duplicate branches")

    def columns(self) -> tuple[str, ...]:
        seen: list[str] = []
        for column, _ in self.items:
            if column not in seen:
                seen.append(column)
        return tuple(seen)

    def render(self, schema: Schema) -> str:
        return " | ".join(f"{c} = {schema.value_of(c, v)}" for c, v in self.items)


@dataclass(frozen=True)
class Interval(_Predicate):
    """lower <= column < upper; either bound may be infinite."""

    column: str
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise DataError(f"empty interval [{self.lower}, {self.upper})")

    def render(self, schema: Schema) -> str:
        if self.lower == float("-inf"):
            return f"{self.column} < {format_number(self.upper)}"
        if self.upper == float("inf"):
            return f"{self.column} >= {format_number(self.lower)}"
        return f"{format_number(self.lower)} <= {self.column} < {format_number(self.upper)}"


@dataclass(frozen=True)
class Range(_Predicate):
    """low <= column <= high, both bounds finite and inclusive."""

    column: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise DataError(f"empty range [{self.low}, {self.high}]")

    def render(self, schema: Schema) -> str:
        return f"{format_number(self.low)} <= {self.column} <= {format_number(self.high)}"


@dataclass(frozen=True)
class Membership(_Predicate):
    """column's value is one of a fixed set of codes."""

    column: str
    codes: frozenset[int]

    def __post_init__(self) -> None:
        if not self.codes:
            raise DataError("membership set is empty")

    def render(self, schema: Schema) -> str:
        values = sorted(schema.value_of(self.column, c) for c in self.codes)
        return f"{self.column} in {{{','.join(values)}}}"


Predicate = CategoricalEquals | CategoricalDisjunction | Interval | Range | Membership


def _atoms(p: Predicate) -> list[tuple[str, float, float]]:
    """p as an OR of atoms (column, lo, hi), each holding on a row whose
    value in column satisfies lo <= value <= hi.

    This is the one definition of what each predicate kind accepts.  The
    codes a categorical predicate accepts in one column become runs of
    consecutive codes, so each column's atoms are disjoint and ascending.
    The unseen code -1 lies in no run.
    """
    if isinstance(p, Interval):
        # value < upper is value <= the largest float below upper, for every
        # float64 value: infinite bounds and NaN included
        return [(p.column, p.lower, float(np.nextafter(p.upper, -math.inf)))]
    if isinstance(p, Range):
        return [(p.column, p.low, p.high)]
    if isinstance(p, CategoricalEquals):
        items: tuple[tuple[str, int], ...] = ((p.column, p.code),)
    elif isinstance(p, CategoricalDisjunction):
        items = p.items
    elif isinstance(p, Membership):
        items = tuple((p.column, c) for c in p.codes)
    else:
        raise TypeError(f"not a predicate: {p!r}")
    by_column: dict[str, list[int]] = {}
    for column, code in items:
        by_column.setdefault(column, []).append(code)
    atoms = []
    for column, codes in by_column.items():
        codes.sort()
        first = codes[0]
        for code, after in zip(codes, codes[1:] + [None]):
            if after != code + 1:
                atoms.append((column, float(first), float(code)))
                first = after
    return atoms


def _range_mask(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows whose value lies in one of the disjoint ascending ranges
    [lo[k], hi[k]]; NaN lies in none."""
    if len(lo) > 1:
        # only the last range starting at or below a value can hold it;
        # a value below every range is compared with NaN, which fails
        ends = np.concatenate(([math.nan], hi))
        return values <= ends[np.searchsorted(lo, values, side="right")]
    low, high = float(lo[0]), float(hi[0])
    if low == high:
        return values == low
    if low == -math.inf:
        return values <= high
    if high == math.inf:
        return values >= low
    out = values >= low
    out &= values <= high
    return out


class CompiledPredicates:
    """Predicates as atom arrays: the form both scoring paths read.

    Atom k reads the value in column ``columns[slot[k]]`` and holds when
    ``lo[k] <= value <= hi[k]``; predicate i holds when one of its atoms
    ``start[i]:start[i + 1]`` does.  A predicate's atoms on one column
    are disjoint and ascending.
    """

    def __init__(self, predicates):
        self.predicates = tuple(predicates)
        slots: dict[str, int] = {}
        slot: list[int] = []
        lo: list[float] = []
        hi: list[float] = []
        start = [0]
        for p in self.predicates:
            for column, low, high in _atoms(p):
                slot.append(slots.setdefault(column, len(slots)))
                lo.append(low)
                hi.append(high)
            start.append(len(lo))
        self.columns = tuple(slots)
        self.slot = np.array(slot, dtype=np.intp)
        self.lo = np.array(lo, dtype=np.float64)
        self.hi = np.array(hi, dtype=np.float64)
        self.start = np.array(start, dtype=np.intp)

    def mask(self, i: int, dataset: Dataset) -> np.ndarray:
        """The rows of dataset on which predicate i holds: one pass per
        column it reads, whatever the number of codes it accepts there."""
        atoms = slice(self.start[i], self.start[i + 1])
        slots, lo, hi = self.slot[atoms], self.lo[atoms], self.hi[atoms]
        out = None
        for slot in dict.fromkeys(slots.tolist()):
            on = slots == slot
            m = _range_mask(dataset.column(self.columns[slot]), lo[on], hi[on])
            out = m if out is None else np.logical_or(out, m, out=out)
        return out


def _values_at(columns: tuple[str, ...], values) -> tuple:
    return tuple(values[c] for c in columns)


def _getter(columns: tuple[str, ...]):
    """A picklable function from a mapping to the tuple of its values at
    columns (itemgetter gives a bare value for one column)."""
    return itemgetter(*columns) if len(columns) > 1 else partial(_values_at, columns)


class CompiledRules:
    """Rules compiled for scoring.

    ``predicates`` holds every predicate the rules use, once, as atom
    arrays; index ``always`` (one past them) names a predicate that holds
    on every row.  Rule r's antecedent is predicates
    ``index[start[2r]:start[2r + 1]]``, or just ``always`` when it has
    none, so that no segment is empty; its consequent is
    ``index[start[2r + 1]:start[2r + 2]]``, and its support ``supports[r]``.
    Rules are anything with antecedent, consequent and support
    attributes (mining.InvariantRule).
    """

    def __init__(self, rules):
        ids: dict[Predicate, int] = {}
        segments = [
            [ids.setdefault(p, len(ids)) for p in side]
            for r in rules
            for side in (r.antecedent, r.consequent)
        ]
        self.always = len(ids)
        segments = [s or [self.always] for s in segments]
        self.start = np.cumsum([0] + [len(s) for s in segments], dtype=np.intp)
        self.index = np.array([i for s in segments for i in s], dtype=np.intp)
        self._segments = self.start[:-1]
        self.predicates = compiled = CompiledPredicates(ids)
        self.supports = tuple(float(r.support) for r in rules)
        # For one row: its values in atom order, then a constant 0 that one
        # more atom, [-inf, inf], accepts: the always-holding predicate.
        atoms = len(compiled.lo)
        self._values = _getter(tuple(compiled.columns[k] for k in compiled.slot.tolist()))
        self._lo = np.append(compiled.lo, -math.inf)
        self._hi = np.append(compiled.hi, math.inf)
        # with one atom per predicate, the atoms' verdicts are the predicates'
        self._first_atom = None if atoms == self.always else np.append(compiled.start[:-1], atoms)

    def held(self, values) -> np.ndarray:
        """Which predicates hold on one row, given as a mapping from column
        name to value (KeyError names a missing column), in one vector
        comparison over every atom; the last entry is ``always``."""
        row = np.array(self._values(values) + (0.0,), dtype=np.float64)
        hit = np.less_equal(self._lo, row)
        hit &= row <= self._hi
        if self._first_atom is None:
            return hit
        return np.logical_or.reduceat(hit, self._first_atom)

    def broken(self, values) -> np.ndarray:
        """Which rules one row breaks: every antecedent predicate holds and
        some consequent predicate fails.  values is as for held."""
        both = np.logical_and.reduceat(self.held(values)[self.index], self._segments)
        return np.greater(both[0::2], both[1::2])


class PredicateCatalog:
    """Ordered predicate list with cached training supports."""

    def __init__(self, pairs):
        self.predicates: list[Predicate] = []
        self.supports: list[float] = []
        for pred, sup in pairs:
            self.predicates.append(pred)
            self.supports.append(sup)

    def __len__(self) -> int:
        return len(self.predicates)

    def pairs(self) -> list[tuple[Predicate, float]]:
        return list(zip(self.predicates, self.supports))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PredicateCatalog) and self.pairs() == other.pairs()


def _fraction(count: int, n: int) -> float:
    return int(count) / n


def _share(dataset: Dataset, p: Predicate) -> float:
    """p's training support: the fraction of rows on which it holds."""
    return _fraction(np.count_nonzero(p.mask(dataset)), dataset.row_count)


def gen_categorical_predicates(dataset: Dataset, theta: float) -> PredicateCatalog:
    """Equality predicates for common values, pooled disjunctions for the rest.

    Values are visited in code order per column, columns in schema
    order.  A value with support > theta becomes an equality predicate;
    the others are queued in encounter order.  The queue is then pooled
    left to right: as soon as the current pool's support clears theta,
    it is emitted and a new pool starts, unless the values left behind
    could not clear theta as one disjunction, in which case they are
    merged into the pool, which is emitted as the final predicate.  A
    queue whose total support never clears theta yields nothing.

    Pools can span columns, so pool support is computed on row masks,
    not by summing per-value counts.  Every emitted disjunction has at
    least two branches: queued values have support <= theta, so no
    single-value pool can clear the floor.
    """
    n = dataset.row_count
    predicates: list[tuple[Predicate, float]] = []
    queue: list[tuple[str, int, np.ndarray]] = []  # (column, code, row mask)

    for col in dataset.schema.columns:
        if col.kind != CATEGORICAL:
            continue
        arr = dataset.column(col.name)
        counts = np.bincount(arr, minlength=len(col.values))
        for code in range(len(col.values)):
            count = int(counts[code])
            if count == 0:
                continue
            if _fraction(count, n) > theta:
                predicates.append((CategoricalEquals(col.name, code), _fraction(count, n)))
            else:
                queue.append((col.name, code, CategoricalEquals(col.name, code).mask(dataset)))

    total = len(queue)
    if total >= 2:
        # suffix_support[j] = support of (queue[j] | ... | queue[total-1])
        suffix_support = [0.0] * (total + 1)
        running = np.zeros(n, dtype=bool)
        for j in range(total - 1, -1, -1):
            running = running | queue[j][2]
            suffix_support[j] = _fraction(np.count_nonzero(running), n)

        k = 0
        pool_mask = queue[0][2].copy()
        for j in range(1, total):
            pool_mask |= queue[j][2]
            pool_support = _fraction(np.count_nonzero(pool_mask), n)
            if pool_support > theta:
                if suffix_support[j + 1] > theta:
                    items = tuple((c, v) for c, v, _ in queue[k : j + 1])
                    predicates.append((CategoricalDisjunction(items), pool_support))
                    k = j + 1
                    pool_mask = np.zeros(n, dtype=bool)
                else:
                    items = tuple((c, v) for c, v, _ in queue[k:])
                    predicates.append((CategoricalDisjunction(items), suffix_support[k]))
                    break

    return PredicateCatalog(predicates)


def gen_continuous_predicates(
    dataset: Dataset, cutoffs: dict[str, list[float]], theta: float
) -> PredicateCatalog:
    """Half-open bins over cut-off values, one ascending scan per column.

    The scan keeps an anchor, initially unset.  While unset, the prefix
    (-inf, tau_j) is emitted at the first cut-off where it clears theta,
    anchoring there.  Once anchored, the running bin [anchor, tau_j) is
    emitted when it clears theta, either moving the anchor to tau_j or,
    if the remaining tail [tau_j, inf) cannot clear theta on its own,
    widening into the open tail [anchor, inf) and ending the scan.  An
    open tail left over at the end of the scan is emitted only when it
    clears theta itself; a scan that never anchors emits nothing.
    """
    predicates: list[tuple[Predicate, float]] = []
    for column in dataset.schema.continuous_names:
        taus = cutoffs.get(column, [])
        if not taus:
            continue
        anchor: float | None = None
        broke = False
        for tau in taus:
            if anchor is None:
                prefix = Interval(column, -math.inf, tau)
                sup = _share(dataset, prefix)
                if sup > theta:
                    predicates.append((prefix, sup))
                    anchor = tau
                continue
            bin_ = Interval(column, anchor, tau)
            sup = _share(dataset, bin_)
            if sup > theta:
                if _share(dataset, Interval(column, tau, math.inf)) > theta:
                    predicates.append((bin_, sup))
                    anchor = tau
                else:
                    widened = Interval(column, anchor, math.inf)
                    predicates.append((widened, _share(dataset, widened)))
                    broke = True
                    break
        if anchor is not None and not broke:
            tail = Interval(column, anchor, math.inf)
            sup = _share(dataset, tail)
            if sup > theta:
                predicates.append((tail, sup))
    return PredicateCatalog(predicates)
