"""Greedy binary decision trees, used only to propose continuous cut-offs.

Training reads nothing of a tree but its splits (extract_cutoffs), so a
node keeps its size and split and there are no leaf values.  Trees grow
without pruning or depth caps; the only stop criteria are a leaf-size
floor and zero split gain.  Split quality is information gain (base-2
entropy) for classification targets and variance reduction (population
variance, sample-weighted children) for regression targets; a node
whose targets pass 2^500 in magnitude is scaled by a power of two first,
so no square or sum overflows and every gain changes by one exact
factor.  A threshold parts consecutive distinct values lo < hi within
the node: it is their midpoint when that lies strictly between them,
else hi (the midpoint of neighbouring floats can round onto hi, and
near the float maximum it overflows).  A row goes right when its value
is >= the threshold, and both children must keep strictly more than
min_leaf rows.  Ties are broken toward the lowest feature index, then
the smallest threshold, so fitting is deterministic.

Each continuous column is sorted once per training run with a stable
argsort, and every tree of the run shares those row orders read-only.
A node carries one sorted row order per feature; a split partitions
each order stably with the chosen column's ">= threshold" mask instead
of sorting again.  Stable sorting and stable partitioning keep tied
values in row order, so inside every node rows stay ordered by (value,
row index), exactly as a stable sort of the node's rows would order
them.  Every prefix sum, midpoint and tie is therefore evaluated in
the same order as a grower that re-sorts at each node, and the trees
match it bit for bit.  np.compress keeps the elements a mask selects in
their order, so it partitions as stably as boolean indexing does.

Classification gains are computed per class, not on a count matrix,
and still equal the matrix form bit for bit.  Class counts are
integers, so the prefix counts of all present classes but the last, the
last one taken as the left size minus their sum, and the right counts
taken as parent minus left are all exact.  Each class's entropy term
p * log2(p) is the same element-wise operation, with the log evaluated
only where the count is non-zero.  The terms are summed over every
class code, absent ones included, in the grouping numpy uses to sum one
row of the matrix (_class_sum), so every entropy rounds the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, Dataset

CLASSIFICATION = "classification"
REGRESSION = "regression"


class TreeError(ValueError):
    """Raised for invalid targets or feature sets."""


@dataclass(frozen=True)
class SplitRule:
    """Send a row right iff row[column] >= threshold."""

    column: str
    threshold: float


@dataclass
class TreeNode:
    n_samples: int
    split: SplitRule | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


@dataclass
class DecisionTree:
    kind: str
    target: str
    features: list[str]
    min_leaf: int
    root: TreeNode

    def internal_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.split is not None:
                yield node
                stack.append(node.right)
                stack.append(node.left)


def _add(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a + b, written into a; None stands for an array of zeros."""
    if a is None:
        return b
    if b is not None:
        a += b
    return a


def _class_sum(terms: list[np.ndarray | None]) -> np.ndarray | None:
    """Element-wise sum of per-class arrays, grouped the way numpy's
    add.reduce groups a contiguous row of len(terms) values (its pairwise
    summation): in order below 8 values, else 8 interleaved accumulators
    combined pairwise, with rows over 128 values halved first.  The
    node-sort reference in the tests sums the count matrix row by row, so
    a numpy that groups otherwise fails the tree tests.  Consumes the
    arrays."""
    k = len(terms)
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _add(_class_sum(terms[:half]), _class_sum(terms[half:]))
    if k < 8:
        return reduce(_add, terms, None)
    acc8 = terms[:8]
    whole = k - k % 8
    for i in range(8, whole):
        acc8[i % 8] = _add(acc8[i % 8], terms[i])
    r = [_add(acc8[i], acc8[i + 1]) for i in (0, 2, 4, 6)]
    return reduce(_add, terms[whole:], _add(_add(r[0], r[1]), _add(r[2], r[3])))


def _entropy(counts: list[np.ndarray | None], totals: np.ndarray) -> np.ndarray:
    """Base-2 entropy of count vectors given one integer array per class
    (None for a class with no rows anywhere) and their totals; 0 log 0 is 0."""
    terms: list[np.ndarray | None] = []
    for c in counts:
        if c is None:
            terms.append(None)
            continue
        p = c / totals
        t = np.log2(p, out=np.zeros(len(p)), where=c > 0)
        t *= p
        terms.append(t)
    return -_class_sum(terms)


def _valid_boundaries(vs: np.ndarray, min_leaf: int) -> np.ndarray:
    """Left sizes at distinct-value boundaries of sorted values vs that
    leave both sides strictly more than min_leaf rows."""
    lo, hi = min_leaf + 1, len(vs) - min_leaf
    return np.flatnonzero(vs[lo:hi] > vs[lo - 1 : hi - 1]) + lo


def _classification_gains(y: np.ndarray, yn: np.ndarray, n_classes: int):
    """Information gain of candidate splits of the node whose targets are yn.

    Returns gains(order, valid): order holds the node's rows sorted by one
    feature, valid the left sizes to evaluate.
    """
    n = len(yn)
    parent = np.bincount(yn, minlength=n_classes)
    *counted, last = np.flatnonzero(parent).tolist()  # the last present class is counted by difference
    h_parent = float(_entropy([np.array([k]) if k else None for k in parent.tolist()], np.array([n]))[0])

    def gains(order: np.ndarray, valid: np.ndarray) -> np.ndarray:
        ys = y[order[: valid[-1]]]  # rows past the last boundary are never counted
        at = valid - 1
        left: list[np.ndarray | None] = [None] * n_classes
        left[last] = valid.copy()
        for c in counted:
            left[c] = np.cumsum(ys == c)[at]
            left[last] -= left[c]
        right = [None if lc is None else parent[c] - lc for c, lc in enumerate(left)]
        h_left = _entropy(left, valid)
        h_right = _entropy(right, n - valid)
        return h_parent - (valid / n) * h_left - ((n - valid) / n) * h_right

    return gains


_SCALE_ABOVE = 2.0**500  # regression targets larger in magnitude are scaled before squaring


def _regression_gains(y: np.ndarray, yn: np.ndarray):
    """Variance reduction of candidate splits; as _classification_gains."""
    n = len(yn)
    top = max(yn.max(), -yn.min())
    # squares of targets this large overflow, and near the float maximum so
    # does the mean's sum; a power-of-two scale is exact, so every gain
    # changes by one factor and the same split wins
    shift = -int(np.frexp(top)[1]) if top > _SCALE_ABOVE else 0
    if shift:
        yn = np.ldexp(yn, shift)
    mean = yn.mean()
    centered = yn - mean  # centering on the node's mean keeps the prefix sums well conditioned
    var_parent = float(np.mean(centered**2) - np.mean(centered) ** 2)

    def gains(order: np.ndarray, valid: np.ndarray) -> np.ndarray:
        cs = (np.ldexp(y[order], shift) if shift else y[order]) - mean
        s1 = np.cumsum(cs)
        s2 = np.cumsum(cs**2)
        t1, t2 = s1[-1], s2[-1]
        nl = valid.astype(np.float64)
        nr = n - nl
        l1, l2 = s1[valid - 1], s2[valid - 1]
        var_left = l2 / nl - (l1 / nl) ** 2
        var_right = (t2 - l2) / nr - ((t1 - l1) / nr) ** 2
        return var_parent - (nl * var_left + nr * var_right) / n

    return gains


RowOrders = dict[str, np.ndarray]


def sort_continuous_columns(dataset: Dataset) -> RowOrders:
    """Row indices of every continuous column in (value, row index) order.

    The arrays are read-only, so trees fitted in parallel can share them.
    """
    orders: RowOrders = {}
    for name in dataset.schema.continuous_names:
        order = np.argsort(dataset.column(name), kind="stable")
        order.flags.writeable = False
        orders[name] = order
    return orders


class _Grower:
    """Grows one tree.  A node gets its rows in row order and, for each
    feature position f, in the sorted order orders[f]."""

    def __init__(self, dataset: Dataset, target: str, features: list[str], gains, min_leaf: int):
        self.y = dataset.column(target)
        self.columns = [dataset.column(f) for f in features]
        self.features = features
        self.gains = gains  # _classification_gains or _regression_gains, as gains(y, yn)
        self.min_leaf = min_leaf
        self.min_split = 2 * (min_leaf + 1)  # fewer rows cannot give two children above min_leaf
        self.go_right = np.zeros(dataset.row_count, dtype=bool)  # per-tree buffer, indexed by row

    def best_split(self, yn: np.ndarray, orders: list[np.ndarray]) -> tuple[float, int, float] | None:
        """Best (gain, feature position, threshold) at the node, or None."""
        gains_of = self.gains(self.y, yn)
        best: tuple[float, int, float] | None = None
        for f, order in enumerate(orders):
            vs = self.columns[f][order]
            valid = _valid_boundaries(vs, self.min_leaf)
            if len(valid) == 0:
                continue
            gains = gains_of(order, valid)
            pos = int(np.argmax(gains))  # first maximum: smallest threshold wins ties
            gain = float(gains[pos])
            if best is None or gain > best[0]:
                b = int(valid[pos])
                lo, hi = float(vs[b - 1]), float(vs[b])
                mid = (lo + hi) / 2.0  # rounds onto hi for neighbouring floats, overflows near the top
                best = (gain, f, mid if lo < mid < hi else hi)
        return best

    def grow(self, rows: np.ndarray, orders: list[np.ndarray]) -> TreeNode:
        """Grow the subtree over rows; clears orders once they are partitioned."""
        n = len(rows)
        yn = self.y[rows]
        node = TreeNode(n_samples=n)
        if bool(np.all(yn == yn[0])) or n < self.min_split:
            return node
        found = self.best_split(yn, orders)
        if found is None or not found[0] > 0.0:
            return node
        _, f, tau = found
        node.split = SplitRule(column=self.features[f], threshold=tau)
        go_right = self.go_right
        right = self.columns[f][rows] >= tau
        go_right[rows] = right
        left_rows, right_rows = np.compress(~right, rows), np.compress(right, rows)
        # a child too small to split never reads its orders
        left_splits = len(left_rows) >= self.min_split
        right_splits = len(right_rows) >= self.min_split
        left_orders: list[np.ndarray] = []
        right_orders: list[np.ndarray] = []
        for order in orders:
            goes = go_right[order]
            if left_splits:
                left_orders.append(np.compress(~goes, order))
            if right_splits:
                right_orders.append(np.compress(goes, order))
        orders.clear()  # release this node's arrays before recursing
        del yn, right
        node.left = self.grow(left_rows, left_orders)
        node.right = self.grow(right_rows, right_orders)
        return node


def _fit(
    dataset: Dataset, target: str, features: list[str], kind: str, min_leaf: int, sorted_rows: RowOrders | None
) -> DecisionTree:
    if sorted_rows is None:
        sorted_rows = sort_continuous_columns(dataset)
    if kind == CLASSIFICATION:
        gains = partial(_classification_gains, n_classes=int(dataset.column(target).max()) + 1)
    else:
        gains = _regression_gains
    grower = _Grower(dataset, target, features, gains, min_leaf)
    rows = np.arange(dataset.row_count, dtype=np.int64)
    root = grower.grow(rows, [sorted_rows[f] for f in features])
    return DecisionTree(kind=kind, target=target, features=list(features), min_leaf=min_leaf, root=root)


def fit_classification_tree(
    dataset: Dataset, target: str, min_leaf: int, sorted_rows: RowOrders | None = None
) -> DecisionTree:
    """Grow a tree predicting a categorical column from all continuous columns.

    sorted_rows is sort_continuous_columns(dataset), passed in when several
    trees share one sort; it is computed here when omitted.
    """
    if dataset.schema.kind(target) != CATEGORICAL:
        raise TreeError(f"classification target {target!r} is not categorical")
    features = dataset.schema.continuous_names
    if not features:
        raise TreeError(f"classification target {target!r}: no continuous columns to split on")
    return _fit(dataset, target, features, CLASSIFICATION, min_leaf, sorted_rows)


def fit_regression_tree(
    dataset: Dataset, target: str, min_leaf: int, sorted_rows: RowOrders | None = None
) -> DecisionTree | None:
    """Grow a tree predicting a continuous column from the other continuous columns.

    Returns None when no other continuous column exists to split on.
    sorted_rows is as for fit_classification_tree.
    """
    if dataset.schema.kind(target) != CONTINUOUS:
        raise TreeError(f"regression target {target!r} is not continuous")
    features = [c for c in dataset.schema.continuous_names if c != target]
    if not features:
        return None
    return _fit(dataset, target, features, REGRESSION, min_leaf, sorted_rows)


CutoffTable = dict[str, list[float]]


def extract_cutoffs(trees) -> CutoffTable:
    """Collect every internal-node threshold, deduplicated and sorted per column."""
    raw: dict[str, set[float]] = {}
    for tree in trees:
        if tree is None:
            continue
        for node in tree.internal_nodes():
            raw.setdefault(node.split.column, set()).add(float(node.split.threshold))
    return {column: sorted(values) for column, values in sorted(raw.items())}
