"""Reference implementations the tests check the real code against.

Everything here is written the slow, obvious way: per-row python loops,
full subset enumeration, explicit segment geometry.  None of it shares
code paths with the package beyond the data structures under test.
"""

from itertools import combinations

import numpy as np


def holds_by_row(predicate, point):
    """Whether predicate holds on one row (a DataPoint), spelled out per
    kind with python comparisons: the reference for the compiled form."""
    from invarmine.predicates import (
        CategoricalDisjunction,
        CategoricalEquals,
        Interval,
        Membership,
        Range,
    )

    if isinstance(predicate, CategoricalEquals):
        return point[predicate.column] == predicate.code
    if isinstance(predicate, CategoricalDisjunction):
        return any(point[column] == code for column, code in predicate.items)
    if isinstance(predicate, Interval):
        return predicate.lower <= point[predicate.column] < predicate.upper
    if isinstance(predicate, Range):
        return predicate.low <= point[predicate.column] <= predicate.high
    if isinstance(predicate, Membership):
        return point[predicate.column] in predicate.codes
    raise TypeError(f"not a predicate: {predicate!r}")


def iter_rows(dataset):
    """Every row of dataset as a DataPoint, in row order."""
    for i in range(dataset.row_count):
        yield dataset.row(i)


def support_by_rows(dataset, predicates):
    """Support as a literal row scan over holds_by_row, no vectorization."""
    hits = 0
    for point in iter_rows(dataset):
        if all(holds_by_row(p, point) for p in predicates):
            hits += 1
    return hits / dataset.row_count


def score_by_row(ruleset, point, ignore_rules=frozenset()):
    """score_point the slow way: each active rule checked with holds_by_row,
    the supports of the broken ones added in rule-id order."""
    score = 0.0
    for rid, rule in enumerate(ruleset.rules):
        if rid in ignore_rules:
            continue
        if all(holds_by_row(p, point) for p in rule.antecedent) and not all(
            holds_by_row(p, point) for p in rule.consequent
        ):
            score += rule.support
    return score


def frequent_sets_by_enumeration(dataset, catalog, theta, gamma, max_set_size):
    """Every id set of size 2..cap passing the frequency floor.

    Returns {ids tuple: support}.  Singleton supports are recomputed
    from rows, not read from the catalog cache.
    """
    m = len(catalog)
    singles = [support_by_rows(dataset, [p]) for p in catalog.predicates]
    cap = min(max_set_size if max_set_size is not None else m, m)
    out = {}
    for size in range(2, cap + 1):
        for ids in combinations(range(m), size):
            sup = support_by_rows(dataset, [catalog.predicates[i] for i in ids])
            if sup > max(theta, gamma * min(singles[i] for i in ids)):
                out[ids] = sup
    return out


def frequent_sets_by_dfs(dataset, catalog, config):
    """mine_frequent_sets() as a depth-first scan over bigint tidsets.

    This is the miner as it stood before candidate lists, kept whole:
    every node tries every later catalog index, and a branch is cut as
    soon as its running intersection fails sigma > theta.  Returns the
    same sorted FrequentSet list.
    """
    from invarmine.mining import FrequentSet

    n = dataset.row_count
    m = len(catalog)
    cap = config.max_set_size if config.max_set_size is not None else m
    tids = [
        int.from_bytes(np.packbits(np.ascontiguousarray(p.mask(dataset))).tobytes(), "big")
        for p in catalog.predicates
    ]
    singleton = catalog.supports
    out = []

    def extend(ids, tid, min_member, start):
        for j in range(start, m):
            new_tid = tid & tids[j]
            sup = new_tid.bit_count() / n
            if not sup > config.theta:
                continue
            new_min = min(min_member, singleton[j])
            ids.append(j)
            if sup > max(config.theta, config.gamma * new_min):
                out.append(FrequentSet(tuple(ids), sup))
            if len(ids) < cap:
                extend(ids, new_tid, new_min, j + 1)
            ids.pop()

    if cap >= 2:
        for j in range(m):
            if singleton[j] > config.theta:
                extend([j], tids[j], singleton[j], j + 1)

    out.sort(key=lambda s: (len(s.ids), s.ids))
    return out


def closed_by_full_scan(table):
    """Entries of {ids: support} with no equal-support strict superset anywhere."""
    out = {}
    for ids, sup in table.items():
        base = set(ids)
        dominated = any(
            sup == other_sup and base < set(other_ids)
            for other_ids, other_sup in table.items()
        )
        if not dominated:
            out[ids] = sup
    return out


def closed_by_universe_probe(sets):
    """filter_closed() as it stood before the count table, kept whole.

    Every set probes each index of the collection's universe as the one
    extra member of an equal-support superset."""
    table = {frozenset(s.ids): s.support for s in sets}
    universe = sorted({i for s in sets for i in s.ids})
    out = []
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
            out.append(s)
    return out


def rules_by_subset_scan(closed_sets, dataset, catalog):
    """generate_rules() as it stood before the count table, kept whole.

    Each closed set's proper subsets are tried smallest first, each one
    ANDed again over bigint tidsets; a subset with the full set's row
    count and no such subset inside it is a minimal antecedent."""
    from invarmine.mining import MINED, InvariantRule

    tids = [
        int.from_bytes(np.packbits(np.ascontiguousarray(p.mask(dataset))).tobytes(), "big")
        for p in catalog.predicates
    ]
    rules = []
    for s in closed_sets:
        full_tid = tids[s.ids[0]]
        for i in s.ids[1:]:
            full_tid &= tids[i]
        full_count = full_tid.bit_count()
        minimal = []
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


def _predicate_json(predicate, schema):
    """A predicate as a rule file entry spells it, before id, support and text."""
    from invarmine.predicates import (
        CategoricalDisjunction,
        CategoricalEquals,
        Interval,
        Membership,
        Range,
    )

    if isinstance(predicate, CategoricalEquals):
        return {"type": "equals", "column": predicate.column, "value": schema.value_of(predicate.column, predicate.code)}
    if isinstance(predicate, CategoricalDisjunction):
        return {"type": "disjunction", "items": [[c, schema.value_of(c, v)] for c, v in predicate.items]}
    if isinstance(predicate, Interval):
        lower, upper = (None if abs(v) == float("inf") else float(v) for v in (predicate.lower, predicate.upper))
        return {"type": "interval", "column": predicate.column, "lower": lower, "upper": upper}
    if isinstance(predicate, Range):
        return {"type": "range", "column": predicate.column, "low": predicate.low, "high": predicate.high}
    if isinstance(predicate, Membership):
        values = sorted(schema.value_of(predicate.column, c) for c in predicate.codes)
        return {"type": "membership", "column": predicate.column, "values": values}
    raise TypeError(f"not a predicate: {predicate!r}")


def rewrite_with_whole_catalog(path, ruleset, catalog):
    """Rewrite the rule file save_ruleset wrote at path for ruleset in the
    layout rule files had while they carried the whole catalog.

    Every catalog predicate comes first, with its catalog support; then
    each predicate outside the catalog, in the order the rules read it,
    with the support of the first rule reading it.  Ids are positions,
    and catalog_size, the catalog's length, comes before the predicates.
    """
    import json
    from pathlib import Path

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = ruleset.schema
    entries, ids = [], {}

    def intern(p, sup):
        if p not in ids:
            ids[p] = len(entries)
            entries.append({**_predicate_json(p, schema), "id": ids[p], "support": float(sup), "text": p.render(schema)})
        return ids[p]

    for p, sup in catalog.pairs():
        intern(p, sup)
    for entry, rule in zip(payload["rules"], ruleset.rules):
        entry["antecedent"] = [intern(p, rule.support) for p in rule.antecedent]
        entry["consequent"] = [intern(p, rule.support) for p in rule.consequent]
    rules = payload.pop("rules")
    del payload["predicates"]
    payload.update(catalog_size=len(catalog), predicates=entries, rules=rules)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def sweep_by_retraining(train, test, labels, theta_grid, gamma_grid, max_set_size, max_fpr):
    """sweep() as it stood before it shared the data and theta stages,
    kept whole: every cell retrains from scratch with train_ruleset.
    Returns the same SweepResult."""
    from invarmine.detect import score_dataset
    from invarmine.evaluate import (
        LabeledScores,
        SweepCell,
        SweepResult,
        prf1_at_threshold,
        roc_auc,
        standardized_pauc,
    )
    from invarmine.mining import MiningConfig
    from invarmine.pipeline import train_ruleset

    cells = []
    for theta in theta_grid:
        for gamma in gamma_grid:
            cell = SweepCell(theta=theta, gamma=gamma)
            try:
                result = train_ruleset(train, MiningConfig(theta, gamma, max_set_size))
                scores = score_dataset(result.ruleset, test)
                ls = LabeledScores(scores, labels)
                prf = prf1_at_threshold(ls, 0.0)
                cell.rule_count = len(result.ruleset.rules)
                cell.auc = roc_auc(ls)
                cell.pauc = standardized_pauc(ls, max_fpr)
                cell.f1 = prf.f1
                cell.precision = prf.precision
                cell.recall = prf.recall
            except ValueError as exc:
                cell.error = str(exc)
            cells.append(cell)
    return SweepResult(cells)


def roc_curve_by_recount(scores, labels):
    """ROC vertices recomputed from scratch at every distinct score.

    Each vertex is (FPR, TPR) of the classifier "score >= t", plus the
    (0, 0) origin; thresholds descend so the polyline ends at (1, 1).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    points = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        picked = scores >= t
        fpr = int((picked & (labels == 0)).sum()) / n_neg
        tpr = int((picked & (labels == 1)).sum()) / n_pos
        points.append((fpr, tpr))
    return points


def area_by_segments(points, cap=1.0):
    """Trapezoid area under an ROC polyline for FPR in [0, cap].

    The segment crossing the cap is clipped by linear interpolation.
    """
    area = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x2 <= cap:
            area += (x2 - x1) * (y1 + y2) / 2.0
            continue
        if x1 >= cap:
            break
        w = (cap - x1) / (x2 - x1)
        yc = y1 + w * (y2 - y1)
        area += (cap - x1) * (y1 + yc) / 2.0
        break
    return area


def auc_by_pair_counting(scores, labels):
    """Mean over (anomaly, normal) pairs: 1 per correct ranking, 0.5 per tie."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def standardize_partial_area(area, cap):
    chance = cap * cap / 2.0
    return 0.5 * (1.0 + (area - chance) / (cap - chance))


def _impurity(y, kind):
    if kind == "classification":
        h = 0.0
        for c in set(y.tolist()):
            p = (y == c).sum() / len(y)
            h -= p * np.log2(p)
        return float(h)
    return float(np.mean((y - y.mean()) ** 2))


def threshold_between(lo, hi):
    """The threshold that parts values lo < hi: their midpoint when it lies
    strictly between them, else hi."""
    lo, hi = float(lo), float(hi)
    mid = (lo + hi) / 2.0
    return mid if lo < mid < hi else hi


def split_gain_direct(X, y, feature, tau, kind):
    """Impurity reduction of the single split (feature, tau), from scratch;
    rows at or above tau go right."""
    n = len(y)
    right = X[:, feature] >= tau
    left = ~right
    if not left.any() or not right.any():
        return 0.0
    parent = _impurity(y, kind)
    nl = int(left.sum())
    nr = n - nl
    return parent - (nl * _impurity(y[left], kind) + nr * _impurity(y[right], kind)) / n


def best_split_by_scan(X, y, min_leaf, kind):
    """Exhaustive scan over every threshold candidate; None when no candidate
    satisfies the leaf floor.  Ties keep the first (lowest feature, smallest
    threshold) candidate."""
    best = None
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values, values[1:]):
            tau = threshold_between(lo, hi)
            nl = int((X[:, f] < tau).sum())
            nr = len(y) - nl
            if not (nl > min_leaf and nr > min_leaf):
                continue
            gain = split_gain_direct(X, y, f, tau, kind)
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, tau)
    return best


def _entropy_rows(counts):
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(counts > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def _classification_split_by_node_sort(X, y, n_classes, min_leaf):
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    h_parent = float(_entropy_rows(parent_counts[None, :])[0])
    best = None
    for f in range(X.shape[1]):
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y[order]
        change = np.nonzero(vs[1:] > vs[:-1])[0] + 1
        if len(change) == 0:
            continue
        valid = change[(change > min_leaf) & (n - change > min_leaf)]
        if len(valid) == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[valid - 1]
        right_counts = parent_counts[None, :] - left_counts
        h_left = _entropy_rows(left_counts)
        h_right = _entropy_rows(right_counts)
        gains = h_parent - (valid / n) * h_left - ((n - valid) / n) * h_right
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        b = int(valid[pos])
        tau = threshold_between(vs[b - 1], vs[b])
        if best is None or gain > best[0]:
            best = (gain, f, tau)
    return best


def _regression_split_by_node_sort(X, y, min_leaf):
    n = len(y)
    centered = y - y.mean()
    var_parent = float(np.mean(centered**2) - np.mean(centered) ** 2)
    best = None
    for f in range(X.shape[1]):
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cs = centered[order]
        change = np.nonzero(vs[1:] > vs[:-1])[0] + 1
        if len(change) == 0:
            continue
        valid = change[(change > min_leaf) & (n - change > min_leaf)]
        if len(valid) == 0:
            continue
        s1 = np.cumsum(cs)
        s2 = np.cumsum(cs**2)
        t1, t2 = s1[-1], s2[-1]
        nl = valid.astype(np.float64)
        nr = n - nl
        l1, l2 = s1[valid - 1], s2[valid - 1]
        var_left = l2 / nl - (l1 / nl) ** 2
        var_right = (t2 - l2) / nr - ((t1 - l1) / nr) ** 2
        gains = var_parent - (nl * var_left + nr * var_right) / n
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        b = int(valid[pos])
        tau = threshold_between(vs[b - 1], vs[b])
        if best is None or gain > best[0]:
            best = (gain, f, tau)
    return best


def tree_by_node_sort(dataset, target, features, kind, min_leaf):
    """A tree grower that re-sorts every feature at every node.

    The package's presorted trees must equal it node for node.  Rows
    inside a node stay in row order, so a stable per-node sort orders
    them by (value, row index).
    """
    from invarmine.tree import DecisionTree, SplitRule, TreeNode

    y = dataset.column(target)
    n_classes = int(y.max()) + 1 if kind == "classification" else 0
    X = np.column_stack([dataset.column(f) for f in features])

    def grow(idx):
        yn = y[idx]
        node = TreeNode(n_samples=len(idx))
        if bool(np.all(yn == yn[0])) or len(idx) < 2 * (min_leaf + 1):
            return node
        Xn = X[idx]
        if kind == "classification":
            found = _classification_split_by_node_sort(Xn, yn, n_classes, min_leaf)
        else:
            found = _regression_split_by_node_sort(Xn, yn, min_leaf)
        if found is None or not found[0] > 0.0:
            return node
        _, f, tau = found
        right = Xn[:, f] >= tau
        node.split = SplitRule(column=features[f], threshold=tau)
        node.left = grow(idx[~right])
        node.right = grow(idx[right])
        return node

    root = grow(np.arange(dataset.row_count, dtype=np.int64))
    return DecisionTree(kind=kind, target=target, features=list(features), min_leaf=min_leaf, root=root)


def reports_by_row_loop(ruleset, dataset, config):
    """detect() the slow way: one RuleViolation per violated (row, rule),
    its failed predicates read row by row from the consequent masks."""
    from invarmine.detect import AnomalyReport, RuleViolation, _violations

    n = dataset.row_count
    scores = np.zeros(n, dtype=np.float64)
    per_row = [[] for _ in range(n)]
    for rid, rule, violated, consequent in _violations(ruleset, dataset, config.ignore_rules):
        np.add(scores, rule.support, out=scores, where=violated)
        for row in np.nonzero(violated)[0]:
            hit = tuple(p for p, held in consequent if not held[row])
            per_row[row].append(RuleViolation(rule_id=rid, rule=rule, failed=hit))
    return [
        AnomalyReport(
            row=i,
            score=float(scores[i]),
            is_anomaly=bool(scores[i] > config.phi),
            violations=per_row[i],
        )
        for i in range(n)
    ]


def write_reports_by_json_dumps(reports, ruleset, path):
    """write_reports() the slow way: one json.dumps of the whole object per row."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            payload = {
                "row": r.row,
                "score": r.score,
                "is_anomaly": r.is_anomaly,
                "violations": [
                    {
                        "rule_id": v.rule_id,
                        "rule": ruleset.rule_text(v.rule),
                        "support": v.rule.support,
                        "failed": [p.render(ruleset.schema) for p in v.failed],
                    }
                    for v in r.violations
                ],
            }
            fh.write(json.dumps(payload))
            fh.write("\n")


def load_csv_by_rows(path, schema):
    """load_csv() as one csv.reader pass with float() and intern() per cell.

    This is the row parser as it stood before the columnar reader, kept
    whole: like it, it interns into the schema as it goes, so a file that
    fails part-way leaves the values met before the error behind.  The
    one change since: lines, split as newline="" splits them, are decoded
    from UTF-8 one at a time as csv.reader takes them, and a byte that is
    not UTF-8 is a DataError giving its offset in the file."""
    import csv
    import math

    from invarmine.data import CATEGORICAL, CONTINUOUS, DataError, Dataset

    def decoded(lines):
        offset = 0
        for line in lines:
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = offset + exc.start
                raise DataError(
                    f"{path}: not UTF-8: byte 0x{line[exc.start]:02x} at offset {at} ({exc.reason})"
                ) from None
            offset += len(line)

    with open(path, "rb") as fh:
        reader = csv.reader(decoded(fh.read().splitlines(keepends=True)))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        positions = {}
        for pos, name in enumerate(header):
            if name in positions and name in schema.names:
                raise DataError(f"{path}: duplicate header column {name!r}")
            positions.setdefault(name, pos)
        for name in schema.names:
            if name not in positions:
                raise DataError(f"{path}: header omits schema column {name!r}")

        cont_cols = [(c.name, positions[c.name]) for c in schema.columns if c.kind == CONTINUOUS]
        cat_cols = [(c.name, positions[c.name]) for c in schema.columns if c.kind == CATEGORICAL]
        cont_data = {n: [] for n, _ in cont_cols}
        cat_data = {n: [] for n, _ in cat_cols}

        width = max(positions[n] for n in schema.names) + 1
        for i, record in enumerate(reader):
            if len(record) < width:
                raise DataError(f"{path}: row {i}: expected at least {width} fields, got {len(record)}")
            for name, pos in cont_cols:
                cell = record[pos]
                if cell == "":
                    raise DataError(f"{path}: row {i}, column {name!r}: missing value")
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {i}, column {name!r}: cannot parse {cell!r} as a number") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: row {i}, column {name!r}: non-finite value {cell!r}")
                cont_data[name].append(value)
            for name, pos in cat_cols:
                cell = record[pos]
                if cell == "":
                    raise DataError(f"{path}: row {i}, column {name!r}: missing value")
                cat_data[name].append(schema.intern(name, cell))

    arrays = {}
    for name, _ in cont_cols:
        arrays[name] = np.asarray(cont_data[name], dtype=np.float64)
    for name, _ in cat_cols:
        arrays[name] = np.asarray(cat_data[name], dtype=np.int64)
    if not arrays or len(next(iter(arrays.values()))) == 0:
        raise DataError(f"{path}: no data rows")
    return Dataset(schema, arrays)


def first_seen_by_byte_strings(buf, starts, lengths, seen):
    """The columnar reader's categorical coder as np.unique over fixed-width
    byte strings: each cell's rank in seen, which maps every value met so
    far to its rank of first appearance and is extended in cell order.

    This is the coder as it stood before cells were coded by their 8-byte
    words, kept whole: cells are gathered through an index matrix of at
    most 256 KiB per np.unique call.  A cell's trailing NUL bytes are
    lost to the byte strings."""
    width = int(lengths.max())
    offsets = np.arange(width)
    step = max(1, (1 << 18) // (8 * width))
    out = []
    for lo in range(0, len(starts), step):
        at = starts[lo : lo + step, None] + offsets
        np.minimum(at, len(buf) - 1, out=at)
        matrix = buf[at]
        matrix[offsets >= lengths[lo : lo + step, None]] = 0
        keys = matrix.view(f"S{width}").ravel()
        values, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        values = values.tolist()
        rank = np.empty(len(values), dtype=np.int64)
        for u in np.argsort(first).tolist():
            rank[u] = seen.setdefault(values[u], len(seen))
        out.append(rank[inverse.ravel()])
    return np.concatenate(out)


def write_csv_by_rows(dataset, path):
    """write_csv() as one csv.writer row and one repr or value_of per cell.

    This is the writer as it stood before it rendered each distinct value
    once, kept whole: it checks nothing but the codes, and a bad code
    raises after the header is on disk."""
    import csv

    from invarmine.data import CONTINUOUS

    schema = dataset.schema
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        columns = []
        for col in schema.columns:
            arr = dataset.column(col.name)
            if col.kind == CONTINUOUS:
                columns.append([repr(float(v)) for v in arr])
            else:
                columns.append([schema.value_of(col.name, int(v)) for v in arr])
        for i in range(dataset.row_count):
            writer.writerow([column[i] for column in columns])
