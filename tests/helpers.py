"""Small builders shared across the test modules."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from invarmine.data import CATEGORICAL, CONTINUOUS, Column, DataError, Dataset, Schema
from invarmine.predicates import (
    CategoricalDisjunction,
    CategoricalEquals,
    Interval,
    Membership,
    PredicateCatalog,
)


def make_schema(cont=(), cat=()):
    cols = [Column(n, CONTINUOUS, []) for n in cont]
    cols += [Column(n, CATEGORICAL, []) for n in cat]
    return Schema(cols)


def make_dataset(cont=None, cat=None):
    """Dataset from plain dicts; continuous columns first, then categorical."""
    cont = dict(cont or {})
    cat = dict(cat or {})
    schema = make_schema(tuple(cont), tuple(cat))
    data = {n: list(v) for n, v in cont.items()}
    data.update({n: list(v) for n, v in cat.items()})
    return Dataset.from_columns(schema, data)


def support(dataset, predicates):
    """Fraction of rows on which every predicate in the set holds.

    The empty set has support 1.  Rows are a multiset: duplicates count
    separately.
    """
    if dataset.row_count == 0:
        raise DataError("support is undefined on an empty dataset")
    mask = np.ones(dataset.row_count, dtype=bool)
    for p in predicates:
        mask &= p.mask(dataset)
    return int(np.count_nonzero(mask)) / dataset.row_count


def build_catalog(dataset, predicates):
    """Catalog over the given predicates with true training supports cached."""
    return PredicateCatalog([(p, support(dataset, [p])) for p in predicates])


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def random_predicates(dataset, rng, max_preds=12):
    """A random mix of predicate kinds grounded in the dataset's columns.

    Supports are not constrained, so the mix includes predicates a real
    catalog would never contain; mining and its oracle must still agree.
    """
    schema = dataset.schema
    cont = schema.continuous_names
    cat = schema.categorical_names
    inf = float("inf")

    def one_interval():
        column = cont[int(rng.integers(len(cont)))]
        values = np.unique(dataset.column(column))
        cuts = [-inf] + [(a + b) / 2.0 for a, b in zip(values, values[1:])] + [inf]
        i = int(rng.integers(len(cuts) - 1))
        j = int(rng.integers(i + 1, len(cuts)))
        return Interval(column, float(cuts[i]), float(cuts[j]))

    def seen_codes(column):
        return sorted(int(c) for c in np.unique(dataset.column(column)))

    def one_equals():
        column = cat[int(rng.integers(len(cat)))]
        codes = seen_codes(column)
        return CategoricalEquals(column, int(rng.choice(codes)))

    def one_membership():
        column = cat[int(rng.integers(len(cat)))]
        codes = seen_codes(column)
        k = int(rng.integers(1, min(3, len(codes)) + 1))
        return Membership(column, frozenset(int(c) for c in rng.choice(codes, size=k, replace=False)))

    branch_universe = [(c, code) for c in cat for code in seen_codes(c)]

    def one_disjunction():
        picked = rng.choice(len(branch_universe), size=2, replace=False)
        return CategoricalDisjunction(tuple(sorted(branch_universe[i] for i in picked)))

    makers = []
    if cont:
        makers.append(one_interval)
    if cat:
        makers += [one_equals, one_membership]
        if len(branch_universe) >= 2:
            makers.append(one_disjunction)
    count = int(rng.integers(3, max_preds + 1))
    out = []
    seen = set()
    for _ in range(count * 3):
        if len(out) == count:
            break
        p = makers[int(rng.integers(len(makers)))]()
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/{name}.py as a module, imported without running its main."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]
