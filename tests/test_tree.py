"""Decision-tree fitting and cut-off harvesting."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invarmine.tree import (
    CLASSIFICATION,
    REGRESSION,
    SplitRule,
    TreeError,
    extract_cutoffs,
    fit_classification_tree,
    fit_regression_tree,
    sort_continuous_columns,
)
from invarmine.synth import planted_rule_data, random_mixed_dataset

from helpers import make_dataset
from oracles import best_split_by_scan, split_gain_direct, tree_by_node_sort


def leaves(tree):
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.split is None:
            out.append(node)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return out


class TestClassification:
    def test_constant_target_is_a_leaf(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0, 3.0, 4.0]}, cat={"U1": ["a"] * 4})
        tree = fit_classification_tree(dataset, "U1", min_leaf=1)
        assert tree.root.split is None
        assert extract_cutoffs([tree]) == {}

    def test_separable_hundred_rows_one_split(self):
        x = [4.0] * 50 + [6.0] * 50
        u = ["0"] * 50 + ["1"] * 50
        dataset = make_dataset(cont={"X1": x}, cat={"U1": u})
        tree = fit_classification_tree(dataset, "U1", min_leaf=10)
        internal = list(tree.internal_nodes())
        assert len(internal) == 1
        assert internal[0].split.column == "X1"
        assert internal[0].split.threshold == 5.0  # midpoint of the straddling values
        assert tree.root.left.split is None and tree.root.right.split is None

    def test_min_leaf_equal_to_row_count_keeps_the_root(self):
        x = [4.0] * 50 + [6.0] * 50
        u = ["0"] * 50 + ["1"] * 50
        dataset = make_dataset(cont={"X1": x}, cat={"U1": u})
        tree = fit_classification_tree(dataset, "U1", min_leaf=100)
        assert tree.root.split is None

    def test_no_continuous_columns_is_an_error(self):
        dataset = make_dataset(cat={"U1": ["a", "b", "a", "b"]})
        with pytest.raises(TreeError, match="no continuous columns"):
            fit_classification_tree(dataset, "U1", min_leaf=1)

    def test_continuous_target_rejected(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0]}, cat={"U1": ["a", "b"]})
        with pytest.raises(TreeError, match="not categorical"):
            fit_classification_tree(dataset, "X1", min_leaf=1)

    @pytest.mark.parametrize(
        "low, high",
        [(1.0000000000000002, 1.0000000000000004), (1.7e308, float(np.nextafter(1.7e308, np.inf)))],
        ids=["midpoint-rounds-up", "midpoint-overflows"],
    )
    def test_neighbouring_floats_split_at_the_upper_value(self, low, high):
        """The midpoint of neighbouring floats is no threshold between them
        (it rounds onto high, or overflows to inf), so high parts them."""
        assert not low < (low + high) / 2.0 < high
        x = [low, high] * 10
        dataset = make_dataset(cont={"X1": x}, cat={"U1": ["p", "q"] * 10})
        tree = fit_classification_tree(dataset, "U1", min_leaf=4)
        assert tree.root.split == SplitRule("X1", high)
        assert tree.root.left.n_samples == tree.root.right.n_samples == 10
        assert tree.root.left.split is None and tree.root.right.split is None
        assert tree == tree_by_node_sort(dataset, "U1", ["X1"], CLASSIFICATION, 4)

    def test_constant_features_cannot_split(self):
        dataset = make_dataset(cont={"X1": [3.0] * 8}, cat={"U1": ["a", "b"] * 4})
        tree = fit_classification_tree(dataset, "U1", min_leaf=1)
        assert tree.root.split is None


class TestRegression:
    def test_step_target_splits_near_zero(self):
        x1 = [-1.0] * 50 + [1.0] * 50
        x2 = [0.0] * 50 + [10.0] * 50
        dataset = make_dataset(cont={"X1": x1, "X2": x2})
        tree = fit_regression_tree(dataset, "X2", min_leaf=5)
        assert tree.root.split.column == "X1"
        assert tree.root.split.threshold == 0.0
        assert tree.root.left.n_samples == tree.root.right.n_samples == 50
        assert tree.root.left.split is None and tree.root.right.split is None

    def test_constant_target_is_a_leaf(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0, 3.0, 4.0], "X2": [7.0] * 4})
        tree = fit_regression_tree(dataset, "X2", min_leaf=1)
        assert tree.root.split is None

    def test_single_continuous_column_returns_none(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0]})
        assert fit_regression_tree(dataset, "X1", min_leaf=1) is None

    def test_categorical_target_rejected(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0]}, cat={"U1": ["a", "b"]})
        with pytest.raises(TreeError, match="not continuous"):
            fit_regression_tree(dataset, "U1", min_leaf=1)

    @staticmethod
    def signed_step(scale):
        """200 rows with Y = ±scale·(1 + 1e-3·noise), negative where X < 0.5."""
        rng = np.random.default_rng(0)
        x = rng.random(200)
        y = np.where(x < 0.5, -scale, scale) * (1 + 1e-3 * rng.standard_normal(200))
        return make_dataset(cont={"X": x, "Y": y})

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300, 1.7e308])
    def test_huge_targets_still_split(self, scale):
        """Squares of targets past about 1.3e154 overflow, and near the
        float maximum so does the mean's sum; neither may hide the split."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = fit_regression_tree(self.signed_step(scale), "Y", min_leaf=20)
        assert tree.root.split == fit_regression_tree(self.signed_step(1.0), "Y", min_leaf=20).root.split
        assert tree.root.split.column == "X" and 0.5 <= tree.root.split.threshold < 0.51

    @pytest.mark.parametrize("power", [600, 1000])
    def test_power_of_two_targets_grow_the_same_tree(self, power):
        """Scaling the targets by a power of two is exact, so every node
        picks the split it picks at scale 1."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = fit_regression_tree(self.signed_step(2.0**power), "Y", min_leaf=5)
        assert tree == fit_regression_tree(self.signed_step(1.0), "Y", min_leaf=5)


class TestCutoffs:
    def test_duplicate_thresholds_collapse(self):
        x = [4.0] * 20 + [6.0] * 20
        u = ["0"] * 20 + ["1"] * 20
        dataset = make_dataset(cont={"X1": x}, cat={"U1": u})
        tree = fit_classification_tree(dataset, "U1", min_leaf=2)
        assert extract_cutoffs([tree, tree]) == {"X1": [5.0]}

    def test_thresholds_sorted_per_column(self):
        def tree_splitting_at(low, high):
            x = [low] * 20 + [high] * 20
            u = ["0"] * 20 + ["1"] * 20
            dataset = make_dataset(cont={"X1": x}, cat={"U1": u})
            return fit_classification_tree(dataset, "U1", min_leaf=2)

        table = extract_cutoffs([tree_splitting_at(6.0, 8.0), tree_splitting_at(2.0, 4.0)])
        assert table == {"X1": [3.0, 7.0]}

    def test_no_internal_nodes_anywhere(self):
        dataset = make_dataset(cont={"X1": [1.0, 2.0]}, cat={"U1": ["a", "a"]})
        tree = fit_classification_tree(dataset, "U1", min_leaf=1)
        assert extract_cutoffs([tree, None]) == {}


def random_case(rng, kind):
    n = int(rng.integers(20, 80))
    n_features = int(rng.integers(1, 4))
    cont = {}
    for f in range(n_features + (1 if kind == REGRESSION else 0)):
        grid = np.sort(rng.uniform(-10, 10, size=int(rng.integers(2, 6))))
        cont[f"X{f + 1}"] = rng.choice(grid, size=n).tolist()
    if kind == CLASSIFICATION:
        cat = {"U1": rng.choice(["a", "b", "c"], size=n).tolist()}
        dataset = make_dataset(cont=cont, cat=cat)
        target, features = "U1", list(cont)
    else:
        dataset = make_dataset(cont=cont)
        target, features = "X1", [c for c in cont if c != "X1"]
    min_leaf = int(rng.integers(1, max(2, n // 4)))
    return dataset, target, features, min_leaf


@pytest.mark.parametrize("kind", [CLASSIFICATION, REGRESSION])
def test_root_split_matches_exhaustive_scan(kind):
    rng = np.random.default_rng(2024)
    for _ in range(25):
        dataset, target, features, min_leaf = random_case(rng, kind)
        if kind == CLASSIFICATION:
            tree = fit_classification_tree(dataset, target, min_leaf)
        else:
            tree = fit_regression_tree(dataset, target, min_leaf)
        X = np.column_stack([dataset.column(f) for f in features])
        y = dataset.column(target)
        if kind == REGRESSION:
            y = y.astype(float)
        best = best_split_by_scan(X, y, min_leaf, kind)
        if tree.root.split is None:
            assert best is None or best[0] <= 1e-9
            continue
        assert best is not None
        f = features.index(tree.root.split.column)
        chosen_gain = split_gain_direct(X, y, f, tree.root.split.threshold, kind)
        # the chosen split must achieve the exhaustive-scan optimum
        assert chosen_gain == pytest.approx(best[0], abs=1e-9)
        assert chosen_gain > 0.0


@pytest.mark.parametrize("kind", [CLASSIFICATION, REGRESSION])
def test_every_leaf_respects_the_floor_and_counts_add_up(kind):
    rng = np.random.default_rng(7)
    for _ in range(15):
        dataset, target, _, min_leaf = random_case(rng, kind)
        if kind == CLASSIFICATION:
            tree = fit_classification_tree(dataset, target, min_leaf)
        else:
            tree = fit_regression_tree(dataset, target, min_leaf)
        for leaf in leaves(tree):
            assert leaf.n_samples > min_leaf or tree.root.split is None
        for node in tree.internal_nodes():
            assert node.n_samples == node.left.n_samples + node.right.n_samples
            assert node.left.n_samples > min_leaf
            assert node.right.n_samples > min_leaf


def test_fitting_is_deterministic():
    rng = np.random.default_rng(99)
    dataset, target, _, min_leaf = random_case(rng, CLASSIFICATION)
    a = fit_classification_tree(dataset, target, min_leaf)
    b = fit_classification_tree(dataset, target, min_leaf)
    assert a == b


def fit(dataset, target, kind, min_leaf, sorted_rows=None):
    if kind == CLASSIFICATION:
        return fit_classification_tree(dataset, target, min_leaf, sorted_rows)
    return fit_regression_tree(dataset, target, min_leaf, sorted_rows)


@st.composite
def multiclass_case(draw):
    """A classification table with 3-12 classes, where grid columns sit next
    to high-cardinality ones (uniform, rounded to 0.01).  Classes follow X1's
    rank, so subtrees lose classes, or are balanced or random, which gives
    tied gains whose rounding depends on how the class terms are summed.
    When the rows are sorted by X1, codes (first seen order) follow X1 too,
    and a split on X1 leaves code 0 or the top code out of a child."""
    n = draw(st.integers(20, 300))
    n_classes = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    cont = {}
    for f in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            cont[f"X{f + 1}"] = np.round(rng.uniform(-10, 10, size=n), 2)
        else:
            grid = np.sort(rng.uniform(-10, 10, size=int(rng.integers(2, 7))))
            cont[f"X{f + 1}"] = rng.choice(grid, size=n)
    rank = np.argsort(np.argsort(cont["X1"], kind="stable"), kind="stable")
    layout = draw(st.sampled_from(["rank", "balanced", "random"]))
    if layout == "rank":
        codes = rank * n_classes // n
        relabel = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.3]))
        codes[relabel] = rng.integers(0, n_classes, size=int(relabel.sum()))
    elif layout == "balanced":
        codes = rng.permutation(np.arange(n) % n_classes)
    else:
        codes = rng.integers(0, n_classes, size=n)
    rows = np.argsort(rank) if draw(st.booleans()) else np.arange(n)
    dataset = make_dataset(
        cont={name: values[rows].tolist() for name, values in cont.items()},
        cat={"U1": [f"c{k}" for k in codes[rows].tolist()]},
    )
    min_leaf = draw(st.sampled_from([0, 1, n // 2]) | st.integers(0, n // 3))
    return dataset, list(cont), min_leaf


class TestMatchesNodeSortReference:
    """Whole trees, not just root splits, equal the per-node-sort grower."""

    @pytest.mark.parametrize("kind", [CLASSIFICATION, REGRESSION])
    def test_tie_heavy_grids(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(12):
            dataset, target, features, _ = random_case(rng, kind)
            n = dataset.row_count
            for min_leaf in (0, 1, 3, n // 4, n // 2):
                tree = fit(dataset, target, kind, min_leaf)
                assert tree == tree_by_node_sort(dataset, target, features, kind, min_leaf)
            assert tree.root.split is None  # min_leaf n // 2 blocks every split

    def test_generated_tables_with_shared_sorts(self):
        tables = [random_mixed_dataset(300, 5, 3, seed=0), planted_rule_data(300, seed=1)[0]]
        for dataset in tables:
            schema = dataset.schema
            sorted_rows = sort_continuous_columns(dataset)
            jobs = [(name, CLASSIFICATION, schema.continuous_names) for name in schema.categorical_names]
            jobs += [
                (name, REGRESSION, [c for c in schema.continuous_names if c != name])
                for name in schema.continuous_names
            ]
            for min_leaf in (3, 15):
                for target, kind, features in jobs:
                    tree = fit(dataset, target, kind, min_leaf, sorted_rows)
                    assert tree == tree_by_node_sort(dataset, target, features, kind, min_leaf)
            for name, order in sorted_rows.items():  # sharing leaves the sorts intact
                assert not order.flags.writeable
                assert np.array_equal(order, np.argsort(dataset.column(name), kind="stable"))

    @given(multiclass_case())
    def test_many_classes(self, case):
        dataset, features, min_leaf = case
        tree = fit_classification_tree(dataset, "U1", min_leaf)
        assert tree == tree_by_node_sort(dataset, "U1", features, CLASSIFICATION, min_leaf)

    @pytest.mark.parametrize("n_classes", [4, 5, 7, 9])
    def test_children_without_the_lowest_or_highest_code(self, n_classes):
        """Classes follow X1 and first appear in code order, so the root's
        split on X1 leaves the top code out of the left child and code 0
        out of the right one, and both children split again."""
        n = 30 * n_classes
        rng = np.random.default_rng(n_classes)
        x1 = np.arange(n, dtype=float)
        codes = np.arange(n) * n_classes // n
        dataset = make_dataset(
            cont={"X1": x1.tolist(), "X2": np.round(rng.uniform(-10, 10, size=n), 2).tolist()},
            cat={"U1": [f"c{k}" for k in codes.tolist()]},
        )
        tree = fit_classification_tree(dataset, "U1", min_leaf=2)
        assert tree == tree_by_node_sort(dataset, "U1", ["X1", "X2"], CLASSIFICATION, 2)
        assert tree.root.split.column == "X1"
        right = x1 > tree.root.split.threshold
        y = dataset.column("U1")
        assert n_classes - 1 not in y[~right] and 0 not in y[right]
        assert tree.root.left.split is not None and tree.root.right.split is not None
