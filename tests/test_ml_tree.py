"""Unit and property tests for the histogram tree engine."""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.serialization import model_to_dict
from repro.ml.tree import Binner, Tree, TreeParams, _Node, grow_tree

from . import tree_reference as reference


class TestBinner:
    def test_bins_in_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        b = Binner(n_bins=16)
        codes = b.fit_transform(X)
        assert codes.dtype == np.uint8
        assert codes.max() < 16

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Binner().transform(np.zeros((2, 2)))

    def test_out_of_range_values_clamp(self):
        X = np.linspace(0, 1, 100)[:, None]
        b = Binner(n_bins=8).fit(X)
        lo = b.transform(np.array([[-100.0]]))
        hi = b.transform(np.array([[100.0]]))
        assert lo[0, 0] == 0
        assert hi[0, 0] == b.transform(np.array([[1.0]]))[0, 0]

    def test_constant_feature(self):
        X = np.ones((50, 1))
        codes = Binner(n_bins=8).fit_transform(X)
        assert (codes == codes[0, 0]).all()

    def test_bad_n_bins(self):
        with pytest.raises(ValueError):
            Binner(n_bins=1)
        with pytest.raises(ValueError):
            Binner(n_bins=1000)

    def test_shape_mismatch_raises(self):
        b = Binner().fit(np.zeros((10, 3)))
        with pytest.raises(ValueError):
            b.transform(np.zeros((5, 2)))

    def test_binning_preserves_order(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        b = Binner(n_bins=32).fit(x[:, None])
        codes = b.transform(np.sort(x)[:, None])[:, 0]
        assert (np.diff(codes.astype(int)) >= 0).all()


class TestGrowTree:
    def _simple_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n, 2))
        y = np.where(X[:, 0] > 0.5, 2.0, -1.0)
        return X, y

    def test_learns_step_function(self):
        X, y = self._simple_data()
        b = Binner(32)
        Xb = b.fit_transform(X)
        tree = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=2),
                         n_bins=32)
        pred = tree.predict_binned(Xb)[:, 0]
        assert np.abs(pred - y).mean() < 0.05

    def test_max_depth_zero_gives_mean_leaf(self):
        X, y = self._simple_data()
        Xb = Binner(16).fit_transform(X)
        tree = grow_tree(Xb, -y, np.ones_like(y),
                         TreeParams(max_depth=0, reg_lambda=0.0), n_bins=16)
        assert tree.n_nodes == 1
        assert tree.predict_binned(Xb)[0, 0] == pytest.approx(y.mean())

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 4))
        y = rng.normal(size=500)
        Xb = Binner(16).fit_transform(X)
        tree = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=3),
                         n_bins=16)
        assert tree.max_depth_reached <= 3

    def test_min_samples_leaf(self):
        X, y = self._simple_data(n=100)
        Xb = Binner(16).fit_transform(X)
        tree = grow_tree(Xb, -y, np.ones_like(y),
                         TreeParams(max_depth=10, min_samples_leaf=30),
                         n_bins=16)
        leaf_samples = tree._n_samples[tree._feat < 0]
        assert ((leaf_samples >= 30) | (leaf_samples == 0)).all()

    def test_multi_output_leaves(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(300, 3))
        Y = np.column_stack([X[:, 0] > 0.5, X[:, 0] <= 0.5]).astype(float)
        Xb = Binner(16).fit_transform(X)
        tree = grow_tree(Xb, -Y, np.ones_like(Y), TreeParams(max_depth=2),
                         n_bins=16)
        pred = tree.predict_binned(Xb)
        assert pred.shape == (300, 2)
        assert np.abs(pred - Y).mean() < 0.1

    def test_pure_target_makes_no_split(self):
        X = np.random.default_rng(0).uniform(size=(100, 2))
        y = np.full(100, 3.0)
        Xb = Binner(16).fit_transform(X)
        tree = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=5),
                         n_bins=16)
        assert tree.n_nodes == 1

    def test_gamma_blocks_weak_splits(self):
        X, y = self._simple_data()
        Xb = Binner(16).fit_transform(X)
        strong = grow_tree(Xb, -y, np.ones_like(y),
                           TreeParams(max_depth=3, gamma=0.0), n_bins=16)
        blocked = grow_tree(Xb, -y, np.ones_like(y),
                            TreeParams(max_depth=3, gamma=1e12), n_bins=16)
        assert strong.n_nodes > 1
        assert blocked.n_nodes == 1

    def test_feature_subset_restricts_splits(self):
        X, y = self._simple_data()
        Xb = Binner(16).fit_transform(X)
        # Feature 0 carries the signal; restrict to feature 1 only.
        tree = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=3),
                         n_bins=16, feature_subset=np.array([1]))
        gains = tree.feature_gains()
        assert gains[0] == 0.0

    def test_row_subset(self):
        X, y = self._simple_data()
        Xb = Binner(16).fit_transform(X)
        rows = np.arange(50)
        tree = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=2),
                         n_bins=16, rows=rows)
        assert tree._n_samples[0] == 50

    def test_leaf_scale(self):
        X, y = self._simple_data()
        Xb = Binner(16).fit_transform(X)
        full = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=2),
                         n_bins=16, leaf_scale=1.0)
        half = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=2),
                         n_bins=16, leaf_scale=0.5)
        np.testing.assert_allclose(
            half.predict_binned(Xb), 0.5 * full.predict_binned(Xb)
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            grow_tree(np.zeros((10, 2), dtype=np.uint8), np.zeros(5),
                      np.ones(5), TreeParams(), n_bins=8)

    def test_gain_counts_match_split_counts(self):
        X, y = self._simple_data()
        Xb = Binner(16).fit_transform(X)
        tree = grow_tree(Xb, -y, np.ones_like(y), TreeParams(max_depth=4),
                         n_bins=16)
        n_splits = int(np.count_nonzero(tree._feat >= 0))
        assert np.count_nonzero(tree._gain[tree._feat >= 0] > 0) == n_splits
        assert tree.feature_split_counts().sum() == n_splits
        assert tree.n_leaves == tree.n_nodes - n_splits


def _fixed_fit_data():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(240, 5))
    Y = np.stack([X[:, 0] - X[:, 1] ** 2, np.sin(X[:, 2]) + X[:, 3]], axis=1)
    return X, Y


def _fixed_fits():
    X, Y = _fixed_fit_data()
    return [
        GradientBoostedTrees(n_estimators=5, max_depth=3,
                             random_state=0).fit(X, Y),
        GradientBoostedTrees(n_estimators=5, max_depth=3,
                             multi_strategy="multi_output_tree",
                             subsample=0.8, random_state=1).fit(X, Y),
        RandomForestRegressor(n_estimators=4, max_depth=4,
                              random_state=2).fit(X, Y),
    ]


def _per_node_importances(trees, n_features, kind="gain"):
    """Importances from a per-node loop over every tree, summing each
    tree first and then across trees, as the models do."""
    gain, count = np.zeros(n_features), np.zeros(n_features)
    for tree in trees:
        tree_gain, tree_count = np.zeros(n_features), np.zeros(n_features)
        for feature, node_gain in zip(tree._feat.tolist(),
                                      tree._gain.tolist()):
            if feature >= 0:
                tree_gain[feature] += node_gain
                tree_count[feature] += 1
        gain += tree_gain
        count += tree_count
    raw = count if kind == "weight" else np.where(
        count > 0, gain / np.maximum(count, 1), 0.0)
    return raw / raw.sum()


def _old_pickle_state(tree):
    """The ``__dict__`` a tree had while it kept its ``_Node`` list."""
    nodes = [
        _Node(feature=f, bin_threshold=t, value=np.array(v), left=lo,
              right=hi, gain=g, n_samples=n)
        for f, t, v, lo, hi, g, n in zip(
            tree._feat.tolist(), tree._thr.tolist(), tree._values.tolist(),
            tree._left.tolist(), tree._right.tolist(), tree._gain.tolist(),
            tree._n_samples.tolist())
    ]
    return {"_nodes": nodes, "n_outputs": tree.n_outputs,
            "n_features": tree.n_features, "_feat": tree._feat,
            "_thr": tree._thr, "_left": tree._left, "_right": tree._right,
            "_values": tree._values, "_n_leaves": tree._n_leaves,
            "_max_depth_reached": tree._max_depth_reached}


def _unpickle_old(tree):
    old = Tree.__new__(Tree)
    old.__dict__.update(_old_pickle_state(tree))
    return pickle.loads(pickle.dumps(old))


class TestArrayOnlyTree:
    def test_importances_match_per_node_loop(self):
        gbt, vec, rf = _fixed_fits()
        for model in (gbt, vec):
            trees = [t for round_trees in model.trees_ for t in round_trees]
            for kind in ("gain", "weight"):
                assert np.array_equal(
                    model.feature_importances(kind),
                    _per_node_importances(trees, model.n_features_, kind))
                # The shared formula against each model's own old loop.
                assert np.array_equal(
                    model.feature_importances(kind),
                    reference.reference_gbt_importances(model, kind))
        assert np.array_equal(rf.feature_importances(),
                              _per_node_importances(rf.trees_,
                                                    rf.n_features_))
        assert np.array_equal(rf.feature_importances(),
                              reference.reference_forest_importances(rf))
        X, Y = _fixed_fit_data()
        dt = DecisionTreeRegressor(max_depth=5).fit(X, Y)
        assert np.array_equal(dt.feature_importances(),
                              reference.reference_tree_importances(dt))
        assert np.array_equal(dt.feature_importances(),
                              _per_node_importances([dt.tree_],
                                                    dt.n_features_))

    def test_model_to_dict_unchanged(self):
        # SHA-256 of the JSON written while trees kept their node list.
        expected = [
            "d2dfd7bca7981e15a9e4652b7df9679d5a7290c6fecf59353c5a0df5f45f8528",
            "c5ea5ec717fbf36f392cc36ac34288dda0f82a3544fb59edef1ac2e867387749",
            "99062afa0bf9d442137453afb9034120466a428fef19e217fcd3b26edbd53bdb",
        ]
        got = [
            hashlib.sha256(json.dumps(model_to_dict(model),
                                      sort_keys=True).encode()).hexdigest()
            for model in _fixed_fits()
        ]
        assert got == expected

    def test_tree_keeps_no_node_list(self):
        tree = _fixed_fits()[2].trees_[0]
        assert "_nodes" not in tree.__dict__
        assert all(isinstance(v, (int, np.ndarray))
                   for v in tree.__dict__.values())
        assert tree._gain.dtype == np.float64
        assert tree._n_samples.dtype == np.int64

    def test_old_pickle_loads_as_arrays(self):
        X, _ = _fixed_fit_data()
        gbt, vec, rf = _fixed_fits()
        for model in (gbt, vec):
            Xb = model.binner_.transform(X)
            want_pred = model.predict_binned(Xb)
            want_imp = model.feature_importances()
            model.trees_ = [[_unpickle_old(t) for t in round_trees]
                            for round_trees in model.trees_]
            assert np.array_equal(model.predict_binned(Xb), want_pred)
            assert np.array_equal(model.feature_importances(), want_imp)
        for tree in rf.trees_:
            clone = _unpickle_old(tree)
            assert "_nodes" not in clone.__dict__
            assert clone.__dict__.keys() == tree.__dict__.keys()
            for name, value in tree.__dict__.items():
                assert np.array_equal(clone.__dict__[name], value), name
            Xb = rf.binner_.transform(X)
            assert np.array_equal(clone.predict_binned(Xb),
                                  tree.predict_binned(Xb))


class TestTreeParamsValidation:
    def test_negative_depth(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=-1)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            TreeParams(reg_lambda=-0.1)


@given(
    n=st.integers(20, 200),
    seed=st.integers(0, 10_000),
    depth=st.integers(0, 6),
)
@settings(max_examples=30, deadline=None)
def test_property_prediction_bounded_by_target_range(n, seed, depth):
    """A variance-reduction tree's leaf means stay within [min(y), max(y)]."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    Xb = Binner(16).fit_transform(X)
    tree = grow_tree(Xb, -y, np.ones_like(y),
                     TreeParams(max_depth=depth, reg_lambda=0.0), n_bins=16)
    pred = tree.predict_binned(Xb)[:, 0]
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


@given(n=st.integers(10, 100), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_property_root_value_is_shrunk_mean(n, seed):
    """With lambda=0 the root leaf equals the target mean."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    Xb = Binner(8).fit_transform(X)
    tree = grow_tree(Xb, -y, np.ones_like(y),
                     TreeParams(max_depth=0, reg_lambda=0.0), n_bins=8)
    assert tree._values[0, 0] == pytest.approx(y.mean())


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_property_deeper_trees_fit_no_worse_on_train(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(150, 3))
    y = np.sin(X[:, 0]) + rng.normal(0, 0.1, 150)
    Xb = Binner(16).fit_transform(X)
    errs = []
    for depth in (0, 2, 4):
        tree = grow_tree(Xb, -y, np.ones_like(y),
                         TreeParams(max_depth=depth, reg_lambda=0.0),
                         n_bins=16)
        errs.append(((tree.predict_binned(Xb)[:, 0] - y) ** 2).mean())
    assert errs[0] >= errs[1] - 1e-9
    assert errs[1] >= errs[2] - 1e-9
