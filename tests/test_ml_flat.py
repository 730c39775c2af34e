"""Flat vectorized ensemble inference must match per-tree traversal exactly.

:class:`repro.ml.tree.FlatEnsemble` stacks every tree of a model into
one struct-of-arrays and routes all (tree, row) states level by level.
Because routing decisions are integer bin comparisons and leaf values
are gathered (not recomputed), the result must be *bit-identical* —
``np.array_equal``, not ``allclose`` — to running each tree's own
``predict_binned`` and combining in the original accumulation order.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import native
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.serialization import model_from_dict, model_to_dict
from repro.ml.tree import FlatEnsemble


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 9))
    Y = np.stack([
        X[:, 0] * 2 + np.sin(X[:, 1]),
        X[:, 2] ** 2 - X[:, 3],
        rng.normal(size=600),
    ], axis=1)
    return X, Y


def _gbt_reference_predict(gbt, Xb):
    """The pre-optimization per-tree accumulation, reproduced inline."""
    pred = np.tile(gbt.base_score_, (Xb.shape[0], 1))
    for round_trees in gbt.trees_:
        if len(round_trees) == 1 and gbt.multi_strategy == "multi_output_tree":
            pred += round_trees[0].predict_binned(Xb)
        else:
            for out, tree in enumerate(round_trees):
                pred[:, out] += tree.predict_binned(Xb)[:, 0]
    return pred


class TestFlatEnsemble:
    def test_leaves_match_per_tree_traversal(self, data):
        X, Y = data
        rf = RandomForestRegressor(n_estimators=12, max_depth=7,
                                   random_state=0).fit(X, Y)
        Xb = rf.binner_.transform(X)
        flat = FlatEnsemble(rf.trees_)
        leaves = flat.predict_leaves(Xb)
        assert leaves.shape == (len(rf.trees_), X.shape[0])
        # Gathered values == each tree's own traversal, bit for bit.
        for ti, tree in enumerate(rf.trees_):
            assert np.array_equal(flat.values[leaves[ti]],
                                  tree.predict_binned(Xb))

    def test_single_node_trees(self, data):
        X, Y = data
        # Depth-0 trees are pure leaves: routing must park at the root.
        rf = RandomForestRegressor(n_estimators=3, max_depth=0,
                                   random_state=1).fit(X, Y)
        Xb = rf.binner_.transform(X)
        flat = FlatEnsemble(rf.trees_)
        assert flat.max_depth == 0
        leaves = flat.predict_leaves(Xb)
        assert np.array_equal(np.unique(leaves), np.asarray(flat.roots))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FlatEnsemble([])

    def test_mixed_output_width_rejected(self, data):
        X, Y = data
        a = RandomForestRegressor(n_estimators=1, random_state=0).fit(X, Y)
        b = RandomForestRegressor(n_estimators=1, random_state=0).fit(
            X, Y[:, 0])
        with pytest.raises(ValueError):
            FlatEnsemble([a.trees_[0], b.trees_[0]])


class TestForestFlatPredict:
    def test_per_tree_exact(self, data):
        X, Y = data
        rf = RandomForestRegressor(n_estimators=15, max_depth=8,
                                   random_state=3).fit(X, Y)
        Xb = rf.binner_.transform(X)
        stacked = np.stack([t.predict_binned(Xb) for t in rf.trees_])
        for mean, std in (rf.predict_binned(Xb, uncertainty=True),
                          rf.predict(X, uncertainty=True)):
            assert np.array_equal(mean, stacked.mean(axis=0))
            assert np.array_equal(std, stacked.std(axis=0))
        assert np.array_equal(rf.predict(X), stacked.mean(axis=0))

    def test_flat_cache_invalidated_on_tree_swap(self, data):
        X, Y = data
        rf = RandomForestRegressor(n_estimators=6, max_depth=5,
                                   random_state=4).fit(X, Y)
        first = rf.predict(X)
        assert rf._flat_cache is not None
        # Truncating the ensemble must invalidate the cached stack.
        rf.trees_ = rf.trees_[:2]
        truncated = rf.predict(X)
        expected = np.stack(
            [t.predict_binned(rf.binner_.transform(X)) for t in rf.trees_]
        ).mean(axis=0)
        assert np.array_equal(truncated, expected)
        assert not np.array_equal(first, truncated)

    def test_decision_tree_predict_binned(self, data):
        X, Y = data
        dt = DecisionTreeRegressor(max_depth=6).fit(X, Y)
        Xb = dt.binner_.transform(X)
        assert np.array_equal(dt.predict_binned(Xb), dt.predict(X))


class TestBoostingFlatPredict:
    @pytest.mark.parametrize("mode", ("per_output", "multi_output_tree"))
    def test_exact_vs_reference_accumulation(self, data, mode):
        X, Y = data
        gbt = GradientBoostedTrees(n_estimators=25, max_depth=4,
                                   multi_strategy=mode,
                                   random_state=0).fit(X, Y)
        Xb = gbt.binner_.transform(X)
        assert np.array_equal(gbt.predict_binned(Xb),
                              _gbt_reference_predict(gbt, Xb))
        assert np.array_equal(gbt.predict(X),
                              _gbt_reference_predict(gbt, Xb))

    def test_subsampled_model_exact(self, data):
        X, Y = data
        gbt = GradientBoostedTrees(n_estimators=20, max_depth=5,
                                   subsample=0.7, colsample_bytree=0.6,
                                   random_state=2).fit(X, Y)
        Xb = gbt.binner_.transform(X)
        assert np.array_equal(gbt.predict_binned(Xb),
                              _gbt_reference_predict(gbt, Xb))

    def test_serialization_roundtrip_exact(self, data):
        X, Y = data
        for model in (
            GradientBoostedTrees(n_estimators=10, max_depth=4,
                                 random_state=5).fit(X, Y),
            RandomForestRegressor(n_estimators=8, max_depth=6,
                                  random_state=5).fit(X, Y),
        ):
            restored = model_from_dict(model_to_dict(model))
            assert np.array_equal(restored.predict(X), model.predict(X))


def _quantile_reference_predict(gbt, q, Xb):
    """One quantile head walked tree by tree, in training order."""
    base, rounds = gbt.quantile_trees_[q]
    pred = np.tile(base, (Xb.shape[0], 1))
    for round_trees in rounds:
        for out, tree in enumerate(round_trees):
            pred[:, out] += tree.predict_binned(Xb)[:, 0]
    return pred


class TestQuantileHeadsFlatPredict:
    @pytest.fixture(scope="class", params=("per_output", "multi_output_tree"))
    def headed(self, data, request):
        X, Y = data
        return GradientBoostedTrees(
            n_estimators=12, max_depth=4, multi_strategy=request.param,
            quantile_heads=(0.1, 0.5, 0.9), n_quantile_rounds=15,
            random_state=0,
        ).fit(X, Y)

    @pytest.mark.parametrize("kernel", ("default", "numpy"))
    def test_spread_exact_vs_per_tree_heads(self, data, headed, kernel):
        X, _ = data
        Xb = headed.binner_.transform(X)
        saved = native._state
        if kernel == "numpy":
            native._state = (None, "forced off for equality test")
        try:
            mean, spread = headed.predict_binned(Xb, uncertainty=True)
        finally:
            native._state = saved
        lo = _quantile_reference_predict(headed, 0.1, Xb)
        hi = _quantile_reference_predict(headed, 0.9, Xb)
        assert np.array_equal(spread, np.clip((hi - lo) / 2.0, 0.0, None))
        assert np.array_equal(mean, _gbt_reference_predict(headed, Xb))
        assert spread.any()

    def test_head_stacks_survive_pickle(self, data, headed):
        X, _ = data
        expected = headed.predict(X, uncertainty=True)
        clone = pickle.loads(pickle.dumps(headed))
        assert "_head_flat_cache" not in clone.__dict__
        for got, want in zip(clone.predict(X, uncertainty=True), expected):
            assert np.array_equal(got, want)


class TestTreeNodeStatCaches:
    def test_n_leaves_and_depth_cached_consistent(self, data):
        X, Y = data
        rf = RandomForestRegressor(n_estimators=5, max_depth=7,
                                   random_state=6).fit(X, Y)
        for tree in rf.trees_:
            # Recompute from the raw arrays and compare to the cached
            # construction-time values.
            assert tree.n_leaves == int(np.count_nonzero(tree._feat < 0))
            assert tree.n_leaves == tree._n_leaves
            assert tree.max_depth_reached == tree._max_depth_reached
            assert 0 <= tree.max_depth_reached <= 7
