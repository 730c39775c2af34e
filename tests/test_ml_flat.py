"""Flat vectorized ensemble inference must match per-tree traversal exactly.

:class:`repro.ml.tree.FlatEnsemble` stacks every tree of a model into
one struct-of-arrays and routes all (tree, row) states level by level.
Because routing decisions are integer bin comparisons and leaf values
are gathered (not recomputed), the result must be *bit-identical* —
``np.array_equal``, not ``allclose`` — to walking each tree with the
frozen per-tree router in ``tests/tree_reference.py`` and combining in
the original accumulation order.  ``Tree.predict_binned`` itself routes
through a one-tree ``FlatEnsemble``, so it is checked against that
oracle too, never used as one.
"""

from __future__ import annotations

import contextlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import native
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.serialization import model_from_dict, model_to_dict
from repro.ml.tree import FlatEnsemble, Tree, _Node

from .tree_reference import reference_predict_binned


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


@contextlib.contextmanager
def _kernel(kind):
    """Run the block on the native kernels (``"default"``, when this host
    can build them) or on the numpy fallback (``"numpy"``)."""
    saved = native._state
    if kind == "numpy":
        native._state = (None, "forced off for equality test")
    try:
        yield
    finally:
        native._state = saved


def _edge_batches(binner):
    """Binned batches at the shapes the kernels special-case: empty, one
    and two rows, more rows than one routing tile of either path, and
    Fortran-order and row-strided (non-contiguous) layouts."""
    rng = np.random.default_rng(11)
    Xb = binner.transform(rng.normal(size=(4000, 9)))
    return {"n0": Xb[:0], "n1": Xb[:1], "n2": Xb[:2], "tiles": Xb,
            "fortran": np.asfortranarray(Xb[:300]), "strided": Xb[::7]}


def _gbt_reference_predict(gbt, Xb):
    """The pre-optimization per-tree accumulation, reproduced inline
    over the frozen per-tree router."""
    pred = np.tile(gbt.base_score_, (Xb.shape[0], 1))
    for round_trees in gbt.trees_:
        if len(round_trees) == 1 and gbt.multi_strategy == "multi_output_tree":
            pred += reference_predict_binned(round_trees[0], Xb)
        else:
            for out, tree in enumerate(round_trees):
                pred[:, out] += reference_predict_binned(tree, Xb)[:, 0]
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
            want = reference_predict_binned(tree, Xb)
            assert np.array_equal(flat.values[leaves[ti]], want)
            assert np.array_equal(tree.predict_binned(Xb), want)

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
        stacked = np.stack([reference_predict_binned(t, Xb)
                            for t in rf.trees_])
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
        assert rf._flat_stacks[None] is not None
        # Truncating the ensemble must invalidate the cached stack.
        rf.trees_ = rf.trees_[:2]
        truncated = rf.predict(X)
        expected = np.stack(
            [reference_predict_binned(t, rf.binner_.transform(X))
             for t in rf.trees_]
        ).mean(axis=0)
        assert np.array_equal(truncated, expected)
        assert not np.array_equal(first, truncated)

    def test_decision_tree_predict_binned(self, data):
        X, Y = data
        dt = DecisionTreeRegressor(max_depth=6).fit(X, Y)
        Xb = dt.binner_.transform(X)
        assert np.array_equal(dt.predict_binned(Xb), dt.predict(X))
        assert np.array_equal(dt.predict_binned(Xb),
                              reference_predict_binned(dt.tree_, Xb))


class TestBoostingFlatPredict:
    @pytest.mark.parametrize("kernel", ("default", "numpy"))
    @pytest.mark.parametrize("mode", ("per_output", "multi_output_tree"))
    def test_exact_vs_reference_accumulation(self, data, mode, kernel):
        X, Y = data
        gbt = GradientBoostedTrees(n_estimators=25, max_depth=4,
                                   multi_strategy=mode,
                                   random_state=0).fit(X, Y)
        Xb = gbt.binner_.transform(X)
        with _kernel(kernel):
            assert np.array_equal(gbt.predict_binned(Xb),
                                  _gbt_reference_predict(gbt, Xb))
            assert np.array_equal(gbt.predict(X),
                                  _gbt_reference_predict(gbt, Xb))
            for name, batch in _edge_batches(gbt.binner_).items():
                got = gbt.predict_binned(batch)
                assert got.shape == (batch.shape[0], Y.shape[1]), name
                assert np.array_equal(
                    got, _gbt_reference_predict(gbt, batch)), name

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
            pred[:, out] += reference_predict_binned(tree, Xb)[:, 0]
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
        batches = {"train": headed.binner_.transform(X),
                   **_edge_batches(headed.binner_)}
        for name, Xb in batches.items():
            with _kernel(kernel):
                mean, spread = headed.predict_binned(Xb, uncertainty=True)
            lo = _quantile_reference_predict(headed, 0.1, Xb)
            hi = _quantile_reference_predict(headed, 0.9, Xb)
            assert np.array_equal(spread,
                                  np.clip((hi - lo) / 2.0, 0.0, None)), name
            assert np.array_equal(mean,
                                  _gbt_reference_predict(headed, Xb)), name
            assert spread.any() or not len(Xb), name

    def test_head_stacks_survive_pickle(self, data, headed):
        X, _ = data
        expected = headed.predict(X, uncertainty=True)
        clone = pickle.loads(pickle.dumps(headed))
        assert headed._flat_stacks  # warmed before the roundtrip
        assert "_flat_stacks" not in clone.__dict__
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


# ----------------------------------------------------------------------
# Native kernels vs numpy over adversarial inputs
# ----------------------------------------------------------------------
_CODES = st.sampled_from([0, 1, 254, 255]) | st.integers(0, 255)
_SUMMANDS = (st.sampled_from([1e16, -1e16, 1.0, -0.5, 3.0, 1e-8])
             | st.floats(-1e18, 1e18))


@st.composite
def _adversarial_ensembles(draw):
    """Hand-built trees the fitter rarely grows: stumps, one-sided
    chains far deeper than any production tree, bushy random trees, and
    bin thresholds and codes at the uint8 extremes."""
    n_features = draw(st.integers(1, 6))
    trees = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(("stump", "chain", "bushy")))
        max_depth = 0 if shape == "stump" else draw(
            st.integers(1, 40 if shape == "chain" else 7))
        nodes: list[_Node] = []
        first_id = sum(t.n_nodes for t in trees)

        def grow(depth, split):
            i = len(nodes)
            nodes.append(_Node(value=np.array([float(first_id + i)])))
            if depth < max_depth and split:
                node = nodes[i]
                node.feature = draw(st.integers(0, n_features - 1))
                node.bin_threshold = draw(_CODES)
                if shape == "chain":
                    deeper = draw(st.booleans())
                    node.left = grow(depth + 1, deeper)
                    node.right = grow(depth + 1, not deeper)
                else:
                    node.left = grow(depth + 1, draw(st.booleans()))
                    node.right = grow(depth + 1, draw(st.booleans()))
            return i

        grow(0, True)
        trees.append(Tree(nodes, n_outputs=1, n_features=n_features))
    n_rows = draw(st.integers(0, 40))
    Xb = draw(arrays(np.uint8, (n_rows, n_features), elements=_CODES))
    return trees, Xb


@given(_adversarial_ensembles())
@settings(max_examples=80, deadline=None)
def test_route_leaves_adversarial_trees(case):
    trees, Xb = case
    flat = FlatEnsemble(trees)
    assert flat.max_depth == max(t.max_depth_reached for t in trees)
    with _kernel("default"):
        leaves = flat.predict_leaves(Xb)
    with _kernel("numpy"):
        assert np.array_equal(flat.predict_leaves(Xb), leaves)
    # Node values are ensemble-wide node ids: equal values, equal leaves.
    for t, tree in enumerate(trees):
        want = reference_predict_binned(tree, Xb)
        assert np.array_equal(flat.values[leaves[t]], want)
        # A lone tree routes through its own one-tree stack: same leaves
        # on the native kernel and on the numpy fallback.
        for kind in ("default", "numpy"):
            with _kernel(kind):
                assert np.array_equal(tree.predict_binned(Xb), want), kind


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_accumulate_leaves_matches_tree_loop(data):
    n_trees = data.draw(st.integers(1, 12))
    n_rows = data.draw(st.integers(0, 6))
    n_nodes = data.draw(st.integers(1, 20))
    k = data.draw(st.integers(1, 4))
    width = data.draw(st.sampled_from((1, k)))
    # Mixed magnitudes make a reordering of the adds change the sum.
    values = data.draw(arrays(np.float64, (n_nodes, width),
                              elements=_SUMMANDS, fill=st.nothing()))
    leaves = data.draw(arrays(np.int32, (n_trees, n_rows),
                              elements=st.integers(0, n_nodes - 1)))
    cols = data.draw(arrays(np.int32, n_trees,
                            elements=st.integers(0, k - width)))
    base = data.draw(arrays(np.float64, k, elements=_SUMMANDS,
                            fill=st.nothing()))
    expected = np.tile(base, (n_rows, 1))
    for t, col in enumerate(cols.tolist()):
        expected[:, col:col + width] += values[leaves[t]]
    got = np.tile(base, (n_rows, 1))
    if native.accumulate_leaves(leaves, values, cols, width, got):
        assert np.array_equal(got, expected)
    else:
        assert np.array_equal(got, np.tile(base, (n_rows, 1)))
