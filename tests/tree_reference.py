"""Frozen per-tree router and importance loops (golden oracles).

``reference_predict_binned`` is the active-set traversal that
``Tree.predict_binned`` ran before every tree prediction moved onto
:class:`repro.ml.tree.FlatEnsemble`: each iteration pushes every
still-internal row one level down its own tree, reading the tree's
per-node arrays directly.  The three importance loops are the
average-gain formulas the gradient-boosted model, the random forest and
the decision tree each carried before they shared one function.  They
are test oracles, so they live under ``tests/`` and nothing in the
``repro`` package may import them (enforced by
``tools/check_layering.py``).

``tests/test_ml_flat.py``, ``tests/test_ml_tree.py`` and
``benchmarks/test_perf_sched.py`` assert that the shipped router and
importances are bit-equal to these.  Do not optimize or otherwise modify
the arithmetic here; it is the contract the flat router must honor.
"""

from __future__ import annotations

import numpy as np


def reference_predict_binned(tree, Xb: np.ndarray) -> np.ndarray:
    """Predict from pre-binned uint8 features; returns ``(n, k)``."""
    n = Xb.shape[0]
    node_idx = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    # Vectorized routing: every iteration pushes all still-internal rows
    # one level down; terminates after at most max_depth iterations.
    while active.size:
        feats = tree._feat[node_idx[active]]
        internal = feats >= 0
        active = active[internal]
        if not active.size:
            break
        idx = node_idx[active]
        go_left = Xb[active, tree._feat[idx]] <= tree._thr[idx]
        node_idx[active] = np.where(
            go_left, tree._left[idx], tree._right[idx]
        )
    return tree._values[node_idx]


def reference_gbt_importances(gbt, kind: str = "gain") -> np.ndarray:
    """``GradientBoostedTrees.feature_importances`` as it stood."""
    total_gain = np.zeros(gbt.n_features_)
    total_count = np.zeros(gbt.n_features_)
    for round_trees in gbt.trees_:
        for tree in round_trees:
            total_gain += tree.feature_gains()
            total_count += tree.feature_split_counts()
    if kind == "weight":
        raw = total_count
    else:
        with np.errstate(invalid="ignore"):
            raw = np.where(total_count > 0, total_gain / np.maximum(total_count, 1), 0.0)
    s = raw.sum()
    return raw / s if s > 0 else raw


def reference_forest_importances(forest) -> np.ndarray:
    """``RandomForestRegressor.feature_importances`` as it stood."""
    gains = np.zeros(forest.n_features_)
    counts = np.zeros(forest.n_features_)
    for tree in forest.trees_:
        gains += tree.feature_gains()
        counts += tree.feature_split_counts()
    raw = np.where(counts > 0, gains / np.maximum(counts, 1), 0.0)
    s = raw.sum()
    return raw / s if s > 0 else raw


def reference_tree_importances(model) -> np.ndarray:
    """``DecisionTreeRegressor.feature_importances`` as it stood."""
    gains = model.tree_.feature_gains()
    counts = model.tree_.feature_split_counts()
    raw = np.where(counts > 0, gains / np.maximum(counts, 1), 0.0)
    s = raw.sum()
    return raw / s if s > 0 else raw
