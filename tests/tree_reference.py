"""Frozen tree grower, per-tree router and importance loops (golden oracles).

``reference_grow_tree`` is the pure-numpy grower that
``repro.ml.tree.grow_tree`` ran before trees grew in the native
``grow_tree`` kernel: one ``np.bincount`` histogram and one cumulative
split scan per node.  The kernel and the numpy fallback must both grow
trees whose node arrays are bit-equal to its trees.

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

``tests/test_ml_flat.py``, ``tests/test_ml_tree.py``,
``tests/test_ml_grow_kernel.py`` and ``benchmarks/test_perf_sched.py``
assert that the shipped grower, router and importances are bit-equal to
these.  Do not optimize or otherwise modify the arithmetic here; it is
the contract the grow kernel and the flat router must honor.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import Tree, TreeParams, _Node


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


def reference_grow_tree(
    Xb: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: TreeParams,
    n_bins: int,
    rows: np.ndarray | None = None,
    feature_subset: np.ndarray | None = None,
    leaf_scale: float = 1.0,
) -> Tree:
    """Grow one tree on pre-binned features with gradient/hessian targets.

    Parameters
    ----------
    Xb:
        ``(n, f)`` uint8 binned feature matrix.
    g, h:
        ``(n, k)`` gradients and hessians (second-order objective); for a
        plain squared-error tree pass ``g = -y`` and ``h = ones_like(y)``.
    params:
        Growth hyper-parameters.
    n_bins:
        Number of bins used when ``Xb`` was produced.
    rows:
        Optional row subset (e.g. a bootstrap sample or subsample mask).
    feature_subset:
        Optional array of feature indices eligible for splitting
        (column subsampling); all features if None.
    leaf_scale:
        Multiplier applied to leaf weights (the boosting learning rate is
        folded in here so prediction needs no extra pass).
    """
    Xb = np.ascontiguousarray(Xb)
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    if g.shape[0] == 1 and Xb.shape[0] != 1:
        g, h = g.T, h.T
    n, n_features = Xb.shape
    k = g.shape[1]
    if g.shape != h.shape or g.shape[0] != n:
        raise ValueError(
            f"shape mismatch: X {Xb.shape}, g {g.shape}, h {h.shape}"
        )
    if rows is None:
        rows = np.arange(n, dtype=np.int64)
    features = (
        np.arange(n_features, dtype=np.int64)
        if feature_subset is None
        else np.asarray(feature_subset, dtype=np.int64)
    )

    nodes: list[_Node] = []
    lam = params.reg_lambda

    def leaf_value(G: np.ndarray, H: np.ndarray) -> np.ndarray:
        return -leaf_scale * G / (H + lam)

    def node_score(G: np.ndarray, H: np.ndarray) -> float:
        # Mean over outputs of G^2/(H+lambda); the 1/2 factor cancels in
        # gain comparisons but is kept so gains match the XGBoost scale.
        return float(np.mean(G * G / (H + lam)))

    fs = len(features)
    offsets = np.arange(fs, dtype=np.int64) * n_bins
    size = fs * n_bins
    # Pre-offset bin codes once per tree: code[i, j] identifies the
    # (feature j, bin) cell directly, so per-node histogram building is
    # one bincount per target over the node's rows.
    codes = Xb[:, features].astype(np.int64) + offsets

    def build_hist(idx: np.ndarray):
        flat = codes[idx].ravel()
        counts = np.bincount(flat, minlength=size).reshape(fs, n_bins)
        Gh = np.empty((fs, n_bins, k))
        Hh = np.empty((fs, n_bins, k))
        for out in range(k):
            Gh[:, :, out] = np.bincount(
                flat, weights=np.repeat(g[idx, out], fs), minlength=size
            ).reshape(fs, n_bins)
            Hh[:, :, out] = np.bincount(
                flat, weights=np.repeat(h[idx, out], fs), minlength=size
            ).reshape(fs, n_bins)
        return counts, Gh, Hh

    # Stack of (node_index, row_indices, depth, hist-or-None).  The
    # histogram-subtraction trick: a node's histogram is either built
    # directly (root, and the *smaller* child of each split) or derived
    # as parent-minus-sibling (the larger child), roughly halving
    # histogram work for deep trees.
    root = _Node()
    nodes.append(root)
    stack: list = [(0, rows, 0, None)]

    while stack:
        node_id, idx, depth, hist = stack.pop()
        node = nodes[node_id]
        if hist is None:
            hist = build_hist(idx)
        counts, Gh, Hh = hist
        # Per-output totals; every feature's histogram sums to the same
        # totals, so read them off feature 0.
        G = Gh[0].sum(axis=0)
        H = Hh[0].sum(axis=0)
        node.n_samples = len(idx)
        node.value = leaf_value(G, H)

        if depth >= params.max_depth or len(idx) < 2 * params.min_samples_leaf:
            continue

        m = len(idx)
        parent_score = node_score(G, H)

        GL = np.cumsum(Gh, axis=1)[:, :-1, :]        # (fs, bins-1, k)
        HL = np.cumsum(Hh, axis=1)[:, :-1, :]
        CL = np.cumsum(counts, axis=1)[:, :-1]       # (fs, bins-1)
        GR = G - GL
        HR = H - HL
        CR = m - CL
        # gain = 1/2*(S_L + S_R - S_parent) - gamma, S = mean_k G^2/(H+lam)
        # Empty-bin prefixes divide 0/0; those candidates are masked out
        # by `valid` below, so silence the intermediate warnings.
        with np.errstate(divide="ignore", invalid="ignore"):
            SL = np.mean(GL * GL / (HL + lam), axis=2)
            SR = np.mean(GR * GR / (HR + lam), axis=2)
        score = 0.5 * (SL + SR - parent_score) - params.gamma
        valid = (
            (CL >= params.min_samples_leaf)
            & (CR >= params.min_samples_leaf)
            & (HL.mean(axis=2) >= params.min_child_weight)
            & (HR.mean(axis=2) >= params.min_child_weight)
        )
        score = np.where(valid & np.isfinite(score), score, -np.inf)
        best_flat = int(np.argmax(score))
        best_gain = float(score.ravel()[best_flat])
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            continue
        best_feature = int(features[best_flat // (n_bins - 1)])
        best_bin = int(best_flat % (n_bins - 1))

        go_left = Xb[idx, best_feature] <= best_bin
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        if len(left_idx) == 0 or len(right_idx) == 0:
            continue

        node.feature = best_feature
        node.bin_threshold = best_bin
        node.gain = best_gain
        node.left = len(nodes)
        nodes.append(_Node())
        node.right = len(nodes)
        nodes.append(_Node())

        # Build the smaller child's histogram; derive the larger by
        # subtraction from the parent's.
        if len(left_idx) <= len(right_idx):
            small_idx, small_slot = left_idx, node.left
            large_idx, large_slot = right_idx, node.right
        else:
            small_idx, small_slot = right_idx, node.right
            large_idx, large_slot = left_idx, node.left
        small_hist = build_hist(small_idx)
        large_hist = (
            counts - small_hist[0],
            Gh - small_hist[1],
            Hh - small_hist[2],
        )
        stack.append((small_slot, small_idx, depth + 1, small_hist))
        stack.append((large_slot, large_idx, depth + 1, large_hist))

    return Tree(nodes, n_outputs=k, n_features=n_features)
