"""Histogram-based regression tree engine.

This is the shared kernel under both :class:`repro.ml.boosting.
GradientBoostedTrees` and :class:`repro.ml.forest.RandomForestRegressor`.
It grows a single CART-style binary tree on *pre-binned* features using
the second-order (XGBoost) split objective:

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ] - gamma

with vector-valued gradients ``g`` of shape ``(n, k)`` (one column per
regression target) and matching hessians ``h``.  Per-output gains are
averaged across the ``k`` outputs, which is exactly the multi-target gain
definition the paper uses for its feature-importance analysis ("the gain
is averaged over each output", Section VI-B).

Fitting a plain squared-error tree (for the random forest) is the special
case ``g = -y, h = 1, lambda = 0``: the leaf weight ``-G/(H+lambda)``
becomes the group mean and the gain becomes the between-group sum of
squares, i.e. classic variance reduction.

Growth is histogram-based: each node's per-(feature, bin) gradient and
hessian sums give the split scores of every (feature, bin) pair through
cumulative sums, so a node costs O(features * bins) plus one O(n)
partition, and only the smaller child of a split builds its histogram
(the larger one's is the parent's minus it).  A whole tree grows in one
call of the native ``grow_tree`` kernel (:mod:`repro.native`); without
it (``REPRO_NATIVE=0``, no C compiler) the same steps run as a numpy
loop with ``np.bincount`` histograms.  Both grow bit-identical trees.

Prediction has one router, :class:`FlatEnsemble` (the native
``route_leaves`` kernel or its numpy fallback): a lone tree routes as a
one-tree stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import native
from repro.errors import PackingError

__all__ = ["TreeParams", "Binner", "Tree", "FlatEnsemble", "FlatStackCache",
           "average_gain_importances", "grow_tree"]

_MAX_BINS = 256  # bins are stored in uint8

# Cap on simultaneous (tree, row) traversal states in FlatEnsemble
# prediction.  Chunking rows keeps every per-level temporary (a few
# int32 arrays of this length) resident in L2, which is what bounds
# routing throughput; larger chunks measurably regress.
_LEAF_STATE_BUDGET = 1 << 16


@dataclass(frozen=True)
class TreeParams:
    """Hyper-parameters controlling tree growth.

    Attributes
    ----------
    max_depth:
        Maximum tree depth (root is depth 0).
    min_child_weight:
        Minimum sum of hessians (averaged over outputs) on each side of a
        split.  With unit hessians this is a minimum leaf sample count.
    reg_lambda:
        L2 regularization on leaf weights (XGBoost ``lambda``).
    gamma:
        Minimum gain required to make a split (XGBoost ``gamma``).
    min_samples_leaf:
        Hard minimum number of rows in each leaf.
    """

    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("reg_lambda and gamma must be non-negative")


class Binner:
    """Quantile feature binner mapping float features to uint8 bin codes.

    Bin edges are per-feature quantiles computed on the training matrix
    (``fit``).  ``transform`` maps values to bin indices via
    ``np.searchsorted``; values beyond the training range clamp to the
    first/last bin, which makes prediction on unseen data well defined.
    """

    def __init__(self, n_bins: int = 64):
        if not 2 <= n_bins <= _MAX_BINS:
            raise PackingError(
                f"n_bins must be in [2, {_MAX_BINS}]: bin codes are "
                f"packed end-to-end as uint8, so {n_bins} bins cannot "
                "be represented"
            )
        self.n_bins = n_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "Binner":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        self.edges_ = []
        qs = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        for j in range(X.shape[1]):
            col = X[:, j]
            finite = col[np.isfinite(col)]
            if finite.size == 0:
                self.edges_.append(np.empty(0))
                continue
            edges = np.unique(np.quantile(finite, qs))
            self.edges_.append(edges)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("Binner.transform called before fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X has shape {X.shape}, expected (n, {len(self.edges_)})"
            )
        out = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.edges_):
            if edges.size == 0:
                out[:, j] = 0
            else:
                out[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    bin_threshold: int = 0
    value: np.ndarray = field(default_factory=lambda: np.zeros(1))
    left: int = -1
    right: int = -1
    gain: float = 0.0
    n_samples: int = 0


class Tree:
    """A grown tree as flat per-node arrays, with prediction and
    importance methods.

    The ``_Node`` list that growth (or deserialization) builds is read
    once at construction and not kept: a fitted tree holds only its
    struct-of-arrays, so a pickled model is a handful of arrays per tree
    instead of one object (and one value array) per node.
    """

    def __init__(self, nodes: list[_Node], n_outputs: int, n_features: int):
        values = np.array([n.value for n in nodes], dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        depth = np.zeros(len(nodes), dtype=np.int64)
        best = 0
        for i, node in enumerate(nodes):
            if node.feature >= 0:
                d = depth[i] + 1
                depth[node.left] = depth[node.right] = d
                if d > best:
                    best = d
        self._set_arrays(
            n_outputs, n_features,
            np.array([n.feature for n in nodes], dtype=np.int64),
            np.array([n.bin_threshold for n in nodes], dtype=np.int64),
            np.array([n.left for n in nodes], dtype=np.int64),
            np.array([n.right for n in nodes], dtype=np.int64),
            values,
            np.array([n.gain for n in nodes], dtype=np.float64),
            np.array([n.n_samples for n in nodes], dtype=np.int64),
            int(best),
        )

    @classmethod
    def _from_arrays(cls, n_outputs: int, n_features: int, *arrays) -> "Tree":
        """A tree straight from its per-node arrays, in
        :meth:`_set_arrays` order (the native grower's output)."""
        tree = cls.__new__(cls)
        tree._set_arrays(n_outputs, n_features, *arrays)
        return tree

    def _set_arrays(self, n_outputs, n_features, feat, thr, left, right,
                    values, gain, n_samples, max_depth_reached) -> None:
        self.n_outputs = n_outputs
        self.n_features = n_features
        self._feat = feat
        self._thr = thr
        self._left = left
        self._right = right
        self._values = values
        self._gain = gain
        self._n_samples = n_samples
        # Node statistics are immutable once grown; cache them at
        # construction instead of recomputing O(n_nodes) per access.
        self._n_leaves = int(np.count_nonzero(feat < 0))
        self._max_depth_reached = max_depth_reached

    def __setstate__(self, state: dict) -> None:
        # Pickles written while trees still kept their node list carry
        # ``_nodes`` (and no ``_gain`` / ``_n_samples``): rebuild the
        # arrays from it and drop the list.
        nodes = state.pop("_nodes", None)
        if nodes is None:
            self.__dict__.update(state)
        else:
            self.__init__(nodes, state["n_outputs"], state["n_features"])

    @property
    def n_nodes(self) -> int:
        return len(self._feat)

    @property
    def n_leaves(self) -> int:
        return self._n_leaves

    @property
    def max_depth_reached(self) -> int:
        return self._max_depth_reached

    def predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Predict from pre-binned uint8 features; returns ``(n, k)``,
        routed as a one-tree :class:`FlatEnsemble`."""
        flat = FlatEnsemble([self])
        return flat.values[flat.predict_leaves(Xb)[0]]

    # ``bincount`` adds its weights one node at a time in node order, so
    # these sums are bit-identical to a per-node loop.
    def feature_gains(self) -> np.ndarray:
        """Total split gain accumulated per feature (length ``n_features``)."""
        split = self._feat >= 0
        return np.bincount(self._feat[split], weights=self._gain[split],
                           minlength=self.n_features)

    def feature_split_counts(self) -> np.ndarray:
        """Number of splits using each feature (length ``n_features``)."""
        return np.bincount(self._feat[self._feat >= 0],
                           minlength=self.n_features).astype(np.float64)


class FlatEnsemble:
    """Every tree of a fitted ensemble stacked into one struct-of-arrays.

    Node attributes (split feature, bin threshold, children, leaf
    values) of all trees are concatenated into single flat arrays with
    child indices rebased to absolute positions, so one vectorized
    routing pass walks *all trees for all rows simultaneously* — the
    per-level work is a handful of numpy gathers over every live
    (tree, row) state instead of a Python loop over trees.

    Leaf values are exposed via :attr:`values` and leaf positions via
    :meth:`predict_leaves`; callers gather and accumulate in whatever
    order preserves their exact float semantics (see
    ``GradientBoostedTrees.predict_binned``).  Rows are processed in
    chunks so peak memory stays bounded for any ensemble size.

    This is the package's only tree router: ``Tree.predict_binned`` is
    a one-tree stack.  The frozen per-tree traversal it replaced is the
    exactness oracle in ``tests/tree_reference.py``.
    """

    def __init__(self, trees: list[Tree]):
        if not trees:
            raise ValueError("FlatEnsemble needs at least one tree")
        k = trees[0]._values.shape[1]
        for t in trees:
            if t._values.shape[1] != k:
                raise ValueError("trees disagree on output width")
        self.n_trees = len(trees)
        self.n_outputs = k
        counts = np.array([t.n_nodes for t in trees], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        if total >= 1 << 30:  # 2*total must fit in int32 (children index)
            raise ValueError("ensemble too large for int32 node indexing")
        #: Root node index of each tree in the flat arrays.
        self.roots = offsets[:-1].astype(np.int32)
        feat = np.concatenate([t._feat for t in trees])
        thr = np.concatenate([t._thr for t in trees])
        left = np.concatenate([
            np.where(t._left >= 0, t._left + off, -1)
            for t, off in zip(trees, offsets)
        ])
        right = np.concatenate([
            np.where(t._right >= 0, t._right + off, -1)
            for t, off in zip(trees, offsets)
        ])
        # Branchless self-loop encoding: a leaf routes to itself on a
        # dummy feature, so the level loop needs no active-set
        # bookkeeping — every state advances every level and parked
        # states stay parked.  Feature and threshold are packed into
        # one int32 (feature in the high bits, uint8 bin threshold in
        # the low byte) and both children live interleaved in one
        # array indexed by ``2*node + go_left``, so each level costs
        # exactly three gathers.  Gather traffic is what bounds
        # routing throughput.
        is_leaf = feat < 0
        node_ids = np.arange(total, dtype=np.int32)
        feat32 = np.where(is_leaf, 0, feat).astype(np.int32)
        thr32 = np.where(is_leaf, 0, thr).astype(np.int32)
        self._featthr = (feat32 << 8) | thr32
        self._children = np.empty(2 * total, dtype=np.int32)
        self._children[0::2] = np.where(is_leaf, node_ids, right)
        self._children[1::2] = np.where(is_leaf, node_ids, left)
        #: Deepest tree in the stack — the number of routing levels.
        self.max_depth = max(t.max_depth_reached for t in trees)
        #: ``(total_nodes, n_outputs)`` leaf/internal values; indexing
        #: with :meth:`predict_leaves` output gives each tree's own
        #: prediction.
        self.values = np.concatenate([t._values for t in trees], axis=0)

    def predict_leaves(self, Xb: np.ndarray) -> np.ndarray:
        """Leaf node index per (tree, row); returns ``(n_trees, n)``.

        ``Xb`` is the pre-binned uint8 feature matrix.  Routing
        decisions are integer comparisons, so the resulting leaves are
        exactly those each tree's own traversal reaches — on both the
        native path and the numpy fallback (same uint8 compare, same
        child arrays), so which path runs is unobservable except in
        speed.
        """
        Xb = np.ascontiguousarray(Xb, dtype=np.uint8)
        n, n_features = Xb.shape
        T = self.n_trees
        featthr = self._featthr
        children = self._children
        if n:
            out = np.empty((T, n), dtype=np.int32)
            if native.route_leaves(
                featthr, children, self.roots, Xb, self.max_depth, out
            ):
                return out
        Xf = Xb.reshape(-1)
        out = np.empty((T, n), dtype=np.int32)
        chunk = max(128, _LEAF_STATE_BUDGET // T)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            c = hi - lo
            # One state per (tree, row), laid out tree-major so the
            # reshape below is free.  Rows address Xb through a
            # precomputed flat offset (row * n_features), turning the
            # 2-D fancy gather into a 1-D one.
            node = np.repeat(self.roots, c)
            # int32 offsets unless row*n_features could overflow.
            off_dtype = np.int32 if n * n_features < (1 << 31) else np.int64
            row_off = np.tile(
                np.arange(lo, hi, dtype=off_dtype) * n_features, T
            )
            for _ in range(self.max_depth):
                ft = featthr[node]
                go_left = Xf[row_off + (ft >> 8)] <= (ft & 255)
                node = children[(node << 1) + go_left]
            out[:, lo:hi] = node.reshape(T, c)
        return out


class FlatStackCache:
    """Lazily built flat stacks of a tree model, keyed by head.

    ``_flat_stacks`` maps a head (``None`` for a forest or the main
    boosted ensemble, else a quantile level) to ``(trees, stack)``.
    The key holds the tree objects themselves, so replacing trees
    (deserialization, early stopping, a serve hot-swap) always misses,
    where an id-based key could false-hit on a recycled id.  The
    class-level empty dict serves unfitted models, unpickled copies and
    older pickles; it is replaced, never mutated in place.
    """

    _flat_stacks: dict = {}

    def _cached_stack(self, head, trees, build):
        """``build(trees)``, cached under *head* while the trees last."""
        key = tuple(trees)
        cached = self._flat_stacks.get(head)
        if cached is not None and cached[0] == key:
            return cached[1]
        stack = build(key)
        self._flat_stacks = {**self._flat_stacks, head: (key, stack)}
        return stack

    def __getstate__(self) -> dict:
        # The stacks derive from the trees and roughly double a pickle;
        # an unpickled copy's trees are new objects, so a shipped entry
        # could never hit and a serve hot-swap would leak one per load.
        state = self.__dict__.copy()
        state.pop("_flat_stacks", None)
        return state


def average_gain_importances(trees, n_features: int,
                             kind: str = "gain") -> np.ndarray:
    """Per-feature importances over *trees*, normalized to sum to 1:
    the average split gain (``kind="gain"``, the paper's definition) or
    the split count (``"weight"``), summed tree by tree in order."""
    if kind not in ("gain", "weight"):
        raise ValueError(f"unknown importance kind {kind!r}")
    gains = np.zeros(n_features)
    counts = np.zeros(n_features)
    for tree in trees:
        gains += tree.feature_gains()
        counts += tree.feature_split_counts()
    raw = counts if kind == "weight" else np.where(
        counts > 0, gains / np.maximum(counts, 1), 0.0)
    s = raw.sum()
    return raw / s if s > 0 else raw


def grow_tree(
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

    The tree grows in one call of the native kernel when it is
    available, else in the numpy loop below; the trees are identical.
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
    rows = np.asarray(rows)
    # The kernel takes the inputs on which the loop below neither raises
    # nor wraps an index; on any other input, or without the kernel, the
    # loop runs and behaves as it always has.
    if (Xb.dtype == np.uint8 and n_bins >= 2 and k >= 1
            and rows.ndim == 1 and rows.dtype.kind in "iu"
            and features.ndim == 1 and features.size
            and 0 <= features.min() and features.max() < n_features):
        grown = native.grow_tree(
            Xb[:, features], features, g, h, rows, n_bins,
            params.max_depth, params.min_child_weight, params.reg_lambda,
            params.gamma, params.min_samples_leaf, leaf_scale,
        )
        if grown is not None:
            return Tree._from_arrays(k, n_features, *grown)

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
