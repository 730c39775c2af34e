"""Decision-tree and random-forest regressors.

These are the paper's scikit-learn comparators ("linear regression and
decision forests", Section VI-A), rebuilt on the shared histogram tree
engine in :mod:`repro.ml.tree`.  A squared-error CART tree is the special
case of the second-order engine with ``g = -y``, ``h = 1``,
``lambda = 0`` — the leaf weight reduces to the group mean and the split
gain to variance reduction.  Multi-output targets get vector leaves with
the gain averaged over outputs.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    Binner,
    FlatEnsemble,
    FlatStackCache,
    Tree,
    TreeParams,
    average_gain_importances,
    grow_tree,
)

__all__ = ["DecisionTreeRegressor", "RandomForestRegressor"]


class DecisionTreeRegressor:
    """Single multi-output CART regression tree (histogram splits).

    Parameters mirror :class:`repro.ml.tree.TreeParams`; ``n_bins``
    controls histogram resolution.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        n_bins: int = 64,
    ):
        self.params = TreeParams(
            max_depth=max_depth,
            min_child_weight=0.0,
            reg_lambda=0.0,
            gamma=0.0,
            min_samples_leaf=min_samples_leaf,
        )
        self.n_bins = n_bins
        self.binner_: Binner | None = None
        self.tree_: Tree | None = None
        self.n_features_ = 0
        self.n_outputs_ = 0

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise ValueError(f"bad shapes X={X.shape} Y={Y.shape}")
        self.n_features_ = X.shape[1]
        self.n_outputs_ = Y.shape[1]
        self.binner_ = Binner(self.n_bins)
        Xb = self.binner_.fit_transform(X)
        # g = -y, h = 1 makes the engine's leaf weight the group mean.
        self.tree_ = grow_tree(
            Xb, -Y, np.ones_like(Y), self.params, self.n_bins
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.tree_ is None or self.binner_ is None:
            raise RuntimeError("predict called before fit")
        Xb = self.binner_.transform(np.asarray(X, dtype=np.float64))
        return self.predict_binned(Xb)

    def predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Predict from pre-binned features (skips ``binner_.transform``)."""
        if self.tree_ is None:
            raise RuntimeError("predict called before fit")
        return self.tree_.predict_binned(np.asarray(Xb))

    def feature_importances(self) -> np.ndarray:
        """Average-gain importances (normalized to sum to 1)."""
        if self.tree_ is None:
            raise RuntimeError("feature_importances called before fit")
        return average_gain_importances([self.tree_], self.n_features_)


class RandomForestRegressor(FlatStackCache):
    """Bagged ensemble of multi-output CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_leaf, n_bins:
        Per-tree growth controls.
    max_features:
        Fraction of features considered per tree (column subsampling);
        1.0 uses all features.
    bootstrap:
        Sample rows with replacement per tree (classic bagging).
    random_state:
        Seed controlling bootstrap and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 10,
        min_samples_leaf: int = 2,
        n_bins: int = 64,
        max_features: float = 1.0,
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < max_features <= 1:
            raise ValueError("max_features must be in (0, 1]")
        self.n_estimators = n_estimators
        self.params = TreeParams(
            max_depth=max_depth,
            min_child_weight=0.0,
            reg_lambda=0.0,
            gamma=0.0,
            min_samples_leaf=min_samples_leaf,
        )
        self.n_bins = n_bins
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.binner_: Binner | None = None
        self.trees_: list[Tree] = []
        self.n_features_ = 0
        self.n_outputs_ = 0

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise ValueError(f"bad shapes X={X.shape} Y={Y.shape}")
        n, f = X.shape
        self.n_features_ = f
        self.n_outputs_ = Y.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.binner_ = Binner(self.n_bins)
        Xb = self.binner_.fit_transform(X)
        G = -Y
        H = np.ones_like(Y)
        self.trees_ = []
        self._flat_stacks = {}
        for _ in range(self.n_estimators):
            rows = rng.integers(0, n, size=n) if self.bootstrap else None
            cols = None
            if self.max_features < 1.0:
                m = max(1, int(round(self.max_features * f)))
                cols = np.sort(rng.choice(f, size=m, replace=False))
            self.trees_.append(
                grow_tree(Xb, G, H, self.params, self.n_bins,
                          rows=rows, feature_subset=cols)
            )
        return self

    #: Forests always carry an uncertainty estimate: the bagging spread.
    has_uncertainty = True

    def predict(self, X: np.ndarray, *, uncertainty: bool = False):
        """Mean prediction over trees; shape ``(n, n_outputs)``.

        Bins *X* once and defers to :meth:`predict_binned`.
        """
        if not self.trees_ or self.binner_ is None:
            raise RuntimeError("predict called before fit")
        Xb = self.binner_.transform(np.asarray(X, dtype=np.float64))
        return self.predict_binned(Xb, uncertainty=uncertainty)

    def predict_binned(self, Xb: np.ndarray, *, uncertainty: bool = False):
        """Mean prediction from pre-binned features; ``(n, n_outputs)``.

        All trees are walked in one flat vectorized pass; the gathered
        leaf values are bit-identical to stacking each tree's own
        ``predict_binned`` output.  With ``uncertainty=True`` returns
        ``(mean, std)`` over trees — the standard bagging uncertainty
        estimate; the mean is the same ``mean(axis=0)`` of the same
        stack, so it is bit-identical to the plain prediction.
        """
        if not self.trees_:
            raise RuntimeError("predict called before fit")
        flat = self._cached_stack(None, self.trees_, FlatEnsemble)
        per_tree = flat.values[flat.predict_leaves(np.asarray(Xb))]
        mean = per_tree.mean(axis=0)
        return (mean, per_tree.std(axis=0)) if uncertainty else mean

    def feature_importances(self) -> np.ndarray:
        """Average-gain importances over all trees (normalized)."""
        if not self.trees_:
            raise RuntimeError("feature_importances called before fit")
        return average_gain_importances(self.trees_, self.n_features_)
