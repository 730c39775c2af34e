"""Regularized gradient tree boosting (from-scratch XGBoost equivalent).

Implements the training objective from Section VI-A of the paper:

    L(theta) = sum_i l(yhat_i, y_i) + sum_k Omega(f_k)

optimized greedily, one tree per boosting round, using the standard
second-order approximation.  Supported loss functions:

* ``"squared"`` — l = 1/2 (yhat - y)^2, the XGBoost default
  (``reg:squarederror``); constant unit hessian.
* ``"pseudo_huber"`` — a smooth approximation of absolute error, matching
  the paper's use of MAE as the minimization objective (exact MAE has a
  zero hessian and cannot be used with second-order boosting; XGBoost
  itself offers ``reg:pseudohubererror`` for the same reason).

Multi-output targets (the 4-component RPVs) are handled with one of two
strategies:

* ``"per_output"`` (default) — an independent tree per output per round,
  which is what running XGBoost 1.7 under a multi-output wrapper does and
  matches the paper's description of averaging gain over outputs when
  reporting importances.
* ``"multi_output_tree"`` — a single tree per round with vector leaves and
  gain averaged across outputs during growth (cheaper; kept for ablation).

Feature importances follow the paper's definition exactly: the *average
gain* of all splits on a feature, across all trees (and averaged over
outputs), normalized to sum to one.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.ml.tree import Binner, FlatEnsemble, Tree, TreeParams, grow_tree

__all__ = ["GradientBoostedTrees"]


class GradientBoostedTrees:
    """Gradient-boosted regression trees with XGBoost-style regularization.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to every leaf weight.
    max_depth, min_child_weight, reg_lambda, gamma, min_samples_leaf:
        Tree growth controls (see :class:`repro.ml.tree.TreeParams`).
    n_bins:
        Histogram resolution for split finding.
    subsample:
        Row subsampling fraction per round (without replacement).
    colsample_bytree:
        Feature subsampling fraction per tree.
    objective:
        ``"squared"`` or ``"pseudo_huber"``.
    huber_delta:
        Transition scale for the pseudo-Huber loss.
    multi_strategy:
        ``"per_output"`` or ``"multi_output_tree"`` (see module docstring).
    random_state:
        Seed for row/column subsampling.
    quantile_heads:
        Optional quantile levels (e.g. ``(0.25, 0.75)``) to fit as
        auxiliary pinball-loss ensembles **after** the main fit.  When
        set, ``predict(X, uncertainty=True)`` also returns the
        inter-quantile half-width as the uncertainty estimate.  The
        heads are trained strictly after (and independently of) the
        main boosting loop — they consume no shared randomness and
        never touch the mean prediction, so enabling them cannot
        perturb ``predict``.
    n_quantile_rounds, quantile_max_depth:
        Size of each quantile head's ensemble (heads are deliberately
        smaller than the main model; they estimate a band, not a mean).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(200, 3))
    >>> y = X[:, 0] * 2 + np.sin(X[:, 1])
    >>> model = GradientBoostedTrees(n_estimators=50, max_depth=3).fit(X, y)
    >>> float(np.abs(model.predict(X)[:, 0] - y).mean()) < 0.2
    True
    """

    #: quantile level -> (trees, FlatEnsemble).  The class-level empty
    #: dict serves unfitted models, unpickled copies (``__getstate__``
    #: drops the cache) and pickles that predate it; it is replaced,
    #: never mutated in place.
    _head_flat_cache: dict[float, tuple[tuple[Tree, ...], FlatEnsemble]] = {}

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_samples_leaf: int = 1,
        n_bins: int = 64,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        objective: str = "squared",
        huber_delta: float = 1.0,
        multi_strategy: str = "per_output",
        random_state: int | None = None,
        quantile_heads: tuple[float, ...] | None = None,
        n_quantile_rounds: int = 100,
        quantile_max_depth: int = 4,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < subsample <= 1 or not 0 < colsample_bytree <= 1:
            raise ValueError("subsample fractions must be in (0, 1]")
        if objective not in ("squared", "pseudo_huber"):
            raise ValueError(f"unknown objective {objective!r}")
        if multi_strategy not in ("per_output", "multi_output_tree"):
            raise ValueError(f"unknown multi_strategy {multi_strategy!r}")
        if quantile_heads is not None:
            quantile_heads = tuple(sorted(float(q) for q in quantile_heads))
            if len(quantile_heads) < 2:
                raise ValueError("quantile_heads needs >= 2 levels")
            if not all(0.0 < q < 1.0 for q in quantile_heads):
                raise ValueError("quantile levels must be in (0, 1)")
            if len(set(quantile_heads)) != len(quantile_heads):
                raise ValueError("quantile levels must be distinct")
        if n_quantile_rounds < 1:
            raise ValueError("n_quantile_rounds must be >= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.params = TreeParams(
            max_depth=max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
            min_samples_leaf=min_samples_leaf,
        )
        self.n_bins = n_bins
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.objective = objective
        self.huber_delta = huber_delta
        self.multi_strategy = multi_strategy
        self.random_state = random_state
        self.quantile_heads = quantile_heads
        self.n_quantile_rounds = n_quantile_rounds
        self.quantile_params = TreeParams(
            max_depth=quantile_max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
            min_samples_leaf=min_samples_leaf,
        )

        self.binner_: Binner | None = None
        self.trees_: list[list[Tree]] = []  # trees_[round] = trees that round
        self.base_score_: np.ndarray | None = None
        self.n_features_: int = 0
        self.n_outputs_: int = 0
        self._single_output_input = False
        # Lazily-built flat stacked ensemble for vectorized prediction,
        # keyed by strong references to the trees themselves so direct
        # trees_ replacement (deserialization, early-stopping
        # truncation, a serve hot-swap) always misses — an id-based key
        # could false-hit when a replaced tree's id is recycled.  Each
        # quantile head's stack is cached the same way, per level, in
        # _head_flat_cache.
        self._flat_cache: tuple[tuple[Tree, ...], FlatEnsemble] | None = None
        #: Per-round metrics recorded during fit: train MAE always, and
        #: validation MAE when an eval_set is supplied.
        self.eval_history_: dict[str, list[float]] = {}
        #: quantile level -> (base score, per-round per-output trees).
        self.quantile_trees_: dict[
            float, tuple[np.ndarray, list[list[Tree]]]
        ] = {}

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
        early_stopping_rounds: int | None = None,
    ) -> "GradientBoostedTrees":
        """Fit the ensemble.

        If *eval_set* ``(X_val, Y_val)`` and *early_stopping_rounds* are
        given, training stops when validation MAE has not improved for
        that many consecutive rounds and the ensemble is truncated to the
        best round.
        """
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        self._single_output_input = Y.ndim == 1
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise ValueError(f"bad shapes X={X.shape} Y={Y.shape}")
        n, f = X.shape
        k = Y.shape[1]
        self.n_features_ = f
        self.n_outputs_ = k
        rng = np.random.default_rng(self.random_state)

        self.binner_ = Binner(self.n_bins)
        Xb = self.binner_.fit_transform(X)
        self.base_score_ = Y.mean(axis=0)
        pred = np.tile(self.base_score_, (n, 1))
        self.trees_ = []
        self._flat_cache = None
        self._head_flat_cache = {}
        self.quantile_trees_ = {}

        val_pack = None
        if eval_set is not None:
            Xv, Yv = eval_set
            Xv = np.asarray(Xv, dtype=np.float64)
            Yv = np.asarray(Yv, dtype=np.float64)
            if Yv.ndim == 1:
                Yv = Yv[:, None]
            Xvb = self.binner_.transform(Xv)
            val_pred = np.tile(self.base_score_, (Xv.shape[0], 1))
            val_pack = (Xvb, Yv, val_pred)
        best_mae = np.inf
        best_round = -1
        stall = 0
        self.eval_history_ = {"train_mae": []}
        if val_pack is not None:
            self.eval_history_["val_mae"] = []

        # One mode check before the loop; the per-round observe is two
        # dict-free method calls when metrics are on, nothing when off.
        round_hist = (
            telemetry.histogram("boost.round_seconds")
            if telemetry.metrics_enabled() else None
        )
        for round_idx in range(self.n_estimators):
            round_t0 = time.perf_counter() if round_hist is not None else 0.0
            g, h = self._grad_hess(pred, Y)
            rows = self._sample_rows(rng, n)
            round_trees: list[Tree] = []
            if self.multi_strategy == "multi_output_tree":
                cols = self._sample_cols(rng, f)
                tree = grow_tree(
                    Xb, g, h, self.params, self.n_bins,
                    rows=rows, feature_subset=cols,
                    leaf_scale=self.learning_rate,
                )
                pred += tree.predict_binned(Xb)
                round_trees.append(tree)
            else:
                for out in range(k):
                    cols = self._sample_cols(rng, f)
                    tree = grow_tree(
                        Xb, g[:, out], h[:, out], self.params, self.n_bins,
                        rows=rows, feature_subset=cols,
                        leaf_scale=self.learning_rate,
                    )
                    pred[:, out] += tree.predict_binned(Xb)[:, 0]
                    round_trees.append(tree)
            self.trees_.append(round_trees)
            self.eval_history_["train_mae"].append(
                float(np.abs(pred - Y).mean())
            )
            if round_hist is not None:
                round_hist.observe(time.perf_counter() - round_t0)

            if val_pack is not None:
                Xvb, Yv, val_pred = val_pack
                if self.multi_strategy == "multi_output_tree":
                    val_pred += round_trees[0].predict_binned(Xvb)
                else:
                    for out, tree in enumerate(round_trees):
                        val_pred[:, out] += tree.predict_binned(Xvb)[:, 0]
                mae = float(np.abs(val_pred - Yv).mean())
                self.eval_history_["val_mae"].append(mae)
                if early_stopping_rounds is not None:
                    if mae < best_mae - 1e-12:
                        best_mae, best_round, stall = mae, round_idx, 0
                    else:
                        stall += 1
                        if stall >= early_stopping_rounds:
                            self.trees_ = self.trees_[: best_round + 1]
                            break
        if self.quantile_heads:
            self._fit_quantile_heads(Xb, Y)
        return self

    def _fit_quantile_heads(self, Xb: np.ndarray, Y: np.ndarray) -> None:
        """Fit one pinball-loss ensemble per requested quantile level.

        Pinball loss ``l_q(y, f) = max(q (y - f), (q - 1)(y - f))`` has
        gradient ``-q`` where the model underestimates and ``1 - q``
        where it overestimates; its true hessian is zero, so we use the
        standard constant-hessian trick (h = 1), which turns each leaf
        weight into a damped step toward the empirical quantile.  Heads
        run after the main loop with no subsampling, so they neither
        consume the shared rng nor alter any main-ensemble tree.
        """
        n = Xb.shape[0]
        for q in self.quantile_heads:
            base = np.quantile(Y, q, axis=0)
            pred = np.tile(base, (n, 1))
            rounds: list[list[Tree]] = []
            for _ in range(self.n_quantile_rounds):
                g = np.where(Y > pred, -q, 1.0 - q)
                h = np.ones_like(Y)
                round_trees: list[Tree] = []
                for out in range(Y.shape[1]):
                    tree = grow_tree(
                        Xb, g[:, out], h[:, out], self.quantile_params,
                        self.n_bins, leaf_scale=self.learning_rate,
                    )
                    pred[:, out] += tree.predict_binned(Xb)[:, 0]
                    round_trees.append(tree)
                rounds.append(round_trees)
            self.quantile_trees_[q] = (base, rounds)

    def predict(self, X: np.ndarray, *, uncertainty: bool = False):
        """Predict targets; always returns shape ``(n, n_outputs)``.

        Bins *X* once and defers to :meth:`predict_binned`, so the
        *uncertainty* flag means the same thing here.
        """
        if self.binner_ is None or self.base_score_ is None:
            raise RuntimeError("predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        return self.predict_binned(self.binner_.transform(X),
                                   uncertainty=uncertainty)

    def predict_binned(self, Xb: np.ndarray, *, uncertainty: bool = False):
        """Predict from a pre-binned feature matrix (``binner_.transform``
        output), skipping the repeated quantile transform when the same
        rows are scored many times.  Returns shape ``(n, n_outputs)``.

        With ``uncertainty=True`` returns ``(mean, spread)``: the mean
        is the plain prediction, bit for bit; the spread is the
        half-width between the highest and lowest fitted quantile
        heads, clipped at zero (crossed quantile estimates collapse to
        zero spread rather than going negative).
        """
        if self.binner_ is None or self.base_score_ is None:
            raise RuntimeError("predict called before fit")
        if uncertainty and not self.quantile_trees_:
            raise RuntimeError(
                "model has no quantile heads; construct with "
                "quantile_heads=(lo, hi) to enable uncertainty"
            )
        Xb = np.asarray(Xb)
        mean = self._accumulate(Xb)
        if not uncertainty:
            return mean
        levels = sorted(self.quantile_trees_)
        lo = self._accumulate(Xb, levels[0])
        hi = self._accumulate(Xb, levels[-1])
        return mean, np.clip((hi - lo) / 2.0, 0.0, None)

    @property
    def has_uncertainty(self) -> bool:
        """True once quantile heads are fitted (uncertainty protocol)."""
        return bool(self.quantile_trees_)

    def _accumulate(self, Xb: np.ndarray,
                    head: float | None = None) -> np.ndarray:
        """The main ensemble's prediction (``head=None``) or quantile
        head *head*'s: its base score plus every round.

        Every tree is traversed in one flat vectorized pass
        (:class:`~repro.ml.tree.FlatEnsemble`); leaf contributions are
        then accumulated round by round in the exact order of the
        per-tree training loop, so results are bit-identical to it
        (numpy reductions would use pairwise summation and drift in the
        last ulp).  A vector-leaf round adds its one tree to every
        output; otherwise tree ``out`` of a round adds to output
        ``out`` (quantile heads are always per-output).
        """
        if head is None:
            base, rounds = self.base_score_, self.trees_
            vector_leaves = self.multi_strategy == "multi_output_tree"
        else:
            (base, rounds), vector_leaves = self.quantile_trees_[head], False
        pred = np.tile(base, (Xb.shape[0], 1))
        if not rounds:
            return pred
        flat = self._flat_ensemble(head)
        leaves = flat.predict_leaves(Xb)
        values = flat.values
        ti = 0
        for round_trees in rounds:
            if vector_leaves:
                pred += values[leaves[ti]]
                ti += 1
            else:
                for out in range(len(round_trees)):
                    pred[:, out] += values[leaves[ti], 0]
                    ti += 1
        return pred

    def _flat_ensemble(self, head: float | None = None) -> FlatEnsemble:
        """The flat stack of the main ensemble (``head=None``) or of
        quantile head *head*, rebuilt whenever its trees change."""
        rounds = self.trees_ if head is None else self.quantile_trees_[head][1]
        key = tuple(t for round_trees in rounds for t in round_trees)
        cached = (self._flat_cache if head is None
                  else self._head_flat_cache.get(head))
        if cached is not None and cached[0] == key:
            return cached[1]
        flat = FlatEnsemble(list(key))
        if head is None:
            self._flat_cache = (key, flat)
        else:
            self._head_flat_cache = {**self._head_flat_cache,
                                     head: (key, flat)}
        return flat

    def __getstate__(self) -> dict:
        # The flat cache is a pure derivation of trees_ and roughly
        # doubles the pickled model size; persisting it would also leave
        # a stale entry on every deserialized copy (the unpickled trees
        # are new objects, so the key can never hit again).  Serve
        # hot-swaps load models via pickle, so shipping the cache would
        # leak one dead FlatEnsemble per swap.
        state = self.__dict__.copy()
        state["_flat_cache"] = None
        state.pop("_head_flat_cache", None)
        return state

    # ------------------------------------------------------------------
    def feature_importances(self, kind: str = "gain") -> np.ndarray:
        """Per-feature importances, normalized to sum to 1.

        ``kind="gain"`` (default) is the paper's definition: the average
        gain across all splits on the feature, over all trees and outputs.
        ``kind="weight"`` counts splits instead (mentioned by the paper as
        biased towards high-cardinality features; provided for comparison).
        """
        if not self.trees_:
            raise RuntimeError("feature_importances called before fit")
        if kind not in ("gain", "weight"):
            raise ValueError(f"unknown importance kind {kind!r}")
        total_gain = np.zeros(self.n_features_)
        total_count = np.zeros(self.n_features_)
        for round_trees in self.trees_:
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

    @property
    def n_trees_(self) -> int:
        """Total number of individual trees in the fitted ensemble."""
        return sum(len(r) for r in self.trees_)

    # ------------------------------------------------------------------
    def _grad_hess(self, pred: np.ndarray, Y: np.ndarray):
        resid = pred - Y
        if self.objective == "squared":
            return resid, np.ones_like(resid)
        # Pseudo-Huber: l = d^2 (sqrt(1 + (r/d)^2) - 1)
        d = self.huber_delta
        scale = np.sqrt(1.0 + (resid / d) ** 2)
        g = resid / scale
        h = 1.0 / scale**3
        return g, h

    def _sample_rows(self, rng: np.random.Generator, n: int) -> np.ndarray | None:
        if self.subsample >= 1.0:
            return None
        m = max(1, int(round(self.subsample * n)))
        return np.sort(rng.choice(n, size=m, replace=False))

    def _sample_cols(self, rng: np.random.Generator, f: int) -> np.ndarray | None:
        if self.colsample_bytree >= 1.0:
            return None
        m = max(1, int(round(self.colsample_bytree * f)))
        return np.sort(rng.choice(f, size=m, replace=False))
