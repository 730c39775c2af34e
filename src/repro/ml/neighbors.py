"""k-nearest-neighbors regression.

The paper's related-work section highlights k-NN among the standard ML
techniques used for performance modeling (Section III-A cites its use
for MPI collective tuning).  This implementation rounds out the model
zoo as an instance-based comparator: features are standardized at fit
time and queries run an exact brute-force NumPy search, with uniform or
inverse-distance weighting over the k neighbors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KNeighborsRegressor"]

#: Query rows per distance block: memory stays at a few
#: ``(_QUERY_CHUNK, n_samples)`` float64 arrays however many rows are
#: queried.
_QUERY_CHUNK = 256


def _sum_neighbors(a: np.ndarray) -> np.ndarray:
    """Sum over axis 1 in neighbor order (nearest first)."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


class KNeighborsRegressor:
    """k-NN regression over standardized features.

    Neighbors are ranked by ``(distance, training index)``: among
    equidistant training rows the lower index is nearer, so the result
    is exact and deterministic whatever the ties.

    Parameters
    ----------
    n_neighbors:
        Neighborhood size.
    weights:
        ``"uniform"`` averages neighbors equally; ``"distance"`` weights
        by inverse distance (exact matches dominate).
    """

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform"):
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if weights not in ("uniform", "distance"):
            raise ValueError(f"unknown weights {weights!r}")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self._Xt: np.ndarray | None = None  # standardized, (features, n)
        self._Y: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.n_features_ = 0
        self.n_outputs_ = 0

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "KNeighborsRegressor":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise ValueError(f"bad shapes X={X.shape} Y={Y.shape}")
        if X.shape[0] < self.n_neighbors:
            raise ValueError(
                f"need >= {self.n_neighbors} samples, got {X.shape[0]}"
            )
        self.n_features_ = X.shape[1]
        self.n_outputs_ = Y.shape[1]
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        self._std = std
        self._Xt = np.ascontiguousarray(((X - self._mean) / std).T)
        self._Y = Y.copy()
        return self

    def kneighbors(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and training indices of each row's k neighbors.

        Both are ``(n, k)``, nearest first.  A distance is
        ``sqrt(sum((q - x)**2))`` over the standardized features, summed
        in feature order, so an exact hit is exactly 0; ties go to the
        lower training index.
        """
        if self._Xt is None:
            raise RuntimeError("predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has shape {X.shape}, expected (n, {self.n_features_})"
            )
        Q = (X - self._mean) / self._std
        k = self.n_neighbors
        dist = np.empty((Q.shape[0], k))
        idx = np.empty((Q.shape[0], k), dtype=np.intp)
        for start in range(0, Q.shape[0], _QUERY_CHUNK):
            stop = min(start + _QUERY_CHUNK, Q.shape[0])
            dist[start:stop], idx[start:stop] = self._nearest(Q[start:stop])
        return dist, idx

    def _nearest(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`kneighbors` for one chunk of standardized queries."""
        sq = np.zeros((Q.shape[0], self._Xt.shape[1]))
        diff = np.empty_like(sq)
        for column, train in zip(Q.T, self._Xt):
            np.subtract(column[:, None], train, out=diff)
            diff *= diff
            sq += diff
        d = np.sqrt(sq, out=sq)
        k = self.n_neighbors
        # Candidates: every row no farther than the k-th smallest
        # distance, so ties at the boundary are all in; NaN compares
        # False, which keeps at least k candidates per query.
        kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(~(d > kth))
        # nonzero lists each query's candidates by ascending index, so
        # a sort on (query, distance, index) puts its k nearest first.
        order = np.lexsort((cols, d[rows, cols], rows))
        counts = np.bincount(rows, minlength=Q.shape[0])
        first = np.cumsum(counts) - counts
        take = order[first[:, None] + np.arange(k)]
        return d[rows[take], cols[take]], cols[take]

    def predict(self, X: np.ndarray) -> np.ndarray:
        dist, idx = self.kneighbors(X)
        neighbors = self._Y[idx]  # (n, k, outputs)
        if self.weights == "uniform":
            return _sum_neighbors(neighbors) / self.n_neighbors
        # Inverse-distance weights; exact hits (d == 0) take over.
        with np.errstate(divide="ignore"):
            w = 1.0 / dist
        exact = dist == 0
        w = np.where(exact.any(axis=1, keepdims=True),
                     exact.astype(float), w)
        w = w / _sum_neighbors(w)[:, None]
        return _sum_neighbors(neighbors * w[:, :, None])
