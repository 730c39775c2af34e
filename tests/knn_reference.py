"""Pure-Python k-nearest-neighbors reference (golden oracle).

One query at a time: standardize with the fitted mean and spread, take
``sqrt(sum((q - x)**2))`` over the features in order, rank every
training row by ``(distance, training index)`` and keep the first k,
then average the neighbors' targets (uniformly, or by inverse distance
with exact hits taking over).  It is a test oracle, so it lives under
``tests/`` and nothing in the ``repro`` package may import it (enforced
by ``tools/check_layering.py``).

``tests/test_knn_reference.py`` asserts that
:class:`repro.ml.KNeighborsRegressor` is bit-equal to this reference.
Do not optimize or otherwise modify the arithmetic here; it is the
contract the vectorized search must honor.
"""

from __future__ import annotations

import math

import numpy as np


def reference_knn(X_train, Y_train, X_query, k: int,
                  weights: str = "uniform"):
    """``(distances, indices, predictions)`` for every query row."""
    X = np.asarray(X_train, dtype=np.float64)
    Y = np.asarray(Y_train, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    # The fitted statistics are numpy's, as in the model; everything
    # after them is one float operation at a time.
    mean = X.mean(axis=0).tolist()
    std = X.std(axis=0).tolist()
    std = [1.0 if s == 0 else s for s in std]

    def standardize(row):
        return [(x - m) / s for x, m, s in zip(row, mean, std)]

    train = [standardize(row) for row in X.tolist()]
    targets = Y.tolist()
    dists, indices, preds = [], [], []
    for row in np.asarray(X_query, dtype=np.float64).tolist():
        q = standardize(row)
        d = [math.sqrt(sum((a - b) * (a - b) for a, b in zip(q, x)))
             for x in train]
        nearest = sorted(range(len(train)), key=lambda i: (d[i], i))[:k]
        near_d = [d[i] for i in nearest]
        if weights == "uniform":
            w = [1.0] * k
        elif 0.0 in near_d:
            w = [1.0 if di == 0.0 else 0.0 for di in near_d]
        else:
            w = [1.0 / di for di in near_d]
        pred = []
        for out in range(Y.shape[1]):
            if weights == "uniform":
                pred.append(sum(targets[i][out] for i in nearest) / k)
            else:
                total = sum(w)
                pred.append(sum(targets[i][out] * (wi / total)
                                for i, wi in zip(nearest, w)))
        dists.append(near_d)
        indices.append(nearest)
        preds.append(pred)
    return (np.array(dists, dtype=np.float64),
            np.array(indices, dtype=np.intp),
            np.array(preds, dtype=np.float64))
