"""The vectorized kNN search is bit-equal to the pure-Python oracle.

:class:`repro.ml.KNeighborsRegressor` searches chunks of query rows
with numpy; ``tests/knn_reference.py`` ranks one query at a time by
``(distance, training index)``.  Distances, neighbor indices and
predictions must agree with ``np.array_equal`` on ties (duplicated
rows, equidistant points), at ``k = 1`` and ``k = n_samples``, on exact
hits under inverse-distance weights, and across chunk boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import KNeighborsRegressor
from repro.ml.neighbors import _QUERY_CHUNK

from tests.knn_reference import reference_knn

WEIGHTS = st.sampled_from(["uniform", "distance"])


def _assert_matches_reference(X, Y, Q, k, weights):
    model = KNeighborsRegressor(k, weights=weights).fit(X, Y)
    dist, idx = model.kneighbors(Q)
    ref_dist, ref_idx, ref_pred = reference_knn(X, Y, Q, k, weights)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(model.predict(Q), ref_pred)


@st.composite
def grid_problems(draw, n_queries=st.integers(1, 12)):
    """Small-integer grids: duplicated rows and equidistant points."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    coords = st.integers(0, 2).map(float)
    X = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    Y = np.array(draw(st.lists(
        st.lists(st.floats(-10, 10), min_size=2, max_size=2),
        min_size=n, max_size=n)))
    m = draw(n_queries)
    # Queries on the same grid: every one is an exact hit or a tie.
    Q = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                               min_size=m, max_size=m)))
    k = draw(st.integers(1, n))
    return X, Y, Q, k


@given(problem=grid_problems(), weights=WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_ties_and_exact_hits_match_reference(problem, weights):
    _assert_matches_reference(*problem, weights)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
       weights=WEIGHTS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_continuous_data_matches_reference(seed, n, weights, data):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4)) * rng.uniform(0.1, 100.0, size=4)
    Y = rng.normal(size=n)
    # Queries include training rows, so distance weighting sees hits.
    Q = np.vstack([rng.normal(size=(5, 4)), X[: data.draw(
        st.integers(0, n))]])
    k = data.draw(st.sampled_from(sorted({1, n, (n + 1) // 2})))
    _assert_matches_reference(X, Y, Q, k, weights)


@given(problem=grid_problems(n_queries=st.just(2 * _QUERY_CHUNK + 3)),
       weights=WEIGHTS)
@settings(max_examples=10, deadline=None)
def test_query_batches_across_chunks_match_reference(problem, weights):
    _assert_matches_reference(*problem, weights)


@pytest.mark.parametrize("weights", ["uniform", "distance"])
def test_k_equals_n_samples_ranks_every_row(weights):
    X = np.array([[0.0], [2.0], [1.0], [2.0], [0.0]])
    y = np.arange(5.0)
    model = KNeighborsRegressor(5, weights=weights).fit(X, y)
    _, idx = model.kneighbors(np.array([[1.0], [0.0]]))
    # Equidistant rows rank by lower training index.
    assert idx.tolist() == [[2, 0, 1, 3, 4], [0, 4, 2, 1, 3]]
    _assert_matches_reference(X, y, np.array([[1.0], [0.0], [5.0]]),
                              5, weights)
