"""uint8 packing end-to-end: roundtrip bit-identity, typed rejection,
native-kernel equality, and the flat-cache lifecycle."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.errors import PackingError
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.tree import Binner

_N_FEATURES = 5


def _fit_gbt(seed: int, n_bins: int = 64) -> tuple[GradientBoostedTrees,
                                                   np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, _N_FEATURES))
    Y = rng.normal(size=(300, 2))
    gbt = GradientBoostedTrees(n_estimators=8, max_depth=3, n_bins=n_bins,
                               random_state=seed).fit(X, Y)
    return gbt, X


# ----------------------------------------------------------------------
# Property: pack -> predict_binned is bit-identical to float predict,
# across bin counts (including the uint8 edges 2 and 256) and across
# in-range / out-of-range query values.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 10),
    n_bins=st.sampled_from([2, 3, 64, 255, 256]),
    query_scale=st.sampled_from([0.5, 1.0, 10.0]),
    n_rows=st.integers(1, 40),
)
@settings(max_examples=25, deadline=None)
def test_property_pack_predict_roundtrip(seed, n_bins, query_scale, n_rows):
    gbt, _ = _fit_gbt(seed, n_bins=n_bins)
    rng = np.random.default_rng(seed + 1000)
    Xq = rng.normal(scale=query_scale, size=(n_rows, _N_FEATURES))
    packed = gbt.binner_.transform(Xq)
    assert packed.dtype == np.uint8
    assert packed.shape == Xq.shape
    # Bit-identical, not approximately equal: predict() bins the floats
    # through the very same transform before traversal.
    assert np.array_equal(gbt.predict_binned(packed), gbt.predict(Xq))


@given(n_bins=st.one_of(st.integers(-5, 1), st.integers(257, 400)))
@settings(max_examples=20, deadline=None)
def test_property_bin_count_outside_uint8_rejected(n_bins):
    with pytest.raises(PackingError):
        Binner(n_bins=n_bins)
    # PackingError stays catchable as the ValueError it used to be.
    with pytest.raises(ValueError):
        Binner(n_bins=n_bins)


def test_predictor_pack_rejections():
    from repro.core.predictor import CrossArchPredictor
    from repro.dataset.generate import generate_dataset

    dataset = generate_dataset(inputs_per_app=1, seed=0)
    predictor = CrossArchPredictor.train(dataset, n_estimators=4)
    n_feat = len(predictor.feature_columns)

    with pytest.raises(PackingError, match="shape"):
        predictor.pack(np.zeros((3, n_feat + 1)))
    with pytest.raises(PackingError, match="uint8"):
        predictor.predict_packed(np.zeros((3, n_feat), dtype=np.float64))
    with pytest.raises(PackingError, match="shape"):
        predictor.predict_packed(
            np.zeros((3, n_feat + 2), dtype=np.uint8))

    Xf = dataset.frame.to_matrix(list(predictor.feature_columns))
    packed = predictor.pack(Xf)
    assert np.array_equal(predictor.predict_packed(packed),
                          predictor.predict(Xf))


def test_predictor_pack_requires_binner():
    from repro.core.predictor import CrossArchPredictor
    from repro.dataset.generate import generate_dataset

    dataset = generate_dataset(inputs_per_app=1, seed=0)
    predictor = CrossArchPredictor.train(dataset, model="linear")
    with pytest.raises(PackingError, match="binner"):
        predictor.pack(np.zeros((2, len(predictor.feature_columns))))


# ----------------------------------------------------------------------
# Native routing kernel: equal to the numpy fallback, leaf for leaf.
# ----------------------------------------------------------------------
def test_native_kernel_matches_numpy_fallback():
    gbt, _ = _fit_gbt(3)
    rng = np.random.default_rng(99)
    Xb = gbt.binner_.transform(rng.normal(size=(500, _N_FEATURES)))
    flat, _ = gbt._flat_stack()

    leaves_default = flat.predict_leaves(Xb)
    saved = native._state
    native._state = (None, "forced off for equality test")
    try:
        leaves_numpy = flat.predict_leaves(Xb)
    finally:
        native._state = saved
    assert np.array_equal(leaves_default, leaves_numpy)


def test_native_disable_env(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    saved = native._state
    native._state = None  # force re-resolution under the env var
    try:
        assert not native.available()
        ok = native.route_leaves(
            np.zeros(1, dtype=np.int32), np.zeros(2, dtype=np.int32),
            np.zeros(1, dtype=np.int32),
            np.zeros((1, 1), dtype=np.uint8), 1,
            np.zeros((1, 1), dtype=np.int32),
        )
        assert ok is False  # caller falls back to numpy
        pred = np.zeros((1, 1))
        assert native.accumulate_leaves(
            np.zeros((1, 1), dtype=np.int32), np.ones((1, 1)),
            np.zeros(1, dtype=np.int32), 1, pred,
        ) is False
        assert not pred.any()  # untouched: the fallback adds instead
        assert "REPRO_NATIVE" in native.kernel_info()
    finally:
        native._state = saved


# ----------------------------------------------------------------------
# Flat-cache lifecycle: reuse on same trees, rebuild on refit, and no
# stale entry riding through pickle (the serve hot-swap leak).
# ----------------------------------------------------------------------
def test_flat_cache_reused_and_invalidated_on_refit():
    gbt, X = _fit_gbt(5)
    rng = np.random.default_rng(5)
    Xb = gbt.binner_.transform(X)

    gbt.predict_binned(Xb)
    first = gbt._flat_stacks[None]
    assert first is not None
    gbt.predict_binned(Xb)
    assert gbt._flat_stacks[None] is first  # same trees -> same ensemble

    Y2 = rng.normal(size=(X.shape[0], 2))
    gbt.fit(X, Y2)
    assert None not in gbt._flat_stacks  # refit evicts, no stale traversal
    gbt.predict_binned(gbt.binner_.transform(X))
    assert gbt._flat_stacks[None] is not first


def test_flat_cache_dropped_by_pickle():
    gbt, X = _fit_gbt(6)
    Xb = gbt.binner_.transform(X)
    expected = gbt.predict_binned(Xb)
    assert gbt._flat_stacks[None] is not None  # warmed before the roundtrip

    clone = pickle.loads(pickle.dumps(gbt))
    # The warmed cache must not ride along: unpickled trees are new
    # objects, so a carried entry could never hit and would only leak
    # (one dead FlatEnsemble per serve hot-swap).
    assert "_flat_stacks" not in clone.__dict__
    assert np.array_equal(clone.predict_binned(Xb), expected)


def test_forest_flat_cache_dropped_by_pickle():
    from repro.ml.forest import RandomForestRegressor

    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, _N_FEATURES))
    Y = rng.normal(size=(200, 2))
    rf = RandomForestRegressor(n_estimators=6, max_depth=4,
                               random_state=7).fit(X, Y)
    Xb = rf.binner_.transform(X)
    expected = rf.predict_binned(Xb)
    assert rf._flat_stacks[None] is not None

    clone = pickle.loads(pickle.dumps(rf))
    assert "_flat_stacks" not in clone.__dict__
    assert np.array_equal(clone.predict_binned(Xb), expected)
