"""The native ``grow_tree`` kernel and the numpy loop it falls back to
grow trees bit-identical to the frozen numpy grower.

``reference_grow_tree`` (``tests/tree_reference.py``) is the grower as it
stood before the kernel.  Each property draws a tree-growing problem —
ties and constant columns, 1, 2 or 4 outputs, bin counts from 2 to 256,
row subsets with repeats, feature subsets and the edges of every
hyper-parameter — and requires every node array of ``grow_tree``'s tree
to equal the reference's, bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.serialization import model_to_dict
from repro.ml.tree import TreeParams, grow_tree

from .tree_reference import reference_grow_tree

NODE_ARRAYS = ("_feat", "_thr", "_left", "_right", "_values", "_gain",
               "_n_samples")

needs_kernel = pytest.mark.skipif(not native.available(),
                                  reason="native kernels unavailable")


@contextlib.contextmanager
def _kernel_calls():
    """Count ``native.grow_tree`` calls that grew a tree and that fell
    back (returned None)."""
    calls = {"grown": 0, "fallback": 0}
    original = native.grow_tree

    def counting(*args):
        grown = original(*args)
        calls["fallback" if grown is None else "grown"] += 1
        return grown

    native.grow_tree = counting
    try:
        yield calls
    finally:
        native.grow_tree = original


@contextlib.contextmanager
def _numpy_only():
    saved = native._state
    native._state = (None, "disabled for the fallback test")
    try:
        yield
    finally:
        native._state = saved


def assert_same_tree(got, want):
    for name in NODE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        # Bit-identical: also the sign of zero and every NaN.
        assert a.tobytes() == b.tobytes(), name
    assert got.__dict__.keys() == want.__dict__.keys()
    assert got.n_leaves == want.n_leaves
    assert got.max_depth_reached == want.max_depth_reached
    assert (got.n_outputs, got.n_features) == (want.n_outputs,
                                               want.n_features)


problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 160),
    "n_features": st.integers(1, 6),
    "k": st.sampled_from([1, 2, 4]),
    "n_bins": st.sampled_from([2, 8, 9, 64, 129, 256]),
    "levels": st.sampled_from([1, 2, 3, 5, None]),
    "constant_column": st.booleans(),
    "coarse_targets": st.booleans(),
    "unit_hessians": st.booleans(),
    "rows": st.sampled_from(["all", "bootstrap", "subset"]),
    "feature_subset": st.booleans(),
    "max_depth": st.integers(0, 8),
    "min_child_weight": st.sampled_from([0.0, 0.5, 1.0, 3.0, 12.0]),
    "reg_lambda": st.sampled_from([0.0, 0.3, 1.0]),
    "gamma": st.sampled_from([0.0, 0.0, 0.01, 0.5]),
    "min_samples_leaf": st.sampled_from([0, 1, 2, 7]),
    "leaf_scale": st.sampled_from([1.0, 0.07]),
})


def _grow_both(spec):
    """(grow_tree's tree, reference tree) for one drawn problem."""
    rng = np.random.default_rng(spec["seed"])
    n, f, k, n_bins = (spec["n"], spec["n_features"], spec["k"],
                       spec["n_bins"])
    # Few distinct bins per column make tied split scores likely.
    levels = n_bins if spec["levels"] is None else min(spec["levels"],
                                                       n_bins)
    Xb = rng.integers(0, levels, size=(n, f)).astype(np.uint8)
    Xb += rng.integers(0, n_bins - levels + 1, size=f).astype(np.uint8)
    if spec["constant_column"]:
        Xb[:, rng.integers(f)] = rng.integers(n_bins)
    g = rng.normal(size=(n, k))
    if spec["coarse_targets"]:
        g = np.round(g, 1)
    h = (np.ones((n, k)) if spec["unit_hessians"]
         else rng.uniform(0.05, 2.0, size=(n, k)))
    rows = {
        "all": None,
        "bootstrap": rng.integers(0, n, size=n),
        "subset": np.sort(rng.choice(n, size=max(1, n // 2),
                                     replace=False)),
    }[spec["rows"]]
    features = (np.sort(rng.choice(f, size=rng.integers(1, f + 1),
                                   replace=False))
                if spec["feature_subset"] else None)
    params = TreeParams(
        max_depth=spec["max_depth"],
        min_child_weight=spec["min_child_weight"],
        reg_lambda=spec["reg_lambda"], gamma=spec["gamma"],
        min_samples_leaf=spec["min_samples_leaf"],
    )
    if k == 1 and spec["seed"] % 2:
        g, h = g[:, 0], h[:, 0]  # 1-D targets, as boosting passes them
    args = (Xb, g, h, params, n_bins)
    kwargs = dict(rows=rows, feature_subset=features,
                  leaf_scale=spec["leaf_scale"])
    # reg_lambda=0 leaves 0/0 scores and values that both growers mask
    # or keep as NaN; their warnings are not what is under test.
    with np.errstate(all="ignore"):
        return grow_tree(*args, **kwargs), reference_grow_tree(*args,
                                                               **kwargs)


@needs_kernel
@given(spec=problems)
@settings(max_examples=400, deadline=None)
def test_kernel_matches_reference(spec):
    with _kernel_calls() as calls:
        got, want = _grow_both(spec)
    assert calls == {"grown": 1, "fallback": 0}
    assert_same_tree(got, want)


@given(spec=problems)
@settings(max_examples=60, deadline=None)
def test_numpy_fallback_matches_reference(spec):
    with _numpy_only():
        got, want = _grow_both(spec)
    assert_same_tree(got, want)


def _small_problem():
    rng = np.random.default_rng(3)
    Xb = rng.integers(0, 8, size=(60, 3)).astype(np.uint8)
    y = rng.normal(size=60)
    return Xb, -y, np.ones_like(y), TreeParams(max_depth=3), 8


def test_out_of_range_rows_and_bins_take_the_numpy_loop():
    Xb, g, h, params, n_bins = _small_problem()
    rows = np.array([-1, 0, 5, 5, -60, 59])  # numpy indexing wraps these
    with _kernel_calls() as calls:
        got = grow_tree(Xb, g, h, params, n_bins, rows=rows)
    assert calls["grown"] == 0
    assert_same_tree(got, reference_grow_tree(Xb, g, h, params, n_bins,
                                              rows=rows))
    # A bin code past n_bins lands in the next feature's cells, or past
    # the last feature's, where the loop raises: grow_tree does the same.
    bad = Xb.copy()
    bad[7, 0] = n_bins
    with _kernel_calls() as calls:
        got = grow_tree(bad, g, h, params, n_bins)
    assert calls["grown"] == 0
    assert_same_tree(got, reference_grow_tree(bad, g, h, params, n_bins))
    bad[7, 2] = n_bins
    with pytest.raises(ValueError):
        grow_tree(bad, g, h, params, n_bins)


@needs_kernel
def test_kernel_refuses_arrays_of_different_problems():
    xs, g = np.zeros((4, 2), dtype=np.uint8), np.zeros((4, 1))
    params = (3, 1.0, 1.0, 0.0, 1, 1.0)
    for bad in [
        (xs, np.arange(3), g, g, np.arange(4)),       # 3 features, 2 columns
        (xs, np.arange(2), g, g[:3], np.arange(4)),   # h has 3 rows
        (xs.astype(np.int64), np.arange(2), g, g, np.arange(4)),
    ]:
        with pytest.raises(ValueError):
            native.grow_tree(*bad, 2, *params)


@pytest.mark.parametrize("n_bins", [1, 0])
def test_degenerate_bin_counts_raise_like_the_reference(n_bins):
    Xb, g, h, params, _ = _small_problem()
    Xb = np.zeros_like(Xb)
    with pytest.raises(ValueError):
        reference_grow_tree(Xb, g, h, params, n_bins)
    with pytest.raises(ValueError):
        grow_tree(Xb, g, h, params, n_bins)


def test_empty_feature_subset_raises_like_the_reference():
    Xb, g, h, params, n_bins = _small_problem()
    empty = np.array([], dtype=np.int64)
    with pytest.raises(IndexError):
        reference_grow_tree(Xb, g, h, params, n_bins, feature_subset=empty)
    with pytest.raises(IndexError):
        grow_tree(Xb, g, h, params, n_bins, feature_subset=empty)


def _fits():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 6))
    Y = np.column_stack([X[:, 0] * 2 + X[:, 1], np.sin(X[:, 2]), X[:, 3]])
    Y += 0.1 * rng.normal(size=Y.shape)
    models = [
        GradientBoostedTrees(n_estimators=6, max_depth=5, subsample=0.8,
                             colsample_bytree=0.7, random_state=1),
        GradientBoostedTrees(n_estimators=6, max_depth=9,
                             learning_rate=0.07,
                             multi_strategy="multi_output_tree",
                             random_state=2),
        RandomForestRegressor(n_estimators=4, max_depth=8,
                              max_features=0.5, random_state=3),
        DecisionTreeRegressor(max_depth=6),
    ]
    return [model_to_dict(model.fit(X, Y)) for model in models]


def test_models_fit_the_same_without_the_kernel(monkeypatch, tmp_path):
    """No compiler (PATH empty, fresh cache) or ``REPRO_NATIVE=0``: fits
    raise nothing and serialize to the kernel's models."""
    with_kernel = _fits()
    saved = native._state
    try:
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        native._state = None
        assert _fits() == with_kernel
        assert not native.available()
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native._state = None
        assert _fits() == with_kernel
        assert native.kernel_info() == "disabled via REPRO_NATIVE"
    finally:
        native._state = saved
