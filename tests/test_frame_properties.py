"""Property-based tests for the frame substrate and feature normalizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.features import (
    RAW_FOR_MAGNITUDE,
    REQUIRED_RECORD_FIELDS,
    FeatureNormalizer,
    derive_feature_frame,
)
from repro.dataset.schema import MAGNITUDE_FEATURES
from repro.frame import Frame, concat

keys = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                max_size=30)


@given(left_keys=keys, right_keys=st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4,
    unique=True,
))
@settings(max_examples=50, deadline=None)
def test_property_inner_join_row_bounds(left_keys, right_keys):
    """Inner-join output has between 0 and len(left) rows when the right
    key column is unique."""
    left = Frame({"k": left_keys,
                  "x": np.arange(len(left_keys), dtype=np.float64)})
    right = Frame({"k": right_keys,
                   "y": np.arange(len(right_keys), dtype=np.float64)})
    joined = left.join(right, on="k", how="inner")
    assert 0 <= joined.num_rows <= left.num_rows
    matched = set(left_keys) & set(right_keys)
    expected = sum(1 for k in left_keys if k in matched)
    assert joined.num_rows == expected


@given(left_keys=keys)
@settings(max_examples=50, deadline=None)
def test_property_left_join_preserves_rows(left_keys):
    left = Frame({"k": left_keys,
                  "x": np.arange(len(left_keys), dtype=np.float64)})
    right = Frame({"k": ["a"], "y": [1.0]})
    joined = left.join(right, on="k", how="left")
    assert joined.num_rows == left.num_rows


@given(
    chunks=st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10),
        min_size=1, max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_concat_lengths_add(chunks):
    frames = [Frame({"v": np.array(c, dtype=np.float64)}) for c in chunks]
    merged = concat(frames)
    assert merged.num_rows == sum(len(c) for c in chunks)
    np.testing.assert_array_equal(
        merged["v"], np.concatenate([np.array(c) for c in chunks])
    )


@given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=25),
       group_count=st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_property_groupby_sum_preserves_total(values, group_count):
    groups = [f"g{i % group_count}" for i in range(len(values))]
    f = Frame({"g": groups, "v": np.array(values, dtype=np.float64)})
    agg = f.groupby("g", {"v": "sum"})
    assert float(np.sum(agg["v"])) == pytest.approx(float(np.sum(values)),
                                                    rel=1e-9, abs=1e-9)


@given(values=st.lists(
    st.tuples(st.sampled_from(["r1", "r2"]), st.sampled_from(["c1", "c2"])),
    min_size=1, max_size=4, unique=True,
))
@settings(max_examples=50, deadline=None)
def test_property_pivot_preserves_values(values):
    rows = [r for r, _ in values]
    cols = [c for _, c in values]
    vals = np.arange(len(values), dtype=np.float64)
    f = Frame({"r": rows, "c": cols, "v": vals})
    wide = f.pivot("r", "c", "v")
    for (r, c), v in zip(values, vals):
        i = list(wide["r"]).index(r)
        assert wide[f"v_{c}"][i] == v


@given(n=st.integers(1, 40), seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_property_take_filter_consistency(n, seed):
    rng = np.random.default_rng(seed)
    f = Frame({"v": rng.normal(size=n)})
    mask = f["v"] > 0
    filtered = f.filter(mask)
    taken = f.take(np.flatnonzero(mask))
    assert filtered == taken


# ---------------------------------------------------------------------------
# Frame subset / column ops
# ---------------------------------------------------------------------------
@given(n=st.integers(1, 30), seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_property_with_columns_equals_chained_with_column(n, seed):
    """The batched column attach is exactly the chained one, including
    replace-in-place ordering."""
    rng = np.random.default_rng(seed)
    f = Frame({"a": rng.normal(size=n), "b": rng.normal(size=n)})
    new = {"b": rng.normal(size=n), "c": rng.normal(size=n),
           "d": rng.normal(size=n)}
    chained = f
    for name, values in new.items():
        chained = chained.with_column(name, values)
    batched = f.with_columns(new)
    assert batched == chained
    assert batched.columns == ["a", "b", "c", "d"]


@given(n=st.integers(1, 30), seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_property_with_columns_leaves_original_untouched(n, seed):
    rng = np.random.default_rng(seed)
    f = Frame({"a": rng.normal(size=n)})
    before = f["a"].copy()
    f.with_columns({"a": rng.normal(size=n), "z": rng.normal(size=n)})
    np.testing.assert_array_equal(f["a"], before)
    assert "z" not in f


@given(n=st.integers(1, 25), seed=st.integers(0, 500),
       picks=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                      max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
def test_property_select_preserves_data_and_order(n, seed, picks):
    rng = np.random.default_rng(seed)
    f = Frame({name: rng.normal(size=n) for name in ["a", "b", "c"]})
    sub = f.select(picks)
    assert sub.columns == picks
    for name in picks:
        np.testing.assert_array_equal(sub[name], f[name])


@given(n=st.integers(1, 25), seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_property_take_then_take_composes(n, seed):
    rng = np.random.default_rng(seed)
    f = Frame({"v": rng.normal(size=n), "s": [f"r{i}" for i in range(n)]})
    first = rng.integers(0, n, size=n)
    second = rng.integers(0, n, size=n)
    assert f.take(first).take(second) == f.take(first[second])


# ---------------------------------------------------------------------------
# FeatureNormalizer
# ---------------------------------------------------------------------------
magnitude_rows = st.lists(
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=40,
)


def _raw_frame(values: list[float], seed: int) -> Frame:
    """Raw run records whose magnitude counters are each a distinct
    permutation of the generated values, so the derived magnitude
    columns are not trivially identical."""
    rng = np.random.default_rng(seed)
    base = np.asarray(values, dtype=np.float64)
    return Frame({
        **{name: np.ones(len(base)) for name in REQUIRED_RECORD_FIELDS},
        **{raw: rng.permutation(base) for raw in RAW_FOR_MAGNITUDE.values()},
        "machine": ["Quartz"] * len(base),
    })


@given(values=magnitude_rows, seed=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_property_normalizer_no_nan_inf_leakage(values, seed):
    out, _ = derive_feature_frame(_raw_frame(values, seed))
    for feature in MAGNITUDE_FEATURES:
        assert np.isfinite(out[feature]).all()


@given(values=magnitude_rows, seed=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_property_normalizer_fit_invariant_to_row_order(values, seed):
    frame = _raw_frame(values, seed)
    rng = np.random.default_rng(seed + 1)
    shuffled = frame.take(rng.permutation(frame.num_rows))
    _, a = derive_feature_frame(frame)
    _, b = derive_feature_frame(shuffled)
    for feature in MAGNITUDE_FEATURES:
        assert a.means_[feature] == pytest.approx(b.means_[feature],
                                                  rel=1e-12, abs=1e-12)
        assert a.stds_[feature] == pytest.approx(b.stds_[feature],
                                                 rel=1e-12, abs=1e-12)


@given(values=magnitude_rows, seed=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_property_normalizer_transform_commutes_with_permutation(values, seed):
    frame = _raw_frame(values, seed)
    _, norm = derive_feature_frame(frame)
    order = np.random.default_rng(seed + 2).permutation(frame.num_rows)
    transformed_then_permuted = derive_feature_frame(frame, norm)[0].take(
        order)
    permuted_then_transformed = derive_feature_frame(frame.take(order),
                                                     norm)[0]
    assert transformed_then_permuted == permuted_then_transformed


@given(values=magnitude_rows, seed=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_property_normalizer_round_trip_recovers_values(values, seed):
    """Inverting the z-score and the log1p recovers the raw magnitudes."""
    frame = _raw_frame(values, seed)
    out, norm = derive_feature_frame(frame)
    for feature, raw_name in RAW_FOR_MAGNITUDE.items():
        raw = np.asarray(frame[raw_name], dtype=np.float64)
        z = np.asarray(out[feature], dtype=np.float64)
        recovered = np.expm1(z * norm.stds_[feature] + norm.means_[feature])
        np.testing.assert_allclose(recovered, raw, rtol=1e-6, atol=1e-6)


@given(values=magnitude_rows, seed=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_property_normalizer_serialization_round_trip(values, seed):
    frame = _raw_frame(values, seed)
    _, norm = derive_feature_frame(frame)
    back = FeatureNormalizer.from_dict(norm.to_dict())
    assert derive_feature_frame(frame, norm)[0] == derive_feature_frame(
        frame, back)[0]
