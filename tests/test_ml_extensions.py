"""Tests for kNN regression and JSON model serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostedTrees,
    KNeighborsRegressor,
    LinearRegression,
    MeanPredictor,
    RandomForestRegressor,
    RidgeRegression,
    load_model,
    mean_absolute_error,
    model_from_dict,
    model_to_dict,
    save_model,
)


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    Y = np.column_stack([np.sin(X[:, 0]), X[:, 1] ** 2])
    return X, Y + 0.02 * rng.normal(size=Y.shape)


class TestKNN:
    def test_one_neighbor_memorizes(self):
        X, Y = _data()
        m = KNeighborsRegressor(n_neighbors=1).fit(X, Y)
        np.testing.assert_allclose(m.predict(X), Y)

    def test_uniform_averaging(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 2.0, 100.0])
        m = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        # Query at 0.4: neighbors are 0.0 and 1.0 -> mean 1.0
        assert m.predict(np.array([[0.4]]))[0, 0] == pytest.approx(1.0)

    def test_distance_weighting_prefers_closer(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 2.0, 100.0])
        uni = KNeighborsRegressor(2, weights="uniform").fit(X, y)
        dist = KNeighborsRegressor(2, weights="distance").fit(X, y)
        q = np.array([[0.1]])
        assert dist.predict(q)[0, 0] < uni.predict(q)[0, 0]

    def test_exact_match_dominates_distance_weights(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 7.0, 9.0])
        m = KNeighborsRegressor(2, weights="distance").fit(X, y)
        assert m.predict(np.array([[1.0]]))[0, 0] == pytest.approx(7.0)

    def test_learns_smooth_function(self):
        X, Y = _data(n=800)
        m = KNeighborsRegressor(n_neighbors=5).fit(X[:600], Y[:600])
        assert mean_absolute_error(Y[600:], m.predict(X[600:])) < 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(n_neighbors=0)
        with pytest.raises(ValueError):
            KNeighborsRegressor(weights="gaussian")
        with pytest.raises(RuntimeError):
            KNeighborsRegressor().predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            KNeighborsRegressor(n_neighbors=10).fit(
                np.zeros((3, 2)), np.zeros(3)
            )

    def test_constant_feature_does_not_crash(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        y = np.arange(20.0)
        m = KNeighborsRegressor(3).fit(X, y)
        assert np.isfinite(m.predict(X)).all()


class TestSerialization:
    @pytest.mark.parametrize("factory", [
        lambda X, Y: GradientBoostedTrees(n_estimators=10, max_depth=3,
                                          random_state=0).fit(X, Y),
        lambda X, Y: GradientBoostedTrees(
            n_estimators=8, multi_strategy="multi_output_tree",
            random_state=0).fit(X, Y),
        lambda X, Y: RandomForestRegressor(n_estimators=5,
                                           random_state=0).fit(X, Y),
        lambda X, Y: DecisionTreeRegressor(max_depth=5).fit(X, Y),
        lambda X, Y: LinearRegression().fit(X, Y),
        lambda X, Y: RidgeRegression(alpha=2.0).fit(X, Y),
        lambda X, Y: MeanPredictor().fit(X, Y),
    ])
    def test_roundtrip_bit_identical(self, factory, tmp_path):
        X, Y = _data()
        model = factory(X, Y)
        restored = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(restored.predict(X), model.predict(X))

    @pytest.mark.parametrize("strategy", ["per_output", "multi_output_tree"])
    def test_quantile_heads_survive_roundtrip(self, strategy):
        import json
        X, Y = _data()
        model = GradientBoostedTrees(
            n_estimators=6, max_depth=3, multi_strategy=strategy,
            quantile_heads=(0.25, 0.75), n_quantile_rounds=5,
            random_state=0).fit(X, Y)
        restored = model_from_dict(json.loads(json.dumps(
            model_to_dict(model))))
        assert restored.has_uncertainty
        assert restored.quantile_heads == model.quantile_heads
        for got, want in zip(restored.predict(X, uncertainty=True),
                             model.predict(X, uncertainty=True)):
            assert np.array_equal(got, want)

    def test_payload_without_heads_loads_without_heads(self):
        X, Y = _data()
        model = GradientBoostedTrees(
            n_estimators=4, quantile_heads=(0.25, 0.75),
            n_quantile_rounds=3, random_state=0).fit(X, Y)
        payload = model_to_dict(model)
        del payload["quantile_heads"]  # as written before heads were saved
        for version in (1, 2):
            restored = model_from_dict({**payload, "format_version": version})
            assert not restored.has_uncertainty
            assert np.array_equal(restored.predict(X), model.predict(X))
        plain = GradientBoostedTrees(n_estimators=4, random_state=0).fit(X, Y)
        assert "quantile_heads" not in model_to_dict(plain)

    def test_save_load_file(self, tmp_path):
        X, Y = _data()
        model = GradientBoostedTrees(n_estimators=5, random_state=0).fit(X, Y)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_array_equal(restored.predict(X), model.predict(X))

    def test_json_is_valid_and_inspectable(self, tmp_path):
        import json
        X, Y = _data()
        model = LinearRegression().fit(X, Y)
        path = tmp_path / "linear.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "linear"
        assert len(doc["coef"]) == 4

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError):
            model_to_dict(LinearRegression())
        with pytest.raises(ValueError):
            model_to_dict(GradientBoostedTrees())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "svm"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict(object())

    def test_gbt_importances_survive_roundtrip(self):
        X, Y = _data()
        model = GradientBoostedTrees(n_estimators=10, random_state=0).fit(X, Y)
        restored = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(
            restored.feature_importances(), model.feature_importances()
        )


@given(seed=st.integers(0, 2000), k=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_property_knn_prediction_in_target_hull(seed, k):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    m = KNeighborsRegressor(n_neighbors=k).fit(X, y)
    pred = m.predict(rng.normal(size=(10, 3)))[:, 0]
    assert (pred >= y.min() - 1e-9).all()
    assert (pred <= y.max() + 1e-9).all()
