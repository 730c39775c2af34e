"""Tests for CrossArchPredictor and the training pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import APPLICATIONS, generate_inputs
from repro.arch import QUARTZ, SYSTEM_ORDER
from repro.core import (
    CrossArchPredictor,
    select_top_features,
    train_all_models,
    train_model,
)
from repro.dataset.schema import FEATURE_COLUMNS
from repro.hatchet_lite import run_record
from repro.ml import mean_absolute_error
from repro.perfsim.config import make_run_config
from repro.profiler import profile_run


class TestPredictor:
    def test_predict_shape(self, small_dataset, trained_xgb):
        X = small_dataset.X()
        pred = trained_xgb.predict(X[:10])
        assert pred.shape == (10, 4)

    def test_wrong_feature_count_rejected(self, trained_xgb):
        with pytest.raises(ValueError):
            trained_xgb.predict(np.zeros((3, 5)))

    def test_learns_better_than_mean(self, small_dataset, trained_xgb,
                                     split_indices):
        _, test_rows = split_indices
        X, Y = small_dataset.X(), small_dataset.Y()
        mean_pred = CrossArchPredictor.train(
            small_dataset, model="mean", rows=split_indices[0]
        )
        mae_xgb = mean_absolute_error(Y[test_rows],
                                      trained_xgb.predict(X[test_rows]))
        mae_mean = mean_absolute_error(Y[test_rows],
                                       mean_pred.predict(X[test_rows]))
        assert mae_xgb < 0.6 * mae_mean

    def test_predict_record_roundtrip(self, small_dataset, trained_xgb):
        """Deployment path: profile a fresh run, predict its RPV."""
        app = APPLICATIONS["CoMD"]
        inp = generate_inputs(app, 1, seed=777)[0]  # unseen input
        config = make_run_config(app, QUARTZ, "1node")
        record = run_record(profile_run(app, inp, QUARTZ, config, seed=123))
        rpv = trained_xgb.predict_record(record)
        assert rpv.shape == (4,)
        assert (rpv > 0).all()

    def test_rank_systems(self, small_dataset, trained_xgb):
        app = APPLICATIONS["CANDLE"]
        inp = generate_inputs(app, 1, seed=55)[0]
        config = make_run_config(app, QUARTZ, "1node")
        record = run_record(profile_run(app, inp, QUARTZ, config, seed=9))
        order = trained_xgb.rank_systems(record)
        assert sorted(order) == sorted(SYSTEM_ORDER)
        # A GPU-dominated tensor code should not rank Quartz fastest.
        assert order[0] != "Quartz"

    def test_predict_record_before_fit(self):
        p = CrossArchPredictor()
        with pytest.raises(RuntimeError):
            p.predict_record({})

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError):
            CrossArchPredictor(model="svm")

    def test_save_load(self, trained_xgb, small_dataset, tmp_path):
        path = tmp_path / "model.pkl"
        trained_xgb.save(path)
        loaded = CrossArchPredictor.load(path)
        X = small_dataset.X()[:5]
        np.testing.assert_array_equal(loaded.predict(X),
                                      trained_xgb.predict(X))

    def test_load_wrong_type(self, tmp_path):
        import pickle
        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a predictor"}))
        with pytest.raises(TypeError):
            CrossArchPredictor.load(path)

    def test_feature_importances_sorted(self, trained_xgb):
        imp = trained_xgb.feature_importances()
        vals = list(imp.values())
        assert vals == sorted(vals, reverse=True)
        assert sum(vals) == pytest.approx(1.0)
        assert set(imp) == set(FEATURE_COLUMNS)

    def test_importances_unavailable_for_linear(self, small_dataset):
        p = CrossArchPredictor.train(small_dataset, model="linear")
        with pytest.raises(TypeError):
            p.feature_importances()

    def test_labeled_importances(self, trained_xgb):
        labeled = trained_xgb.feature_importances_labeled()
        assert "Branch Intensity" in labeled

    def test_predict_with_uncertainty_forest(self, small_dataset):
        predictor = CrossArchPredictor.train(
            small_dataset, model="forest", n_estimators=10, max_depth=8
        )
        X = small_dataset.X()[:20]
        mean, std = predictor.predict(X, uncertainty=True)
        assert mean.shape == std.shape == (20, 4)
        assert (std >= 0).all()
        np.testing.assert_allclose(mean, predictor.predict(X))

    def test_uncertainty_unavailable_for_xgboost(self, trained_xgb,
                                                 small_dataset):
        with pytest.raises(TypeError):
            trained_xgb.predict(small_dataset.X()[:2], uncertainty=True)


class TestTrainingPipeline:
    def test_train_model_protocol(self, small_dataset):
        trained = train_model(small_dataset, model="linear", seed=3,
                              run_cv=True, n_folds=3)
        assert trained.test_mae > 0
        assert 0 <= trained.test_sos <= 1
        assert np.isfinite(trained.cv_mae)
        # 90/10 split
        assert len(trained.test_rows) == round(0.1 * small_dataset.num_rows)

    def test_train_all_models_order_and_split_consistency(self, small_dataset):
        results = train_all_models(small_dataset, seed=5)
        assert list(results) == ["mean", "linear", "forest", "xgboost"]
        rows = {name: tuple(r.test_rows) for name, r in results.items()}
        assert len(set(rows.values())) == 1  # identical splits

    def test_tree_models_beat_linear_beats_mean(self, small_dataset):
        """The Fig. 2 ordering on MAE."""
        results = train_all_models(small_dataset, seed=5)
        assert results["xgboost"].test_mae < results["linear"].test_mae
        assert results["forest"].test_mae < results["linear"].test_mae
        assert results["linear"].test_mae < results["mean"].test_mae

    def test_select_top_features(self, small_dataset, trained_xgb):
        top = select_top_features(trained_xgb, k=8)
        assert len(top) == 8
        imp = trained_xgb.feature_importances()
        assert list(top) == list(imp)[:8]

    def test_select_top_features_bounds(self, trained_xgb):
        with pytest.raises(ValueError):
            select_top_features(trained_xgb, k=0)
        with pytest.raises(ValueError):
            select_top_features(trained_xgb, k=22)

    def test_retrain_on_selected_features(self, small_dataset, trained_xgb):
        """Section VI-B: retraining on the top features still works."""
        top = select_top_features(trained_xgb, k=12)
        trained = train_model(small_dataset, model="xgboost", seed=3,
                              feature_columns=top,
                              n_estimators=40, max_depth=5)
        assert trained.test_mae < 0.2
