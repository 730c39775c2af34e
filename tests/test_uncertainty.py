"""The uncertainty protocol threaded through ml -> core -> workload -> sched.

Two invariants the whole refactor hangs on:

* attaching uncertainty NEVER changes the point predictions — the mean
  side of every ``uncertainty=True`` call is **bit-identical**
  (``np.array_equal``, not ``allclose``) to the plain call, so all
  existing figures/benchmarks stay byte-stable;
* the risk-aware strategy degrades gracefully: confident predictions
  reproduce model-based assignment, missing ``rpv_std`` falls back to
  the base margin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictor import CrossArchPredictor
from repro.dataset.schema import FEATURE_COLUMNS
from repro.errors import PackingError
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import RandomForestRegressor
from repro.sched.job import Job
from repro.sched.machines import ClusterState
from repro.sched.strategies import (
    STRATEGIES,
    ModelBasedStrategy,
    RiskAwareStrategy,
    strategy_by_name,
)
from repro.serve.loadgen import synthesize_payloads
from repro.workloads.trace import build_workload


@pytest.fixture(scope="module")
def Xy(small_dataset, split_indices):
    train_rows, test_rows = split_indices
    frame = small_dataset.frame.take(train_rows)
    X = frame.to_matrix(list(FEATURE_COLUMNS))
    Y = frame.to_matrix(list(small_dataset.target_columns))
    X_test = small_dataset.frame.take(test_rows).to_matrix(
        list(FEATURE_COLUMNS)
    )
    return X, Y, X_test


@pytest.fixture(scope="module")
def xgb_with_heads(small_dataset, split_indices) -> CrossArchPredictor:
    train_rows, _ = split_indices
    return CrossArchPredictor.train(
        small_dataset, model="xgboost", rows=train_rows,
        n_estimators=40, max_depth=4,
        quantile_heads=(0.25, 0.75), n_quantile_rounds=40,
    )


class TestBoostingQuantileHeads:
    def test_heads_flip_has_uncertainty(self, Xy):
        X, Y, _ = Xy
        plain = GradientBoostedTrees(n_estimators=5, max_depth=3)
        assert not plain.has_uncertainty
        headed = GradientBoostedTrees(
            n_estimators=5, max_depth=3,
            quantile_heads=(0.25, 0.75), n_quantile_rounds=5,
        ).fit(X[:200], Y[:200])
        assert headed.has_uncertainty

    def test_heads_do_not_change_predictions(self, Xy):
        """The load-bearing exactness claim: quantile heads are fitted
        AFTER the main loop with no shared rng, so the main ensemble —
        and therefore every figure — is bit-identical with or without
        them."""
        X, Y, X_test = Xy
        kwargs = dict(n_estimators=20, max_depth=4, random_state=0)
        plain = GradientBoostedTrees(**kwargs).fit(X, Y)
        headed = GradientBoostedTrees(
            quantile_heads=(0.25, 0.75), n_quantile_rounds=10, **kwargs
        ).fit(X, Y)
        assert np.array_equal(plain.predict(X_test), headed.predict(X_test))

    def test_uncertainty_mean_is_predict(self, Xy):
        X, Y, X_test = Xy
        model = GradientBoostedTrees(
            n_estimators=15, max_depth=4,
            quantile_heads=(0.25, 0.75), n_quantile_rounds=15,
        ).fit(X, Y)
        mean, spread = model.predict(X_test, uncertainty=True)
        assert np.array_equal(mean, model.predict(X_test))
        assert spread.shape == mean.shape
        assert (spread >= 0).all()
        assert spread.any()  # fitted heads actually separate

    def test_uncertainty_without_heads_raises(self, Xy):
        X, Y, X_test = Xy
        model = GradientBoostedTrees(n_estimators=5, max_depth=3)
        model.fit(X[:200], Y[:200])
        with pytest.raises(RuntimeError, match="quantile heads"):
            model.predict(X_test, uncertainty=True)

    @pytest.mark.parametrize("heads,error", [
        ((0.5,), "2 levels"),
        ((0.0, 0.5), "in \\(0, 1\\)"),
        ((0.25, 1.0), "in \\(0, 1\\)"),
        ((0.25, 0.25), "distinct"),
    ])
    def test_constructor_validation(self, heads, error):
        with pytest.raises(ValueError, match=error):
            GradientBoostedTrees(quantile_heads=heads)

    def test_quantile_rounds_validation(self):
        with pytest.raises(ValueError, match="n_quantile_rounds"):
            GradientBoostedTrees(quantile_heads=(0.25, 0.75),
                                 n_quantile_rounds=0)


class TestForestUncertainty:
    def test_ensemble_spread(self, Xy):
        X, Y, X_test = Xy
        forest = RandomForestRegressor(n_estimators=8, max_depth=6,
                                       random_state=0).fit(X, Y)
        assert forest.has_uncertainty
        mean, spread = forest.predict(X_test, uncertainty=True)
        assert np.array_equal(mean, forest.predict(X_test))
        assert (spread >= 0).all() and spread.any()


class TestPredictorThreading:
    def test_has_uncertainty_reflects_model(self, trained_xgb,
                                            xgb_with_heads):
        assert not trained_xgb.has_uncertainty
        assert xgb_with_heads.has_uncertainty

    def test_mean_bit_identical(self, xgb_with_heads, small_dataset,
                                split_indices):
        _, test_rows = split_indices
        X = small_dataset.X()[test_rows]
        mean, spread = xgb_with_heads.predict(X, uncertainty=True)
        assert np.array_equal(mean, xgb_with_heads.predict(X))
        assert spread.shape == mean.shape
        assert (spread >= 0).all()

    def test_packed_mean_bit_identical(self, xgb_with_heads,
                                       small_dataset, split_indices):
        _, test_rows = split_indices
        Xb = xgb_with_heads.pack(small_dataset.X()[test_rows])
        mean, spread = xgb_with_heads.predict_packed(Xb, uncertainty=True)
        assert np.array_equal(mean, xgb_with_heads.predict_packed(Xb))
        assert (spread >= 0).all()

    def test_record_mean_bit_identical(self, xgb_with_heads):
        record = synthesize_payloads(1, seed=3)[0]["record"]
        rpv, spread = xgb_with_heads.predict_record(record,
                                                    uncertainty=True)
        assert np.array_equal(rpv, xgb_with_heads.predict_record(record))
        assert spread.shape == rpv.shape and (spread >= 0).all()

    def test_packed_rejects_wrong_dtype(self, xgb_with_heads,
                                        small_dataset):
        X = small_dataset.X()[:4]
        with pytest.raises(PackingError, match="uint8"):
            xgb_with_heads.predict_packed(X.astype(np.float64),
                                          uncertainty=True)

    def test_packed_rejects_wrong_width(self, xgb_with_heads):
        bad = np.zeros((3, len(FEATURE_COLUMNS) + 2), dtype=np.uint8)
        with pytest.raises(PackingError, match="expected"):
            xgb_with_heads.predict_packed(bad, uncertainty=True)

    def test_plain_xgboost_raises_with_remedy(self, trained_xgb,
                                              small_dataset):
        with pytest.raises(TypeError, match="quantile_heads"):
            trained_xgb.predict(small_dataset.X()[:2], uncertainty=True)


class TestWorkloadUncertainty:
    def test_jobs_carry_rpv_std(self, small_dataset, xgb_with_heads):
        jobs = build_workload(small_dataset, n_jobs=50, seed=11,
                              predictor=xgb_with_heads,
                              with_uncertainty=True)
        for job in jobs:
            assert job.rpv_std is not None
            assert job.rpv_std.shape == job.predicted_rpv.shape
            assert (job.rpv_std >= 0).all()

    def test_flag_never_changes_predicted_rpv(self, small_dataset,
                                              xgb_with_heads):
        """Same seed, same predictor: with_uncertainty must be a pure
        annotation — predicted_rpv stays bit-identical."""
        plain = build_workload(small_dataset, n_jobs=40, seed=5,
                               predictor=xgb_with_heads)
        annotated = build_workload(small_dataset, n_jobs=40, seed=5,
                                   predictor=xgb_with_heads,
                                   with_uncertainty=True)
        for a, b in zip(plain, annotated):
            assert np.array_equal(a.predicted_rpv, b.predicted_rpv)
            assert a.rpv_std is None and b.rpv_std is not None

    def test_requires_predictor(self, small_dataset):
        with pytest.raises(ValueError, match="requires a predictor"):
            build_workload(small_dataset, n_jobs=5,
                           with_uncertainty=True)

    def test_requires_uncertainty_capable_predictor(self, small_dataset,
                                                    trained_xgb):
        with pytest.raises(TypeError, match="quantile_heads"):
            build_workload(small_dataset, n_jobs=5, seed=1,
                           predictor=trained_xgb, with_uncertainty=True)


SYSTEMS = ("Quartz", "Ruby", "Lassen", "Corona")


def _job(job_id, rpv, std=None, nodes=1):
    return Job(
        job_id=job_id, app="lulesh", uses_gpu=False, nodes_required=nodes,
        runtimes={s: 10.0 for s in SYSTEMS},
        predicted_rpv=np.asarray(rpv, dtype=np.float64),
        rpv_std=None if std is None
        else np.asarray(std, dtype=np.float64),
    )


def _cluster(**free):
    """A cluster where each machine's free-node count is controlled by
    pre-occupying the rest of its nodes."""
    totals = {"Quartz": 16, "Ruby": 16, "Lassen": 16, "Corona": 16}
    cluster = ClusterState(totals)
    for name, want_free in free.items():
        used = totals[name] - want_free
        if used:
            cluster.machines[name].start(used, end_time=1e9)
    return cluster


class TestRiskAwareStrategy:
    def test_registered_with_alias(self):
        assert STRATEGIES["risk-aware"] is RiskAwareStrategy
        assert STRATEGIES["risk_aware"] is RiskAwareStrategy
        assert isinstance(strategy_by_name("risk-aware"),
                          RiskAwareStrategy)

    def test_confident_collapses_to_model_based(self):
        """Zero spread -> only the base margin; well-separated RPVs
        make the choice identical to ModelBasedStrategy's."""
        rpv = [0.2, 0.6, 1.0, 1.4]
        job = _job(0, rpv, std=[0.0, 0.0, 0.0, 0.0])
        cluster = _cluster()
        risk = RiskAwareStrategy()
        model = ModelBasedStrategy()
        assert risk.assign(job, 0, cluster) == \
            model.assign(_job(0, rpv), 0, cluster) == "Quartz"

    def test_high_variance_falls_back_to_load_balancing(self):
        """Near-tied RPVs + large spread: the margin swallows the gap
        and the freest (by fraction) machine wins instead of the
        nominal fastest."""
        job = _job(1, [0.50, 0.55, 2.0, 2.0], std=[0.3] * 4)
        cluster = _cluster(Quartz=2, Ruby=14)
        assert RiskAwareStrategy().assign(job, 0, cluster) == "Ruby"
        # Same predictions, no spread: margin is just base_margin
        # (0.02 < the 0.05 gap), so the nominal fastest wins.
        confident = _job(2, [0.50, 0.55, 2.0, 2.0], std=[0.0] * 4)
        assert RiskAwareStrategy().assign(confident, 0, cluster) == "Quartz"

    def test_load_balances_by_fraction_not_count(self):
        """The tie-break uses free-node *fraction*, so a small machine
        that is mostly idle beats a big machine with more absolute free
        nodes but higher utilization."""
        totals = {"Quartz": 100, "Ruby": 10}
        cluster = ClusterState(totals)
        cluster.machines["Quartz"].start(60, end_time=1e9)  # 40 free, 40%
        cluster.machines["Ruby"].start(1, end_time=1e9)     # 9 free, 90%
        job = _job(3, [1.0, 1.0, 1.0, 1.0], std=[1.0] * 4)
        strategy = RiskAwareStrategy(
            systems=("Quartz", "Ruby"),
        )
        assert strategy.assign(job, 0, cluster) == "Ruby"

    def test_margin_scales_with_mean_std(self):
        strategy = RiskAwareStrategy(base_margin=0.02, risk_scale=2.0)
        job = _job(4, [1.0] * 4, std=[0.1, 0.2, 0.3, 0.4])
        margin = strategy._margin(job, ["Quartz", "Ruby"])
        assert margin == pytest.approx(0.02 + 2.0 * 0.15)

    def test_jobs_without_std_use_base_margin(self):
        strategy = RiskAwareStrategy(base_margin=0.07)
        job = _job(5, [1.0] * 4)
        assert job.rpv_std is None
        assert strategy._margin(job, ["Quartz"]) == 0.07
        # And assignment still works end to end.
        assert strategy.assign(job, 0, _cluster()) in SYSTEMS


    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="base_margin"):
            RiskAwareStrategy(base_margin=-0.1)
        with pytest.raises(ValueError, match="risk_scale"):
            RiskAwareStrategy(risk_scale=-1.0)
