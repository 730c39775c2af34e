"""The array featurization kernel against the frozen Frame-based oracle.

``featurize_records`` and ``derive_feature_frame`` share one array
kernel; ``tests/features_reference.py`` holds the derivation it
replaced.  Every answer must be ``np.array_equal`` to the reference and
every derived frame must digest identically, so no trained model, golden
digest or figure can tell the two apart.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dataset.generate as generate
from repro.arch.machines import SYSTEM_ORDER
from repro.core.pipeline import select_top_features
from repro.core.predictor import CrossArchPredictor
from repro.dataset.features import (
    FeatureNormalizer,
    derive_feature_frame,
    featurize_record,
    featurize_records,
    screen_record,
)
from repro.dataset.longform import frame_digest
from repro.dataset.schema import FEATURE_COLUMNS
from repro.serve.loadgen import synthesize_payloads

from . import features_reference as reference


@pytest.fixture(scope="module")
def raw_frame(small_dataset):
    """The raw-record frame behind ``small_dataset``, captured where
    generation hands it to ``derive_feature_frame``."""
    captured = []

    def capture(raw, normalizer=None):
        captured.append(raw)
        return derive_feature_frame(raw, normalizer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "derive_feature_frame", capture)
        again = generate.generate_dataset(inputs_per_app=4, seed=123)
    assert frame_digest(again.frame) == frame_digest(small_dataset.frame)
    [raw] = captured
    return raw


def screened(records, repair: bool) -> list[dict]:
    """Screen values; with *repair*, bad fields get the degradation
    chain's placeholders (clean records pass through either way)."""
    out = []
    for record in records:
        values, bad = screen_record(record)
        if bad and not repair:
            continue
        for name in bad:
            values[name] = SYSTEM_ORDER[0] if name == "machine" else 1.0
        out.append(values)
    return out


@pytest.fixture(scope="module")
def payload_records():
    return [p["record"] for p in synthesize_payloads(
        40, seed=7, degraded_fraction=0.25)]


class TestFeaturizeRecordsOracle:
    @pytest.mark.parametrize("repair", [False, True],
                             ids=["clean", "repaired"])
    @pytest.mark.parametrize("size", [1, 2, 7, 40])
    def test_batch_sizes(self, trained_xgb, payload_records, size, repair):
        records = list(payload_records)
        if repair:
            records[3] = {**records[3], "l2_load_miss": float("nan")}
            records[5] = {**records[5], "machine": "quartz"}
        values = screened(records, repair)
        assert len(values) == (40 if repair else 30)
        normalizer = trained_xgb.normalizer
        for columns in (FEATURE_COLUMNS, trained_xgb.feature_columns):
            for start in range(0, len(values), size):
                chunk = values[start:start + size]
                assert np.array_equal(
                    featurize_records(chunk, normalizer, columns),
                    reference.featurize_records(chunk, normalizer, columns))

    def test_every_small_dataset_row(self, raw_frame, small_dataset):
        records = raw_frame.to_records()
        normalizer = small_dataset.normalizer
        batch = featurize_records(screened(records, False), normalizer,
                                  FEATURE_COLUMNS)
        assert len(batch) == small_dataset.num_rows
        assert np.array_equal(batch, reference.featurize_records(
            screened(records, False), normalizer, FEATURE_COLUMNS))
        assert np.array_equal(batch, small_dataset.X())
        alone = np.array([featurize_record(r, normalizer, FEATURE_COLUMNS)
                          for r in records])
        assert np.array_equal(alone, batch)

    def test_identity_normalizer(self, raw_frame):
        identity = FeatureNormalizer.identity()
        values = screened(raw_frame.to_records()[:40], False)
        assert np.array_equal(
            featurize_records(values, identity, FEATURE_COLUMNS),
            reference.featurize_records(values, identity, FEATURE_COLUMNS))
        ours, _ = derive_feature_frame(raw_frame, normalizer=identity)
        theirs, _ = reference.derive_feature_frame(raw_frame,
                                                   normalizer=identity)
        assert frame_digest(ours) == frame_digest(theirs)

    def test_top_feature_subset_predictor(
        self, trained_xgb, small_dataset, split_indices, payload_records
    ):
        columns = select_top_features(trained_xgb, k=8)
        predictor = CrossArchPredictor.train(
            small_dataset, model="xgboost", rows=split_indices[0],
            feature_columns=columns, n_estimators=10, max_depth=3)
        values = screened(payload_records, False)
        rows = featurize_records(values, predictor.normalizer, columns)
        assert rows.shape == (len(values), 8)
        assert np.array_equal(rows, reference.featurize_records(
            values, predictor.normalizer, columns))
        record = next(r for r in payload_records if not screen_record(r)[1])
        assert np.array_equal(
            predictor.predict_record(record),
            predictor.predict(reference.featurize_records(
                [screen_record(record)[0]], predictor.normalizer,
                columns))[0])


class TestDeriveFeatureFrameOracle:
    def test_generated_frame_digest(self, raw_frame):
        ours, fitted = derive_feature_frame(raw_frame)
        theirs, oracle = reference.derive_feature_frame(raw_frame)
        assert ours.columns == theirs.columns
        assert frame_digest(ours) == frame_digest(theirs)
        assert fitted.to_dict() == oracle.to_dict()

    def test_refit_normalizer_reproduces_the_frame(self, raw_frame,
                                                   small_dataset):
        ours, _ = derive_feature_frame(raw_frame,
                                       normalizer=small_dataset.normalizer)
        theirs, _ = reference.derive_feature_frame(
            raw_frame, normalizer=small_dataset.normalizer)
        assert frame_digest(ours) == frame_digest(theirs)
