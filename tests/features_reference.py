"""Frozen Frame-based feature derivation (golden oracle).

This is the derivation in ``dataset/features.py`` as it stood before the
array kernel replaced it: raw records become a :class:`Frame`, ratio,
magnitude and one-hot columns are attached with ``with_columns``, the
normalizer's ``transform`` z-scores the magnitudes in a second copy, and
``to_matrix`` reads the features back.  It is a test oracle, so it lives
under ``tests/`` and nothing in the ``repro`` package may import it
(enforced by ``tools/check_layering.py``).

``tests/test_features_reference.py`` asserts that
:func:`repro.dataset.features.featurize_records` and
:func:`repro.dataset.features.derive_feature_frame` are bit-equal to
this reference.  Do not optimize or otherwise modify the arithmetic
here; it is the contract the kernel must honor.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.arch.machines import SYSTEM_ORDER
from repro.dataset.features import (
    RAW_FOR_MAGNITUDE,
    RATIO_SOURCES,
    REQUIRED_RECORD_FIELDS,
    FeatureNormalizer,
)
from repro.dataset.schema import ARCH_COLUMNS, MAGNITUDE_FEATURES
from repro.frame import Frame

__all__ = ["derive_feature_frame", "featurize_records", "fit", "transform"]


def fit(frame: Frame) -> FeatureNormalizer:
    """A normalizer fitted on *frame*'s magnitude feature columns."""
    norm = FeatureNormalizer()
    norm.means_ = {}
    norm.stds_ = {}
    for feature in MAGNITUDE_FEATURES:
        values = np.log1p(np.asarray(frame[feature], dtype=np.float64))
        norm.means_[feature] = float(values.mean())
        std = float(values.std())
        norm.stds_[feature] = std if std > 0 else 1.0
    return norm


def transform(norm: FeatureNormalizer, frame: Frame) -> Frame:
    """*frame* with its magnitude feature columns z-scored by *norm*."""
    if norm.means_ is None or norm.stds_ is None:
        raise RuntimeError("transform called before fit")
    if norm._identity:
        return frame
    # One batched copy for all eight columns instead of a full-frame
    # copy per column.
    return frame.with_columns({
        feature: (np.log1p(np.asarray(frame[feature], dtype=np.float64))
                  - norm.means_[feature]) / norm.stds_[feature]
        for feature in MAGNITUDE_FEATURES
    })


def derive_feature_frame(
    records: Frame,
    normalizer: FeatureNormalizer | None = None,
) -> tuple[Frame, FeatureNormalizer]:
    """Turn a frame of raw run records into the 21 model features."""
    total = np.asarray(records["total_instructions"], dtype=np.float64)
    if (total <= 0).any():
        raise ValueError("total_instructions must be positive")
    # All derived columns are computed as whole-column numpy expressions
    # and attached in one batched copy (with_columns), so feature
    # derivation is frame-level work rather than a per-column (or worse,
    # per-row) Python loop.
    derived: dict[str, np.ndarray] = {}
    for feature, raw in RATIO_SOURCES.items():
        derived[feature] = np.asarray(records[raw], dtype=np.float64) / total
    for feature, raw in RAW_FOR_MAGNITUDE.items():
        derived[feature] = np.asarray(records[raw], dtype=np.float64)
    machines = records["machine"].astype(str)
    for system, column in zip(SYSTEM_ORDER, ARCH_COLUMNS):
        derived[column] = (machines == system).astype(np.float64)
    out = records.with_columns(derived)
    if normalizer is None:
        normalizer = fit(out)
    return transform(normalizer, out), normalizer


def featurize_records(
    values: Sequence[Mapping],
    normalizer: FeatureNormalizer | None,
    columns: list[str] | tuple[str, ...],
) -> np.ndarray:
    """Screened ``screen_record`` values -> one row each over *columns*,
    derived in one :func:`derive_feature_frame` call."""
    if normalizer is None:
        raise RuntimeError("record featurized before the normalizer was fit")
    frame = Frame({
        **{name: np.array([v[name] for v in values], dtype=np.float64)
           for name in REQUIRED_RECORD_FIELDS},
        "machine": [v["machine"] for v in values],
    })
    featured, _ = derive_feature_frame(frame, normalizer=normalizer)
    return featured.to_matrix(list(columns))
