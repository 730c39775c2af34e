"""Feature derivation from run records (Section V-D).

"The instruction related counters ... are all computed to be ratios of
the total number of instructions ...  The remaining eight features are
normalized by subtracting that feature's mean to center its values and
dividing them by its standard deviation."
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.arch.machines import SYSTEM_ORDER
from repro.dataset.schema import (
    ARCH_COLUMNS,
    CONFIG_FEATURES,
    MAGNITUDE_FEATURES,
    RATIO_FEATURES,
)
from repro.frame import Frame

__all__ = [
    "FeatureNormalizer",
    "derive_feature_frame",
    "featurize_record",
    "featurize_records",
    "screen_record",
    "RAW_FOR_MAGNITUDE",
    "RATIO_SOURCES",
    "REQUIRED_RECORD_FIELDS",
]

#: Canonical raw-event field feeding each magnitude feature.
RAW_FOR_MAGNITUDE: dict[str, str] = {
    "l1_load_misses": "l1_load_miss",
    "l1_store_misses": "l1_store_miss",
    "l2_load_misses": "l2_load_miss",
    "l2_store_misses": "l2_store_miss",
    "io_bytes_read": "io_read_bytes",
    "io_bytes_written": "io_write_bytes",
    "ept_size": "ept_bytes",
    "mem_stalls": "mem_stall_cycles",
}

#: Canonical raw-event field feeding each ratio feature's numerator.
RATIO_SOURCES: dict[str, str] = {
    "branch_intensity": "branch",
    "store_intensity": "store",
    "load_intensity": "load",
    "fp_sp_intensity": "fp_sp",
    "fp_dp_intensity": "fp_dp",
    "int_intensity": "int_arith",
}

#: Numeric fields a raw run record must carry (finite) for feature
#: derivation; ``machine`` is additionally required as a string field.
REQUIRED_RECORD_FIELDS: tuple[str, ...] = (
    "total_instructions",
    *RATIO_SOURCES.values(),
    *RAW_FOR_MAGNITUDE.values(),
    *CONFIG_FEATURES,
)


def screen_record(record: Mapping) -> tuple[dict, list[str]]:
    """One raw run record -> ``(values, bad)``, its single screen.

    *values* maps each required counter to its float64 value (NaN when
    missing or non-numeric) and ``machine`` to its string form; *bad*
    names the counters that are not finite, then ``machine`` when the
    record names no system the architecture one-hot encodes (an exact
    ``SYSTEM_ORDER`` name: ``"quartz"`` or a registered non-Table-I
    machine would read all zero).  :func:`featurize_record` raises on a
    bad counter; :class:`repro.resilience.ResilientPredictor` repairs.
    """
    values: dict = {"machine": str(record.get("machine", ""))}
    for name in REQUIRED_RECORD_FIELDS:
        try:
            values[name] = float(record[name])
        except (KeyError, TypeError, ValueError, OverflowError):
            values[name] = math.nan
    bad = [name for name in REQUIRED_RECORD_FIELDS
           if not math.isfinite(values[name])]
    if values["machine"] not in SYSTEM_ORDER:
        bad.append("machine")
    return values, bad


def featurize_records(
    values: Sequence[Mapping],
    normalizer: FeatureNormalizer | None,
    columns: list[str] | tuple[str, ...],
) -> np.ndarray:
    """Screened :func:`screen_record` values -> one row each over
    *columns*, derived in one :func:`derive_feature_frame` call through
    the fitted *normalizer*.  Derivation is column-wise elementwise
    arithmetic, so each row is bit-equal to featurizing it alone."""
    if normalizer is None:
        raise RuntimeError("record featurized before the normalizer was fit")
    frame = Frame({
        **{name: np.array([v[name] for v in values], dtype=np.float64)
           for name in REQUIRED_RECORD_FIELDS},
        "machine": [v["machine"] for v in values],
    })
    featured, _ = derive_feature_frame(frame, normalizer=normalizer)
    return featured.to_matrix(list(columns))


def featurize_record(
    record: dict,
    normalizer: FeatureNormalizer | None,
    columns: list[str] | tuple[str, ...],
) -> np.ndarray:
    """One raw run record -> one feature row over *columns*.

    Screens the record first: raises ``KeyError`` when a required
    counter field or ``machine`` is absent and ``ValueError`` when a
    counter is non-numeric, NaN or ±inf (a truncated or garbled
    measurement), so a broken record can never be binned into a
    confident answer, and ``RuntimeError`` before the *normalizer* is
    fitted.  An unknown machine's one-hot reads all zero.
    """
    values, bad = screen_record(record)
    missing = [f for f in (*REQUIRED_RECORD_FIELDS, "machine")
               if f not in record]
    if missing:
        raise KeyError(f"record is missing counter fields: {sorted(missing)}")
    bad = [f for f in bad if f != "machine"]
    if bad:
        raise ValueError("record has non-numeric or non-finite counter "
                         f"values: {sorted(bad)}")
    return featurize_records([values], normalizer, columns)[0]


class FeatureNormalizer:
    """Z-score normalizer for the eight magnitude features.

    Magnitude counters span many orders of magnitude, so they are
    log1p-transformed before centering/scaling (the paper does not
    specify a transform; without one a single large-IO run dominates
    the scale, which no reasonable pipeline would keep).
    """

    def __init__(self) -> None:
        self.means_: dict[str, float] | None = None
        self.stds_: dict[str, float] | None = None
        self._identity = False

    @classmethod
    def identity(cls) -> "FeatureNormalizer":
        """A fitted no-op normalizer (for already-normalized tables)."""
        norm = cls()
        norm.means_ = {f: 0.0 for f in MAGNITUDE_FEATURES}
        norm.stds_ = {f: 1.0 for f in MAGNITUDE_FEATURES}
        norm._identity = True
        return norm

    def fit(self, frame: Frame) -> "FeatureNormalizer":
        self.means_ = {}
        self.stds_ = {}
        for feature in MAGNITUDE_FEATURES:
            values = np.log1p(np.asarray(frame[feature], dtype=np.float64))
            self.means_[feature] = float(values.mean())
            std = float(values.std())
            self.stds_[feature] = std if std > 0 else 1.0
        return self

    def transform(self, frame: Frame) -> Frame:
        if self.means_ is None or self.stds_ is None:
            raise RuntimeError("transform called before fit")
        if self._identity:
            return frame
        # One batched copy for all eight columns instead of a full-frame
        # copy per column.
        return frame.with_columns({
            feature: (np.log1p(np.asarray(frame[feature], dtype=np.float64))
                      - self.means_[feature]) / self.stds_[feature]
            for feature in MAGNITUDE_FEATURES
        })

    def to_dict(self) -> dict:
        if self.means_ is None or self.stds_ is None:
            raise RuntimeError("normalizer not fitted")
        return {"means": dict(self.means_), "stds": dict(self.stds_)}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureNormalizer":
        norm = cls()
        norm.means_ = {k: float(v) for k, v in data["means"].items()}
        norm.stds_ = {k: float(v) for k, v in data["stds"].items()}
        return norm


def derive_feature_frame(
    records: Frame,
    normalizer: FeatureNormalizer | None = None,
) -> tuple[Frame, FeatureNormalizer]:
    """Turn a frame of raw run records into the 21 model features.

    *records* must contain the canonical event columns produced by
    :func:`repro.hatchet_lite.run_record` plus ``machine``, ``nodes``,
    ``cores``, ``uses_gpu``.  When *normalizer* is None a new one is
    fitted on these records (the paper normalizes over the dataset).

    Returns the augmented frame and the normalizer used.
    """
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
        normalizer = FeatureNormalizer().fit(out)
    return normalizer.transform(out), normalizer
