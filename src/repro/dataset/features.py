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
    FEATURE_COLUMNS,
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
    "FIELD_FEEDS",
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

#: The kernel's index plan: where in a raw row (REQUIRED_RECORD_FIELDS
#: order) each ratio numerator, magnitude and config feature is read.
_AT = {name: i for i, name in enumerate(REQUIRED_RECORD_FIELDS)}
_RATIO_AT = [_AT[RATIO_SOURCES[f]] for f in RATIO_FEATURES]
_MAGNITUDE_AT = [_AT[RAW_FOR_MAGNITUDE[f]] for f in MAGNITUDE_FEATURES]
_CONFIG_AT = [_AT[f] for f in CONFIG_FEATURES]

#: The feature columns each raw field feeds: what a broken field taints.
FIELD_FEEDS: dict[str, tuple[str, ...]] = {
    **{REQUIRED_RECORD_FIELDS[at]: (f,) for at, f in
       zip(_RATIO_AT + _MAGNITUDE_AT + _CONFIG_AT, FEATURE_COLUMNS)},
    "total_instructions": RATIO_FEATURES, "machine": ARCH_COLUMNS,
}


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


def _feature_matrix(raw: np.ndarray, machines: np.ndarray,
                    normalizer: FeatureNormalizer) -> np.ndarray:
    """The one featurization formula: raw float64 rows (fields in
    REQUIRED_RECORD_FIELDS order) and their machine names -> ``(n, 21)``
    features in FEATURE_COLUMNS order.  Every step is elementwise within
    a row, so a row is bit-equal to deriving it alone."""
    total = raw[:, [_AT["total_instructions"]]]
    if (total <= 0).any():
        raise ValueError("total_instructions must be positive")
    return np.hstack([
        raw[:, _RATIO_AT] / total,
        normalizer.scale(raw[:, _MAGNITUDE_AT]),
        raw[:, _CONFIG_AT],
        machines[:, None] == np.array(SYSTEM_ORDER),
    ])


def featurize_records(
    values: Sequence[Mapping],
    normalizer: FeatureNormalizer | None,
    columns: list[str] | tuple[str, ...],
) -> np.ndarray:
    """Screened :func:`screen_record` values -> one row each over
    *columns*, through the fitted *normalizer*."""
    if normalizer is None:
        raise RuntimeError("record featurized before the normalizer was fit")
    raw = np.array([[v[name] for name in REQUIRED_RECORD_FIELDS]
                    for v in values], dtype=np.float64)
    machines = np.array([v["machine"] for v in values], dtype=str)
    return _feature_matrix(raw, machines, normalizer).take(
        [FEATURE_COLUMNS.index(column) for column in columns], axis=1)


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
        return cls.from_dict({"means": dict.fromkeys(MAGNITUDE_FEATURES, 0.0),
                              "stds": dict.fromkeys(MAGNITUDE_FEATURES, 1.0),
                              "identity": True})

    def fit(self, magnitudes: np.ndarray) -> "FeatureNormalizer":
        """Fit on raw ``(n, 8)`` magnitudes (MAGNITUDE_FEATURES order)."""
        self.means_, self.stds_ = {}, {}
        for feature, column in zip(MAGNITUDE_FEATURES, magnitudes.T):
            values = np.log1p(column)
            self.means_[feature] = float(values.mean())
            std = float(values.std())
            self.stds_[feature] = std if std > 0 else 1.0
        return self

    def scale(self, magnitudes: np.ndarray) -> np.ndarray:
        """Raw ``(n, 8)`` magnitudes (MAGNITUDE_FEATURES order) ->
        ``(log1p(x) - mean) / std`` per column; identity keeps them."""
        if self.means_ is None or self.stds_ is None:
            raise RuntimeError("normalizer used before fit")
        if self._identity:
            return magnitudes
        means, stds = ([fitted[f] for f in MAGNITUDE_FEATURES]
                       for fitted in (self.means_, self.stds_))
        return (np.log1p(magnitudes) - means) / stds

    def to_dict(self) -> dict:
        if self.means_ is None or self.stds_ is None:
            raise RuntimeError("normalizer not fitted")
        return {"means": dict(self.means_), "stds": dict(self.stds_),
                **({"identity": True} if self._identity else {})}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureNormalizer":
        norm = cls()
        norm.means_ = {k: float(v) for k, v in data["means"].items()}
        norm.stds_ = {k: float(v) for k, v in data["stds"].items()}
        norm._identity = bool(data.get("identity", False))
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

    Returns the frame with the ratio, magnitude and one-hot columns
    attached (config columns keep their dtype), and the normalizer used.
    """
    raw = records.to_matrix(REQUIRED_RECORD_FIELDS)
    if normalizer is None:
        normalizer = FeatureNormalizer().fit(raw[:, _MAGNITUDE_AT])
    features = _feature_matrix(raw, records["machine"].astype(str),
                               normalizer)
    return records.with_columns({
        column: features[:, j] for j, column in enumerate(FEATURE_COLUMNS)
        if column not in CONFIG_FEATURES
    }), normalizer
