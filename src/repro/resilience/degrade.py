"""Graceful degradation for RPV prediction.

A scheduler that calls :meth:`repro.core.CrossArchPredictor.predict_record`
directly dies the moment one job arrives with a truncated counter file,
a NaN in a PAPI field, or after the model pickle failed to load.
:class:`ResilientPredictor` wraps the model behind a four-tier
degradation chain so prediction *always* returns an RPV, each answer
labeled with the tier that produced it:

1. ``model``     — the wrapped model on clean inputs (full quality).
2. ``imputed``   — corrupt/missing fields repaired with training-set
   feature means, then the model (slightly degraded).
3. ``mean_rpv``  — the training-set mean RPV, the paper's Section VI-A
   baseline (coarse but honest).
4. ``heuristic`` — no model and no training stats at all: a fixed
   RPV mimicking the paper's User+RR placement intuition (GPU-capable
   work is assumed much faster on GPU systems, CPU work mildly faster
   on the CPU systems).

Imputation happens in *feature* space: the record is derived with
placeholder values where counters are broken, then every feature
tainted by a broken counter is overwritten with its training-set mean.
This keeps the intact counters contributing real signal instead of
throwing the whole vector away.

The chain is the single tier policy: offline ``predict``/
``predict_record`` and the server's micro-batch flushes all go through
:meth:`ResilientPredictor.predict_batch`, which featurizes a batch's
answerable records in one call and runs the model once.

Tier usage is counted in :attr:`ResilientPredictor.tier_counts` so
experiments can report what fraction of decisions ran degraded
(:func:`repro.sched.metrics.degraded_prediction_fraction`).
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.arch.machines import SYSTEM_ORDER
from repro.core.predictor import CrossArchPredictor
from repro.dataset.features import FIELD_FEEDS, featurize_records, screen_record
from repro.errors import ReproError

__all__ = [
    "ResilientPredictor",
    "PredictionOutcome",
    "CorruptingPredictor",
    "TierSnapshot",
    "degraded_fraction_of",
]

#: Degradation tiers, best first.
TIERS = ("model", "imputed", "mean_rpv", "heuristic")

#: Heuristic RPVs (time ratios, canonical system order) for the last
#: tier: relative times a GPU-capable vs CPU-only code typically shows
#: across CPU (Quartz, Ruby) and GPU (Lassen, Corona) systems.
_HEURISTIC_GPU = {"Quartz": 1.0, "Ruby": 0.85, "Lassen": 0.25, "Corona": 0.3}
_HEURISTIC_CPU = {"Quartz": 0.8, "Ruby": 0.65, "Lassen": 1.0, "Corona": 0.95}


def degraded_fraction_of(tier_counts: Mapping[str, int]) -> float:
    """Fraction of predictions served below the ``model`` tier.

    *tier_counts* maps tier name to usage count; 0.0 when nothing was
    predicted (nothing degraded either).  The one formula behind
    :meth:`ResilientPredictor.degraded_fraction`, :class:`TierSnapshot`
    and :func:`repro.sched.metrics.degraded_prediction_fraction`.
    """
    total = sum(tier_counts.values())
    if total == 0:
        return 0.0
    return 1.0 - tier_counts.get("model", 0) / total


@dataclass
class PredictionOutcome:
    """One prediction plus the tier that served it."""

    rpv: np.ndarray
    tier: str
    repaired: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class TierSnapshot:
    """Point-in-time view of the degradation chain's tier usage.

    Unlike the run-dir telemetry counters (merged only when a run
    finalizes), a snapshot is readable at any moment — the admission
    controller in :mod:`repro.serve` polls one per ``/metrics`` scrape,
    and tests can assert tier transitions mid-stream.
    """

    counts: tuple[tuple[str, int], ...]
    total: int
    degraded_fraction: float

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "TierSnapshot":
        """Snapshot of per-tier *counts* (absent tiers read 0)."""
        return cls(
            counts=tuple((tier, counts.get(tier, 0)) for tier in TIERS),
            total=sum(counts.get(tier, 0) for tier in TIERS),
            degraded_fraction=degraded_fraction_of(counts),
        )

    def count(self, tier: str) -> int:
        return dict(self.counts).get(tier, 0)

    def delta(self, earlier: "TierSnapshot") -> "TierSnapshot":
        """Tier usage between *earlier* and this snapshot."""
        before = dict(earlier.counts)
        return TierSnapshot.of(
            {tier: n - before.get(tier, 0) for tier, n in self.counts}
        )

    def to_dict(self) -> dict:
        """JSON-ready form (what ``/metrics`` serves)."""
        return {
            "counts": dict(self.counts),
            "total": self.total,
            "degraded_fraction": self.degraded_fraction,
        }


class ResilientPredictor:
    """Never-failing RPV prediction with tier-labeled degradation.

    Parameters
    ----------
    predictor:
        The wrapped :class:`CrossArchPredictor`, or None when the model
        is unavailable (tiers 3-4 only).
    feature_fill:
        Per-feature fill values (training-set column means), aligned
        with ``predictor.feature_columns``, used to impute broken
        entries.
    mean_rpv:
        Training-set mean RPV (the tier-3 answer).
    """

    def __init__(
        self,
        predictor: CrossArchPredictor | None = None,
        feature_fill: np.ndarray | None = None,
        mean_rpv: np.ndarray | None = None,
        systems: tuple[str, ...] = SYSTEM_ORDER,
    ):
        self.predictor = predictor
        self.feature_fill = (
            None if feature_fill is None
            else np.asarray(feature_fill, dtype=np.float64)
        )
        self.mean_rpv = (
            None if mean_rpv is None else np.asarray(mean_rpv, dtype=np.float64)
        )
        self.systems = tuple(predictor.systems if predictor else systems)
        self.tier_counts: Counter[str] = Counter()
        if (
            self.predictor is not None
            and self.feature_fill is not None
            and len(self.feature_fill) != len(self.predictor.feature_columns)
        ):
            raise ValueError(
                "feature_fill length does not match predictor features"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_training(
        cls, predictor: CrossArchPredictor, dataset
    ) -> "ResilientPredictor":
        """Build the full chain from a trained predictor and its dataset.

        Fill values are the training-set means of the predictor's
        feature columns; the baseline tier answers the training-set
        mean RPV.
        """
        fill = dataset.frame.to_matrix(
            list(predictor.feature_columns)
        ).mean(axis=0)
        return cls(
            predictor=predictor,
            feature_fill=fill,
            mean_rpv=dataset.Y().mean(axis=0),
        )

    @classmethod
    def load(cls, path: str | Path, dataset=None) -> "ResilientPredictor":
        """Load a saved predictor, degrading instead of raising.

        A missing or unreadable model file yields a chain whose best
        tier is ``mean_rpv`` (when *dataset* supplies statistics) or
        ``heuristic`` (cold start) — prediction keeps working either
        way.
        """
        try:
            predictor = CrossArchPredictor.load(path)
        except (ReproError, ValueError, TypeError, OSError, EOFError,
                AttributeError, pickle.UnpicklingError):
            # Exactly the decoder failures a missing/garbage/stale model
            # file produces — anything else is a genuine bug and raises.
            predictor = None
        if predictor is not None and dataset is not None:
            return cls.from_training(predictor, dataset)
        if dataset is not None:
            return cls(predictor=None, mean_rpv=dataset.Y().mean(axis=0))
        return cls(predictor=predictor)

    # ------------------------------------------------------------------
    def _count(self, tier: str, n: int = 1) -> None:
        """The single accounting point for tier usage: the local counter
        (experiment summaries) and the telemetry counter (run-dir
        metrics) can never disagree."""
        self.tier_counts[tier] += n
        telemetry.counter(f"resilience.tier.{tier}").inc(n)

    def _fallback(self, uses_gpu: np.ndarray) -> tuple[np.ndarray, str]:
        """Model-free answers, one row per ``uses_gpu`` flag, and their
        tier (uncounted)."""
        if self.mean_rpv is not None:
            return np.tile(self.mean_rpv, (len(uses_gpu), 1)), "mean_rpv"
        # Unknown systems (non-Table-I clusters) get a neutral 1.0.
        gpu, cpu = ([table.get(name, 1.0) for name in self.systems]
                    for table in (_HEURISTIC_GPU, _HEURISTIC_CPU))
        return np.where(uses_gpu[:, None], gpu, cpu), "heuristic"

    def baseline(self, uses_gpu: bool = False) -> PredictionOutcome:
        """Answer from the model-free tiers (``mean_rpv``/``heuristic``).

        Public entry point for callers that must *not* touch the model:
        the serving layer's admission controller sheds overload here —
        an O(1) answer instead of a queued model prediction — and the
        tier counters record the degradation honestly.
        """
        rpv, tier = self._fallback(np.array([bool(uses_gpu)]))
        self._count(tier)
        return PredictionOutcome(rpv[0], tier)

    def _answer(self, items) -> tuple[np.ndarray, list[str], list[tuple]]:
        """``(rpv rows, tiers, repaired)`` for *items*: raw run records
        (mappings) and/or feature rows (a 2-D array is all rows).
        Records are screened once, every one the model can take (clean,
        or repaired with placeholders) is featurized in one call,
        tainted features are imputed, and the model runs once."""
        n = len(items)
        is_record = np.zeros(n, dtype=bool)
        if not isinstance(items, np.ndarray):
            is_record[:] = [isinstance(item, Mapping) for item in items]
        rec_at, row_at = np.flatnonzero(is_record), np.flatnonzero(~is_record)
        uses_gpu = np.zeros(n, dtype=bool)
        for i in rec_at:
            uses_gpu[i] = bool(items[i].get("uses_gpu", False))
        on_model = np.zeros(n, dtype=bool)
        dirty = np.zeros(n, dtype=bool)
        repaired: list[tuple] = [()] * n
        Y = np.empty((n, len(self.systems)))
        predictor, fill = self.predictor, self.feature_fill
        if predictor is not None:
            columns = list(predictor.feature_columns)
            X = np.empty((n, len(columns)))
            taint = np.zeros(X.shape, dtype=bool)
            if len(row_at):
                rows = np.array([items[i] for i in row_at], dtype=np.float64)
                X[row_at] = rows
                on_model[row_at] = True
            pending = []
            for i in rec_at:
                values, bad = screen_record(items[i])
                if bad and fill is None:
                    continue
                for name in bad:  # placeholders: tainted, imputed below
                    values[name] = SYSTEM_ORDER[0] if name == "machine" else 1.0
                # Derivation rejects a non-positive total: that record
                # alone drops to the model-free tier, not its batch.
                if values["total_instructions"] > 0:
                    pending.append((i, values, bad))
            if pending:
                at = [i for i, _, _ in pending]
                X[at] = featurize_records([v for _, v, _ in pending],
                                          predictor.normalizer, columns)
                on_model[at] = True
                for i, _, bad in pending:
                    if bad:
                        tainted = set().union(
                            *(FIELD_FEEDS[name] for name in bad))
                        taint[i] = [column in tainted for column in columns]
                        repaired[i] = tuple(sorted(bad))
            # One check over every row the model would take: a NaN/inf
            # feature row, and a clean record whose derived features
            # overflow (a ratio over a tiny total), are imputed too.
            taint[on_model] |= ~np.isfinite(X[on_model])
            dirty = taint.any(axis=1)
            if fill is None:
                on_model &= ~dirty
            else:
                X = np.where(taint, fill, X)  # untainted bits unchanged
            if on_model.any():
                Y[on_model] = predictor.predict(X[on_model])
        base = ~on_model
        Y[base], fallback = self._fallback(uses_gpu[base])
        tiers = np.where(on_model, np.where(dirty, "imputed", "model"),
                         fallback).tolist()
        for tier, k in Counter(tiers).items():
            self._count(tier, k)
        return Y, tiers, repaired

    def predict_batch(self, items) -> list[PredictionOutcome]:
        """One :class:`PredictionOutcome` per raw record and/or feature
        row, in order — what the server answers for each flushed batch.
        A defective item drops down the chain alone; its batch-mates
        keep their tier and their exact answer."""
        Y, tiers, repaired = self._answer(items)
        return [PredictionOutcome(Y[i], tiers[i], repaired[i])
                for i in range(len(tiers))]

    def predict_record_detailed(self, record: dict) -> PredictionOutcome:
        """Predict one raw run record, reporting the tier used.

        Never raises: any defect in *record* (missing keys, NaN/inf or
        non-numeric counters, unknown machine) drops the prediction
        down the chain instead.
        """
        return self.predict_batch([record])[0]

    def predict_record(self, record: dict) -> np.ndarray:
        """Drop-in for :meth:`CrossArchPredictor.predict_record`."""
        return self.predict_record_detailed(record).rpv

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch predict with per-row degradation (drop-in for
        :meth:`CrossArchPredictor.predict`).

        Rows containing non-finite entries are imputed with the
        training feature means (tier ``imputed``); rows beyond repair —
        or every row, when no model is loaded — get the baseline tier.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        return self._answer(X)[0]

    # ------------------------------------------------------------------
    def degraded_fraction(self) -> float:
        """Fraction of predictions served below the ``model`` tier."""
        return degraded_fraction_of(self.tier_counts)

    def summary(self) -> dict[str, int]:
        """Tier usage counts, best tier first."""
        return {tier: self.tier_counts.get(tier, 0) for tier in TIERS}

    def tier_snapshot(self) -> TierSnapshot:
        """A live, immutable :class:`TierSnapshot` of tier usage so far.

        Cheap enough to call per request; two snapshots bracketing a
        window yield the window's transitions via
        :meth:`TierSnapshot.delta`.
        """
        return TierSnapshot.of(self.tier_counts)


class CorruptingPredictor:
    """Experiment adapter: corrupt features with an injector, then predict.

    Lets :func:`repro.workloads.build_workload` exercise the degradation
    chain without knowing about fault injection — it just sees an object
    with ``predict``.
    """

    def __init__(self, resilient: ResilientPredictor, injector):
        self.resilient = resilient
        self.injector = injector

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.resilient.predict(self.injector.corrupt_features(X))
