"""DescriptorConditionedPredictor: zero-shot machine scoring.

:class:`~repro.core.predictor.CrossArchPredictor` answers "which of the
four training machines is fastest" — its RPV output is *indexed* by the
frozen ``SYSTEM_ORDER``, so a fifth machine has no slot.  This model
answers the harder question from the generalization literature
(PAPERS.md: Li et al.; Stevens & Klöckner): given a profile and an
explicit :class:`~repro.arch.descriptor.MachineDescriptor`, predict the
time ratio ``t_target / t_source`` for *any* target machine, seen in
training or not.  Rankings over an arbitrary candidate set fall out of
one argsort over those scalars, and the quantile-head/ensemble spread
doubles as a per-machine uncertainty for risk-aware scheduling.

Trained on the schema-v2 long format
(:class:`~repro.dataset.longform.LongformDataset`); scored either on
long feature rows directly or on v1 21-column wide rows via
:meth:`predict_wide`, which expands each row against a descriptor list
(that is the serve path for inline-descriptor requests).
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from repro.arch.descriptor import MachineDescriptor, descriptor_from_spec
from repro.arch.machines import MACHINES, SYSTEM_ORDER
from repro.dataset.features import FeatureNormalizer, featurize_record
from repro.dataset.longform import LongformDataset
from repro.dataset.schema import (
    ARCH_COLUMNS,
    COUNTER_FEATURES,
    FEATURE_COLUMNS,
    LONG_FEATURE_COLUMNS,
)
from repro.ml import MODELS

__all__ = ["DescriptorConditionedPredictor"]

#: Default quantile levels for the boosting uncertainty band.
DEFAULT_QUANTILE_HEADS = (0.25, 0.75)


class DescriptorConditionedPredictor:
    """Predicts ``t_target / t_source`` from counters + machine descriptors.

    Parameters
    ----------
    model:
        Registered model name.  ``"xgboost"`` (default) automatically
        fits quantile heads so ``predict(X, uncertainty=True)`` works;
        ``"forest"`` gets uncertainty from its bagging spread for free.
    random_state, **model_kwargs:
        Forwarded to the model factory.
    """

    def __init__(
        self,
        model: str = "xgboost",
        random_state: int | None = 0,
        **model_kwargs,
    ):
        if model == "xgboost" and "quantile_heads" not in model_kwargs:
            model_kwargs["quantile_heads"] = DEFAULT_QUANTILE_HEADS
        self.kind = model
        self.model = MODELS[model](random_state=random_state,
                                   **model_kwargs)
        self.feature_columns = tuple(LONG_FEATURE_COLUMNS)
        self.normalizer: FeatureNormalizer | None = None
        self.train_targets: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        longform: LongformDataset,
        model: str = "xgboost",
        rows: np.ndarray | None = None,
        **kwargs,
    ) -> "DescriptorConditionedPredictor":
        """Fit on (a subset of) a schema-v2 long-format dataset."""
        predictor = cls(model=model, **kwargs)
        predictor.fit(longform, rows=rows)
        return predictor

    def fit(
        self, longform: LongformDataset, rows: np.ndarray | None = None
    ) -> "DescriptorConditionedPredictor":
        frame = (longform.frame if rows is None
                 else longform.frame.take(rows))
        X = frame.to_matrix(list(longform.feature_columns))
        y = np.asarray(frame[longform.target_column], dtype=np.float64)
        self.model.fit(X, y)
        self.normalizer = longform.normalizer
        self.feature_columns = tuple(longform.feature_columns)
        self.train_targets = tuple(longform.targets)
        return self

    # ------------------------------------------------------------------
    @property
    def has_uncertainty(self) -> bool:
        return bool(getattr(self.model, "has_uncertainty", False))

    def predict(self, X: np.ndarray, *, uncertainty: bool = False):
        """Predicted ``rel_time`` per long feature row, shape ``(n,)``.

        With ``uncertainty=True`` returns ``(rel_time, spread)``, each
        ``(n,)``; the mean is bit-identical to the plain prediction.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_columns):
            raise ValueError(
                f"X has shape {X.shape}, expected "
                f"(n, {len(self.feature_columns)})"
            )
        if not uncertainty:
            return self.model.predict(X)[:, 0]
        if not self.has_uncertainty:
            raise TypeError(
                f"{self.kind} model has no uncertainty estimate"
            )
        mean, spread = self.model.predict(X, uncertainty=True)
        return mean[:, 0], spread[:, 0]

    # ------------------------------------------------------------------
    def _expand_wide(
        self,
        X_wide: np.ndarray,
        machines: "list[MachineDescriptor] | tuple[MachineDescriptor, ...]",
    ) -> np.ndarray:
        """v1 21-column rows × descriptor list → long feature matrix.

        Each wide row contributes ``len(machines)`` long rows (machine
        order preserved); the source descriptor is recovered from the
        row's arch one-hot.
        """
        if not machines:
            raise ValueError("need at least one machine descriptor")
        X_wide = np.asarray(X_wide, dtype=np.float64)
        if X_wide.ndim != 2 or X_wide.shape[1] != len(FEATURE_COLUMNS):
            raise ValueError(
                f"X has shape {X_wide.shape}, expected "
                f"(n, {len(FEATURE_COLUMNS)}) wide feature rows"
            )
        n = X_wide.shape[0]
        n_counter = len(COUNTER_FEATURES)
        counters = X_wide[:, :n_counter]
        onehot = X_wide[:, n_counter:n_counter + len(ARCH_COLUMNS)]
        if not np.isclose(onehot.sum(axis=1), 1.0).all():
            raise ValueError(
                "wide rows must one-hot exactly one source machine"
            )
        src_idx = onehot.argmax(axis=1)
        src_vecs = np.vstack([
            descriptor_from_spec(MACHINES[name]).vector()
            for name in SYSTEM_ORDER
        ])
        tgt_matrix = np.vstack([d.vector() for d in machines])
        m = len(machines)
        return np.hstack([
            np.repeat(counters, m, axis=0),
            np.repeat(src_vecs[src_idx], m, axis=0),
            np.tile(tgt_matrix, (n, 1)),
        ])

    def predict_wide(
        self,
        X_wide: np.ndarray,
        machines: "list[MachineDescriptor] | tuple[MachineDescriptor, ...]",
        *,
        uncertainty: bool = False,
    ):
        """Score v1 wide feature rows against a descriptor list.

        Returns predicted ``t_machine / t_source`` ratios, shape
        ``(n, len(machines))`` — lower is faster, and the machines need
        not have existed at training time.  With ``uncertainty=True``
        returns ``(scores, spread)``, both that shape.
        """
        X_long = self._expand_wide(X_wide, machines)
        m = len(machines)
        if not uncertainty:
            return self.predict(X_long).reshape(-1, m)
        mean, spread = self.predict(X_long, uncertainty=True)
        return mean.reshape(-1, m), spread.reshape(-1, m)

    def score_record(
        self,
        record: dict,
        machines: "list[MachineDescriptor] | tuple[MachineDescriptor, ...]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, spread)`` over *machines* for one raw run record.

        The record is screened like
        :meth:`CrossArchPredictor.predict_record`: a missing counter
        raises ``KeyError`` and a NaN or ±inf one ``ValueError``.
        """
        if self.normalizer is None:
            raise RuntimeError("score_record called before fit")
        row = featurize_record(record, self.normalizer, FEATURE_COLUMNS)
        scores, spread = self.predict_wide(row[None, :], machines,
                                           uncertainty=True)
        return scores[0], spread[0]

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(pickle.dumps(self))

    @classmethod
    def load(cls, path: str | Path) -> "DescriptorConditionedPredictor":
        obj = pickle.loads(Path(path).read_bytes())
        if not isinstance(obj, cls):
            raise TypeError(
                f"{path} does not contain a DescriptorConditionedPredictor"
            )
        return obj
