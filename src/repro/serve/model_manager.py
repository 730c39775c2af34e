"""Model lifecycle for the prediction service: load, verify, hot-swap.

The registry is a plain run-dir root (what ``repro train --run-dir``
writes into): each finalized ``train-<confighash12>`` directory holds a
pickled :class:`~repro.core.CrossArchPredictor` plus, when the trainer
wrote one, a ``resilience.json`` with the training-set feature means
and mean RPV that arm the degradation chain's ``imputed``/``mean_rpv``
tiers.  A ``CURRENT`` file at the root names the promoted config hash.

Promotion protocol (zero dropped requests by construction):

1. the publisher finalizes a new train run dir, then atomically writes
   its config hash to ``CURRENT`` (:func:`publish_model`);
2. the manager's watcher notices the hash change, loads **and
   verifies** the new run off to the side — ``verify_run`` re-hashes
   every artifact, so a torn or tampered promotion is detected here,
   not in a request handler;
3. only after the new predictor is fully deserialized and smoke-tested
   does one reference assignment swap it in.  In-flight batches hold
   the old :class:`ActiveModel` object they captured at flush time, so
   they complete on the old model; new batches capture the new one.
   There is no moment at which a request can observe half a model.

Any failure in step 2 (missing dir, unfinalized manifest, checksum
mismatch, orphan files, a garbage pickle) increments
``serve.promote.failed`` and leaves the old model serving — the
watcher retries on the next poll, so a publisher that is *still
writing* converges once it finishes.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.artifacts import LoadedRun, find_run, list_runs, verify_run
from repro.errors import ArtifactError, ReproError, ServeError
from repro.ioutils import atomic_write_text

__all__ = [
    "CURRENT_NAME",
    "RESILIENCE_STATS_NAME",
    "ZEROSHOT_MODEL_NAME",
    "ActiveModel",
    "ModelManager",
    "publish_model",
]

#: Registry-root file naming the promoted config hash.
CURRENT_NAME = "CURRENT"

#: Optional train-run artifact arming the degradation chain.
RESILIENCE_STATS_NAME = "resilience.json"

#: Optional train-run artifact (``repro train --zeroshot``): the
#: descriptor-conditioned predictor that scores machines the RPV model
#: has no slot for.  Loaded alongside the main predictor when present.
ZEROSHOT_MODEL_NAME = "zeroshot.pkl"


def publish_model(registry_root: str | Path, config_hash: str) -> Path:
    """Atomically promote *config_hash* in the registry (write CURRENT).

    The write is temp+fsync+rename, so a watcher reads either the old
    hash or the new one — never a torn line.
    """
    root = Path(registry_root)
    root.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(root / CURRENT_NAME,
                             str(config_hash).strip() + "\n")


class ActiveModel:
    """One fully-loaded, immutable-by-convention serving model.

    Everything a batch needs is captured here so a flush never reads
    mutable manager state: the predictor, the armed degradation chain,
    and the identity (config hash) stamped into every response.
    """

    def __init__(self, predictor, resilient, run: LoadedRun,
                 zeroshot=None):
        self.predictor = predictor
        self.resilient = resilient
        self.run = run
        #: Descriptor-conditioned head for inline-machine requests, or
        #: None when the train run carried no zeroshot.pkl.
        self.zeroshot = zeroshot
        self.config_hash: str = run.config_hash
        self.loaded_at: float = time.monotonic()

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(self.predictor.systems)

    @property
    def n_features(self) -> int:
        return len(self.predictor.feature_columns)

    def describe(self) -> dict:
        """JSON-ready identity block (``/model`` and ``/metrics``)."""
        return {
            "config_hash": self.config_hash,
            "run_dir": str(self.run.path),
            "model": self.predictor.kind,
            "n_features": self.n_features,
            "systems": list(self.systems),
            "degradation_armed": self.resilient.mean_rpv is not None,
            "zeroshot": self.zeroshot is not None,
            "uptime_seconds": round(time.monotonic() - self.loaded_at, 3),
        }


class ModelManager:
    """Loads models by config hash and hot-swaps them atomically."""

    def __init__(self, registry_root: str | Path, poll_interval_s: float = 0.2):
        self.registry_root = Path(registry_root)
        self.poll_interval_s = float(poll_interval_s)
        self._active: ActiveModel | None = None
        self._watch_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def active(self) -> ActiveModel:
        """The serving model (raises until the first load succeeds)."""
        model = self._active
        if model is None:
            raise ServeError("no model loaded", code=503, reason="no-model")
        return model

    @property
    def has_model(self) -> bool:
        return self._active is not None

    # ------------------------------------------------------------------
    def current_hash(self) -> str | None:
        """The hash named by CURRENT, or None (missing/empty file)."""
        path = self.registry_root / CURRENT_NAME
        try:
            text = path.read_text().strip()
        except OSError:
            return None
        return text or None

    def resolve_hash(self, explicit: str | None = None) -> str:
        """The config hash to serve: explicit > CURRENT > the single
        finalized train run in the registry."""
        if explicit:
            return explicit
        published = self.current_hash()
        if published:
            return published
        runs = list_runs(self.registry_root, command="train")
        if len(runs) == 1:
            return runs[0].config_hash
        if not runs:
            raise ServeError(
                f"no finalized train runs under {self.registry_root} and "
                f"no {CURRENT_NAME} file; train with --run-dir first",
                code=503, reason="no-model",
            )
        raise ServeError(
            f"{len(runs)} train runs under {self.registry_root} but no "
            f"{CURRENT_NAME} file; publish one hash or pass --model-hash",
            code=503, reason="ambiguous-model",
        )

    # ------------------------------------------------------------------
    def load_model(self, config_hash: str) -> ActiveModel:
        """Load + verify the run for *config_hash*; typed errors only.

        The run directory is re-hashed end to end (``verify_run``)
        before a byte of it is trusted, so a torn promotion — partial
        copy, truncated manifest, bit rot — fails *here* and the caller
        keeps whatever model it already had.
        """
        run = find_run(self.registry_root, config_hash, command="train")
        verify_run(run.path)
        pickles = [name for name in run.files()
                   if name.endswith(".pkl") and name != ZEROSHOT_MODEL_NAME]
        if len(pickles) != 1:
            raise ArtifactError(
                f"{run.path}: expected exactly one .pkl predictor "
                f"artifact, found {pickles or 'none'}"
            )
        from repro.core.predictor import CrossArchPredictor

        try:
            predictor = CrossArchPredictor.load(run.path / pickles[0])
        except (pickle.UnpicklingError, EOFError, AttributeError,
                TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{run.path}: cannot deserialize {pickles[0]}: {exc}"
            ) from exc
        resilient = self._build_resilient(predictor, run)
        # Smoke test before anyone can route to it: a predictor that
        # cannot answer a zero vector must never be promoted.  The probe
        # asks the model itself, so the chain's tier counters count
        # requests only.
        probe = predictor.predict(np.zeros((1, len(predictor.feature_columns))))
        if probe.shape != (1, len(predictor.systems)):
            raise ArtifactError(
                f"{run.path}: predictor probe returned shape {probe.shape}"
            )
        zeroshot = self._load_zeroshot(run)
        return ActiveModel(predictor, resilient, run, zeroshot=zeroshot)

    @staticmethod
    def _load_zeroshot(run: LoadedRun):
        """Load + smoke-test the optional descriptor-conditioned head.

        A zeroshot.pkl that deserializes into garbage or cannot answer
        a probe row *with uncertainty* fails promotion here — serving a
        zero-shot head that returns null uncertainty would defeat the
        risk-aware scheduling it exists for.
        """
        if ZEROSHOT_MODEL_NAME not in run.files():
            return None
        from repro.arch.descriptor import descriptor_from_spec
        from repro.arch.machines import MACHINES, SYSTEM_ORDER
        from repro.core.zeroshot import DescriptorConditionedPredictor
        from repro.dataset.schema import COUNTER_FEATURES, FEATURE_COLUMNS

        try:
            zeroshot = DescriptorConditionedPredictor.load(
                run.path / ZEROSHOT_MODEL_NAME
            )
        except (pickle.UnpicklingError, EOFError, AttributeError,
                TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{run.path}: cannot deserialize {ZEROSHOT_MODEL_NAME}: "
                f"{exc}"
            ) from exc
        probe_row = np.zeros((1, len(FEATURE_COLUMNS)))
        probe_row[0, len(COUNTER_FEATURES)] = 1.0  # one-hot a source
        probe_desc = descriptor_from_spec(MACHINES[SYSTEM_ORDER[0]])
        try:
            scores, spread = zeroshot.predict_wide(
                probe_row, [probe_desc], uncertainty=True
            )
        except TypeError as exc:
            raise ArtifactError(
                f"{run.path}: {ZEROSHOT_MODEL_NAME} has no uncertainty "
                f"estimate: {exc}"
            ) from exc
        if scores.shape != (1, 1) or spread.shape != (1, 1):
            raise ArtifactError(
                f"{run.path}: zero-shot probe returned shapes "
                f"{scores.shape}/{spread.shape}"
            )
        return zeroshot

    @staticmethod
    def _build_resilient(predictor, run: LoadedRun):
        from repro.resilience.degrade import ResilientPredictor

        stats_path = run.path / RESILIENCE_STATS_NAME
        if RESILIENCE_STATS_NAME in run.files() and stats_path.is_file():
            stats = json.loads(stats_path.read_text())
            return ResilientPredictor(
                predictor=predictor,
                feature_fill=np.asarray(stats["feature_fill"],
                                        dtype=np.float64),
                mean_rpv=np.asarray(stats["mean_rpv"], dtype=np.float64),
            )
        # No training stats in the run: the chain still never fails,
        # but its model-free tier is the coarse heuristic.
        return ResilientPredictor(predictor=predictor)

    # ------------------------------------------------------------------
    def promote(self, config_hash: str) -> bool:
        """Try to make *config_hash* the serving model.

        Returns True on success.  On any typed failure the old model
        stays live, ``serve.promote.failed`` is incremented, and the
        error is swallowed *only if* a model is already serving — the
        very first load has nothing to fall back to and raises.
        """
        active = self._active
        if active is not None and active.config_hash.startswith(
            str(config_hash).strip()
        ):
            return True
        try:
            fresh = self.load_model(config_hash)
        except (ReproError, OSError) as exc:
            telemetry.event("serve.promote.failed",
                            config_hash=str(config_hash),
                            error=type(exc).__name__)
            if active is None:
                raise ServeError(
                    f"cannot load model {config_hash!r}: {exc}",
                    code=503, reason="no-model",
                ) from exc
            return False
        # The swap: one reference assignment.  Batches that captured
        # the old ActiveModel finish on it; nothing is torn down.
        self._active = fresh
        telemetry.event(
            "serve.promote.ok", config_hash=fresh.config_hash,
            previous=active.config_hash if active is not None else None,
        )
        telemetry.gauge("serve.model.loaded_at").set(fresh.loaded_at)
        return True

    # ------------------------------------------------------------------
    async def watch(self) -> None:
        """Poll CURRENT and promote on change (run as an asyncio task).

        A hash that fails to load is retried every poll — the publisher
        may still be finalizing the run dir — and the old model serves
        throughout.
        """
        while True:
            await asyncio.sleep(self.poll_interval_s)
            self.check_registry()

    def check_registry(self) -> bool:
        """One watcher step, callable synchronously from tests: promote
        if CURRENT names a hash other than the serving model's."""
        published = self.current_hash()
        if published is None:
            return False
        active = self._active
        if active is not None and active.config_hash.startswith(published):
            return False
        return self.promote(published)

    def start_watching(self) -> None:
        if self._watch_task is None:
            self._watch_task = asyncio.get_running_loop().create_task(
                self.watch()
            )

    async def stop_watching(self) -> None:
        task, self._watch_task = self._watch_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
