"""Deterministic, seedable fault injection for the scheduling simulation.

Three fault channels, all drawn from independent named RNG streams so a
run is exactly reproducible given ``(profile, seed)`` and no channel's
draws perturb another's:

* **Node failures** — per machine, a Poisson process with mean
  inter-failure gap ``node_mtbf`` seconds takes one node offline; the
  node returns after an exponential repair time with mean
  ``repair_time``.  If no idle node is available the simulator kills a
  running job to free one (that job is then retried).
* **Job crashes** — each job *attempt* independently crashes with
  probability ``crash_prob`` at a uniform point in its runtime
  (segfault, OOM, network partition mid-run).
* **Counter corruption** — each job's profiled feature vector is, with
  probability ``corruption_prob``, corrupted with NaNs before
  prediction, exercising the :class:`~repro.resilience.degrade.\
ResilientPredictor` degradation chain.

The ``none`` preset injects nothing: the simulator adds no fault
events for it, so a no-fault run is the plain simulation — same
schedule, same event-loop counters — plus a zeroed
``extra["faults"]`` summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfsim.noise import stable_hash
from repro.registry import Registry

__all__ = ["FaultProfile", "FaultInjector", "FAULT_PROFILES"]


@dataclass(frozen=True)
class FaultProfile:
    """Failure-rate parameters for one simulated hostile world.

    ``node_mtbf`` is the mean time between single-node failures *per
    machine* (partition-level, not per-node), in seconds; ``inf``
    disables node failures.
    """

    name: str = "custom"
    node_mtbf: float = float("inf")
    repair_time: float = 600.0
    crash_prob: float = 0.0
    corruption_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.node_mtbf <= 0:
            raise ValueError("node_mtbf must be positive (use inf to disable)")
        if self.repair_time <= 0:
            raise ValueError("repair_time must be positive")
        if not 0.0 <= self.crash_prob < 1.0:
            raise ValueError("crash_prob must be in [0, 1)")
        if not 0.0 <= self.corruption_prob <= 1.0:
            raise ValueError("corruption_prob must be in [0, 1]")

    @property
    def is_null(self) -> bool:
        """True when this profile can never produce a fault."""
        return (
            np.isinf(self.node_mtbf)
            and self.crash_prob == 0.0
            and self.corruption_prob == 0.0
        )

    @classmethod
    def preset(cls, name: str) -> "FaultProfile":
        """Look up one of the named presets (``none``/``light``/``heavy``).

        Raises :class:`repro.errors.UnknownNameError` with did-you-mean
        suggestions on a miss.
        """
        return FAULT_PROFILES[name]


#: The CLI's ``--fault-profile`` choices, in a typed registry so misses
#: carry suggestions instead of a raw KeyError.
FAULT_PROFILES: Registry[FaultProfile] = Registry("fault profile")
FAULT_PROFILES.register("none", FaultProfile(name="none"))
FAULT_PROFILES.register("light", FaultProfile(
    name="light",
    node_mtbf=4 * 3600.0,
    repair_time=900.0,
    crash_prob=0.02,
    corruption_prob=0.05,
))
FAULT_PROFILES.register("heavy", FaultProfile(
    name="heavy",
    node_mtbf=1200.0,
    repair_time=600.0,
    crash_prob=0.12,
    corruption_prob=0.25,
))


class FaultInjector:
    """Draws failure events for one simulation run.

    Per-machine failure/repair gaps come from a dedicated stream per
    machine (seeded by ``(seed, machine name)``), and each job attempt's
    crash decision from a stream keyed by ``(seed, job_id, attempt)`` —
    so event outcomes do not depend on the order the simulator happens
    to ask for them.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        self._machine_rng: dict[str, np.random.Generator] = {}

    @property
    def is_null(self) -> bool:
        return self.profile.is_null

    # -- node failure channel --------------------------------------------
    def _rng_for(self, machine: str) -> np.random.Generator:
        rng = self._machine_rng.get(machine)
        if rng is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    [self.seed, stable_hash("node-fault"), stable_hash(machine)]
                )
            )
            self._machine_rng[machine] = rng
        return rng

    def next_failure_gap(self, machine: str) -> float | None:
        """Seconds until *machine*'s next node failure (None = never)."""
        if np.isinf(self.profile.node_mtbf):
            return None
        return float(self._rng_for(machine).exponential(self.profile.node_mtbf))

    def repair_duration(self, machine: str) -> float:
        """How long the node that just failed stays offline."""
        return max(
            1.0, float(self._rng_for(machine).exponential(self.profile.repair_time))
        )

    # -- job crash channel -----------------------------------------------
    def crash_offset(self, job_id: int, attempt: int, runtime: float) -> float | None:
        """Crash point (seconds into the attempt), or None if it survives."""
        if self.profile.crash_prob == 0.0 or runtime <= 0:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, stable_hash("job-crash"), int(job_id), int(attempt)]
            )
        )
        if rng.random() >= self.profile.crash_prob:
            return None
        return float(runtime * rng.uniform(0.05, 0.95))

    # -- counter corruption channel ----------------------------------------
    def corrupt_features(self, X: np.ndarray) -> np.ndarray:
        """NaN-corrupt a ``corruption_prob`` fraction of feature rows.

        Each afflicted row loses 1..n_features/2 entries — a partial
        counter read, the common real-world failure (PAPI multiplexing
        glitches, truncated measurement files).  Returns a copy; the
        input is never modified.
        """
        X = np.asarray(X, dtype=np.float64)
        if self.profile.corruption_prob == 0.0 or X.size == 0:
            return X
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, stable_hash("corruption")])
        )
        out = X.copy()
        n_rows, n_cols = out.shape
        hit = rng.random(n_rows) < self.profile.corruption_prob
        max_lost = max(1, n_cols // 2)
        for row in np.flatnonzero(hit):
            k = int(rng.integers(1, max_lost + 1))
            cols = rng.choice(n_cols, size=k, replace=False)
            out[row, cols] = np.nan
        return out
