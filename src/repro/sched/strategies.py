"""Machine-assignment strategies (Section VII).

All strategies implement ``assign(job, index, cluster) -> machine name``
— the paper's ``Machine(j, i, M)`` interface, where *index* is the count
of jobs started so far (Algorithm 1 increments it per ``Start``).

* :class:`RoundRobinStrategy` — rotate machines per started job.
* :class:`RandomStrategy` — uniform random machine, sticky per job.
* :class:`UserRRStrategy` — "mimics typical user behavior": GPU-enabled
  applications round-robin over GPU systems, CPU-only applications over
  CPU-only systems.
* :class:`ModelBasedStrategy` — Algorithm 2: pick the fastest machine
  by predicted RPV; if it has no free nodes, fall through to the next
  fastest, returning the overall fastest when everything is full (so
  the job waits for its best machine).  Note: the paper's pseudocode
  says ``argmax``; RPVs are time ratios so the fastest machine is the
  *argmin* (see :mod:`repro.core.rpv`).

Scheduler protocol
------------------
Beyond ``assign``, strategies may expose two optional attributes the
simulator consults:

* ``release(job_id)`` — called by the scheduler when a job will never
  be assigned again (it started, in fault-free mode; it finished or was
  permanently given up, in failure-aware mode).  Strategies use it to
  evict per-job cache entries, so sticky caches no longer grow without
  bound across a run (or across runs when an instance is reused).
* ``assign_depends`` — declares what the answer of ``assign`` depends
  on, so the scheduler can reuse it instead of asking again:

  - ``"index"``: only the started-job index and the cluster's machine
    names (:class:`RoundRobinStrategy`).  The scheduler asks once per
    index and ends a backfill scan as soon as that machine has no free
    node.
  - ``"job"``: fixed per job once drawn; the first draw may depend on
    the order of first-time calls (an RNG or a rotation advances), but
    never on load or index, so it cannot fail on offline nodes
    (:class:`RandomStrategy`, :class:`UserRRStrategy`).  The scheduler
    asks once per job, in the reference engine's first-call order, and
    keeps the answer until the job is released.
  - ``"load"``: a pure function of the job and the current cluster
    state (the model-based strategies).  The scheduler skips calls
    whose answer provably cannot start a job, e.g. for backfill
    candidates larger than every free block.

  Without the attribute the scheduler makes every call the reference
  engine makes, in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.arch.machines import MACHINES, SYSTEM_ORDER
from repro.registry import Registry
from repro.sched.job import Job
from repro.sched.machines import ClusterState

__all__ = [
    "STRATEGIES",
    "RoundRobinStrategy",
    "RandomStrategy",
    "UserRRStrategy",
    "ModelBasedStrategy",
    "OracleStrategy",
    "UncertaintyAwareStrategy",
    "RiskAwareStrategy",
    "strategy_by_name",
]

#: Machine-assignment strategy classes, keyed by their short CLI names.
#: Classes register themselves with ``@STRATEGIES.register()`` (the name
#: comes from the class's ``name`` attribute); :func:`strategy_by_name`
#: instantiates them, passing ``seed`` to classes that declare
#: ``takes_seed``.
STRATEGIES: Registry = Registry("strategy")


@STRATEGIES.register()
class RoundRobinStrategy:
    """Rotate across all machines by started-job index."""

    name = "round_robin"
    assign_depends = "index"

    def assign(self, job: Job, index: int, cluster: ClusterState) -> str:
        names = cluster.names
        return names[index % len(names)]


@STRATEGIES.register()
class RandomStrategy:
    """Uniform random machine, deterministic and sticky per job id.

    Each first-time assignment draws from a shared RNG, so the order of
    first-time calls determines the outcome.  Entries are evicted via
    :meth:`release` once the scheduler guarantees the job will never be
    assigned again, bounding the cache to the in-flight job set.
    """

    name = "random"
    takes_seed = True
    assign_depends = "job"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._cache: dict[int, str] = {}

    def assign(self, job: Job, index: int, cluster: ClusterState) -> str:
        choice = self._cache.get(job.job_id)
        if choice is None:
            names = cluster.names
            choice = names[int(self._rng.integers(len(names)))]
            self._cache[job.job_id] = choice
        return choice

    def release(self, job_id: int) -> None:
        """Evict the sticky choice for a job that is permanently placed."""
        self._cache.pop(job_id, None)


@STRATEGIES.register()
class UserRRStrategy:
    """GPU apps round-robin over GPU systems, CPU apps over CPU systems.

    Like :class:`RandomStrategy`, first-time assignments advance shared
    rotation counters, so the order of first-time calls matters, and
    sticky entries are evicted via :meth:`release`.
    """

    name = "user_rr"
    assign_depends = "job"

    def __init__(self) -> None:
        self._gpu_index = 0
        self._cpu_index = 0
        self._cache: dict[int, str] = {}

    def assign(self, job: Job, index: int, cluster: ClusterState) -> str:
        # Sticky per job so scheduler retries do not advance the rotation.
        choice = self._cache.get(job.job_id)
        if choice is not None:
            return choice
        gpu_names = [
            n for n in cluster.names
            if n in MACHINES and MACHINES[n].has_gpu
        ]
        cpu_names = [
            n for n in cluster.names
            if n not in MACHINES or not MACHINES[n].has_gpu
        ]
        if job.uses_gpu and gpu_names:
            choice = gpu_names[self._gpu_index % len(gpu_names)]
            self._gpu_index += 1
        else:
            pool = cpu_names or cluster.names
            choice = pool[self._cpu_index % len(pool)]
            self._cpu_index += 1
        self._cache[job.job_id] = choice
        return choice

    def release(self, job_id: int) -> None:
        """Evict the sticky choice for a job that is permanently placed."""
        self._cache.pop(job_id, None)


@STRATEGIES.register()
class ModelBasedStrategy:
    """Algorithm 2: fastest predicted machine with full-machine fallback.

    A job's machine-preference order (its RPV argsort restricted to the
    cluster's machines) is a pure function of the job, so it is computed
    once and memoized — the scheduler re-consults the strategy on every
    wake-up while a job waits for its best machine, which made the
    per-call sort the hottest code in the whole simulation.  The memo is
    keyed by job id, invalidated wholesale when a different cluster
    object shows up (candidate machines could differ), and evicted per
    job via :meth:`release`.
    """

    name = "model"
    #: Which RPV each job carries for this strategy.
    rpv_attr = "predicted_rpv"
    assign_depends = "load"  # the memo is a pure cache of the job's RPVs

    def __init__(self, systems: tuple[str, ...] = SYSTEM_ORDER):
        self.systems = tuple(systems)
        self._sys_index = {s: i for i, s in enumerate(self.systems)}
        self._cluster: ClusterState | None = None
        self._candidates: list[str] = []
        # job_id -> (preference-ordered MachineState list, rpv values)
        self._pref_cache: dict[int, tuple[list, dict[str, float]]] = {}

    def _preferences(
        self, job: Job, cluster: ClusterState
    ) -> tuple[list, dict[str, float]]:
        if cluster is not self._cluster:
            # New cluster object: the candidate set may differ, so every
            # memoized order is suspect.  Holding a strong reference
            # also guarantees `is` cannot alias a garbage-collected
            # cluster's recycled id.
            self._pref_cache.clear()
            self._cluster = cluster
            self._candidates = [
                s for s in self.systems if s in cluster.machines
            ]
        if not self._candidates:
            raise RuntimeError("no strategy systems present in cluster")
        cached = self._pref_cache.get(job.job_id)
        if cached is not None:
            return cached
        rpv = getattr(job, self.rpv_attr)
        if rpv is None:
            raise ValueError(
                f"job {job.job_id} lacks {self.rpv_attr}; build the workload "
                "with a predictor attached"
            )
        rpv = np.asarray(rpv, dtype=np.float64)
        idx = self._sys_index
        values = {s: float(rpv[idx[s]]) for s in self._candidates}
        order = sorted(self._candidates, key=values.__getitem__)
        machines = cluster.machines
        cached = ([machines[s] for s in order], values)
        self._pref_cache[job.job_id] = cached
        return cached

    def assign(self, job: Job, index: int, cluster: ClusterState) -> str:
        # Memo fast path inlined: the simulator re-consults the strategy
        # on every wake-up while a job waits, so the cache-hit lookup is
        # itself hot.  The identity check guards against a swapped
        # cluster exactly like :meth:`_preferences` does.
        if cluster is self._cluster:
            cached = self._pref_cache.get(job.job_id)
            if cached is None:
                cached = self._preferences(job, cluster)
        else:
            cached = self._preferences(job, cluster)
        order_machines = cached[0]
        need = job.nodes_required
        # Fastest machine with room now; if all full, the overall fastest
        # (Algorithm 2 lines 4-5: "if all s in M are full: return m").
        # can_ever_fit/can_fit are inlined: this is the single hottest
        # call site in the whole simulation.
        for machine in order_machines:
            if (machine.state == "up" and machine.free_nodes >= need
                    and machine.total_nodes - machine.offline_nodes >= need):
                return machine.name
        for machine in order_machines:
            if machine.total_nodes - machine.offline_nodes >= need:
                return machine.name
        raise RuntimeError(
            f"job {job.job_id} ({job.nodes_required} nodes) fits no machine"
        )

    def release(self, job_id: int) -> None:
        """Evict the memoized preference order for a finished job."""
        self._pref_cache.pop(job_id, None)


@STRATEGIES.register()
class OracleStrategy(ModelBasedStrategy):
    """Model-based assignment using ground-truth RPVs (upper bound)."""

    name = "oracle"
    rpv_attr = "true_rpv"


@STRATEGIES.register()
class UncertaintyAwareStrategy(ModelBasedStrategy):
    """Model-based assignment that breaks near-ties by machine load.

    Extension beyond the paper: when the predicted fastest machine and
    a rival are within ``tie_margin`` (in RPV units — compare to the
    model's error), the prediction cannot reliably separate them, so
    the strategy prefers whichever near-tied machine currently has the
    most free nodes.  Jobs carrying a ``rpv_std`` entry in
    ``Job.extra``-style attributes could widen the margin further; the
    default uses a fixed margin.
    """

    name = "uncertainty"

    def __init__(self, tie_margin: float = 0.05,
                 systems: tuple[str, ...] = SYSTEM_ORDER):
        super().__init__(systems=systems)
        if tie_margin < 0:
            raise ValueError("tie_margin must be non-negative")
        self.tie_margin = tie_margin

    def assign(self, job: Job, index: int, cluster: ClusterState) -> str:
        _, values = self._preferences(job, cluster)
        machines = cluster.machines
        need = job.nodes_required
        # Candidate iteration order (canonical system order, not RPV
        # order) matters: max() below returns the *first* maximal
        # element on free-node ties.
        fit = [s for s in self._candidates
               if machines[s].can_ever_fit(need)]
        if not fit:
            raise RuntimeError(
                f"job {job.job_id} ({job.nodes_required} nodes) fits "
                "no machine"
            )
        best_value = min(values[s] for s in fit)
        tied = [s for s in fit if values[s] <= best_value + self.tie_margin]
        with_room = [s for s in tied if machines[s].can_fit(need)]
        if with_room:
            return max(with_room, key=lambda s: machines[s].free_nodes)
        # No near-tied machine has room now: fall back to standard
        # model-based behavior (next-fastest with room, else fastest).
        return super().assign(job, index, cluster)


@STRATEGIES.register(aliases=("risk_aware",))
class RiskAwareStrategy(ModelBasedStrategy):
    """Model-based assignment whose trust scales with model confidence.

    The descriptor-conditioned predictor reports a per-system spread
    alongside each prediction (:attr:`~repro.sched.job.Job.rpv_std`).
    This strategy widens :class:`UncertaintyAwareStrategy`'s fixed tie
    margin by that spread: when the model is confident the behavior
    collapses to plain model-based assignment, and as predictive
    variance grows more machines count as "tied" and the choice falls
    back toward load balancing (the near-tied machine with the largest
    *free-node fraction*, so small machines are not starved the way a
    raw free-node count would).  Jobs without ``rpv_std`` get just the
    base margin, making the strategy safe on any workload.
    """

    name = "risk-aware"

    def __init__(self, base_margin: float = 0.02, risk_scale: float = 1.0,
                 systems: tuple[str, ...] = SYSTEM_ORDER):
        super().__init__(systems=systems)
        if base_margin < 0:
            raise ValueError("base_margin must be non-negative")
        if risk_scale < 0:
            raise ValueError("risk_scale must be non-negative")
        self.base_margin = base_margin
        self.risk_scale = risk_scale

    def _margin(self, job: Job, candidates: list[str]) -> float:
        margin = self.base_margin
        std = job.rpv_std
        if std is not None and self.risk_scale > 0:
            std = np.asarray(std, dtype=np.float64)
            idx = self._sys_index
            margin += self.risk_scale * float(
                np.mean([std[idx[s]] for s in candidates])
            )
        return margin

    def assign(self, job: Job, index: int, cluster: ClusterState) -> str:
        _, values = self._preferences(job, cluster)
        machines = cluster.machines
        need = job.nodes_required
        # Canonical-order candidate iteration, like UncertaintyAware:
        # max() keeps the first maximal element on exact fraction ties.
        fit = [s for s in self._candidates
               if machines[s].can_ever_fit(need)]
        if not fit:
            raise RuntimeError(
                f"job {job.job_id} ({job.nodes_required} nodes) fits "
                "no machine"
            )
        margin = self._margin(job, fit)
        best_value = min(values[s] for s in fit)
        tied = [s for s in fit if values[s] <= best_value + margin]
        with_room = [s for s in tied if machines[s].can_fit(need)]
        if with_room:
            return max(
                with_room,
                key=lambda s: machines[s].free_nodes
                / machines[s].total_nodes,
            )
        # Nothing near-tied has room: standard model-based fallback
        # (next-fastest with room, else overall fastest).
        return super().assign(job, index, cluster)


def strategy_by_name(name: str, seed: int = 0):
    """Instantiate a registered strategy by its short name.

    Raises :class:`repro.errors.UnknownNameError` with did-you-mean
    suggestions on a miss.  ``seed`` reaches strategies that declare
    ``takes_seed`` (currently :class:`RandomStrategy`).
    """
    cls = STRATEGIES[name]
    if getattr(cls, "takes_seed", False):
        return cls(seed)
    return cls()
