"""Bit-identical equivalence: fast Scheduler vs frozen ReferenceScheduler.

The fast engine in :mod:`repro.sched.simulator` (incremental queue,
indexed machine state, strategy memoization) must produce *exactly* the
same :class:`~repro.sched.simulator.ScheduleResult` as the frozen seed
implementation in ``tests/sched_reference.py`` — same placements, same
float start/end times bit for bit, same backfill count, same trace and
fault statistics.  These tests sweep the configuration space: every
strategy, every R1 x R2 queue-policy pairing, batch and Poisson
arrivals, conservative and EASY backfilling, inflated walltime
estimates, small backfill depth (stressing stale-entry handling), and
the failure-aware loop under every fault profile with and without
checkpointing.  They also pin the shortcuts a strategy's
``assign_depends`` declaration allows: the blind strategies' schedules,
an undeclared strategy's exact call sequence, and ``random``'s
first-draw order.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.arch.machines import SYSTEM_ORDER
from repro.resilience import FAULT_PROFILES, FaultInjector, RetryPolicy
from repro.sched import (
    ClusterState,
    Job,
    RandomStrategy,
    Scheduler,
    strategy_by_name,
)
from repro.sched.policies import policy_by_name
from tests.sched_reference import ReferenceScheduler

STRATEGIES = ("round_robin", "random", "user_rr", "model", "oracle",
              "uncertainty")
POLICIES = ("fcfs", "sjf", "ljf", "widest", "smallest")

APPS = ("CoMD", "miniFE", "LULESH", "AMG")


def make_jobs(seed: int, n: int, arrivals: str = "poisson") -> list[Job]:
    """Random workload exercising contention, GPU mix, and varied RPVs."""
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        if arrivals == "poisson":
            t += float(rng.exponential(8.0))
        submit = 0.0 if arrivals == "batch" else t
        rpv = rng.uniform(0.5, 3.0, size=len(SYSTEM_ORDER))
        base = float(rng.uniform(5.0, 120.0))
        runtimes = {s: base * float(r) for s, r in zip(SYSTEM_ORDER, rpv)}
        jobs.append(Job(
            job_id=i,
            app=APPS[int(rng.integers(len(APPS)))],
            uses_gpu=bool(rng.integers(2)),
            nodes_required=int(rng.integers(1, 4)),
            runtimes=runtimes,
            submit_time=submit,
            predicted_rpv=rpv * rng.uniform(0.9, 1.1, size=rpv.shape),
            true_rpv=rpv,
        ))
    return jobs


def small_cluster() -> ClusterState:
    # Few nodes per machine so queues form and backfilling matters.
    return ClusterState({s: 3 for s in SYSTEM_ORDER})


def assert_identical(a, b) -> None:
    """Field-by-field bit-identity of two ScheduleResults."""
    assert np.array_equal(a.job_ids, b.job_ids)
    assert a.machines == b.machines
    assert np.array_equal(a.submit_times, b.submit_times)
    assert np.array_equal(a.start_times, b.start_times)
    assert np.array_equal(a.end_times, b.end_times)
    assert np.array_equal(a.runtimes, b.runtimes)
    assert a.strategy_name == b.strategy_name
    assert a.backfilled == b.backfilled
    assert a.extra == b.extra


def run_both(jobs, **kwargs):
    """Run fast and reference engines with *independent* strategy
    instances (strategies are stateful) but identical configuration."""
    strat = kwargs.pop("strategy")
    ref_kwargs = dict(kwargs)
    # Clusters and fault injectors are mutable simulation state — each
    # engine needs its own copy.
    if kwargs.get("cluster") is not None:
        src = kwargs["cluster"]
        ref_kwargs["cluster"] = ClusterState(
            {n: src[n].total_nodes for n in src.names})
    if kwargs.get("faults") is not None:
        inj = kwargs["faults"]
        ref_kwargs["faults"] = FaultInjector(inj.profile, seed=inj.seed)
    fast = Scheduler(strategy_by_name(strat, seed=5), **kwargs)
    ref = ReferenceScheduler(strategy_by_name(strat, seed=5), **ref_kwargs)
    return fast.run(jobs), ref.run(jobs)


class TestReliableEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("arrivals", ("batch", "poisson"))
    def test_every_strategy(self, strategy, arrivals):
        jobs = make_jobs(seed=11, n=120, arrivals=arrivals)
        got, want = run_both(jobs, strategy=strategy,
                             cluster=small_cluster(), trace=True)
        assert_identical(got, want)

    @pytest.mark.parametrize("r1", POLICIES)
    @pytest.mark.parametrize("r2", POLICIES)
    def test_every_policy_pair(self, r1, r2):
        jobs = make_jobs(seed=23, n=80)
        got, want = run_both(
            jobs, strategy="model", cluster=small_cluster(),
            queue_policy=policy_by_name(r1),
            backfill_policy=policy_by_name(r2), trace=True)
        assert_identical(got, want)

    @pytest.mark.parametrize("strategy", ("model", "random", "user_rr"))
    def test_conservative_backfilling(self, strategy):
        jobs = make_jobs(seed=31, n=100)
        got, want = run_both(jobs, strategy=strategy,
                             cluster=small_cluster(), conservative=True)
        assert_identical(got, want)

    def test_walltime_factor(self):
        jobs = make_jobs(seed=37, n=100)
        got, want = run_both(jobs, strategy="model",
                             cluster=small_cluster(), walltime_factor=3.0)
        assert_identical(got, want)

    def test_backfill_disabled(self):
        jobs = make_jobs(seed=41, n=100)
        got, want = run_both(jobs, strategy="model",
                             cluster=small_cluster(), backfill=False)
        assert_identical(got, want)

    def test_tiny_backfill_depth(self):
        # Depth 2 stresses the stale-entry window padding: scheduled
        # entries linger in the lazy queue and must not consume slots.
        jobs = make_jobs(seed=43, n=120)
        got, want = run_both(jobs, strategy="model",
                             cluster=small_cluster(), backfill_depth=2,
                             trace=True)
        assert_identical(got, want)

    def test_default_cluster(self):
        jobs = make_jobs(seed=47, n=150)
        got, want = run_both(jobs, strategy="uncertainty", trace=True)
        assert_identical(got, want)

    def test_scheduler_instance_reuse(self):
        # Caches (strategy memos, sticky choices) must not leak across
        # runs of the same Scheduler/strategy instances.  The seed
        # engine never evicted them (the unbounded-cache bug), so the
        # reference comparison for run B clears the reference
        # strategy's cache by hand — the RNG trajectories through run A
        # are identical (same first-draw order), making run B
        # bit-comparable.
        jobs_a = make_jobs(seed=53, n=60)
        jobs_b = make_jobs(seed=59, n=60)
        fast_strat = strategy_by_name("random", seed=5)
        ref_strat = strategy_by_name("random", seed=5)
        fast = Scheduler(fast_strat, cluster=small_cluster())
        ref = ReferenceScheduler(ref_strat, cluster=small_cluster())
        assert_identical(fast.run(jobs_a), ref.run(jobs_a))
        assert fast_strat._cache == {}  # fast engine drained it itself
        ref_strat._cache.clear()
        assert_identical(fast.run(jobs_b), ref.run(jobs_b))

    def test_strategy_caches_drain(self):
        # After a run every job is resolved (started exactly once when
        # fault-free; finished or given up under faults), so all per-job
        # cache entries must have been released: the strategy's own and
        # the choices the engine holds for a "job" strategy.
        jobs = make_jobs(seed=61, n=80)
        for name, faults in itertools.product(("random", "user_rr", "model"),
                                              (None, "heavy")):
            strat = strategy_by_name(name, seed=5)
            injector = (None if faults is None
                        else FaultInjector(FAULT_PROFILES[faults], seed=7))
            sched = Scheduler(strat, cluster=small_cluster(),
                              faults=injector,
                              retry=RetryPolicy(max_attempts=3))
            sched.run(jobs)
            cache = getattr(strat, "_cache", None)
            if cache is None:
                cache = strat._pref_cache
            assert cache == {}
            assert sched._chosen == {}


class RecordingStrategy:
    """Random placement that logs every ``assign`` call and declares no
    ``assign_depends``, so the engine owes it the reference's calls."""

    name = "recording"

    def __init__(self):
        self.inner = strategy_by_name("random", seed=5)
        self.calls: list[tuple[int, int]] = []

    def assign(self, job, index, cluster):
        self.calls.append((job.job_id, index))
        return self.inner.assign(job, index, cluster)


class DrawLoggingRandom(RandomStrategy):
    """``random`` that logs the job id of every first-time draw."""

    def __init__(self, seed: int = 5):
        super().__init__(seed)
        self.draws: list[int] = []

    def assign(self, job, index, cluster):
        if job.job_id not in self._cache:
            self.draws.append(job.job_id)
        return super().assign(job, index, cluster)


def blind_configs():
    """Small configurations where the blind-strategy shortcuts bind:
    depths 1-3 with batch arrivals (so stale entries fill the 4 x depth
    raw span), both backfill modes, inflated estimates, and heavy faults
    with checkpointing, each traced and untraced."""
    for depth, conservative, factor, faulty, trace in itertools.product(
            (1, 2, 3), (False, True), (1.0, 2.0), (False, True),
            (False, True)):
        yield dict(backfill_depth=depth, conservative=conservative,
                   walltime_factor=factor, faulty=faulty, trace=trace)


def engine_kwargs(faulty: bool, seed: int, **kwargs) -> dict:
    kwargs["cluster"] = small_cluster()
    if faulty:
        kwargs["faults"] = FaultInjector(FAULT_PROFILES["heavy"], seed=seed)
        kwargs["retry"] = RetryPolicy(max_attempts=4, checkpoint=True)
    return kwargs


def record_both(new_strategy, log: str, jobs, faults=None, **kwargs):
    """Run both engines, each with a fresh strategy from *new_strategy*,
    and return the list each strategy kept in its *log* attribute."""
    for key in ("queue_policy", "backfill_policy"):
        if key in kwargs:
            kwargs[key] = policy_by_name(kwargs[key])
    logs = []
    for engine in (Scheduler, ReferenceScheduler):
        strategy = new_strategy()
        injector = (None if faults is None
                    else FaultInjector(FAULT_PROFILES[faults], seed=4))
        engine(strategy, cluster=small_cluster(), faults=injector,
               **kwargs).run(jobs)
        logs.append(getattr(strategy, log))
    return logs


class TestDeclaredDependencies:
    """The engine reuses a strategy's answer as far as its
    ``assign_depends`` declaration allows, and no further."""

    @pytest.mark.parametrize("strategy", ("round_robin", "random",
                                          "user_rr"))
    @pytest.mark.parametrize("arrivals", ("batch", "poisson"))
    def test_blind_strategies_sweep(self, strategy, arrivals):
        for i, config in enumerate(blind_configs()):
            jobs = make_jobs(seed=100 + i, n=50, arrivals=arrivals)
            got, want = run_both(jobs, strategy=strategy,
                                 **engine_kwargs(seed=i, **config))
            assert_identical(got, want)

    @pytest.mark.parametrize("r1,r2", [("sjf", "sjf"), ("widest", "widest"),
                                       ("sjf", "fcfs")])
    @pytest.mark.parametrize("faulty", (False, True))
    def test_job_strategies_under_other_policies(self, r1, r2, faulty):
        # R1 == R2 beyond FCFS: arrivals and retries land inside the
        # indexed window, which must then be rebuilt; R1 != R2 keeps
        # the plain scan with the engine-held choices.
        for strategy in ("random", "user_rr"):
            jobs = make_jobs(seed=89, n=80)
            got, want = run_both(
                jobs, strategy=strategy, queue_policy=policy_by_name(r1),
                backfill_policy=policy_by_name(r2), trace=True,
                **engine_kwargs(faulty, seed=21, backfill_depth=3))
            assert_identical(got, want)

    @pytest.mark.parametrize("case", [
        dict(arrivals="batch", backfill_depth=2),
        dict(arrivals="poisson"),
        dict(arrivals="poisson", queue_policy="sjf", backfill_policy="fcfs"),
        dict(arrivals="batch", faults="heavy", backfill_depth=3),
    ])
    def test_undeclared_strategy_sees_the_reference_calls(self, case):
        case = dict(case)
        jobs = make_jobs(seed=97, n=60, arrivals=case.pop("arrivals"))
        fast, ref = record_both(RecordingStrategy, "calls", jobs, **case)
        assert len(fast) > len(jobs)
        assert fast == ref

    @pytest.mark.parametrize("case", [
        dict(arrivals="batch", backfill_depth=1),
        dict(arrivals="poisson"),
        dict(arrivals="poisson", queue_policy="sjf", backfill_policy="sjf"),
        dict(arrivals="poisson", faults="heavy", backfill_depth=2),
    ])
    def test_random_first_draw_order(self, case):
        case = dict(case)
        jobs = make_jobs(seed=101, n=80, arrivals=case.pop("arrivals"))
        fast, ref = record_both(DrawLoggingRandom, "draws", jobs, **case)
        assert sorted(fast) == sorted(j.job_id for j in jobs)
        assert fast == ref


class TestFaultyEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_heavy(self, strategy):
        jobs = make_jobs(seed=67, n=80)
        got, want = run_both(
            jobs, strategy=strategy, cluster=small_cluster(),
            faults=FaultInjector(FAULT_PROFILES["heavy"], seed=3),
            trace=True)
        assert_identical(got, want)

    @pytest.mark.parametrize("profile", ("heavy", "light", "none"))
    @pytest.mark.parametrize("checkpoint", (False, True))
    def test_profiles_and_checkpointing(self, profile, checkpoint):
        jobs = make_jobs(seed=71, n=80)
        got, want = run_both(
            jobs, strategy="model", cluster=small_cluster(),
            faults=FaultInjector(FAULT_PROFILES[profile], seed=9),
            retry=RetryPolicy(max_attempts=4, checkpoint=checkpoint),
            trace=True)
        assert_identical(got, want)

    @pytest.mark.parametrize("r1,r2", [("sjf", "fcfs"), ("ljf", "widest"),
                                       ("smallest", "sjf")])
    def test_policies_under_faults(self, r1, r2):
        jobs = make_jobs(seed=73, n=80)
        got, want = run_both(
            jobs, strategy="random", cluster=small_cluster(),
            queue_policy=policy_by_name(r1),
            backfill_policy=policy_by_name(r2),
            faults=FaultInjector(FAULT_PROFILES["light"], seed=13),
            trace=True)
        assert_identical(got, want)

    @pytest.mark.parametrize("profile", ("heavy", "light"))
    @pytest.mark.parametrize("strategy", ("round_robin", "model", "oracle"))
    def test_stateless_strategies_untraced(self, strategy, profile):
        # Stateless strategies with tracing off are the runs where the
        # fault-free loop elides no-op schedule passes.  Kills,
        # recoveries and requeues break that proof, so under faults
        # every wakeup must still run its pass, as the reference does.
        jobs = make_jobs(seed=83, n=100)
        got, want = run_both(
            jobs, strategy=strategy, cluster=small_cluster(),
            faults=FaultInjector(FAULT_PROFILES[profile], seed=19))
        assert_identical(got, want)

    def test_conservative_under_faults(self):
        jobs = make_jobs(seed=79, n=80)
        got, want = run_both(
            jobs, strategy="user_rr", cluster=small_cluster(),
            conservative=True,
            faults=FaultInjector(FAULT_PROFILES["heavy"], seed=17))
        assert_identical(got, want)
