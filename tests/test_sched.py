"""Tests for the multi-resource FCFS+EASY scheduling simulation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    ClusterState,
    Job,
    MachineState,
    ModelBasedStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    Scheduler,
    UserRRStrategy,
    average_bounded_slowdown,
    average_wait_time,
    makespan,
    per_machine_job_counts,
    strategy_by_name,
)
from repro.sched.policies import policy_by_name
from repro.sched.strategies import OracleStrategy

SYSTEMS = ("Quartz", "Ruby", "Lassen", "Corona")


def _job(job_id, runtime=10.0, nodes=1, submit=0.0, rpv=None, app="CoMD",
         uses_gpu=False):
    runtimes = {s: runtime for s in SYSTEMS}
    if rpv is not None:
        # encode rpv into runtimes so oracle/true agree
        runtimes = {s: runtime * r for s, r in zip(SYSTEMS, rpv)}
    return Job(
        job_id=job_id, app=app, uses_gpu=uses_gpu, nodes_required=nodes,
        runtimes=runtimes, submit_time=submit,
        predicted_rpv=None if rpv is None else np.array(rpv),
        true_rpv=None if rpv is None else np.array(rpv),
    )


def _small_cluster(n=2):
    return ClusterState({s: n for s in SYSTEMS})


class TestMachineState:
    def test_start_and_release(self):
        m = MachineState("X", 4)
        m.start(3, end_time=10.0)
        assert m.free_nodes == 1
        assert m.release_until(9.0) == 0
        assert m.release_until(10.0) == 1
        assert m.free_nodes == 4

    def test_overcommit_rejected(self):
        m = MachineState("X", 2)
        m.start(2, 5.0)
        with pytest.raises(RuntimeError):
            m.start(1, 5.0)

    def test_shadow_time(self):
        m = MachineState("X", 4)
        m.start(2, end_time=10.0)
        m.start(2, end_time=20.0)
        assert m.shadow_time(2, now=0.0) == 10.0
        assert m.shadow_time(4, now=0.0) == 20.0

    def test_shadow_time_already_free(self):
        m = MachineState("X", 4)
        assert m.shadow_time(2, now=3.0) == 3.0

    def test_shadow_time_impossible(self):
        m = MachineState("X", 2)
        with pytest.raises(RuntimeError):
            m.shadow_time(5, now=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineState("X", 0)


class TestClusterState:
    def test_defaults_to_table1_sizes(self):
        c = ClusterState()
        assert set(c.names) == set(SYSTEMS)
        assert c["Quartz"].total_nodes > c["Corona"].total_nodes

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            _small_cluster()["Summit"]

    def test_next_completion_across_machines(self):
        c = _small_cluster()
        assert c.next_completion() is None
        c["Ruby"].start(1, 7.0)
        c["Quartz"].start(1, 3.0)
        assert c.next_completion() == 3.0


class TestStrategies:
    def test_round_robin_rotates(self):
        s = RoundRobinStrategy()
        c = _small_cluster()
        names = [s.assign(_job(i), i, c) for i in range(4)]
        assert names == list(SYSTEMS)

    def test_random_sticky_and_deterministic(self):
        c = _small_cluster()
        s1 = RandomStrategy(seed=4)
        job = _job(1)
        first = s1.assign(job, 0, c)
        assert s1.assign(job, 5, c) == first
        s2 = RandomStrategy(seed=4)
        assert s2.assign(_job(1), 0, c) == first

    def test_user_rr_separates_pools(self):
        s = UserRRStrategy()
        c = _small_cluster()
        gpu_choice = s.assign(_job(1, uses_gpu=True), 0, c)
        cpu_choice = s.assign(_job(2, uses_gpu=False), 1, c)
        assert gpu_choice in ("Lassen", "Corona")
        assert cpu_choice in ("Quartz", "Ruby")

    def test_user_rr_round_robins_within_pool(self):
        s = UserRRStrategy()
        c = _small_cluster()
        picks = [s.assign(_job(i, uses_gpu=True), i, c) for i in range(4)]
        assert picks == ["Lassen", "Corona", "Lassen", "Corona"]

    def test_model_based_picks_fastest(self):
        s = ModelBasedStrategy()
        c = _small_cluster()
        job = _job(1, rpv=[1.0, 0.9, 0.2, 0.5])
        assert s.assign(job, 0, c) == "Lassen"

    def test_model_based_falls_to_next_when_full(self):
        s = ModelBasedStrategy()
        c = _small_cluster()
        c["Lassen"].start(2, 100.0)  # fill fastest
        job = _job(1, rpv=[1.0, 0.9, 0.2, 0.5])
        assert s.assign(job, 0, c) == "Corona"

    def test_model_based_returns_fastest_when_all_full(self):
        s = ModelBasedStrategy()
        c = _small_cluster()
        for name in SYSTEMS:
            c[name].start(2, 100.0)
        job = _job(1, rpv=[1.0, 0.9, 0.2, 0.5])
        assert s.assign(job, 0, c) == "Lassen"

    def test_model_based_requires_rpv(self):
        with pytest.raises(ValueError):
            ModelBasedStrategy().assign(_job(1), 0, _small_cluster())

    def test_oracle_uses_true_rpv(self):
        job = _job(1, rpv=[0.3, 1.0, 0.6, 0.9])
        job.predicted_rpv = np.array([1.0, 0.1, 1.0, 1.0])  # wrong
        assert OracleStrategy().assign(job, 0, _small_cluster()) == "Quartz"
        assert ModelBasedStrategy().assign(job, 0, _small_cluster()) == "Ruby"

    def test_strategy_by_name(self):
        for name in ("round_robin", "random", "user_rr", "model", "oracle",
                     "uncertainty"):
            assert strategy_by_name(name) is not None
        with pytest.raises(KeyError):
            strategy_by_name("greedy")

    def test_uncertainty_breaks_ties_by_free_nodes(self):
        from repro.sched import UncertaintyAwareStrategy

        s = UncertaintyAwareStrategy(tie_margin=0.1)
        c = _small_cluster(n=4)
        c["Lassen"].start(3, 100.0)  # fastest but nearly full
        job = _job(1, rpv=[1.0, 0.9, 0.20, 0.25])  # Lassen ~ Corona tie
        assert s.assign(job, 0, c) == "Corona"

    def test_uncertainty_respects_clear_winner(self):
        from repro.sched import UncertaintyAwareStrategy

        s = UncertaintyAwareStrategy(tie_margin=0.02)
        c = _small_cluster(n=4)
        c["Lassen"].start(3, 100.0)  # less room, but clearly fastest
        job = _job(1, rpv=[1.0, 0.9, 0.20, 0.60])
        assert s.assign(job, 0, c) == "Lassen"

    def test_uncertainty_falls_back_when_tied_machines_full(self):
        from repro.sched import UncertaintyAwareStrategy

        s = UncertaintyAwareStrategy(tie_margin=0.05)
        c = _small_cluster(n=2)
        c["Lassen"].start(2, 100.0)
        job = _job(1, rpv=[1.0, 0.5, 0.20, 0.60])
        # Lassen (only near-tied machine) is full: standard fallback
        # goes to the next fastest with room (Ruby at 0.5).
        assert s.assign(job, 0, c) == "Ruby"

    def test_uncertainty_validation(self):
        from repro.sched import UncertaintyAwareStrategy

        with pytest.raises(ValueError):
            UncertaintyAwareStrategy(tie_margin=-0.1)
        with pytest.raises(ValueError):
            UncertaintyAwareStrategy().assign(_job(1), 0, _small_cluster())


class TestScheduler:
    def test_all_jobs_complete(self):
        jobs = [_job(i, runtime=5.0) for i in range(20)]
        result = Scheduler(RoundRobinStrategy(), _small_cluster()).run(jobs)
        assert result.num_jobs == 20
        assert (result.end_times > result.start_times).all()

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(RoundRobinStrategy(), _small_cluster()).run([])

    @pytest.mark.parametrize("name", ("model", "random", "round_robin"))
    def test_duplicate_job_ids_rejected_up_front(self, name):
        # Without the check the loop would run to a bogus deadlock: the
        # second job with an id is never seen as unresolved work.
        jobs = [_job(0, rpv=[1, 2, 3, 4]), _job(7, rpv=[1, 2, 3, 4]),
                _job(7, rpv=[2, 1, 3, 4])]
        strategy = strategy_by_name(name, seed=1)
        with pytest.raises(ValueError, match="duplicate job_id 7"):
            Scheduler(strategy, _small_cluster()).run(jobs)
        assert getattr(strategy, "_cache", {}) == {}  # nothing ran

    def test_fcfs_order_on_single_machine(self):
        cluster = ClusterState({"Quartz": 1})
        jobs = [_job(i, runtime=10.0) for i in range(3)]
        result = Scheduler(RoundRobinStrategy(), cluster).run(jobs)
        starts = {i: s for i, s in zip(result.job_ids, result.start_times)}
        assert starts[0] < starts[1] < starts[2]

    def test_capacity_respected(self):
        """At no instant may a machine exceed its node count."""
        cluster = ClusterState({"Quartz": 3})
        rng = np.random.default_rng(0)
        jobs = [
            _job(i, runtime=float(rng.uniform(1, 20)),
                 nodes=int(rng.integers(1, 3)))
            for i in range(40)
        ]
        result = Scheduler(RoundRobinStrategy(), cluster).run(jobs)
        events = []
        by_id = {j.job_id: j for j in jobs}
        for jid, start, end in zip(result.job_ids, result.start_times,
                                   result.end_times):
            events.append((start, by_id[jid].nodes_required))
            events.append((end, -by_id[jid].nodes_required))
        events.sort()
        usage = 0
        for _, delta in events:
            usage += delta
            assert usage <= 3

    def test_backfill_fills_gap(self):
        """A short 1-node job jumps a blocked 2-node head job."""
        cluster = ClusterState({"Quartz": 2})
        jobs = [
            _job(0, runtime=100.0, nodes=1, submit=0.0),
            _job(1, runtime=100.0, nodes=2, submit=1.0),   # blocked head
            _job(2, runtime=10.0, nodes=1, submit=2.0),    # backfills
        ]
        result = Scheduler(RoundRobinStrategy(),
                           ClusterState({"Quartz": 2})).run(jobs)
        starts = {i: s for i, s in zip(result.job_ids, result.start_times)}
        assert starts[2] < starts[1]
        assert result.backfilled >= 1

    def test_no_backfill_mode_preserves_strict_fcfs(self):
        jobs = [
            _job(0, runtime=100.0, nodes=1),
            _job(1, runtime=100.0, nodes=2),
            _job(2, runtime=10.0, nodes=1),
        ]
        result = Scheduler(RoundRobinStrategy(),
                           ClusterState({"Quartz": 2}),
                           backfill=False).run(jobs)
        starts = {i: s for i, s in zip(result.job_ids, result.start_times)}
        assert starts[2] >= starts[1]
        assert result.backfilled == 0

    def test_backfill_never_delays_reservation(self):
        """The blocked head job must start exactly at its shadow time."""
        jobs = [
            _job(0, runtime=50.0, nodes=2, submit=0.0),
            _job(1, runtime=50.0, nodes=2, submit=1.0),   # reserved at t=50
            _job(2, runtime=200.0, nodes=1, submit=2.0),  # would delay it
        ]
        result = Scheduler(RoundRobinStrategy(),
                           ClusterState({"Quartz": 2})).run(jobs)
        starts = {i: s for i, s in zip(result.job_ids, result.start_times)}
        assert starts[1] == pytest.approx(50.0)
        assert starts[2] >= 50.0  # long job could not backfill

    def test_arrivals_respected(self):
        jobs = [_job(0, runtime=5.0, submit=100.0)]
        result = Scheduler(RoundRobinStrategy(), _small_cluster()).run(jobs)
        assert result.start_times[0] >= 100.0

    def test_oversized_job_raises(self):
        jobs = [_job(0, nodes=99)]
        with pytest.raises(RuntimeError):
            Scheduler(RoundRobinStrategy(), _small_cluster()).run(jobs)

    def test_model_strategy_beats_random_on_heterogeneous_jobs(self):
        rng = np.random.default_rng(1)
        jobs = []
        for i in range(60):
            rpv = np.ones(4)
            fast = rng.integers(4)
            rpv[fast] = 0.2
            jobs.append(_job(i, runtime=30.0, rpv=rpv.tolist()))
        cluster_a = ClusterState({s: 4 for s in SYSTEMS})
        cluster_b = ClusterState({s: 4 for s in SYSTEMS})
        res_model = Scheduler(ModelBasedStrategy(), cluster_a).run(jobs)
        res_rand = Scheduler(RandomStrategy(0), cluster_b).run(jobs)
        assert makespan(res_model) < makespan(res_rand)


class TestMetrics:
    def _result(self):
        jobs = [_job(i, runtime=10.0) for i in range(8)]
        return Scheduler(RoundRobinStrategy(), _small_cluster()).run(jobs)

    def test_makespan_positive(self):
        assert makespan(self._result()) >= 10.0

    def test_bounded_slowdown_at_least_one(self):
        assert average_bounded_slowdown(self._result()) >= 1.0

    def test_bounded_slowdown_no_wait_equals_one(self):
        jobs = [_job(0, runtime=100.0)]
        res = Scheduler(RoundRobinStrategy(), _small_cluster()).run(jobs)
        assert average_bounded_slowdown(res) == pytest.approx(1.0)

    def test_bound_caps_short_jobs(self):
        """A 1-second job waiting 10s: slowdown uses the 10s bound."""
        cluster = ClusterState({"Quartz": 1})
        jobs = [_job(0, runtime=10.0), _job(1, runtime=1.0)]
        res = Scheduler(RoundRobinStrategy(), cluster).run(jobs)
        # job 1 waits 10s, runs 1s: bounded = (10 + 1) / max(1, 10) = 1.1
        assert average_bounded_slowdown(res) == pytest.approx((1.0 + 1.1) / 2)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            average_bounded_slowdown(self._result(), bound=0.0)

    def test_wait_time_and_counts(self):
        res = self._result()
        assert average_wait_time(res) >= 0.0
        counts = per_machine_job_counts(res)
        assert sum(counts.values()) == 8


@given(
    n_jobs=st.integers(1, 40),
    seed=st.integers(0, 1000),
    strategy_name=st.sampled_from(["round_robin", "random", "user_rr"]),
)
@settings(max_examples=25, deadline=None)
def test_property_simulation_invariants(n_jobs, seed, strategy_name):
    """Every job runs exactly once, never before submission."""
    rng = np.random.default_rng(seed)
    jobs = [
        _job(i, runtime=float(rng.uniform(1, 30)),
             nodes=int(rng.integers(1, 3)),
             submit=float(rng.uniform(0, 50)),
             uses_gpu=bool(rng.integers(2)))
        for i in range(n_jobs)
    ]
    cluster = ClusterState({s: 2 for s in SYSTEMS})
    result = Scheduler(strategy_by_name(strategy_name, seed=seed),
                       cluster).run(jobs)
    assert result.num_jobs == n_jobs
    assert sorted(result.job_ids) == list(range(n_jobs))
    assert (result.start_times >= result.submit_times - 1e-9).all()
    assert (result.runtimes > 0).all()


def schedule_digest(result) -> str:
    """SHA-256 over a result's placement-relevant content.

    Covers job ids, machine assignments, submit/start/end times, the
    strategy name, and the backfill count.  Float times hash via their
    exact IEEE-754 bytes, so two digests agree only when the schedules
    are bit-identical.
    """
    h = hashlib.sha256()
    h.update(result.strategy_name.encode())
    h.update(str(result.backfilled).encode())
    h.update("\x00".join(result.machines).encode())
    for arr in (result.job_ids, result.submit_times,
                result.start_times, result.end_times):
        h.update(arr.tobytes())
    return h.hexdigest()


def _digest_jobs(n: int, seed: int = 3) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(5.0))
        rpv = rng.uniform(0.5, 3.0, size=len(SYSTEMS))
        base = float(rng.uniform(20.0, 400.0))
        jobs.append(Job(
            job_id=i, app="CoMD", uses_gpu=bool(rng.integers(2)),
            nodes_required=int(rng.integers(1, 8)),
            runtimes={s: base * float(r) for s, r in zip(SYSTEMS, rpv)},
            submit_time=t,
            predicted_rpv=rpv,
            true_rpv=rpv,
        ))
    return jobs


DIGEST_STRATEGIES = ("round_robin", "random", "user_rr", "model")


def test_schedule_digest_distinguishes_strategies():
    jobs = _digest_jobs(120)
    digests = [
        schedule_digest(Scheduler(strategy_by_name(s, seed=11)).run(jobs))
        for s in DIGEST_STRATEGIES
    ]
    assert len(set(digests)) == len(digests)


def test_schedule_digest_is_deterministic():
    jobs = _digest_jobs(100)
    a, b = (Scheduler(strategy_by_name("model", seed=5)).run(jobs)
            for _ in range(2))
    assert schedule_digest(a) == schedule_digest(b)


def test_queue_policy_and_node_counts_change_the_schedule():
    jobs = _digest_jobs(150)
    # A small cluster keeps a queue standing, so ordering policies bite.
    nodes = {m: 8 for m in SYSTEMS}

    def digest(**kwargs) -> str:
        strategy = strategy_by_name("round_robin", seed=1)
        return schedule_digest(Scheduler(strategy, **kwargs).run(jobs))

    base = digest(cluster=ClusterState(nodes))
    sjf = digest(cluster=ClusterState(nodes),
                 queue_policy=policy_by_name("sjf"))
    big = digest()
    assert base != sjf
    assert base != big
