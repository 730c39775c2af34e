"""Tests for the fault-injection & graceful-degradation layer.

Covers the three pillars of the resilience subsystem:

* fault modeling  — profiles, injector determinism, retry policy;
* failure-aware scheduling — kills, requeues, checkpointing, node
  availability transitions, and the bit-identity guarantee that a null
  injector changes nothing;
* degraded prediction — the model → imputed → mean-RPV → heuristic
  chain, plus the hard-failure contract of the underlying
  ``predict_record``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.features import REQUIRED_RECORD_FIELDS
from repro.resilience import (
    FAULT_PROFILES,
    CorruptingPredictor,
    FaultInjector,
    FaultProfile,
    ResilientPredictor,
    RetryPolicy,
)
from repro.sched import (
    ClusterState,
    Job,
    MachineState,
    RoundRobinStrategy,
    Scheduler,
    completed_fraction,
    degraded_prediction_fraction,
    goodput,
    resilience_summary,
    retry_count,
    wasted_node_seconds,
)

SYSTEMS = ("Quartz", "Ruby", "Lassen", "Corona")


def _job(job_id, runtime=10.0, nodes=1, submit=0.0):
    return Job(
        job_id=job_id, app="CoMD", uses_gpu=False, nodes_required=nodes,
        runtimes={s: runtime for s in SYSTEMS}, submit_time=submit,
    )


def _workload(n=30, seed=0):
    rng = np.random.default_rng(seed)
    return [
        _job(
            i,
            runtime=float(rng.uniform(20, 200)),
            nodes=int(rng.integers(1, 3)),
            submit=float(rng.uniform(0, 300)),
        )
        for i in range(n)
    ]


def _small_cluster(n=4):
    return ClusterState({s: n for s in SYSTEMS})


# ---------------------------------------------------------------------------
class TestFaultProfile:
    def test_presets(self):
        assert FaultProfile.preset("none").is_null
        light, heavy = FAULT_PROFILES["light"], FAULT_PROFILES["heavy"]
        assert not light.is_null and not heavy.is_null
        assert heavy.node_mtbf < light.node_mtbf
        assert heavy.crash_prob > light.crash_prob

    def test_unknown_preset(self):
        with pytest.raises(KeyError) as err:
            FaultProfile.preset("apocalyptic")
        assert "light" in str(err.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(node_mtbf=0.0)
        with pytest.raises(ValueError):
            FaultProfile(crash_prob=1.0)
        with pytest.raises(ValueError):
            FaultProfile(repair_time=-1.0)


class TestFaultInjector:
    def test_deterministic_per_seed(self):
        a = FaultInjector(FAULT_PROFILES["heavy"], seed=7)
        b = FaultInjector(FAULT_PROFILES["heavy"], seed=7)
        assert a.next_failure_gap("Quartz") == b.next_failure_gap("Quartz")
        assert a.repair_duration("Ruby") == b.repair_duration("Ruby")
        assert a.crash_offset(3, 1, 100.0) == b.crash_offset(3, 1, 100.0)

    def test_seed_changes_draws(self):
        a = FaultInjector(FAULT_PROFILES["heavy"], seed=0)
        b = FaultInjector(FAULT_PROFILES["heavy"], seed=1)
        assert a.next_failure_gap("Quartz") != b.next_failure_gap("Quartz")

    def test_crash_offset_is_order_independent(self):
        # Per-(job, attempt) streams: asking in a different order must
        # not change any outcome.
        a = FaultInjector(FAULT_PROFILES["heavy"], seed=3)
        b = FaultInjector(FAULT_PROFILES["heavy"], seed=3)
        forward = [a.crash_offset(j, 1, 50.0) for j in range(20)]
        backward = [b.crash_offset(j, 1, 50.0) for j in reversed(range(20))]
        assert forward == backward[::-1]

    def test_null_profile_never_fires(self):
        inj = FaultInjector(FAULT_PROFILES["none"], seed=0)
        assert inj.is_null
        assert inj.next_failure_gap("Quartz") is None
        assert all(
            inj.crash_offset(j, a, 100.0) is None
            for j in range(50) for a in range(1, 4)
        )

    def test_crash_offset_within_runtime(self):
        inj = FaultInjector(FaultProfile(crash_prob=0.99), seed=0)
        offsets = [inj.crash_offset(j, 1, 80.0) for j in range(100)]
        hits = [o for o in offsets if o is not None]
        assert hits  # p=0.99 over 100 jobs
        assert all(0.0 < o < 80.0 for o in hits)

    def test_corrupt_features_copies_and_bounds(self):
        inj = FaultInjector(FaultProfile(corruption_prob=0.5), seed=0)
        X = np.arange(400, dtype=np.float64).reshape(20, 20)
        before = X.copy()
        out = inj.corrupt_features(X)
        assert np.array_equal(X, before)  # input untouched
        bad_rows = ~np.isfinite(out).all(axis=1)
        assert 0 < bad_rows.sum() < 20
        # Each hit row loses at most half its entries.
        per_row = np.isnan(out).sum(axis=1)
        assert per_row.max() <= 10

    def test_corrupt_features_null_passthrough(self):
        inj = FaultInjector(FAULT_PROFILES["none"], seed=0)
        X = np.ones((5, 3))
        assert np.array_equal(inj.corrupt_features(X), X)


class TestRetryPolicy:
    def test_gives_up(self):
        assert not RetryPolicy().gives_up(10**6)  # unlimited by default
        p = RetryPolicy(max_attempts=3)
        assert not p.gives_up(2)
        assert p.gives_up(3)

    def test_backoff_growth_and_cap(self):
        p = RetryPolicy(backoff_base=10, backoff_factor=2, backoff_cap=60,
                        jitter=0.0)
        assert [p.delay(k) for k in (1, 2, 3, 4, 5)] == [10, 20, 40, 60, 60]

    def test_jitter_bounded_and_deterministic(self):
        p = RetryPolicy(backoff_base=100, jitter=0.1)
        d = p.delay(1, job_id=5)
        assert 90.0 <= d <= 110.0
        assert d == RetryPolicy(backoff_base=100, jitter=0.1).delay(1, job_id=5)
        assert d != p.delay(1, job_id=6)  # per-job decorrelation

    def test_string_job_ids_jitter_like_int_ones(self):
        # Sweep cells pass their cell_id; the jitter contract is the
        # same as for simulator ints: bounded, deterministic, and
        # decorrelated across ids.
        p = RetryPolicy(backoff_base=100, jitter=0.1)
        d = p.delay(1, job_id="0003-deadbeef0123")
        assert 90.0 <= d <= 110.0
        assert d == p.delay(1, job_id="0003-deadbeef0123")
        assert d != p.delay(1, job_id="0004-deadbeef0456")
        assert d != p.delay(2, job_id="0003-deadbeef0123")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


# ---------------------------------------------------------------------------
class TestMachineAvailability:
    def test_drain_blocks_new_jobs(self):
        m = MachineState("X", 4)
        m.start(1, 10.0)
        m.drain()
        assert m.state == "drain"
        assert not m.can_fit(1)  # 3 free but draining
        with pytest.raises(RuntimeError):
            m.start(1, 5.0)
        m.resume()
        assert m.can_fit(1)

    def test_take_offline_and_recover(self):
        m = MachineState("X", 2)
        m.take_offline(1)
        assert (m.usable_nodes, m.free_nodes, m.state) == (1, 1, "up")
        m.take_offline(1)
        assert m.state == "down"
        assert not m.can_fit(1) and not m.can_ever_fit(1)
        m.bring_online(1)
        assert m.state == "up"
        assert m.usable_nodes == 1

    def test_take_offline_needs_free_nodes(self):
        m = MachineState("X", 2)
        m.start(2, 10.0)
        with pytest.raises(RuntimeError):
            m.take_offline(1)  # victims must be killed first

    def test_bring_online_bounds(self):
        m = MachineState("X", 2)
        with pytest.raises(RuntimeError):
            m.bring_online(1)  # nothing offline

    def test_cancel_frees_nodes(self):
        m = MachineState("X", 4)
        seq = m.start(3, 10.0)
        m.cancel(seq)
        assert m.free_nodes == 4
        assert m.next_completion() is None
        with pytest.raises(KeyError):
            m.cancel(seq)

    def test_cancel_keeps_other_allocations(self):
        m = MachineState("X", 4)
        a = m.start(1, 10.0)
        m.start(2, 5.0)
        m.cancel(a)
        assert m.free_nodes == 2
        assert m.next_completion() == 5.0

    def test_invalid_transitions(self):
        m = MachineState("X", 1)
        with pytest.raises(RuntimeError):
            m.resume()  # not draining
        m.take_offline(1)
        with pytest.raises(RuntimeError):
            m.drain()  # down machines cannot drain


# ---------------------------------------------------------------------------
class TestFaultySimulator:
    def test_null_injector_bit_identical(self):
        # A null injector runs the fault-free loop itself: same
        # schedule, same event-loop counters (the loop still ends once
        # every job has started), plus only the zeroed fault summary.
        jobs = _workload(40, seed=1)
        base = Scheduler(RoundRobinStrategy(), cluster=_small_cluster())
        plain = base.run(jobs)
        null = Scheduler(
            RoundRobinStrategy(), cluster=_small_cluster(),
            faults=FaultInjector(FAULT_PROFILES["none"], seed=0),
        )
        faulty = null.run(jobs)
        assert np.array_equal(plain.job_ids, faulty.job_ids)
        assert plain.machines == faulty.machines
        assert np.array_equal(plain.start_times, faulty.start_times)
        assert np.array_equal(plain.end_times, faulty.end_times)
        assert plain.backfilled == faulty.backfilled
        assert null.last_run_stats == base.last_run_stats
        assert "faults" not in plain.extra
        assert faulty.extra["faults"] == {
            "profile": "none", "node_failures": 0, "job_crashes": 0,
            "preemptions": 0, "retries": 0, "failed_jobs": [],
            "wasted_node_seconds": 0.0, "attempts": {},
        }

    def test_heavy_profile_completes_everything(self):
        jobs = _workload(30, seed=2)
        result = Scheduler(
            RoundRobinStrategy(), cluster=_small_cluster(),
            faults=FaultInjector(FAULT_PROFILES["heavy"], seed=5),
        ).run(jobs)
        assert result.num_jobs == 30  # unlimited retries: no job is lost
        info = result.extra["faults"]
        assert info["job_crashes"] > 0
        assert info["retries"] > 0
        assert np.all(result.end_times > result.start_times)
        assert np.all(result.start_times >= result.submit_times)

    def test_fault_run_is_reproducible(self):
        jobs = _workload(25, seed=3)
        runs = [
            Scheduler(
                RoundRobinStrategy(), cluster=_small_cluster(),
                faults=FaultInjector(FAULT_PROFILES["heavy"], seed=9),
            ).run(jobs)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].end_times, runs[1].end_times)
        assert runs[0].extra["faults"] == runs[1].extra["faults"]

    def test_crashes_waste_work_without_checkpoint(self):
        jobs = _workload(30, seed=4)
        crashy = FaultProfile(crash_prob=0.3)
        result = Scheduler(
            RoundRobinStrategy(), cluster=_small_cluster(),
            faults=FaultInjector(crashy, seed=1),
        ).run(jobs)
        assert wasted_node_seconds(result) > 0
        assert goodput(result) < 1.0
        assert retry_count(result) > 0

    def test_checkpoint_restart_wastes_nothing(self):
        jobs = _workload(30, seed=4)
        crashy = FaultProfile(crash_prob=0.3)
        result = Scheduler(
            RoundRobinStrategy(), cluster=_small_cluster(),
            faults=FaultInjector(crashy, seed=1),
            retry=RetryPolicy(checkpoint=True),
        ).run(jobs)
        assert wasted_node_seconds(result) == 0.0
        assert goodput(result) == 1.0
        assert retry_count(result) > 0

    def test_checkpoint_preserves_progress(self):
        # With checkpointing a retried job's final attempt only runs the
        # remainder; without, every attempt restarts from zero.
        jobs = _workload(30, seed=4)
        crashy = FaultProfile(crash_prob=0.3)
        full = {j.job_id: j.runtime_on("Quartz") for j in jobs}  # uniform

        def run(retry):
            return Scheduler(
                RoundRobinStrategy(), cluster=_small_cluster(),
                faults=FaultInjector(crashy, seed=1), retry=retry,
            ).run(jobs)

        ck = run(RetryPolicy(checkpoint=True))
        retried = set(ck.extra["faults"]["attempts"])
        assert retried
        for jid, run_time in zip(ck.job_ids, ck.runtimes):
            if int(jid) in retried:
                assert run_time < full[int(jid)] - 1e-9
            else:
                assert run_time == pytest.approx(full[int(jid)])

        no_ck = run(RetryPolicy(checkpoint=False))
        for jid, run_time in zip(no_ck.job_ids, no_ck.runtimes):
            assert run_time == pytest.approx(full[int(jid)])

    def test_bounded_attempts_abandon_jobs(self):
        jobs = _workload(40, seed=5)
        crashy = FaultProfile(crash_prob=0.5)
        result = Scheduler(
            RoundRobinStrategy(), cluster=_small_cluster(),
            faults=FaultInjector(crashy, seed=2),
            retry=RetryPolicy(max_attempts=1),  # crash once → abandoned
        ).run(jobs)
        failed = result.extra["faults"]["failed_jobs"]
        assert len(failed) > 0
        assert result.num_jobs == 40 - len(failed)
        assert completed_fraction(result) == pytest.approx(
            result.num_jobs / 40
        )
        # Abandoned jobs never appear in the output arrays.
        assert set(failed).isdisjoint(result.job_ids.tolist())

    def test_node_failures_kill_and_recover(self):
        # One tiny busy machine: every node failure must evict a job.
        jobs = [_job(i, runtime=500.0) for i in range(8)]
        cluster = ClusterState({"Quartz": 2})
        profile = FaultProfile(node_mtbf=300.0, repair_time=100.0)
        result = Scheduler(
            RoundRobinStrategy(), cluster=cluster,
            faults=FaultInjector(profile, seed=0), trace=True,
        ).run(jobs)
        info = result.extra["faults"]
        assert info["node_failures"] > 0
        assert info["preemptions"] > 0
        assert result.num_jobs == 8
        kinds = {e[1] for e in result.extra["events"]}
        assert {"node_fail", "node_recover", "requeue"} <= kinds
        # Cluster heals: no node is left permanently offline beyond the
        # final pending repair.
        assert cluster["Quartz"].used_nodes == 0

    def test_fault_free_metrics_are_perfect(self):
        result = Scheduler(
            RoundRobinStrategy(), cluster=_small_cluster()
        ).run(_workload(10, seed=6))
        assert wasted_node_seconds(result) == 0.0
        assert goodput(result) == 1.0
        assert retry_count(result) == 0
        assert completed_fraction(result) == 1.0
        summary = resilience_summary(result)
        assert summary["node_failures"] == 0
        assert summary["goodput"] == 1.0


class TestDegradedPredictionFraction:
    def test_empty_counts(self):
        assert degraded_prediction_fraction({}) == 0.0

    def test_mixed_counts(self):
        counts = {"model": 6, "imputed": 3, "mean_rpv": 1}
        assert degraded_prediction_fraction(counts) == pytest.approx(0.4)

    def test_all_model(self):
        assert degraded_prediction_fraction({"model": 9}) == 0.0


# ---------------------------------------------------------------------------
def _clean_record():
    rec = {f: 1000.0 for f in REQUIRED_RECORD_FIELDS}
    rec.update(
        total_instructions=1e9, branch=1e8, store=2e8, load=3e8,
        nodes=4, cores=36, uses_gpu=0, machine="Quartz",
    )
    return rec


class TestPredictRecordHardFailures:
    """Pin the *loud* failure contract of the raw predictor: corrupted
    records raise typed, descriptive errors (the resilient wrapper turns
    these into degraded answers)."""

    def test_nan_counter_raises(self, trained_xgb):
        rec = _clean_record()
        rec["l1_load_miss"] = float("nan")
        with pytest.raises(ValueError) as err:
            trained_xgb.predict_record(rec)
        assert "l1_load_miss" in str(err.value)

    def test_positive_inf_raises(self, trained_xgb):
        rec = _clean_record()
        rec["io_read_bytes"] = float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            trained_xgb.predict_record(rec)

    def test_negative_inf_raises(self, trained_xgb):
        rec = _clean_record()
        rec["mem_stall_cycles"] = float("-inf")
        with pytest.raises(ValueError, match="non-finite"):
            trained_xgb.predict_record(rec)

    def test_missing_keys_raise_with_names(self, trained_xgb):
        rec = _clean_record()
        del rec["branch"], rec["ept_bytes"]
        with pytest.raises(KeyError) as err:
            trained_xgb.predict_record(rec)
        assert "branch" in str(err.value)
        assert "ept_bytes" in str(err.value)

    def test_clean_record_predicts(self, trained_xgb):
        rpv = trained_xgb.predict_record(_clean_record())
        assert rpv.shape == (len(SYSTEMS),)
        assert np.isfinite(rpv).all()


class TestResilientPredictor:
    @pytest.fixture(scope="class")
    def chain(self, trained_xgb, small_dataset):
        return ResilientPredictor.from_training(trained_xgb, small_dataset)

    def test_clean_record_uses_model(self, chain):
        out = chain.predict_record_detailed(_clean_record())
        assert out.tier == "model"
        assert np.isfinite(out.rpv).all()

    def test_nan_record_imputed(self, chain):
        rec = _clean_record()
        rec["l1_load_miss"] = float("nan")
        out = chain.predict_record_detailed(rec)
        assert out.tier == "imputed"
        assert out.repaired == ("l1_load_miss",)
        assert np.isfinite(out.rpv).all() and (out.rpv > 0).all()

    def test_imputed_stays_near_model(self, chain):
        clean = chain.predict_record_detailed(_clean_record()).rpv
        rec = _clean_record()
        rec["l2_store_miss"] = float("nan")
        repaired = chain.predict_record_detailed(rec).rpv
        # One repaired counter must not swing the RPV wildly; the whole
        # point of imputation is staying close to the clean answer.
        assert np.abs(repaired - clean).max() < 0.5 * clean.max()

    def test_missing_fields_imputed(self, chain):
        rec = _clean_record()
        del rec["branch"], rec["io_write_bytes"]
        out = chain.predict_record_detailed(rec)
        assert out.tier == "imputed"
        assert out.repaired == ("branch", "io_write_bytes")

    def test_unknown_machine_imputed(self, chain):
        rec = _clean_record()
        rec["machine"] = "Summit"
        out = chain.predict_record_detailed(rec)
        assert out.tier == "imputed"
        assert "machine" in out.repaired

    def test_overflowing_features_imputed_batch_mate_exact(
            self, chain, trained_xgb, small_dataset):
        # Every counter is finite, but the ratios over a tiny total
        # overflow to inf: the record must not reach the model as is.
        tiny = {**_clean_record(), "total_instructions": 1e-300}
        clean = chain.predict_record_detailed(_clean_record())
        with np.errstate(over="ignore"):
            out = chain.predict_batch([tiny, _clean_record()])
        assert [o.tier for o in out] == ["imputed", "model"]
        assert out[0].repaired == ()
        assert np.isfinite(out[0].rpv).all()
        assert np.array_equal(out[1].rpv, clean.rpv)
        # Without a feature fill the record drops to the model-free tier.
        bare = ResilientPredictor(predictor=trained_xgb,
                                  mean_rpv=small_dataset.Y().mean(axis=0))
        with np.errstate(over="ignore"):
            out = bare.predict_batch([tiny, _clean_record()])
        assert [o.tier for o in out] == ["mean_rpv", "model"]
        assert np.array_equal(out[1].rpv, clean.rpv)

    def test_mean_rpv_without_model(self, small_dataset):
        chain = ResilientPredictor(mean_rpv=small_dataset.Y().mean(axis=0))
        out = chain.predict_record_detailed(_clean_record())
        assert out.tier == "mean_rpv"
        assert np.allclose(out.rpv, small_dataset.Y().mean(axis=0))

    def test_heuristic_cold_start(self):
        chain = ResilientPredictor()
        gpu = chain.predict_record_detailed(
            {**_clean_record(), "uses_gpu": 1}
        )
        cpu = chain.predict_record_detailed(_clean_record())
        assert gpu.tier == cpu.tier == "heuristic"
        # GPU-capable work is predicted faster on the GPU systems
        # (Lassen/Corona: indices 2, 3); CPU work on the CPU systems.
        assert gpu.rpv[2] < gpu.rpv[0]
        assert cpu.rpv[0] < cpu.rpv[2]

    def test_never_raises_on_garbage(self, chain):
        for garbage in ({}, {"machine": 3}, {"nodes": "many"},
                        {k: None for k in REQUIRED_RECORD_FIELDS}):
            out = chain.predict_record_detailed(garbage)
            assert out.tier in ("imputed", "mean_rpv", "heuristic")
            assert np.isfinite(out.rpv).all()

    def test_batch_predict_imputes_dirty_rows(self, chain, small_dataset):
        chain.tier_counts.clear()
        X = small_dataset.X()[:10].copy()
        X[3, 2] = np.nan
        X[7, 0] = np.inf
        clean = chain.predictor.predict(X[:1])
        out = chain.predict(X)
        assert np.isfinite(out).all()
        assert np.allclose(out[0], clean[0])  # clean rows untouched
        assert chain.tier_counts["model"] == 8
        assert chain.tier_counts["imputed"] == 2

    def test_batch_without_model_tiles_baseline(self, small_dataset):
        chain = ResilientPredictor(mean_rpv=small_dataset.Y().mean(axis=0))
        out = chain.predict(np.zeros((5, 3)))
        assert out.shape == (5, len(SYSTEMS))
        assert (out == out[0]).all()

    def test_degraded_fraction_and_summary(self, trained_xgb, small_dataset):
        chain = ResilientPredictor.from_training(trained_xgb, small_dataset)
        assert chain.degraded_fraction() == 0.0  # nothing predicted yet
        chain.predict_record_detailed(_clean_record())
        rec = _clean_record()
        rec["load"] = float("nan")
        chain.predict_record_detailed(rec)
        assert chain.degraded_fraction() == pytest.approx(0.5)
        assert chain.summary() == {
            "model": 1, "imputed": 1, "mean_rpv": 0, "heuristic": 0,
        }

    def test_load_missing_model_degrades(self, tmp_path, small_dataset):
        chain = ResilientPredictor.load(tmp_path / "absent.pkl",
                                        dataset=small_dataset)
        assert chain.predictor is None
        out = chain.predict_record_detailed(_clean_record())
        assert out.tier == "mean_rpv"

    def test_load_garbage_model_degrades(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"not a pickle at all")
        chain = ResilientPredictor.load(path)
        out = chain.predict_record_detailed(_clean_record())
        assert out.tier == "heuristic"

    def test_fill_length_mismatch_rejected(self, trained_xgb):
        with pytest.raises(ValueError):
            ResilientPredictor(predictor=trained_xgb,
                               feature_fill=np.zeros(3))

    def test_corrupting_predictor_exercises_chain(self, trained_xgb,
                                                  small_dataset):
        chain = ResilientPredictor.from_training(trained_xgb, small_dataset)
        injector = FaultInjector(FaultProfile(corruption_prob=0.5), seed=0)
        wrapped = CorruptingPredictor(chain, injector)
        out = wrapped.predict(small_dataset.X()[:40])
        assert np.isfinite(out).all()
        assert chain.tier_counts["imputed"] > 0
        assert chain.degraded_fraction() > 0.0
