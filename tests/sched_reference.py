"""Frozen seed implementation of the scheduling simulator (golden oracle).

This is a copy of ``sched/simulator.py`` as it stood before the
fast-engine rewrite.  It is a test oracle, so it lives under ``tests/``
and nothing in the ``repro`` package may import it (enforced by
``tools/check_layering.py``).  It serves two purposes:

* **Equivalence testing** — ``tests/test_sched_equivalence.py`` asserts
  the optimized :class:`repro.sched.Scheduler` produces bit-identical
  :class:`~repro.sched.simulator.ScheduleResult` outputs to this
  reference across strategies, queue policies, arrival patterns, and
  fault profiles.
* **Performance baselining** — ``benchmarks/test_perf_sched.py``
  measures the optimized engine's speedup against this pre-optimization
  implementation on the same workload and host.

Do not optimize or otherwise modify the scheduling logic here; it is
the contract the fast engine must honor.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sched.job import Job
from repro.sched.machines import ClusterState
from repro.sched.policies import FCFSPolicy
from repro.sched.simulator import ScheduleResult

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler:
    """Pre-optimization scheduler: Algorithm 1 with pluggable R1/R2.

    Parameters
    ----------
    strategy:
        Machine-assignment strategy (``Machine(j, i, M)``).
    cluster:
        Machine pool; defaults to the Table I clusters.
    backfill:
        Enable EASY backfilling (Algorithm 1 lines 9-16); disabling it
        gives plain FCFS for the ablation study.
    conservative:
        Approximate conservative backfilling: a candidate may backfill
        (on *any* machine) only if it completes before the head job's
        reservation time, so no backfilled job outlives the current
        reservation horizon.  Stricter and fairer than EASY, at lower
        utilization.
    backfill_depth:
        Maximum queue entries scanned per backfill pass (production
        schedulers bound this; keeps the simulation O(depth) per event).
    queue_policy:
        R1 — queue ordering policy (default FCFS, the paper's choice).
    backfill_policy:
        R2 — backfill candidate ordering policy (default FCFS).
    walltime_factor:
        Multiplier on runtimes when used as *walltime estimates* in
        backfill feasibility checks.  1.0 (default) reproduces the
        paper's perfect estimates; real users over-request 2-10x, which
        makes backfilling conservative about jobs that would actually
        have fit.  Actual execution always uses the true runtime.
    trace:
        Record a scheduling event log in ``result.extra["events"]``:
        tuples ``(time, kind, job_id, machine)`` with kind in
        {"start", "backfill_start", "reserve"} (plus {"crash",
        "node_fail", "node_recover", "requeue", "give_up"} in
        failure-aware mode).  Off by default (the log grows with the
        workload).
    faults:
        A :class:`repro.resilience.FaultInjector`.  When given (and not
        null), the simulation runs the failure-aware event loop; None
        (default) runs the original fault-free loop.
    retry:
        :class:`repro.resilience.RetryPolicy` governing resubmission of
        killed jobs; defaults to unlimited attempts with exponential
        backoff.  Only consulted in failure-aware mode.
    """

    def __init__(
        self,
        strategy,
        cluster: ClusterState | None = None,
        backfill: bool = True,
        conservative: bool = False,
        backfill_depth: int = 128,
        queue_policy=None,
        backfill_policy=None,
        walltime_factor: float = 1.0,
        trace: bool = False,
        faults=None,
        retry=None,
    ):
        if walltime_factor < 1.0:
            raise ValueError("walltime_factor must be >= 1 (users cannot "
                             "under-request without being killed)")
        self.strategy = strategy
        self.cluster = cluster if cluster is not None else ClusterState()
        self.backfill = backfill
        self.conservative = conservative
        self.backfill_depth = backfill_depth
        self.queue_policy = queue_policy or FCFSPolicy()
        self.backfill_policy = backfill_policy or FCFSPolicy()
        self.walltime_factor = walltime_factor
        self.trace = trace
        self.faults = faults
        self.retry = retry

    # ------------------------------------------------------------------
    def run(self, jobs: list[Job]) -> ScheduleResult:
        """Simulate scheduling of *jobs*; returns per-job outcomes."""
        if not jobs:
            raise ValueError("no jobs to schedule")
        if self.faults is not None:
            return self._run_faulty(jobs)
        return self._run_reliable(jobs)

    # ------------------------------------------------------------------
    def _run_reliable(self, jobs: list[Job]) -> ScheduleResult:
        """The fault-free loop (the paper's perfect world)."""
        arrivals = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        arrival_idx = 0
        cluster = self.cluster
        r1_key = self.queue_policy.key
        r2_key = self.backfill_policy.key

        n = len(jobs)
        queue: list[Job] = []
        head_idx = 0
        machines_out: dict[int, str] = {}
        start_out: dict[int, float] = {}
        scheduled: set[int] = set()
        started = 0
        backfilled = 0
        now = 0.0
        events: list[tuple[float, str, int, str]] = []

        def admit_arrivals() -> None:
            nonlocal arrival_idx, queue, head_idx
            added = False
            while (arrival_idx < n
                   and arrivals[arrival_idx].submit_time <= now):
                queue.append(arrivals[arrival_idx])
                arrival_idx += 1
                added = True
            if added:
                # Compact lazily-deleted entries, then restore R1 order.
                queue = [j for j in queue[head_idx:]
                         if j.job_id not in scheduled]
                queue.sort(key=r1_key)
                head_idx = 0

        def compact() -> None:
            nonlocal queue, head_idx
            if head_idx > 64 and head_idx * 2 > len(queue):
                queue = queue[head_idx:]
                head_idx = 0

        def advance_head() -> None:
            nonlocal head_idx
            while head_idx < len(queue) and \
                    queue[head_idx].job_id in scheduled:
                head_idx += 1

        def start_job(job: Job, machine_name: str) -> None:
            nonlocal started
            runtime = job.runtime_on(machine_name)
            cluster[machine_name].start(job.nodes_required, now + runtime)
            machines_out[job.job_id] = machine_name
            start_out[job.job_id] = now
            scheduled.add(job.job_id)
            started += 1

        while len(start_out) < n:
            admit_arrivals()

            made_progress = True
            while made_progress:
                advance_head()
                compact()
                if head_idx >= len(queue):
                    break
                made_progress = False
                head = queue[head_idx]
                m_name = self.strategy.assign(head, started, cluster)
                machine = cluster[m_name]
                if not machine.can_ever_fit(head.nodes_required):
                    raise RuntimeError(
                        f"job {head.job_id} needs {head.nodes_required} "
                        f"nodes; {m_name} has {machine.total_nodes}"
                    )
                if machine.can_fit(head.nodes_required):
                    start_job(head, m_name)
                    if self.trace:
                        events.append((now, "start", head.job_id, m_name))
                    head_idx += 1
                    made_progress = True
                    continue

                if not self.backfill or head_idx + 1 >= len(queue):
                    break
                # EASY: reserve head at its machine's shadow time, then
                # scan a bounded near-head window in R2 order.
                shadow = machine.shadow_time(head.nodes_required, now)
                if self.trace:
                    events.append((shadow, "reserve", head.job_id, m_name))
                window = [
                    j for j in
                    queue[head_idx + 1:
                          head_idx + 1 + 4 * self.backfill_depth]
                    if j.job_id not in scheduled
                ]
                window.sort(key=r2_key)
                for cand in window[: self.backfill_depth]:
                    c_name = self.strategy.assign(cand, started, cluster)
                    c_machine = cluster[c_name]
                    if not c_machine.can_ever_fit(cand.nodes_required):
                        continue
                    if not c_machine.can_fit(cand.nodes_required):
                        continue
                    # Feasibility uses the (possibly inflated) estimate;
                    # actual execution below uses the true runtime.
                    finishes = now + (cand.runtime_on(c_name)
                                      * self.walltime_factor)
                    if c_name == m_name and finishes > shadow:
                        # Would delay the head's reservation (the head
                        # consumes every node freed up to the shadow
                        # time by construction).
                        continue
                    if self.conservative and finishes > shadow:
                        # Conservative mode: nothing may outlive the
                        # reservation horizon, even on other machines.
                        continue
                    start_job(cand, c_name)
                    backfilled += 1
                    if self.trace:
                        events.append((now, "backfill_start",
                                       cand.job_id, c_name))
                break  # head still blocked; wait for an event

            if len(start_out) >= n:
                break
            # Advance time to the next event.
            next_done = cluster.next_completion()
            next_arrival = (arrivals[arrival_idx].submit_time
                            if arrival_idx < n else None)
            wake_times = [t for t in (next_done, next_arrival)
                          if t is not None]
            if not wake_times:
                raise RuntimeError("deadlock: no events but jobs unscheduled")
            now = max(now, min(wake_times))
            cluster.release_until(now)

        by_id = {j.job_id: j for j in jobs}
        ids = np.array(sorted(start_out), dtype=np.int64)
        starts = np.array([start_out[i] for i in ids])
        placed = [machines_out[i] for i in ids]
        runtimes = np.array(
            [by_id[i].runtime_on(machines_out[i]) for i in ids]
        )
        submits = np.array([by_id[i].submit_time for i in ids])
        return ScheduleResult(
            job_ids=ids,
            machines=placed,
            submit_times=submits,
            start_times=starts,
            end_times=starts + runtimes,
            runtimes=runtimes,
            strategy_name=getattr(self.strategy, "name", "custom"),
            backfilled=backfilled,
            extra={"events": events} if self.trace else {},
        )

    # ------------------------------------------------------------------
    def _run_faulty(self, jobs: list[Job]) -> ScheduleResult:
        """Failure-aware event loop: the paper's experiment in a hostile
        world.

        Same scheduling logic (Algorithm 1 + strategy + EASY backfill),
        extended with four event kinds: ``finish``, ``crash`` (job-level
        fault), ``fail``/``recover`` (node-level fault), and ``requeue``
        (retry becoming eligible).  With a null injector this loop makes
        identical scheduling decisions to :meth:`_run_reliable` — pinned
        by a test — because job starts, finishes, and backfill
        feasibility compute the exact same values when no fault event
        ever fires.
        """
        from repro.resilience.retry import RetryPolicy

        injector = self.faults
        retry = self.retry if self.retry is not None else RetryPolicy()
        arrivals = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        arrival_idx = 0
        cluster = self.cluster
        r1_key = self.queue_policy.key
        r2_key = self.backfill_policy.key

        n = len(jobs)
        by_id = {j.job_id: j for j in jobs}
        queue: list[Job] = []
        head_idx = 0
        scheduled: set[int] = set()
        started = 0
        backfilled = 0
        now = 0.0
        events: list[tuple[float, str, int, str]] = []

        # Resilience bookkeeping.
        attempts: dict[int, int] = {}        # job -> attempts started
        progress: dict[int, float] = {}      # job -> work fraction done
        running: dict[int, dict] = {}        # job -> live attempt info
        finished: dict[int, tuple[str, float, float]] = {}
        failed_perm: set[int] = set()
        wasted = 0.0                         # node-seconds of lost work
        node_failures = 0
        job_crashes = 0
        preemptions = 0                      # kills caused by node failures
        retries = 0

        # Event heap: (time, tiebreak, kind, a, b).
        evq: list[tuple[float, int, str, int | str, int]] = []
        ev_seq = 0

        def push(time: float, kind: str, a, b=0) -> None:
            nonlocal ev_seq
            heapq.heappush(evq, (time, ev_seq, kind, a, b))
            ev_seq += 1

        for m_name in cluster.names:
            gap = injector.next_failure_gap(m_name)
            if gap is not None:
                push(gap, "fail", m_name)

        def remaining(jid: int) -> float:
            return max(0.0, 1.0 - progress.get(jid, 0.0))

        def admit_arrivals() -> None:
            nonlocal arrival_idx, queue, head_idx
            added = False
            while (arrival_idx < n
                   and arrivals[arrival_idx].submit_time <= now):
                queue.append(arrivals[arrival_idx])
                arrival_idx += 1
                added = True
            if added:
                queue = [j for j in queue[head_idx:]
                         if j.job_id not in scheduled]
                queue.sort(key=r1_key)
                head_idx = 0

        def compact() -> None:
            nonlocal queue, head_idx
            if head_idx > 64 and head_idx * 2 > len(queue):
                queue = queue[head_idx:]
                head_idx = 0

        def advance_head() -> None:
            nonlocal head_idx
            while head_idx < len(queue) and \
                    queue[head_idx].job_id in scheduled:
                head_idx += 1

        def start_job(job: Job, machine_name: str) -> None:
            nonlocal started
            jid = job.job_id
            runtime = job.runtime_on(machine_name) * remaining(jid)
            end = now + runtime
            seq = cluster[machine_name].start(job.nodes_required, end)
            attempt = attempts.get(jid, 0) + 1
            attempts[jid] = attempt
            running[jid] = {
                "machine": machine_name, "start": now, "end": end,
                "nodes": job.nodes_required, "seq": seq, "attempt": attempt,
            }
            scheduled.add(jid)
            started += 1
            push(end, "finish", jid, attempt)
            crash_at = injector.crash_offset(jid, attempt, runtime)
            if crash_at is not None:
                push(now + crash_at, "crash", jid, attempt)

        def kill(jid: int, cause: str) -> None:
            """Terminate a running attempt and arrange its retry."""
            nonlocal wasted, retries, queue, head_idx
            info = running.pop(jid)
            cluster[info["machine"]].cancel(info["seq"])
            job = by_id[jid]
            elapsed = now - info["start"]
            if retry.checkpoint:
                progress[jid] = min(
                    1.0,
                    progress.get(jid, 0.0)
                    + elapsed / job.runtime_on(info["machine"]),
                )
            else:
                wasted += info["nodes"] * elapsed
            if self.trace:
                events.append((now, cause, jid, info["machine"]))
            if retry.gives_up(attempts[jid]):
                failed_perm.add(jid)  # stays in `scheduled`: never requeued
                if self.trace:
                    events.append((now, "give_up", jid, info["machine"]))
                return
            retries += 1
            push(now + retry.delay(attempts[jid], jid), "requeue", jid)

        def handle_requeue(jid: int) -> None:
            nonlocal queue, head_idx
            # Purge any stale queue copy (a backfilled job stays in the
            # window until compaction) *before* clearing the scheduled
            # mark, then re-admit under R1 order.
            queue = [j for j in queue[head_idx:]
                     if j.job_id not in scheduled]
            scheduled.discard(jid)
            queue.append(by_id[jid])
            queue.sort(key=r1_key)
            head_idx = 0
            if self.trace:
                events.append((now, "requeue", jid, ""))

        def handle_node_failure(m_name: str) -> None:
            nonlocal node_failures, preemptions, job_crashes
            machine = cluster[m_name]
            gap = injector.next_failure_gap(m_name)
            if gap is not None:
                push(now + gap, "fail", m_name)
            if machine.usable_nodes == 0:
                return  # already fully down; nothing left to break
            if machine.free_nodes == 0:
                # Every usable node is busy: the failing node takes its
                # job down with it.  Deterministic victim: the running
                # job with the most remaining work (latest end time).
                victim = max(
                    (jid for jid, info in running.items()
                     if info["machine"] == m_name),
                    key=lambda jid: (running[jid]["end"], jid),
                )
                preemptions += 1
                kill(victim, "node_kill")
            machine.take_offline(1)
            node_failures += 1
            if self.trace:
                events.append((now, "node_fail", -1, m_name))
            push(now + injector.repair_duration(m_name), "recover", m_name)

        def schedule_pass() -> None:
            nonlocal head_idx, backfilled
            made_progress = True
            while made_progress:
                advance_head()
                compact()
                if head_idx >= len(queue):
                    return
                made_progress = False
                head = queue[head_idx]
                try:
                    m_name = self.strategy.assign(head, started, cluster)
                except RuntimeError:
                    # Strategy found no usable machine.  Transient when
                    # caused by offline nodes; a configuration error when
                    # the job exceeds every machine outright.
                    if not any(cluster[nm].total_nodes >= head.nodes_required
                               for nm in cluster.names):
                        raise
                    return
                machine = cluster[m_name]
                if head.nodes_required > machine.total_nodes:
                    raise RuntimeError(
                        f"job {head.job_id} needs {head.nodes_required} "
                        f"nodes; {m_name} has {machine.total_nodes}"
                    )
                if machine.can_fit(head.nodes_required):
                    start_job(head, m_name)
                    if self.trace:
                        events.append((now, "start", head.job_id, m_name))
                    head_idx += 1
                    made_progress = True
                    continue

                if not self.backfill or head_idx + 1 >= len(queue):
                    return
                try:
                    shadow = machine.shadow_time(head.nodes_required, now)
                except RuntimeError:
                    return  # offline nodes block the reservation; wait
                if self.trace:
                    events.append((shadow, "reserve", head.job_id, m_name))
                window = [
                    j for j in
                    queue[head_idx + 1:
                          head_idx + 1 + 4 * self.backfill_depth]
                    if j.job_id not in scheduled
                ]
                window.sort(key=r2_key)
                for cand in window[: self.backfill_depth]:
                    try:
                        c_name = self.strategy.assign(cand, started, cluster)
                    except RuntimeError:
                        continue
                    c_machine = cluster[c_name]
                    if not c_machine.can_ever_fit(cand.nodes_required):
                        continue
                    if not c_machine.can_fit(cand.nodes_required):
                        continue
                    finishes = now + (cand.runtime_on(c_name)
                                      * remaining(cand.job_id)
                                      * self.walltime_factor)
                    if c_name == m_name and finishes > shadow:
                        continue
                    if self.conservative and finishes > shadow:
                        continue
                    start_job(cand, c_name)
                    backfilled += 1
                    if self.trace:
                        events.append((now, "backfill_start",
                                       cand.job_id, c_name))
                return  # head still blocked; wait for an event

        while len(finished) + len(failed_perm) < n:
            admit_arrivals()
            schedule_pass()
            if len(finished) + len(failed_perm) >= n:
                break

            wake_times = []
            if arrival_idx < n:
                wake_times.append(arrivals[arrival_idx].submit_time)
            if evq:
                wake_times.append(evq[0][0])
            if not wake_times:
                raise RuntimeError("deadlock: no events but jobs unresolved")
            now = max(now, min(wake_times))
            cluster.release_until(now)

            while evq and evq[0][0] <= now:
                _, _, kind, a, b = heapq.heappop(evq)
                if kind == "finish":
                    info = running.get(a)
                    if info is not None and info["attempt"] == b:
                        running.pop(a)
                        finished[a] = (
                            info["machine"], info["start"], info["end"]
                        )
                elif kind == "crash":
                    info = running.get(a)
                    if info is not None and info["attempt"] == b:
                        job_crashes += 1
                        kill(a, "crash")
                elif kind == "fail":
                    handle_node_failure(a)
                elif kind == "recover":
                    cluster[a].bring_online(1)
                    if self.trace:
                        events.append((now, "node_recover", -1, a))
                elif kind == "requeue":
                    handle_requeue(a)

        ids = np.array(sorted(finished), dtype=np.int64)
        placed = [finished[i][0] for i in ids]
        starts = np.array([finished[i][1] for i in ids])
        ends = np.array([finished[i][2] for i in ids])
        submits = np.array([by_id[i].submit_time for i in ids])
        extra = {
            "faults": {
                "profile": injector.profile.name,
                "node_failures": node_failures,
                "job_crashes": job_crashes,
                "preemptions": preemptions,
                "retries": retries,
                "failed_jobs": sorted(failed_perm),
                "wasted_node_seconds": float(wasted),
                "attempts": {
                    int(j): int(k) for j, k in attempts.items() if k > 1
                },
            }
        }
        if self.trace:
            extra["events"] = events
        return ScheduleResult(
            job_ids=ids,
            machines=placed,
            submit_times=submits,
            start_times=starts,
            end_times=ends,
            runtimes=ends - starts,
            strategy_name=getattr(self.strategy, "name", "custom"),
            backfilled=backfilled,
            extra=extra,
        )
