"""Multi-resource scheduler with EASY backfilling (Algorithm 1).

Event-driven simulation of the paper's Algorithm 1: a global queue
ordered by the policy R1 (FCFS in the paper), EASY backfilling ordered
by the policy R2 (also FCFS in the paper), and a pluggable
``Machine(j, i, M)`` assignment strategy.  When the head job's assigned
machine cannot fit it, the job is reserved at that machine's earliest
feasible time (the EASY "shadow" time) and later queue entries may
backfill — on other machines freely (they cannot delay the
reservation), and on the reserved machine only if they finish before
the shadow time.  Walltime estimates are the observed runtimes (perfect
estimates), as in the paper.

Fast engine
-----------
Every simulation runs on one event loop whose hot paths are incremental
instead of recomputed:

* **Queue** — entries are ``(R1 key, job_id, job)`` triples kept in
  sorted order; R1/R2 keys are computed *once* per job at admission and
  new arrivals are merged by bisection (O(log n) comparisons per
  arrival) instead of re-sorting the whole queue.  Lazily-deleted
  entries advance behind a head index with periodic compaction,
  preserving the seed implementation's backfill-window layout exactly.
* **Backfill window** — the bounded near-head window is decorated with
  the precomputed R2 keys, so the per-event window sort makes no Python
  key calls; when R1 and R2 agree the queue already is the window.
* **Declared assign dependencies** — a strategy's ``assign_depends``
  (see :mod:`repro.sched.strategies`) says how far an answer may be
  reused.  ``"load"`` strategies are not asked about candidates larger
  than every free block, and the scan is skipped when no node is free.
  An ``"index"`` strategy is asked once per started-job index, and the
  scan ends when that machine has no free node.  A ``"job"`` strategy is
  asked once per job and its answer held until the job is resolved;
  when R1 and R2 agree, the window is kept as an index whose live
  entries are bucketed by chosen machine, grown in queue order (the
  reference's first-call order), and a pass scans only the buckets of
  up machines with a free node, then starts the winners in queue
  order.  Every shortcut skips only work that could not start a job or
  change a strategy's state, so schedules are unchanged.  A strategy
  without the declaration gets every call the reference engine makes.
* **Machines** — :class:`~repro.sched.machines.MachineState` keeps its
  running allocations in a sorted list, so the EASY shadow time is a
  prefix walk with no per-event sort.

The engine is *schedule-bit-identical* to the frozen seed
implementation kept as a test oracle in ``tests/sched_reference.py`` —
pinned by ``tests/test_sched_equivalence.py`` across strategies, queue
policies, arrival patterns, and fault profiles.  Policy keys must
therefore be total orders (all built-in policies tie-break on job id)
and pure functions of the job, which the policies module already
guarantees.

Faults only add events: passing a :class:`repro.resilience.FaultInjector`
that can fire (``faults=``) puts node failures, node recoveries, job
crashes, retry requeues and attempt-tagged finishes on an event heap
that the same loop drains after each time advance.  Killed jobs are
resubmitted under a :class:`repro.resilience.RetryPolicy` (bounded
attempts, backoff, optional checkpoint/restart) and re-enter the queue
through the arrival admission; nodes go offline and recover via the
:class:`~repro.sched.machines.MachineState` availability transitions.
With no injector, or a null one, the heap stays empty and the loop ends
once every job has started, so fault support costs nothing when off.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.telemetry import flightrec
from repro.sched.job import Job
from repro.sched.machines import ClusterState, MachineState
from repro.sched.policies import FCFSPolicy

__all__ = ["Scheduler", "ScheduleResult", "SimStats"]


@dataclass
class ScheduleResult:
    """Per-job placements and timing from one simulation run."""

    job_ids: np.ndarray
    machines: list[str]
    submit_times: np.ndarray
    start_times: np.ndarray
    end_times: np.ndarray
    runtimes: np.ndarray
    strategy_name: str
    backfilled: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        return len(self.job_ids)

    @property
    def wait_times(self) -> np.ndarray:
        return self.start_times - self.submit_times


@dataclass(frozen=True)
class SimStats:
    """Per-run event-loop counters (``Scheduler.last_run_stats``).

    Frozen so a consumer can hold a reference across runs without it
    mutating underneath, and schema'd so the telemetry counters and
    ``benchmarks/test_perf_sched.py`` cannot silently drift: the key set
    is pinned by test.
    """

    wakeups: int = 0
    starts: int = 0
    backfilled: int = 0
    retries: int = 0

    #: The pinned key schema, in canonical order.
    KEYS = ("wakeups", "starts", "backfilled", "retries", "sched_events")

    @property
    def sched_events(self) -> int:
        """Wakeups + starts: the events/sec throughput numerator."""
        return self.wakeups + self.starts

    def as_dict(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in self.KEYS}


class Scheduler:
    """Multi-resource scheduler: Algorithm 1 with pluggable R1/R2.

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
        A :class:`repro.resilience.FaultInjector`.  One that can fire
        adds its failure, recovery, crash and requeue events to the
        event loop; a null one (the ``none`` profile) leaves the loop
        fault-free.  Either way ``result.extra["faults"]`` carries the
        fault summary.  None (default) is the paper's perfect world.
    retry:
        :class:`repro.resilience.RetryPolicy` governing resubmission of
        killed jobs; defaults to unlimited attempts with exponential
        backoff.  Only consulted when faults can fire.

    Attributes
    ----------
    last_run_stats:
        Filled after each :meth:`run`: a :class:`SimStats` with
        ``wakeups`` (time advances), ``starts`` (job starts, including
        retries), ``backfilled``, ``retries``, and the derived
        ``sched_events`` (wakeups + starts — the numerator of the
        events/sec throughput metric in
        ``benchmarks/test_perf_sched.py``).
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
        self.last_run_stats: SimStats = SimStats()

    # ------------------------------------------------------------------
    def run(self, jobs: list[Job]) -> ScheduleResult:
        """Simulate scheduling of *jobs*; returns per-job outcomes."""
        if not jobs:
            raise ValueError("no jobs to schedule")
        seen: set[int] = set()
        for job in jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job_id {job.job_id}")
            seen.add(job.job_id)
        # One boundary event per run (not per job): post-mortem context
        # at ring-friendly volume, and the disabled-mode branch rides
        # the scheduler perf gate in benchmarks/test_perf_telemetry.py.
        flightrec.record(
            "sched-run", jobs=len(jobs),
            strategy=getattr(self.strategy, "name", "custom"),
        )
        with telemetry.span(
            "sched.run",
            strategy=getattr(self.strategy, "name", "custom"),
            jobs=len(jobs),
            faulty=self.faults is not None,
        ):
            result = self._run(jobs)
        # Counters are fed once per run from the loop's own tallies, so
        # the event loop itself carries zero telemetry cost.
        if telemetry.metrics_enabled():
            stats = self.last_run_stats
            telemetry.counter("sched.runs").inc()
            telemetry.counter("sched.wakeups").inc(stats.wakeups)
            telemetry.counter("sched.starts").inc(stats.starts)
            telemetry.counter("sched.backfilled").inc(stats.backfilled)
            telemetry.counter("sched.retries").inc(stats.retries)
            telemetry.histogram(
                "sched.jobs_per_run", telemetry.SIZE_BUCKETS
            ).observe(len(jobs))
        return result

    # ------------------------------------------------------------------
    def _prepare(self, jobs: list[Job]):
        """Sort arrivals and precompute the per-job R1/R2 policy keys.

        Keys are pure functions of the job (a documented policy
        contract), so computing them once at startup instead of on
        every sort is a pure strength reduction.  When the R1 and R2
        keys agree for every job (``same_order``, e.g. the default
        FCFS/FCFS pairing) the queue is already in backfill order and
        the per-event window decoration + sort can be skipped outright.
        """
        arrivals = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        r1_key = self.queue_policy.key
        r2_key = self.backfill_policy.key
        r1k = {j.job_id: r1_key(j) for j in jobs}
        r2k = {j.job_id: r2_key(j) for j in jobs}
        return arrivals, r1k, r2k, r1k == r2k


    # ------------------------------------------------------------------
    def _run(self, jobs: list[Job]) -> ScheduleResult:
        """The event loop: Algorithm 1 over arrivals and completions,
        plus fault events when the injector can fire."""
        injector = self.faults
        faulty = injector is not None and not injector.is_null
        arrivals, r1k, r2k, same_order = self._prepare(jobs)
        arrival_idx = 0
        cluster = self.cluster
        strategy = self.strategy
        assign = strategy.assign
        release = getattr(strategy, "release", None)
        depends = getattr(strategy, "assign_depends", None)
        by_index = depends == "index"
        by_job = depends == "job"
        by_load = depends == "load"
        # The engine may skip an assign call that provably cannot start
        # a job only when the call has no side effect to preserve.
        stateless = by_index or by_load
        machines = cluster.machines
        machine_list = list(machines.values())
        max_total = max(m.total_nodes for m in machine_list)
        backfill = self.backfill
        conservative = self.conservative
        depth = self.backfill_depth
        window_span = 4 * depth
        walltime_factor = self.walltime_factor
        trace = self.trace
        # A schedule pass may be elided (see `can_skip` below) only when
        # assign calls have no side effect to preserve (the protocol
        # promises an undeclared strategy every reference call, and a
        # "job" strategy its first draws in order), tracing is off (a
        # skipped pass would drop its "reserve" event), and no fault can
        # fire (kills, recoveries and requeues would each have to
        # invalidate the proof).
        skippable = stateless and not trace and not faulty
        # A "job" strategy's answers, held until the job is resolved
        # (kept on the instance so a run's leftovers can be inspected).
        chosen: dict[int, MachineState] = {}
        self._chosen = chosen
        # Backfill-window index of a "job" strategy when queue order is
        # backfill order: the window is the live entries of
        # ``queue[head_idx + 1 : win_hi]`` (`win_live` of them), each
        # in the bucket of its chosen machine, in queue order.  It is
        # synced to the head at `win_head`; an insertion below `win_hi`
        # or at the head invalidates it (`win_ok`), the compactions
        # shift it.
        indexed = by_job and same_order and backfill
        win_ok = False
        win_head = win_hi = win_live = 0
        buckets = {m: [] for m in machine_list}
        bucket_items = list(buckets.items())

        n = len(jobs)
        by_id = {j.job_id: j for j in jobs}
        # Queue of (R1 key, job_id, job) triples in sorted order from
        # `head_idx` on; keys are total so the job object is never
        # compared.  `interior_stale` counts lazily-deleted entries at
        # or beyond head_idx (backfilled jobs whose queue copy remains
        # until the next compaction).  Invariant: every such entry lies
        # inside ``queue[head_idx : head_idx + 1 + window_span]`` —
        # backfills only happen inside the window, the head cursor never
        # moves backwards, and arrivals and retries are only inserted
        # after compaction — so compaction is an O(window) splice instead
        # of a whole-queue copy.
        queue: list[tuple] = []
        head_idx = 0
        interior_stale = 0
        # job -> (machine, start, end) of its live or finished attempt.
        placed: dict[int, tuple[str, float, float]] = {}
        scheduled: set[int] = set()
        started = 0
        # Jobs that need no further machine decision: started ones when
        # no fault can fire, else finished or given-up ones.
        resolved = 0
        backfilled = 0
        now = 0.0
        wakeups = 0
        events: list[tuple[float, str, int, str]] = []
        # `_running` lists mutate in place (start/release/cancel never
        # rebind them), so the pairs bound here stay valid for the whole
        # run and `r[0][0]` peeks replace two method calls per machine
        # per wakeup.
        running_of = [(m, m._running) for m in machine_list]
        # True while the last schedule pass provably cannot decide
        # differently: it left the head blocked (or the live queue
        # empty), and since then no completion freed nodes and no
        # arrival landed inside the head's backfill window.  Free nodes
        # can only shrink between releases and the shadow-feasibility
        # test is monotone in `now`, so every candidate the pass
        # rejected stays rejected — the rerun is a no-op and is elided.
        can_skip = False

        # Fault state; everything stays empty unless faults can fire.
        # Event heap entries: (time, tiebreak, kind, a, b).
        evq: list[tuple[float, int, str, int | str, int]] = []
        ev_seq = 0
        readmit: list[int] = []              # requeued, awaiting admission
        attempts: dict[int, int] = {}        # job -> attempts started
        progress: dict[int, float] = {}      # job -> work fraction done
        running: dict[int, tuple[int, int]] = {}  # job -> (alloc id, attempt)
        failed_perm: set[int] = set()
        wasted = 0.0                         # node-seconds of lost work
        node_failures = 0
        job_crashes = 0
        preemptions = 0                      # kills caused by node failures
        retries = 0

        def push(time: float, kind: str, a, b=0) -> None:
            nonlocal ev_seq
            heapq.heappush(evq, (time, ev_seq, kind, a, b))
            ev_seq += 1

        if faulty:
            from repro.resilience.retry import RetryPolicy

            retry = self.retry if self.retry is not None else RetryPolicy()
            for m_name in cluster.names:
                gap = injector.next_failure_gap(m_name)
                if gap is not None:
                    push(gap, "fail", m_name)

        def remaining(jid: int) -> float:
            """Work fraction left after checkpointed attempts."""
            return max(0.0, 1.0 - progress[jid])

        def resolve(jid: int) -> None:
            """A job needs no further machine decision; its sticky
            strategy-cache entries can be evicted."""
            nonlocal resolved
            resolved += 1
            if by_job:
                del chosen[jid]
            if release is not None:
                release(jid)

        def choose(job: Job):
            """A "job" strategy's machine: drawn on first use, then held
            until the job is resolved."""
            machine = chosen.get(job.job_id)
            if machine is None:
                machine = chosen[job.job_id] = machines[
                    assign(job, started, cluster)]
            return machine

        def start_job(job: Job, machine_name: str) -> None:
            nonlocal started
            jid = job.job_id
            runtime = job.runtime_on(machine_name)
            if jid in progress:
                runtime *= remaining(jid)
            end = now + runtime
            seq = machines[machine_name].start(job.nodes_required, end)
            placed[jid] = (machine_name, now, end)
            scheduled.add(jid)
            started += 1
            if not faulty:
                resolve(jid)
                return
            attempt = attempts.get(jid, 0) + 1
            attempts[jid] = attempt
            running[jid] = (seq, attempt)
            push(end, "finish", jid, attempt)
            crash_at = injector.crash_offset(jid, attempt, runtime)
            if crash_at is not None:
                push(now + crash_at, "crash", jid, attempt)

        def kill(jid: int, cause: str) -> None:
            """Terminate a running attempt and arrange its retry."""
            nonlocal wasted, retries
            seq, attempt = running.pop(jid)
            m_name, start, _ = placed.pop(jid)
            machines[m_name].cancel(seq)
            job = by_id[jid]
            elapsed = now - start
            if retry.checkpoint:
                progress[jid] = min(
                    1.0,
                    progress.get(jid, 0.0) + elapsed / job.runtime_on(m_name),
                )
            else:
                wasted += job.nodes_required * elapsed
            if trace:
                events.append((now, cause, jid, m_name))
            if retry.gives_up(attempt):
                failed_perm.add(jid)  # stays in `scheduled`: never requeued
                if trace:
                    events.append((now, "give_up", jid, m_name))
                resolve(jid)
                return
            retries += 1
            push(now + retry.delay(attempt, jid), "requeue", jid)

        def node_failure(m_name: str) -> None:
            nonlocal node_failures, preemptions
            machine = machines[m_name]
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
                    (jid for jid in running if placed[jid][0] == m_name),
                    key=lambda jid: (placed[jid][2], jid),
                )
                preemptions += 1
                kill(victim, "node_kill")
            machine.take_offline(1)
            node_failures += 1
            if trace:
                events.append((now, "node_fail", -1, m_name))
            push(now + injector.repair_duration(m_name), "recover", m_name)

        def fire(kind: str, a, b: int) -> None:
            """Apply one fault-heap event due at `now`."""
            nonlocal job_crashes
            if kind == "finish" or kind == "crash":
                info = running.get(a)
                if info is None or info[1] != b:
                    return  # the attempt it belonged to was killed
                if kind == "finish":
                    del running[a]
                    resolve(a)
                else:
                    job_crashes += 1
                    kill(a, "crash")
            elif kind == "fail":
                node_failure(a)
            elif kind == "recover":
                machines[a].bring_online(1)
                if trace:
                    events.append((now, "node_recover", -1, a))
            else:  # "requeue": the retry re-enters through admission
                readmit.append(a)
                if trace:
                    events.append((now, "requeue", a, ""))

        while resolved < n:
            # -- admit due arrivals and requeued retries -----------------
            if readmit or (arrival_idx < n
                           and arrivals[arrival_idx].submit_time <= now):
                if interior_stale:
                    # Splice the stale entries out of the window region
                    # (equivalent to the reference engine's whole-queue
                    # compaction by the invariant above).  Requeued jobs
                    # are still marked scheduled here, so a stale copy
                    # of one goes too.  The split at `win_hi` keeps the
                    # window index on the same entries.
                    hi = head_idx + 1 + window_span
                    cut = win_hi if win_ok else head_idx
                    below = [e for e in queue[head_idx:cut]
                             if e[1] not in scheduled]
                    queue[head_idx:hi] = below + [
                        e for e in queue[cut:hi] if e[1] not in scheduled
                    ]
                    win_hi = head_idx + len(below)
                    interior_stale = 0
                    can_skip = False  # live entries shifted into the window
                for jid in readmit:
                    scheduled.discard(jid)
                    entry = (r1k[jid], jid, by_id[jid])
                    pos = bisect(queue, entry, head_idx)
                    queue.insert(pos, entry)
                    if pos < win_hi:
                        win_ok = False
                readmit.clear()
                win_end = head_idx + 1 + window_span
                qlen = len(queue)
                while (arrival_idx < n
                       and arrivals[arrival_idx].submit_time <= now):
                    job = arrivals[arrival_idx]
                    entry = (r1k[job.job_id], job.job_id, job)
                    if qlen and entry < queue[-1]:
                        pos = bisect(queue, entry, head_idx)
                        queue.insert(pos, entry)
                    else:
                        # Monotone R1 keys (FCFS): the whole arrival
                        # batch lands as O(1) tail appends.
                        pos = qlen
                        queue.append(entry)
                    qlen += 1
                    if pos < win_end:
                        can_skip = False
                    if pos < win_hi:
                        win_ok = False  # it entered the window or the head
                    arrival_idx += 1

            # -- schedule pass -------------------------------------------
            if not can_skip:
                while True:
                    while (head_idx < len(queue)
                           and queue[head_idx][1] in scheduled):
                        # Entries skipped here are exactly the backfilled
                        # jobs counted in interior_stale (head starts bump
                        # head_idx directly, below).
                        head_idx += 1
                        interior_stale -= 1
                    if win_ok and head_idx != win_head:
                        # The head moved on.  A new head from inside the
                        # window is the first entry of its bucket (the
                        # live entries before it have all started).
                        if head_idx < win_hi:
                            del buckets[chosen[queue[head_idx][1]]][0]
                            win_live -= 1
                        else:
                            win_hi = head_idx + 1
                        win_head = head_idx
                    if head_idx > 64 and head_idx * 2 > len(queue):
                        del queue[:head_idx]
                        win_hi -= head_idx
                        win_head = head_idx = 0
                    if head_idx >= len(queue):
                        break
                    head = queue[head_idx][2]
                    try:
                        machine = (choose(head) if by_job
                                   else machines[assign(head, started,
                                                        cluster)])
                    except RuntimeError:
                        # No usable machine: transient while offline
                        # nodes cause it, a configuration error when the
                        # job exceeds every machine outright.
                        if not faulty or head.nodes_required > max_total:
                            raise
                        break
                    m_name = machine.name
                    if (not machine.can_ever_fit(head.nodes_required)
                            and (not faulty
                                 or head.nodes_required
                                 > machine.total_nodes)):
                        # Offline nodes only come back through fault
                        # events, so without them the job can never run.
                        raise RuntimeError(
                            f"job {head.job_id} needs {head.nodes_required} "
                            f"nodes; {m_name} has {machine.total_nodes}"
                        )
                    if machine.can_fit(head.nodes_required):
                        start_job(head, m_name)
                        if trace:
                            events.append((now, "start", head.job_id, m_name))
                        head_idx += 1
                        continue

                    if not backfill or head_idx + 1 >= len(queue):
                        break
                    if stateless:
                        total_free = sum(m.free_nodes for m in machine_list)
                        if total_free == 0 and not trace:
                            # No machine can start anything and assign
                            # has no side effect, so the whole backfill
                            # pass would be a no-op; skip it.
                            break
                    # EASY: reserve head at its machine's shadow time,
                    # then scan a bounded near-head window in R2 order.
                    try:
                        shadow = machine.shadow_time(head.nodes_required, now)
                    except RuntimeError:
                        break  # offline nodes block the reservation; wait
                    if trace:
                        events.append((shadow, "reserve", head.job_id,
                                       m_name))
                    if indexed:
                        if not win_ok:
                            for bucket in buckets.values():
                                bucket.clear()
                            win_head, win_hi, win_live = head_idx, head_idx + 1, 0
                            win_ok = True
                        # Grow the index to the reference window: the
                        # first `depth` live entries among the next
                        # `window_span`.  Entries are drawn as they
                        # enter, in queue order: the reference's
                        # first-call order.
                        cap = min(len(queue), head_idx + 1 + window_span)
                        while win_live < depth and win_hi < cap:
                            e = queue[win_hi]
                            win_hi += 1
                            if e[1] not in scheduled:
                                buckets[choose(e[2])].append(e)
                                win_live += 1
                        # Candidates on different machines never compete
                        # for nodes, so each bucket of an up machine with
                        # a free node is scanned alone, in queue order,
                        # with the reference's tests.
                        winners = []
                        for m, bucket in bucket_items:
                            free = m.free_nodes
                            if not free or not bucket or m.state != "up":
                                continue
                            usable = m.total_nodes - m.offline_nodes
                            c_name = m.name
                            guarded = conservative or m is machine
                            won = []
                            for i, e in enumerate(bucket):
                                cand = e[2]
                                need = cand.nodes_required
                                if need > free or need > usable:
                                    continue
                                if guarded:
                                    estimate = cand.runtime_on(c_name)
                                    if cand.job_id in progress:
                                        estimate *= remaining(cand.job_id)
                                    if now + estimate * walltime_factor > shadow:
                                        continue
                                won.append(i)
                                free -= need
                                if not free:
                                    break
                            for i in reversed(won):
                                winners.append(bucket.pop(i))
                        # Start in queue order, as the reference does, so
                        # allocation ids, fault events and the trace match.
                        winners.sort()
                        for e in winners:
                            cand = e[2]
                            c_name = chosen[cand.job_id].name
                            start_job(cand, c_name)
                            if trace:
                                events.append((now, "backfill_start",
                                               cand.job_id, c_name))
                        win_live -= len(winners)
                        interior_stale += len(winners)
                        backfilled += len(winners)
                        break  # head still blocked; wait for an event
                    if same_order:
                        # Queue order *is* R2 order: scan the raw window
                        # in place, counting live entries up to `depth`
                        # — identical to filter-then-truncate because
                        # live job ids are unique in the queue (a
                        # candidate this scan starts is never seen again
                        # later in the same scan).  When no entry is
                        # stale the bound degrades to the next `depth`
                        # raw entries and the membership test is skipped.
                        lo = head_idx + 1
                        check_stale = interior_stale > 0
                        hi = min(len(queue),
                                 lo + (window_span if check_stale
                                       else depth))
                        cands = None
                    else:
                        if interior_stale:
                            window = [
                                (r2k[e[1]], e[1], e[2])
                                for e in
                                queue[head_idx + 1:
                                      head_idx + 1 + window_span]
                                if e[1] not in scheduled
                            ]
                        else:
                            window = [
                                (r2k[e[1]], e[1], e[2])
                                for e in
                                queue[head_idx + 1:
                                      head_idx + 1 + window_span]
                            ]
                        window.sort()
                        cands = [e[2] for e in window[:depth]]
                        lo, hi, check_stale = 0, len(cands), False
                    if by_load:
                        max_free = max(m.free_nodes for m in machine_list)
                    taken = 0
                    epoch = -1
                    for i in range(lo, hi):
                        if taken == depth:
                            break
                        if cands is None:
                            e = queue[i]
                            if check_stale and e[1] in scheduled:
                                continue
                            cand = e[2]
                        else:
                            cand = cands[i]
                        taken += 1
                        need = cand.nodes_required
                        if by_index:
                            if started != epoch:
                                # One answer per started index.  While
                                # its machine has no free node, nothing
                                # can start, so the index cannot move.
                                epoch = started
                                try:
                                    c_machine = machines[
                                        assign(cand, started, cluster)]
                                except RuntimeError:
                                    if not faulty:
                                        raise
                                    break
                                if (c_machine.state != "up"
                                        or not c_machine.free_nodes):
                                    break
                        else:
                            if (by_load and need > max_free
                                    and need <= max_total):
                                # No machine has a block this large free
                                # right now, so the candidate cannot
                                # start; skipping the call changes
                                # nothing.
                                continue
                            try:
                                c_machine = (
                                    choose(cand) if by_job
                                    else machines[assign(cand, started,
                                                         cluster)])
                            except RuntimeError:
                                if not faulty:
                                    raise
                                continue  # no usable machine while nodes are out
                        c_name = c_machine.name
                        if (c_machine.total_nodes
                                - c_machine.offline_nodes < need):
                            continue  # can_ever_fit, inlined
                        if (c_machine.state != "up"
                                or c_machine.free_nodes < need):
                            continue  # can_fit, inlined
                        # Feasibility uses the (possibly inflated)
                        # estimate of the remaining work; actual
                        # execution uses the true runtime.
                        estimate = cand.runtime_on(c_name)
                        if cand.job_id in progress:
                            estimate *= remaining(cand.job_id)
                        finishes = now + estimate * walltime_factor
                        if c_name == m_name and finishes > shadow:
                            # Would delay the head's reservation (the
                            # head consumes every node freed up to the
                            # shadow time by construction).
                            continue
                        if conservative and finishes > shadow:
                            # Conservative mode: nothing may outlive the
                            # reservation horizon, even on other
                            # machines.
                            continue
                        start_job(cand, c_name)
                        backfilled += 1
                        interior_stale += 1
                        if trace:
                            events.append((now, "backfill_start",
                                           cand.job_id, c_name))
                        if stateless:
                            total_free -= need
                            if total_free <= 0:
                                break
                            if by_load:
                                max_free = max(m.free_nodes
                                               for m in machine_list)
                    break  # head still blocked; wait for an event
                can_skip = skippable

            if resolved >= n:
                break
            # Advance time to the next event: the earliest machine
            # completion (peeks inlined: the `_running` lists are the
            # live objects), arrival, or fault event.  Every live attempt
            # also has a finish event, so under faults this is the heap
            # head or the next arrival, and finish events left by killed
            # attempts still wake the loop.
            next_t = evq[0][0] if evq else None
            for m, r in running_of:
                if r:
                    t = r[0][0]
                    if next_t is None or t < next_t:
                        next_t = t
            if arrival_idx < n:
                next_arrival = arrivals[arrival_idx].submit_time
                if next_t is None or next_arrival < next_t:
                    next_t = next_arrival
            if next_t is None:
                raise RuntimeError("deadlock: no events but jobs unresolved")
            if next_t > now:
                now = next_t
            for m, r in running_of:
                if r and r[0][0] <= now:
                    # Bulk-release every allocation due by `now`; freed
                    # nodes invalidate the no-op-pass proof.
                    m.release_until(now)
                    can_skip = False
            wakeups += 1
            while evq and evq[0][0] <= now:
                fire(*heapq.heappop(evq)[2:])

        self.last_run_stats = SimStats(
            wakeups=wakeups, starts=started, backfilled=backfilled,
            retries=retries,
        )
        ids = np.array(sorted(placed), dtype=np.int64)
        placements = [placed[i][0] for i in ids]
        starts = np.array([placed[i][1] for i in ids])
        ends = np.array([placed[i][2] for i in ids])
        extra = {}
        if injector is None:
            runtimes = np.array(
                [by_id[i].runtime_on(m) for i, m in zip(ids, placements)]
            )
        else:
            # With an injector the reference reports each job's final
            # attempt span, which can differ from its runtime in the
            # last bit.
            runtimes = ends - starts
            extra["faults"] = {
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
        if trace:
            extra["events"] = events
        return ScheduleResult(
            job_ids=ids,
            machines=placements,
            submit_times=np.array([by_id[i].submit_time for i in ids]),
            start_times=starts,
            end_times=ends,
            runtimes=runtimes,
            strategy_name=getattr(self.strategy, "name", "custom"),
            backfilled=backfilled,
            extra=extra,
        )
