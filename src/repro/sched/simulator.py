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
Both the fault-free and the failure-aware simulation run on one event
engine whose hot paths are incremental instead of recomputed:

* **Queue** — entries are ``(R1 key, job_id, job)`` triples kept in
  sorted order; R1/R2 keys are computed *once* per job at admission and
  new arrivals are merged with :func:`bisect.insort` (O(log n)
  comparisons per arrival) instead of re-sorting the whole queue.
  Lazily-deleted entries advance behind a head index with periodic
  compaction, preserving the seed implementation's backfill-window
  layout exactly.
* **Backfill window** — the bounded near-head window is decorated with
  the precomputed R2 keys, so the per-event window sort makes no Python
  key calls.  When the strategy declares ``stateless_assign`` and no
  machine has a free node, the scan is skipped outright, and during a
  scan candidates larger than the largest free block are filtered
  before the strategy is consulted — both no-ops by construction (no
  candidate could have started), so schedules are unchanged.
* **Machines** — :class:`~repro.sched.machines.MachineState` keeps its
  running allocations in a sorted list, so the EASY shadow time is a
  prefix walk with no per-event sort.

The engine is *schedule-bit-identical* to the frozen seed
implementation in :mod:`repro.sched._reference` — pinned by
``tests/test_sched_equivalence.py`` across strategies, queue policies,
arrival patterns, and fault profiles.  Policy keys must therefore be
total orders (all built-in policies tie-break on job id) and pure
functions of the job, which the policies module already guarantees.

Failure-aware mode: passing a :class:`repro.resilience.FaultInjector`
(``faults=``) extends the event loop with node failures, node
recoveries, and job crashes as first-class events alongside starts and
finishes.  Killed jobs are resubmitted under a
:class:`repro.resilience.RetryPolicy` (bounded attempts, backoff,
optional checkpoint/restart); nodes go offline and recover via the
:class:`~repro.sched.machines.MachineState` availability transitions.
With no injector the fault branches never execute, so fault support is
zero-cost (bit-identical output) when off.
"""

from __future__ import annotations

import heapq
from bisect import bisect, insort
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.telemetry import flightrec
from repro.sched.job import Job
from repro.sched.machines import ClusterState
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
        A :class:`repro.resilience.FaultInjector`.  When given (and not
        null), the simulation runs the failure-aware event loop; None
        (default) runs the fault-free loop.
    retry:
        :class:`repro.resilience.RetryPolicy` governing resubmission of
        killed jobs; defaults to unlimited attempts with exponential
        backoff.  Only consulted in failure-aware mode.

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
            if self.faults is not None:
                result = self._run_faulty(jobs)
            else:
                result = self._run_reliable(jobs)
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

    # -- shared engine pieces ------------------------------------------
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
    def _run_reliable(self, jobs: list[Job]) -> ScheduleResult:
        """The fault-free loop (the paper's perfect world)."""
        arrivals, r1k, r2k, same_order = self._prepare(jobs)
        arrival_idx = 0
        cluster = self.cluster
        strategy = self.strategy
        assign = strategy.assign
        release = getattr(strategy, "release", None)
        stateless = getattr(strategy, "stateless_assign", False)
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
        # the strategy has no call-order-dependent state — the protocol
        # promises stateful strategies the reference call sequence — and
        # tracing is off (a skipped pass would drop its "reserve" event).
        skippable = stateless and not trace

        n = len(jobs)
        # Queue of (R1 key, job_id, job) triples in sorted order from
        # `head_idx` on; keys are total so the job object is never
        # compared.  `interior_stale` counts lazily-deleted entries at
        # or beyond head_idx (backfilled jobs whose queue copy remains
        # until the next compaction).  Invariant: every such entry lies
        # inside ``queue[head_idx : head_idx + 1 + window_span]`` —
        # backfills only happen inside the window, the head cursor never
        # moves backwards, and arrivals are only inserted after
        # compaction — so compaction is an O(window) splice instead of a
        # whole-queue copy.
        queue: list[tuple] = []
        head_idx = 0
        interior_stale = 0
        machines_out: dict[int, str] = {}
        start_out: dict[int, float] = {}
        scheduled: set[int] = set()
        started = 0
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

        def start_job(job: Job, machine_name: str) -> None:
            nonlocal started
            runtime = job.runtime_on(machine_name)
            machines[machine_name].start(job.nodes_required, now + runtime)
            machines_out[job.job_id] = machine_name
            start_out[job.job_id] = now
            scheduled.add(job.job_id)
            started += 1
            if release is not None:
                release(job.job_id)

        while len(start_out) < n:
            # -- admit due arrivals ------------------------------------
            if arrival_idx < n and arrivals[arrival_idx].submit_time <= now:
                if interior_stale:
                    # Splice the stale entries out of the window region
                    # (equivalent to the reference engine's whole-queue
                    # compaction by the invariant above).
                    hi = head_idx + 1 + window_span
                    queue[head_idx:hi] = [
                        e for e in queue[head_idx:hi]
                        if e[1] not in scheduled
                    ]
                    interior_stale = 0
                    can_skip = False  # live entries shifted into the window
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
                    arrival_idx += 1

            # -- schedule pass -----------------------------------------
            if not can_skip:
                while True:
                    while (head_idx < len(queue)
                           and queue[head_idx][1] in scheduled):
                        # Entries skipped here are exactly the backfilled
                        # jobs counted in interior_stale (head starts bump
                        # head_idx directly, below).
                        head_idx += 1
                        interior_stale -= 1
                    if head_idx > 64 and head_idx * 2 > len(queue):
                        del queue[:head_idx]
                        head_idx = 0
                    if head_idx >= len(queue):
                        can_skip = skippable
                        break
                    head = queue[head_idx][2]
                    m_name = assign(head, started, cluster)
                    machine = machines[m_name]
                    if not machine.can_ever_fit(head.nodes_required):
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
                        can_skip = skippable
                        break
                    total_free = sum(m.free_nodes for m in machine_list)
                    if stateless and total_free == 0 and not trace:
                        # No machine can start anything and the strategy
                        # has no call-order-dependent state, so the whole
                        # backfill pass would be a no-op; skip it.
                        can_skip = skippable
                        break
                    # EASY: reserve head at its machine's shadow time,
                    # then scan a bounded near-head window in R2 order.
                    shadow = machine.shadow_time(head.nodes_required, now)
                    if trace:
                        events.append((shadow, "reserve", head.job_id,
                                       m_name))
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
                    max_free = max(m.free_nodes for m in machine_list)
                    taken = 0
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
                        if (stateless and need > max_free
                                and need <= max_total):
                            # No machine has a block this large free
                            # right now, so the candidate cannot start;
                            # skipping the (stateless) strategy call
                            # changes nothing.
                            continue
                        c_name = assign(cand, started, cluster)
                        c_machine = machines[c_name]
                        if (c_machine.total_nodes
                                - c_machine.offline_nodes < need):
                            continue  # can_ever_fit, inlined
                        if (c_machine.state != "up"
                                or c_machine.free_nodes < need):
                            continue  # can_fit, inlined
                        # Feasibility uses the (possibly inflated)
                        # estimate; actual execution below uses the true
                        # runtime.
                        finishes = now + (cand.runtime_on(c_name)
                                          * walltime_factor)
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
                        total_free -= need
                        if stateless and total_free <= 0:
                            break
                        max_free = max(m.free_nodes for m in machine_list)
                    can_skip = skippable
                    break  # head still blocked; wait for an event

            if len(start_out) >= n:
                break
            # Advance time to the next event (peeks inlined: the
            # `_running` lists are the live objects).
            next_done = None
            for m, r in running_of:
                if r:
                    t = r[0][0]
                    if next_done is None or t < next_done:
                        next_done = t
            if arrival_idx < n:
                next_arrival = arrivals[arrival_idx].submit_time
                if next_done is None or next_arrival < next_done:
                    next_done = next_arrival
            if next_done is None:
                raise RuntimeError("deadlock: no events but jobs unscheduled")
            if next_done > now:
                now = next_done
            for m, r in running_of:
                if r and r[0][0] <= now:
                    # Bulk-release every allocation due by `now`; freed
                    # nodes invalidate the no-op-pass proof.
                    m.release_until(now)
                    can_skip = False
            wakeups += 1

        self.last_run_stats = SimStats(
            wakeups=wakeups, starts=started, backfilled=backfilled
        )
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
            extra={"events": events} if trace else {},
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
        arrivals, r1k, r2k, same_order = self._prepare(jobs)
        arrival_idx = 0
        cluster = self.cluster
        strategy = self.strategy
        assign = strategy.assign
        release = getattr(strategy, "release", None)
        stateless = getattr(strategy, "stateless_assign", False)
        machines = cluster.machines
        machine_list = list(machines.values())
        max_total = max(m.total_nodes for m in machine_list)
        backfill = self.backfill
        conservative = self.conservative
        depth = self.backfill_depth
        window_span = 4 * depth
        walltime_factor = self.walltime_factor
        trace = self.trace

        n = len(jobs)
        by_id = {j.job_id: j for j in jobs}
        queue: list[tuple] = []
        head_idx = 0
        interior_stale = 0
        scheduled: set[int] = set()
        started = 0
        backfilled = 0
        now = 0.0
        wakeups = 0
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

        def compact_window() -> None:
            """Splice lazily-deleted entries out of the window region.

            Equivalent to the reference engine's whole-queue compaction:
            every stale entry lies inside ``queue[head_idx : head_idx +
            1 + window_span]`` (backfills only happen inside the window,
            the head cursor never moves backwards, and insertions only
            happen right after compaction).
            """
            nonlocal interior_stale
            hi = head_idx + 1 + window_span
            queue[head_idx:hi] = [
                e for e in queue[head_idx:hi] if e[1] not in scheduled
            ]
            interior_stale = 0

        def admit_arrivals() -> None:
            nonlocal arrival_idx
            if (arrival_idx >= n
                    or arrivals[arrival_idx].submit_time > now):
                return
            if interior_stale:
                compact_window()
            while (arrival_idx < n
                   and arrivals[arrival_idx].submit_time <= now):
                job = arrivals[arrival_idx]
                entry = (r1k[job.job_id], job.job_id, job)
                if queue and entry < queue[-1]:
                    insort(queue, entry, head_idx)
                else:
                    # Monotone R1 keys (FCFS): O(1) tail append.
                    queue.append(entry)
                arrival_idx += 1

        def start_job(job: Job, machine_name: str) -> None:
            nonlocal started
            jid = job.job_id
            runtime = job.runtime_on(machine_name) * remaining(jid)
            end = now + runtime
            seq = machines[machine_name].start(job.nodes_required, end)
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

        def resolve(jid: int) -> None:
            """A job is permanently done (finished or given up); its
            sticky strategy-cache entries can be evicted."""
            if release is not None:
                release(jid)

        def kill(jid: int, cause: str) -> None:
            """Terminate a running attempt and arrange its retry."""
            nonlocal wasted, retries
            info = running.pop(jid)
            machines[info["machine"]].cancel(info["seq"])
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
            if trace:
                events.append((now, cause, jid, info["machine"]))
            if retry.gives_up(attempts[jid]):
                failed_perm.add(jid)  # stays in `scheduled`: never requeued
                if trace:
                    events.append((now, "give_up", jid, info["machine"]))
                resolve(jid)
                return
            retries += 1
            push(now + retry.delay(attempts[jid], jid), "requeue", jid)

        def handle_requeue(jid: int) -> None:
            # Purge any stale queue copy (a backfilled job stays in the
            # window until compaction) *before* clearing the scheduled
            # mark, then re-admit under R1 order among the live suffix.
            if interior_stale:
                compact_window()
            scheduled.discard(jid)
            insort(queue, (r1k[jid], jid, by_id[jid]), head_idx)
            if trace:
                events.append((now, "requeue", jid, ""))

        def handle_node_failure(m_name: str) -> None:
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
                    (jid for jid, info in running.items()
                     if info["machine"] == m_name),
                    key=lambda jid: (running[jid]["end"], jid),
                )
                preemptions += 1
                kill(victim, "node_kill")
            machine.take_offline(1)
            node_failures += 1
            if trace:
                events.append((now, "node_fail", -1, m_name))
            push(now + injector.repair_duration(m_name), "recover", m_name)

        def schedule_pass() -> None:
            nonlocal head_idx, interior_stale, backfilled
            while True:
                while head_idx < len(queue) and queue[head_idx][1] in scheduled:
                    head_idx += 1
                    interior_stale -= 1
                if head_idx > 64 and head_idx * 2 > len(queue):
                    del queue[:head_idx]
                    head_idx = 0
                if head_idx >= len(queue):
                    return
                head = queue[head_idx][2]
                try:
                    m_name = assign(head, started, cluster)
                except RuntimeError:
                    # Strategy found no usable machine.  Transient when
                    # caused by offline nodes; a configuration error when
                    # the job exceeds every machine outright.
                    if not any(m.total_nodes >= head.nodes_required
                               for m in machine_list):
                        raise
                    return
                machine = machines[m_name]
                if head.nodes_required > machine.total_nodes:
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
                    return
                total_free = sum(m.free_nodes for m in machine_list)
                if stateless and total_free == 0 and not trace:
                    return
                try:
                    shadow = machine.shadow_time(head.nodes_required, now)
                except RuntimeError:
                    return  # offline nodes block the reservation; wait
                if trace:
                    events.append((shadow, "reserve", head.job_id, m_name))
                if same_order:
                    # Scan the raw window in place, counting live
                    # entries up to `depth` — identical to
                    # filter-then-truncate because live job ids are
                    # unique in the queue.
                    lo = head_idx + 1
                    check_stale = interior_stale > 0
                    hi = min(len(queue),
                             lo + (window_span if check_stale else depth))
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
                max_free = max(m.free_nodes for m in machine_list)
                taken = 0
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
                    if stateless and need > max_free and need <= max_total:
                        continue
                    try:
                        c_name = assign(cand, started, cluster)
                    except RuntimeError:
                        continue
                    c_machine = machines[c_name]
                    if not c_machine.can_ever_fit(need):
                        continue
                    if not c_machine.can_fit(need):
                        continue
                    finishes = now + (cand.runtime_on(c_name)
                                      * remaining(cand.job_id)
                                      * walltime_factor)
                    if c_name == m_name and finishes > shadow:
                        continue
                    if conservative and finishes > shadow:
                        continue
                    start_job(cand, c_name)
                    backfilled += 1
                    interior_stale += 1
                    if trace:
                        events.append((now, "backfill_start",
                                       cand.job_id, c_name))
                    total_free -= need
                    if stateless and total_free <= 0:
                        break
                    max_free = max(m.free_nodes for m in machine_list)
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
            for m in machine_list:
                r = m._running
                if r and r[0][0] <= now:
                    m.release_until(now)
            wakeups += 1

            while evq and evq[0][0] <= now:
                _, _, kind, a, b = heapq.heappop(evq)
                if kind == "finish":
                    info = running.get(a)
                    if info is not None and info["attempt"] == b:
                        running.pop(a)
                        finished[a] = (
                            info["machine"], info["start"], info["end"]
                        )
                        resolve(a)
                elif kind == "crash":
                    info = running.get(a)
                    if info is not None and info["attempt"] == b:
                        job_crashes += 1
                        kill(a, "crash")
                elif kind == "fail":
                    handle_node_failure(a)
                elif kind == "recover":
                    machines[a].bring_online(1)
                    if trace:
                        events.append((now, "node_recover", -1, a))
                elif kind == "requeue":
                    handle_requeue(a)

        self.last_run_stats = SimStats(
            wakeups=wakeups, starts=started, backfilled=backfilled,
            retries=retries,
        )
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
        if trace:
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
