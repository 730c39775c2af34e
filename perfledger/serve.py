"""The serve-records workload: a real ``repro serve`` process under a
closed-loop keep-alive load.

The callers of ``/predict`` are schedulers that wait for each placement,
so the load is a closed loop: each of the two keep-alive sessions sends
its next request only after the previous reply.  Requests walk the
payload set in passes; a phase always ends on a pass boundary, so every
payload (and the 5% of degraded ones) is sent equally often.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Keep-alive client sessions (= requests in flight at most).
CONNECTIONS = 2
#: Distinct payloads per run; a pass sends each once.
PAYLOADS = 200
DEGRADED_FRACTION = 0.05
#: Seconds a server may take from spawn to its first /healthz answer.
READY_TIMEOUT_S = 60.0


@dataclass
class Tally:
    """Exact outcome counts and latencies of one closed-loop phase."""

    sent: int = 0
    ok: int = 0
    failed: int = 0
    #: Latency of every answered request, in completion order ...
    latencies_s: list = field(default_factory=list)
    #: ... and when each completed, in seconds since the phase began.
    done_s: list = field(default_factory=list)
    elapsed_s: float = 0.0


async def closed_loop(sessions, send, n: int, deadline: float, check,
                      clock=time.perf_counter) -> Tally:
    """Drive *sessions* in a closed loop over payload indices ``0..n-1``.

    ``send(session, i)`` returns ``(status, body)``; ``check(i, status,
    body)`` says whether the answer is correct.  The loop stops at the
    first pass boundary (a multiple of *n* requests) reached at or after
    *deadline*, so ``sent`` is always a whole number of passes.
    """
    tally = Tally()
    counter = itertools.count()
    limit = None
    start = clock()

    async def drive(session) -> None:
        nonlocal limit
        while True:
            i = next(counter)
            if limit is not None and i >= limit:
                return
            if i and i % n == 0 and clock() >= deadline:
                limit = i
                return
            t0 = clock()
            try:
                status, body = await send(session, i % n)
            except (OSError, asyncio.TimeoutError, ValueError,
                    asyncio.IncompleteReadError):
                tally.sent += 1
                tally.failed += 1
                continue
            now = clock()
            tally.latencies_s.append(now - t0)
            tally.done_s.append(now - start)
            tally.sent += 1
            if check(i % n, status, body):
                tally.ok += 1
            else:
                tally.failed += 1

    await asyncio.gather(*(drive(s) for s in sessions))
    tally.elapsed_s = clock() - start
    return tally


class Workload:
    """Seeded payloads plus the offline answers they must get."""

    def __init__(self, seed: int, model_path: Path):
        from repro.core import CrossArchPredictor
        from repro.dataset.features import (
            REQUIRED_RECORD_FIELDS,
            derive_feature_frame,
        )
        from repro.frame import Frame
        from repro.serve.loadgen import synthesize_payloads

        self.payloads = synthesize_payloads(
            PAYLOADS, seed=seed, degraded_fraction=DEGRADED_FRACTION)
        predictor = CrossArchPredictor.load(model_path)
        columns = list(predictor.feature_columns)
        #: Per payload: ("model", exact rpv) or ("imputed", None).
        self.expected = []
        for payload in self.payloads:
            record = payload["record"]
            if any(f not in record for f in REQUIRED_RECORD_FIELDS):
                self.expected.append(("imputed", None))
                continue
            featured, _ = derive_feature_frame(
                Frame.from_records([record]),
                normalizer=predictor.normalizer)
            rpv = predictor.predict(featured.to_matrix(columns))[0]
            self.expected.append(("model", [float(v) for v in rpv]))
        degraded = sum(tier == "imputed" for tier, _ in self.expected)
        if degraded != round(PAYLOADS * DEGRADED_FRACTION):
            raise RuntimeError(f"{degraded} degraded payloads, expected "
                               f"{round(PAYLOADS * DEGRADED_FRACTION)}")

    def check(self, i: int, status: int, body: dict) -> bool:
        """A 200 from the expected tier; model answers bit-equal to the
        offline prediction of the same record on the same model."""
        tier, rpv = self.expected[i]
        return (status == 200 and body.get("tier") == tier
                and (rpv is None or body.get("rpv") == rpv))


class Server:
    """One ``repro serve`` process, from spawn to shutdown."""

    def __init__(self, fixtures, traced_ledger: Path | None = None):
        argv = ["serve", "--registry", str(fixtures.registry),
                "--port", "0"]
        launcher = (["-m", "repro.cli"] if traced_ledger is None
                    else [str(HERE / "serve_traced.py"), str(traced_ledger)])
        env = fixtures.env()
        env["PYTHONUNBUFFERED"] = "1"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, *argv], env=env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        lines: queue.Queue = queue.Queue()
        # Drain stdout for the server's whole life so it never blocks.
        threading.Thread(target=_pump, args=(self.proc.stdout, lines),
                         daemon=True).start()
        try:
            self.host, self.port = _await_address(lines)
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=10)
            try:
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        #: Spawn to first /healthz 200.
        self.setup_s = time.perf_counter() - t0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _await_address(lines: queue.Queue) -> tuple[str, int]:
    """The address from the server's "... on http://HOST:PORT" line."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            line = None
        if line is None:
            raise RuntimeError("repro serve exited or hung before "
                               "announcing its address")
        if "http://" in line:
            host, _, port = line.rsplit("http://", 1)[1].strip() \
                .rpartition(":")
            return host, int(port)


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


async def load_phase(server: Server, workload: Workload,
                     seconds: float) -> tuple[Tally, Tally, float]:
    """One warm-up pass, then *seconds* of measured closed loop.

    Returns the warm-up tally (answers checked, timings discarded), the
    measured tally, and the load generator's own CPU seconds per
    measured request."""
    from repro.serve.loadgen import HttpSession

    sessions = [HttpSession(server.host, server.port)
                for _ in range(CONNECTIONS)]

    async def send(session, i):
        return await session.request("POST", "/predict",
                                     workload.payloads[i])

    try:
        warm = await closed_loop(sessions, send, PAYLOADS, 0.0,
                                 workload.check)
        cpu0 = time.process_time()
        tally = await closed_loop(sessions, send, PAYLOADS,
                                  time.perf_counter() + seconds,
                                  workload.check)
        cpu_per_req = (time.process_time() - cpu0) / max(1, tally.sent)
    finally:
        for session in sessions:
            await session.aclose()
    return warm, tally, cpu_per_req
