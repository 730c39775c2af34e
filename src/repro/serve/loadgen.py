"""Deterministic load generation for the prediction service.

The scheduler simulation's arrival process doubles as the service's
load generator: request arrival times come from
:func:`repro.workloads.poisson_arrivals` and request payloads from the
same profiler pipeline that builds the MP-HPC dataset (``profile_run``
-> ``run_record``), all under one seed.  Two runs with the same seed
send byte-identical payloads at identical offsets — so load-test
assertions (goodput, shed counts, tier mix) are reproducible instead of
flaky.

Defect injection is deterministic too: ``degraded_fraction`` strips a
required counter field from evenly-spaced payloads (the service answers
those from the degradation chain, HTTP 200 with a non-``model`` tier),
and ``malformed_fraction`` mangles the request schema itself (the
service rejects those with a typed 400).

The HTTP client is :class:`HttpSession`, a persistent keep-alive
connection (stdlib asyncio streams, JSON in/out) whose responses are
framed by :func:`repro.serve.protocol.read_message`, the same bounded
reader the server uses for requests.  The load driver (:func:`run_load`,
which the CLI self-test runs) spreads its requests over a fixed pool of
sessions, so sustained load measures the service, not per-request TCP
setup.  :func:`http_request` is a one-shot exchange over a fresh
session, for tests and probes.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.protocol import read_message

__all__ = [
    "HttpSession",
    "LoadReport",
    "http_request",
    "run_load",
    "synthesize_payloads",
]

#: Required counter fields stripped (round-robin) from payloads marked
#: degraded — their absence drops a record into the degradation chain.
_STRIPPABLE = ("total_instructions", "branch", "l2_load_miss")


def synthesize_payloads(
    n: int,
    seed: int = 0,
    degraded_fraction: float = 0.0,
    malformed_fraction: float = 0.0,
    apps: tuple[str, ...] | None = None,
    machines: tuple[str, ...] | None = None,
    scale: str = "1node",
) -> list[dict]:
    """*n* seeded ``/predict`` payloads from the profiler pipeline.

    Each payload profiles a seeded (app, machine) draw and wraps the
    resulting run record; ``nodes_required`` is a seeded small integer
    so placement exercises real node accounting.  Defective payloads
    land at seeded-permutation indices — ``round(n * fraction)`` of
    each kind exactly, not a coin flip per payload — so load-test
    assertions on the defect mix are equalities.
    """
    from repro.apps import APPLICATIONS, generate_inputs, get_app
    from repro.arch import SYSTEM_ORDER, get_machine
    from repro.hatchet_lite import run_record
    from repro.perfsim.config import make_run_config
    from repro.profiler import profile_run

    if n < 1:
        raise ValueError(f"need n >= 1 payloads, got {n}")
    if not 0.0 <= degraded_fraction + malformed_fraction <= 1.0:
        raise ValueError("defect fractions must sum into [0, 1]")
    app_names = tuple(apps) if apps else tuple(APPLICATIONS)
    machine_names = tuple(machines) if machines else SYSTEM_ORDER
    rng = np.random.default_rng(seed)
    n_degraded = int(round(n * degraded_fraction))
    n_malformed = int(round(n * malformed_fraction))
    shuffled = rng.permutation(n)
    degraded_at = set(shuffled[:n_degraded].tolist())
    malformed_at = set(
        shuffled[n_degraded:n_degraded + n_malformed].tolist()
    )

    payloads: list[dict] = []
    for i in range(n):
        app = get_app(app_names[int(rng.integers(len(app_names)))])
        machine = get_machine(
            machine_names[int(rng.integers(len(machine_names)))]
        )
        inp = generate_inputs(app, 1, seed=seed + i)[0]
        profile = profile_run(app, inp, machine,
                              make_run_config(app, machine, scale),
                              seed=seed + i)
        record = run_record(profile)
        payload: dict = {
            "record": record,
            "nodes_required": int(rng.integers(1, 5)),
        }
        if i in degraded_at:
            victim = _STRIPPABLE[i % len(_STRIPPABLE)]
            payload["record"] = {
                k: v for k, v in record.items() if k != victim
            }
        elif i in malformed_at:
            # Three rotating schema defects, all typed-400 material.
            defect = i % 3
            if defect == 0:
                payload = {"record": record, "features": [1.0]}
            elif defect == 1:
                payload = {"record": record, "nodes_required": 0}
            else:
                payload = {"features": ["not-a-number"]}
        payloads.append(payload)
    return payloads


# ----------------------------------------------------------------------
# Minimal HTTP client (stdlib asyncio streams)
# ----------------------------------------------------------------------
async def http_request(
    host: str,
    port: int,
    method: str = "GET",
    target: str = "/healthz",
    payload: dict | None = None,
    timeout_s: float = 30.0,
) -> tuple[int, dict]:
    """One JSON exchange on a fresh connection; returns ``(status, body)``."""
    session = HttpSession(host, port, timeout_s)
    try:
        return await session.request(method, target, payload)
    finally:
        await session.aclose()


class HttpSession:
    """A persistent keep-alive HTTP connection (stdlib asyncio streams).

    One in-flight request at a time (requests on a connection are
    sequential by construction); responses are framed by
    :func:`~repro.serve.protocol.read_message`, so the connection
    survives the exchange and a malformed response is a typed
    :class:`~repro.errors.ServeError`.  A dropped connection — server
    restart, error-path close — is re-opened transparently on the next
    request.  Close with :meth:`aclose`.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.connects = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_connected(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.timeout_s,
            )
            self.connects += 1

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        self._reader = None
        self._writer = None

    async def request(
        self,
        method: str = "GET",
        target: str = "/healthz",
        payload: dict | None = None,
    ) -> tuple[int, dict]:
        """One JSON exchange on the persistent connection."""
        await self._ensure_connected()
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"host: {self.host}:{self.port}\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            message = await asyncio.wait_for(read_message(self._reader),
                                             self.timeout_s)
            if message is None:
                raise ConnectionResetError("server closed the connection")
            (_version, status, _reason), headers, raw = message
        except BaseException:
            # Leave no half-read response behind: the next request gets
            # a fresh connection instead of desynchronized framing.
            await self.aclose()
            raise
        if headers.get("connection", "").lower() == "close":
            await self.aclose()
        return int(status), json.loads(raw.decode()) if raw else {}


# ----------------------------------------------------------------------
# Load driver
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Outcome of one load run, JSON-ready via :meth:`to_dict`."""

    sent: int = 0
    ok: int = 0
    shed: int = 0
    rejected: int = 0
    failed: int = 0
    tiers: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    latencies_s: list = field(default_factory=list)
    duration_s: float = 0.0
    #: Pool size and actual TCP connects (reconnects show up as
    #: ``connects > connections``).
    connections: int = 0
    connects: int = 0

    def observe(self, status: int, body: dict, latency_s: float) -> None:
        self.sent += 1
        self.latencies_s.append(latency_s)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == 200:
            self.ok += 1
            tier = body.get("tier", "unknown")
            self.tiers[tier] = self.tiers.get(tier, 0) + 1
        elif status == 503 and body.get("reason") == "shed":
            self.shed += 1
        elif status == 400:
            self.rejected += 1
        else:
            self.failed += 1

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q) * 1e3)

    @property
    def goodput_per_sec(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def requests_per_sec(self) -> float:
        return self.sent / self.duration_s if self.duration_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "rejected": self.rejected,
            "failed": self.failed,
            "tiers": dict(sorted(self.tiers.items())),
            "statuses": {str(k): v
                         for k, v in sorted(self.statuses.items())},
            "duration_s": round(self.duration_s, 4),
            "connections": self.connections,
            "connects": self.connects,
            "requests_per_sec": round(self.requests_per_sec, 2),
            "goodput_per_sec": round(self.goodput_per_sec, 2),
            "latency_ms": {
                "p50": round(self.percentile_ms(50), 3),
                "p99": round(self.percentile_ms(99), 3),
                "max": round(self.percentile_ms(100), 3),
            },
        }


async def run_load(
    host: str,
    port: int,
    payloads: list[dict],
    rate_per_second: float = 0.0,
    seed: int = 0,
    timeout_s: float = 30.0,
    connections: int = 8,
) -> LoadReport:
    """Fire *payloads* at the service and aggregate a report.

    With a positive *rate_per_second*, request *i* launches at the
    ``i``-th seeded Poisson arrival offset (the scheduler simulation's
    arrival process).  With rate 0, everything launches as fast as the
    pool allows — the overload shape that drives admission into
    degraded/shed territory.

    Requests are driven through a pool of *connections* persistent
    keep-alive sessions (payload *i* rides session ``i % connections``,
    a deterministic assignment).  Reusing connections keeps TCP/accept
    setup out of the measured latencies; it also bounds concurrent
    in-flight requests at the pool size, the way real clients behave.
    A session that falls behind its arrival offsets fires back-to-back
    until it catches up (closed-loop per connection).
    """
    from repro.workloads import poisson_arrivals

    if connections < 1:
        raise ValueError(f"need connections >= 1, got {connections}")
    if rate_per_second > 0:
        offsets = poisson_arrivals(len(payloads), rate_per_second,
                                   seed=seed)
    else:
        offsets = np.zeros(len(payloads))
    report = LoadReport()
    t_start = time.perf_counter()

    async def _drive(session: HttpSession, assigned) -> None:
        for payload, offset in assigned:
            delay = offset - (time.perf_counter() - t_start)
            if delay > 0:
                await asyncio.sleep(delay)
            t0 = time.perf_counter()
            try:
                status, body = await session.request(
                    "POST", "/predict", payload
                )
            except (OSError, asyncio.TimeoutError, ValueError):
                report.sent += 1
                report.failed += 1
                continue
            report.observe(status, body, time.perf_counter() - t0)

    pool = [HttpSession(host, port, timeout_s)
            for _ in range(min(connections, max(1, len(payloads))))]
    shards = [[] for _ in pool]
    for i, payload in enumerate(payloads):
        shards[i % len(pool)].append((payload, float(offsets[i])))
    try:
        await asyncio.gather(*(
            _drive(session, shard)
            for session, shard in zip(pool, shards)
        ))
    finally:
        for session in pool:
            await session.aclose()
    report.duration_s = time.perf_counter() - t_start
    report.connections = len(pool)
    report.connects = sum(s.connects for s in pool)
    return report
