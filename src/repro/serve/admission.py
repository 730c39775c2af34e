"""Admission control: bounded in-flight work with graceful shedding.

An unbounded service queues until it falls over; this controller keeps
the queue honest with two watermarks over the in-flight request count:

* below ``soft_limit``          — **full** service: the request joins a
  micro-batch and gets a model-tier prediction;
* ``soft_limit``..``hard_limit``— **degraded**: the request is answered
  immediately from the :class:`ResilientPredictor`'s model-free tiers
  (``mean_rpv`` when training stats are loaded, else ``heuristic``) —
  O(1), no queueing, honestly labeled with its tier;
* at ``hard_limit``             — **shed**: a typed 503, the caller's
  signal to back off.

Shedding *into the degradation chain* instead of straight to errors is
the serving-time continuation of the chain's design: a coarse answer
now beats a precise answer after the deadline, and the tier label keeps
the quality loss observable (``tier_snapshot`` + the
``serve.admission.*`` counters below).

SLO mode (default off): pass an
:class:`~repro.telemetry.slo.SLOShedPolicy` and decisions below the
hard limit also follow error-budget burn — the service sheds when
sustained latency/availability burn says the SLO is in danger, not when
a raw in-flight count happens to spike.  The hard limit stays on as the
memory-safety backstop.  Watermark mode is not a second policy: it is
SLO mode whose burn decision always reads ``"full"``, so both run one
decision path.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import ServeError

__all__ = ["AdmissionController"]

#: Admission decisions, best first.
DECISIONS = ("full", "degraded", "shed")


class AdmissionController:
    """Watermark-based admission over an in-flight counter."""

    def __init__(self, soft_limit: int = 64, hard_limit: int = 256,
                 slo=None):
        if soft_limit < 1:
            raise ServeError(f"soft_limit must be >= 1, got {soft_limit}",
                             code=500, reason="bad-config")
        if hard_limit < soft_limit:
            raise ServeError(
                f"hard_limit ({hard_limit}) must be >= soft_limit "
                f"({soft_limit})",
                code=500, reason="bad-config",
            )
        self.soft_limit = int(soft_limit)
        self.hard_limit = int(hard_limit)
        #: Optional SLOShedPolicy; None = pure watermark mode.
        self.slo = slo
        self.inflight = 0
        self.peak_inflight = 0
        self.counts = {d: 0 for d in DECISIONS}

    # ------------------------------------------------------------------
    def state(self) -> str:
        """The decision an arriving request would get *right now*.

        Pure read — no counters move — so error payloads can report the
        admission state without perturbing the series.
        """
        if self.inflight >= self.hard_limit:
            return "shed"
        # Shed on sustained budget burn, degrade on fast burn OR the
        # soft watermark.  Without a policy the burn reads "full" (a
        # constant: a stand-in policy's observe() locks per request).
        burn = "full" if self.slo is None else self.slo.decision()
        if burn == "shed":
            return "shed"
        if burn == "degraded" or self.inflight >= self.soft_limit:
            return "degraded"
        return "full"

    def decide(self) -> str:
        """Admission decision for one arriving request (and count it)."""
        decision = self.state()
        self.counts[decision] += 1
        telemetry.counter(f"serve.admission.{decision}").inc()
        return decision

    def observe(self, latency_s: float, ok: bool = True) -> None:
        """Feed one finished request to the SLO policy (no-op without)."""
        if self.slo is not None:
            self.slo.observe(latency_s, ok)

    def enter(self) -> None:
        """Account one admitted (full or degraded) request in-flight."""
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        telemetry.gauge("serve.inflight").set(self.inflight)

    def exit(self) -> None:
        self.inflight -= 1
        telemetry.gauge("serve.inflight").set(self.inflight)

    # ------------------------------------------------------------------
    def shed_error(self) -> ServeError:
        return ServeError(
            f"service overloaded ({self.inflight} requests in flight, "
            f"limit {self.hard_limit}); retry with backoff",
            code=503, reason="shed",
        )

    def snapshot(self) -> dict:
        """JSON-ready admission state (``/metrics``)."""
        out = {
            "inflight": self.inflight,
            "peak_inflight": self.peak_inflight,
            "soft_limit": self.soft_limit,
            "hard_limit": self.hard_limit,
            "decisions": dict(self.counts),
        }
        if self.slo is not None:
            out["slo"] = self.slo.snapshot()
        return out
