"""Flight ring: a bounded sink of recent boundary events for post-mortems.

Trace mode answers "what happened?" only when it was switched on
*before* the interesting request — which is never true for the request
that crashed production.  The flight ring closes that gap: every
``telemetry.event(name, **fields)`` call (admission transitions, batch
flushes, model swaps, scheduling runs) is appended to the ring as it
runs, and when something notable happens — a shed transition, SIGTERM,
an unhandled server error — the last *capacity* events are dumped to a
manifest-inventoried ``flight.json``.  An event's ``kind`` is the
counter name it increments, so a dump and a ``/metrics`` scrape use the
same names.

Cost discipline, enforced by ``benchmarks/test_perf_telemetry.py``:

* disabled (the default), :meth:`FlightRecorder.record` is one
  attribute load and a falsy branch — no allocation, no lock;
* enabled, an append is one ``deque.append`` with ``maxlen`` under a
  lock: O(1), no growth, the oldest record falls off the back.

Timestamps are wall-clock ``time.time_ns()`` — flight dumps are for
humans correlating with logs, not for measuring durations.

The process-wide ring is ``repro.telemetry.flight``; nothing outside
``repro.telemetry`` imports this module (enforced by
``tools/check_layering.py``), so instrumented layers speak only the
``telemetry.event`` vocabulary.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["DEFAULT_CAPACITY", "FLIGHT_FORMAT_VERSION", "FlightRecorder"]

#: Ring size when :meth:`FlightRecorder.enable` is not given one: a few
#: tens of kilobytes.  The serve layer emits one event per admission
#: transition, swap and batch flush, and a flush can be as small as one
#: request, so under load this is the last few hundred requests.
DEFAULT_CAPACITY = 512

#: Format version stamped into every dump.  Version 2: event kinds are
#: the counter names of ``telemetry.event``.
FLIGHT_FORMAT_VERSION = 2


class FlightRecorder:
    """Bounded in-memory event ring with O(1) append."""

    __slots__ = ("_ring", "_lock", "_enabled", "_recorded")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False):
        self._ring: deque = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._enabled = bool(enabled)
        self._recorded = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def __len__(self) -> int:
        return len(self._ring)

    def enable(self, capacity: int | None = None) -> None:
        """Start recording; resizing drops existing events."""
        if capacity is not None and capacity != self._ring.maxlen:
            if capacity < 1:
                raise ValueError(
                    f"flight recorder capacity must be >= 1, got {capacity}"
                )
            with self._lock:
                self._ring = deque(maxlen=int(capacity))
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._recorded = 0

    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """Append one event; a no-op (one branch) while disabled."""
        if not self._enabled:
            return
        event = (time.time_ns(), kind, fields)
        with self._lock:
            self._ring.append(event)
            self._recorded += 1

    def dump(self, reason: str = "manual") -> dict:
        """JSON-ready dump of the ring, oldest event first.

        ``recorded`` counts every event since the last :meth:`clear`,
        so ``recorded - len(events)`` is how many fell off the back.
        """
        with self._lock:
            events = list(self._ring)
            recorded = self._recorded
        return {
            "flight_format_version": FLIGHT_FORMAT_VERSION,
            "reason": reason,
            "dumped_at_unix_ns": time.time_ns(),
            "capacity": self.capacity,
            "recorded": recorded,
            "events": [
                {"ts_unix_ns": ts, "kind": kind, **fields}
                for ts, kind, fields in events
            ],
        }
