"""Request coalescing: micro-batch concurrent predictions.

:class:`FlatEnsemble`'s vectorized traversal is ~7x faster per row at
small batch sizes than per-row calls (``BENCH_sched.json``) — but only
if somebody actually hands it batches.  A :class:`MicroBatcher` is that
somebody: concurrent ``submit()`` callers park on futures while their
items accumulate, and the whole batch goes through one flush callback.
The flush is work-conserving: a batch's first item schedules a check
that runs once per event-loop turn, and the batch flushes

* at the first check that finds no submission since the previous one
  (flush on ``idle`` — everything that was ready to join has joined,
  so a lone request never waits for company that is not coming),
* as soon as it reaches ``max_batch`` items (flush on ``size``), or
* at the first check after the *oldest* pending item has waited
  ``max_delay_s`` (flush on ``deadline`` — an upper bound on the wait
  while submissions keep arriving turn after turn).

Callers whose submissions land in the same loop turn (gathered submits,
HTTP requests whose bytes arrive together) share one flush.

The flush callback is synchronous (a numpy model predict, microseconds
to low milliseconds) and runs on the event loop; per-item results are
fanned back out to the callers' futures.  An item's result may itself
be an exception instance — that item's caller gets the exception, the
rest of the batch is unaffected (one bad request must never poison its
batch-mates).  If the callback *raises*, every caller in the batch gets
the failure — that is a server bug, not a request defect, and hiding it
would serve silent garbage.

Determinism for tests: the batcher never reorders — flush order is
submission order — and ``flush_now()`` forces a flush synchronously, so
batching semantics are testable without racing the wall clock.
"""

from __future__ import annotations

import asyncio
import time

from repro import telemetry
from repro.telemetry import flightrec
from repro.errors import ServeError

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce concurrent submissions into bounded batches, flushed as
    soon as the event loop has no more to add.

    Parameters
    ----------
    flush_fn:
        ``flush_fn(items) -> results`` with ``len(results) ==
        len(items)``, called with each batch in submission order.  A
        result that is an ``Exception`` instance is delivered to that
        item's caller as a raised exception.
    max_batch:
        Flush as soon as this many items are pending.
    max_delay_s:
        Upper bound on the oldest pending item's wait while new items
        keep arriving every loop turn.
    name:
        Telemetry prefix (``<name>.batch_rows`` etc.), so two batchers
        in one process keep separate series.
    """

    def __init__(
        self,
        flush_fn,
        max_batch: int = 32,
        max_delay_s: float = 0.005,
        name: str = "serve.coalescer",
    ):
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}",
                             code=500, reason="bad-config")
        if max_delay_s < 0:
            raise ServeError(
                f"max_delay_s must be >= 0, got {max_delay_s}",
                code=500, reason="bad-config",
            )
        self.flush_fn = flush_fn
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.name = name
        self._pending: list[tuple[object, asyncio.Future]] = []
        #: The next-turn check of a non-empty batch (None when empty).
        self._check: asyncio.Handle | None = None
        self._deadline = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Items waiting for the next flush."""
        return len(self._pending)

    async def submit(self, item):
        """Queue *item*; await its per-item result from the next flush."""
        if self._closed:
            raise ServeError("coalescer is closed", code=503,
                             reason="shutting-down")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((item, future))
        if len(self._pending) >= self.max_batch:
            self._flush("size")
        elif self._check is None:
            # The deadline is fixed by the batch's *first* item and
            # never moved by later arrivals: it bounds the oldest
            # item's wait, not the newest's.
            self._deadline = loop.time() + self.max_delay_s
            self._check = loop.call_soon(self._turn, loop, 0)
        return await future

    def flush_now(self) -> int:
        """Force a flush of everything pending; returns the batch size."""
        n = len(self._pending)
        self._flush("forced")
        return n

    async def close(self) -> None:
        """Refuse new submissions and flush whatever is pending."""
        self._closed = True
        self._flush("close")

    # ------------------------------------------------------------------
    def _turn(self, loop: asyncio.AbstractEventLoop, seen: int) -> None:
        """Once per loop turn while a batch is open; *seen* is the batch
        size at the previous check (0 before the first)."""
        pending = len(self._pending)
        if pending == seen:
            self._flush("idle")
        elif loop.time() >= self._deadline:
            self._flush("deadline")
        else:
            self._check = loop.call_soon(self._turn, loop, pending)

    def _flush(self, trigger: str) -> None:
        if self._check is not None:
            self._check.cancel()
            self._check = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        items = [item for item, _ in batch]
        t0 = time.perf_counter()
        try:
            results = self.flush_fn(items)
        except Exception as exc:  # noqa: BLE001 - fanned out, not hidden
            telemetry.counter(f"{self.name}.flush_errors").inc()
            flightrec.record("coalescer-flush-error", batcher=self.name,
                             rows=len(items), error=type(exc).__name__)
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        flightrec.record("coalescer-flush", batcher=self.name,
                         trigger=trigger, rows=len(items))
        if telemetry.metrics_enabled():
            telemetry.histogram(f"{self.name}.batch_seconds").observe(
                time.perf_counter() - t0
            )
            telemetry.histogram(
                f"{self.name}.batch_rows", telemetry.SIZE_BUCKETS
            ).observe(len(items))
            telemetry.counter(f"{self.name}.flush.{trigger}").inc()
        if len(results) != len(batch):
            error = ServeError(
                f"flush returned {len(results)} results for "
                f"{len(batch)} items",
                code=500, reason="batch-failure",
            )
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(batch, results):
            if future.done():
                continue  # caller went away (cancelled/timed out)
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)
