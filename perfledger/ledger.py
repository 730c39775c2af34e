"""Span ledger fed by wrappers around a program's public functions.

The benchmark attributes time to layers without editing the program:
each layer is a wrapper installed on the attribute its caller looks up
(``module.function`` or ``Class.method``).  Synchronous wrappers nest on
one stack, so a layer's *self* time is its duration minus the time its
direct child spans cover.  A wrapper whose target no longer exists is
recorded as absent instead of failing the run, so a refactor that
renames a layer shows up in the report, not as a crash.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


def resolve(path: str):
    """Import ``package.module`` or ``package.module:Attr``; None if gone."""
    module_name, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def unattributed_pct(op_s: float, covered_s: float) -> float:
    """Share (%) of *op_s* that the named layers' *covered_s* leaves."""
    if op_s <= 0:
        raise ValueError(f"op time must be positive, got {op_s}")
    return 100.0 * (op_s - covered_s) / op_s


def _is_instance(owner) -> bool:
    """Whether *owner* is an object rather than a class or module."""
    return not (isinstance(owner, type) or inspect.ismodule(owner))


class Ledger:
    """Calls, total time and self time per layer, plus plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._on_restore: list = []

    # -- spans ---------------------------------------------------------
    def push(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def pop(self) -> tuple[float, float]:
        """Close the innermost span; returns ``(duration, child_time)``."""
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration, child

    @contextmanager
    def span(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def add(self, name: str, duration: float) -> None:
        """Record a span measured off the stack (e.g. across an await)."""
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, observe=None,
             timed: bool = True) -> bool:
        """Replace ``owner.attr`` with a wrapper feeding layer *name*.

        *observe(result, args)* runs after each call (counts, rows).
        With ``timed=False`` the wrapper only observes.  Returns False,
        and marks *name* absent, when the target is gone.
        """
        raw = (inspect.getattr_static(owner, attr, None)
               if owner is not None else None)
        if raw is None:
            self.absent.add(name)
            return False
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if _is_instance(owner):
            # Wrap what the object resolves (a bound method, say) and
            # shadow it on this object only.
            fn, kind = getattr(owner, attr), None
        ledger = self

        if timed:
            def wrapper(*args, **kwargs):
                ledger.push(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ledger.pop()
                if observe is not None:
                    observe(result, args)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(result, args)
                return result

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, kind(wrapper) if kind else wrapper)
        return True

    def wrap_sampled(self, owner, attr: str, name: str,
                     every: int) -> bool:
        """Wrap a hot leaf function off the stack: count every call into
        ``counts[name]`` (on :meth:`restore`) and time one call in
        *every* (a power of two) into layer *name*."""
        if inspect.getattr_static(owner, attr, None) is None:
            self.absent.add(name)
            return False
        fn, mask, clock = getattr(owner, attr), every - 1, self.clock
        seen = 0

        def wrapper(*args):
            nonlocal seen
            seen += 1
            if seen & mask:
                return fn(*args)
            t0 = clock()
            result = fn(*args)
            self.add(name, clock() - t0)
            return result

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)
        self._on_restore.append(lambda: self.count(name, seen))
        return True

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`restore` puts back what *owner*
        itself held, or deletes the attribute if it held nothing."""
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        self._patched.append((owner, attr, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._on_restore:
            self._on_restore.pop()()
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }
