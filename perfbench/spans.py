"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public entry points of the ``repro`` layers (class
methods and module functions) for the duration of one traced pass and
restores the originals afterwards.  Two kinds of wrapper exist:

* **coarse** entry points (an experiment, a timed run, a profile, a
  conversion, a store get/put) open a *span*: a record with an id, the
  id of the span that caused it, start, end and self time;
* **hot** per-instruction entry points (``Machine.step``,
  ``CacheHierarchy.access``, the predictor, engine hooks, observer hooks)
  are aggregated as ``[calls, inclusive_s, self_s]`` counters on the
  nearest enclosing coarse span, because a pass makes millions of them.

Every wrapper, hot or coarse, pushes a frame on one stack, so self time
(inclusive time minus the time of the frames nested directly inside) is
exact at every level and all self times of a pass add up to the pass's
own inclusive time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    """One coarse span: name, ids, wall-clock interval, self time and the
    hot-call counters aggregated under it."""

    __slots__ = ("child_s", "span_id", "parent_id", "name", "start", "end",
                 "counters")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float):
        #: inclusive seconds of the frames nested directly inside
        self.child_s = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        #: hot-call name -> [calls, inclusive_s, self_s]
        self.counters: Dict[str, List] = {}

    @property
    def inclusive_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.inclusive_s - self.child_s


class WrapError(RuntimeError):
    """A traced entry point does not exist (the program was refactored)."""


class Tracer:
    """Span stack plus the patches that feed it; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: every finished coarse span, in closing order
        self.spans: List[Span] = []
        # the base span catches calls made outside any opened span
        base = Span(0, None, "outside", clock())
        #: open coarse spans, innermost last
        self._coarse: List[Span] = [base]
        #: child seconds of every open frame (coarse or hot), innermost
        #: last; a closing frame adds its inclusive time to the one below
        self._child: List[float] = [0.0]
        #: counters of the innermost open coarse span (one-element cell)
        self._counters: List[Dict[str, List]] = [base.counters]
        self._next_id = 1
        self._patches: List = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(self._next_id, self._coarse[-1].span_id, name,
                    self.clock())
        self._next_id += 1
        self._coarse.append(span)
        self._child.append(0.0)
        self._counters[0] = span.counters
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        span.child_s = self._child.pop()
        self._child[-1] += span.end - span.start
        self._coarse.pop()
        self._counters[0] = self._coarse[-1].counters
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A coarse span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers -------------------------------------------------------------

    def coarse(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to run inside its own coarse span."""
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped as a ``[calls, inclusive_s, self_s]`` counter
        on the innermost open coarse span."""
        clock = self.clock
        child = self._child
        cell = self._counters

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - child.pop()
                child[-1] += elapsed
                counters = cell[0]
                try:
                    entry = counters[name]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += own
                except KeyError:
                    counters[name] = [1, elapsed, own]
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, target: str, name: str, kind: str = "coarse",
              wrap: Optional[Callable] = None) -> None:
        """Replace ``target`` (``"pkg.module:Class.attr"`` or
        ``"pkg.module:function"``) with a wrapper feeding ``name``.

        Raises :class:`WrapError` when the target no longer exists, so a
        refactor that renames a layer's entry point fails the benchmark
        instead of silently reporting zero calls.  ``wrap`` builds the
        wrapper for entry points needing more than timing (it receives the
        tracer, the name and the original function).
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError as error:
            raise WrapError(f"cannot trace {target}: {error}") from None
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                raise WrapError(f"cannot trace {target}: no {part!r}")
        if attr not in vars(owner):
            raise WrapError(f"cannot trace {target}: "
                            f"{getattr(owner, '__name__', owner)!r} "
                            f"defines no {attr!r}")
        raw = inspect.getattr_static(owner, attr)
        decorator = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            decorator = type(raw)
            fn = raw.__func__
        if wrap is not None:
            wrapped = wrap(self, name, fn)
        elif kind == "hot":
            wrapped = self.hot(name, fn)
        else:
            wrapped = self.coarse(name, fn)
        if decorator is not None:
            wrapped = decorator(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every patched attribute back (last patched, first restored)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets):
        """Patch ``targets`` (``(target, name, kind[, wrap])`` tuples) for
        the duration of the block."""
        try:
            for entry in targets:
                self.patch(*entry)
            yield self
        finally:
            self.restore()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name totals over finished spans and their hot counters.

    Returns ``name -> {"calls", "s", "self_s"}``.  ``s`` sums inclusive
    time, so a name that nests inside itself would count nested time
    twice there; self times never overlap, which is what makes them add
    up to the pass's wall time.
    """
    totals: Dict[str, Dict[str, float]] = {}

    def add(name, calls, inclusive, self_s):
        row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["s"] += inclusive
        row["self_s"] += self_s

    for span in spans:
        add(span.name, 1, span.inclusive_s, span.self_s)
        for name, (calls, inclusive, self_s) in span.counters.items():
            add(name, calls, inclusive, self_s)
    return totals


def self_time_sum(spans: List[Span]) -> float:
    """Sum of every span's and every hot counter's self time."""
    return sum(row["self_s"] for row in layer_totals(spans).values())
