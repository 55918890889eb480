"""Engine event tracing: a causal timeline of what the DTT machinery did.

The status table answers "how many"; the trace answers "in what order"
and — since every activation carries a stable, monotonically-assigned
``activation_id`` minted by the engine — "because of what".  Attach an
:class:`EngineTrace` to an engine (any time before the run) and read the
recorded :class:`EngineEvent` timeline afterwards:

* ``activation_id`` ties the ``fired -> enqueued -> dispatched ->
  completed/canceled`` events of one activation together, so lineage is
  an id walk rather than a thread-LIFO guess;
* ``cause_id`` records cross-activation causality: the pending
  activation that absorbed a duplicate trigger, or the fresh trigger
  that canceled an executing activation;
* ``pc`` pins trigger-side events to the static store site, which is
  what joins the trace against the redundancy profiler's site stats;
* ``cycle`` carries the simulated cycle when the engine has a cycle
  source (deferred/timed runs), so latency breakdowns can be reported
  in cycles instead of event ticks.

Implementation note: the engine emits into at most one attached trace
sink (``DttEngine.attach_trace``); the unattached hot path costs a
single ``is not None`` test per hook, mirroring the metrics layer.  The
hardware analogue is a debug port, not an observer bus.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional


class EngineEvent:
    """One traced event."""

    __slots__ = ("sequence", "kind", "thread", "address", "detail",
                 "activation_id", "cause_id", "pc", "cycle")

    def __init__(self, sequence: int, kind: str, thread: Optional[str],
                 address: Optional[int] = None, detail: str = "",
                 activation_id: Optional[int] = None,
                 cause_id: Optional[int] = None,
                 pc: Optional[int] = None,
                 cycle: Optional[int] = None):
        self.sequence = sequence
        self.kind = kind
        self.thread = thread
        self.address = address
        self.detail = detail
        #: the activation this event belongs to (None for trigger-side
        #: events that never became an activation, and consume points)
        self.activation_id = activation_id
        #: the *other* activation causally linked to this event: the
        #: pending activation that absorbed a duplicate, or the fresh
        #: activation whose trigger canceled this one
        self.cause_id = cause_id
        #: static PC of the triggering store (trigger-side events only)
        self.pc = pc
        #: simulated cycle, when the engine had a cycle source
        self.cycle = cycle

    def __repr__(self) -> str:
        at = f" addr={self.address}" if self.address is not None else ""
        act = f" act={self.activation_id}" if self.activation_id else ""
        cause = f" cause={self.cause_id}" if self.cause_id else ""
        return (f"#{self.sequence} {self.kind} {self.thread or ''}{at}"
                f"{act}{cause} {self.detail}".rstrip())


#: event kinds emitted by the trace
TSTORE = "tstore"
SUPPRESSED = "suppressed"  # same-value filter
FIRED = "fired"
DUPLICATE = "duplicate"
ENQUEUED = "enqueued"
CANCELED = "canceled"
DISPATCHED = "dispatched"
COMPLETED = "completed"
CONSUME_CLEAN = "consume-clean"
CONSUME_WAIT = "consume-wait"


class EngineTrace:
    """Records the engine's event timeline (one sink per engine).

    Constructing the trace registers it on the engine via
    :meth:`~repro.core.engine.DttEngine.attach_trace`; the engine then
    calls :meth:`record` at every hook point.

    The in-memory buffer holds at most ``max_events`` events.  ``keep``
    picks which side survives a full buffer: ``"head"`` (default)
    discards new events once full — the historical behavior — while
    ``"tail"`` evicts the oldest so the buffer always holds the most
    recent window (the right policy when the interesting events are at
    the end of a long run).  Either way ``dropped`` counts the events
    missing from memory.

    ``spill`` routes *every* event, before any buffer policy applies,
    to a sink with an ``append(event)`` method — in practice a
    :class:`~repro.obs.ctrace.CTraceWriter` with an open stream — so
    the on-disk record stays complete even when the in-memory window
    drops events.  With a spill attached (or ``keep="tail"``), sequence
    numbers advance for every event including memory-dropped ones, so
    the spilled stream numbers its events continuously; the default
    configuration preserves the historical numbering exactly.
    """

    def __init__(self, engine, max_events: int = 100_000,
                 keep: str = "head", spill=None):
        if keep not in ("head", "tail"):
            raise ValueError(
                f"keep must be 'head' or 'tail', got {keep!r}")
        self.engine = engine
        self.keep = keep
        self.spill = spill
        if keep == "tail":
            self.events = deque(maxlen=max_events)
        else:
            self.events: List[EngineEvent] = []
        self.max_events = max_events
        #: events discarded from the in-memory buffer after it filled
        #: (0 = complete in-memory trace; a spill sink still saw them)
        self.dropped = 0
        #: fast-exit flag: the engine's hot hooks read this *before*
        #: formatting event details, so a disabled sink costs one attribute
        #: load per hook instead of string building + an EngineEvent
        self.enabled = True
        self._sequence = 0
        engine.attach_trace(self)

    @property
    def truncated(self) -> bool:
        """True when at least one event was dropped (buffer filled)."""
        return self.dropped > 0

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, thread: Optional[str],
               address: Optional[int] = None, detail: str = "",
               activation_id: Optional[int] = None,
               cause_id: Optional[int] = None,
               pc: Optional[int] = None,
               cycle: Optional[int] = None) -> None:
        """Append one event (engine-facing; buffer policy applies)."""
        if not self.enabled:
            return
        full = len(self.events) >= self.max_events
        if full and self.keep == "head" and self.spill is None:
            self.dropped += 1
            return
        self._sequence += 1
        event = EngineEvent(self._sequence, kind, thread, address, detail,
                            activation_id, cause_id, pc, cycle)
        if self.spill is not None:
            self.spill.append(event)
        if not full:
            self.events.append(event)
        else:
            self.dropped += 1
            if self.keep == "tail":
                self.events.append(event)  # deque evicts the oldest

    # -- queries --------------------------------------------------------------------

    def of_kind(self, kind: str) -> List[EngineEvent]:
        """All recorded events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def of_activation(self, activation_id: int) -> List[EngineEvent]:
        """Every event stamped with (or caused by) ``activation_id``."""
        return [e for e in self.events
                if e.activation_id == activation_id
                or e.cause_id == activation_id]

    def timeline(self) -> str:
        """The whole trace, one event per line."""
        lines = [repr(event) for event in self.events]
        if self.dropped:
            marker = f"... ({self.dropped} events dropped)"
            # tail mode drops from the front, so mark the gap there
            if self.keep == "tail":
                lines.insert(0, marker)
            else:
                lines.append(marker)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        if self.dropped:
            return (f"EngineTrace({len(self.events)} events, "
                    f"{self.dropped} dropped)")
        return f"EngineTrace({len(self.events)} events)"
