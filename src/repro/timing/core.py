"""Per-core SMT issue model.

Each simulated cycle, a core issues up to ``issue_width`` instructions,
round-robin across its ready contexts (RUNNING and not busy).  Issuing an
instruction executes it functionally via the machine and charges:

* its functional-unit latency (long ops make the context busy);
* for loads, the cache-hierarchy latency — L1 hits are treated as fully
  pipelined (no stall), misses stall the context for the full latency;
* for stores, cache state is updated (fills, coherence invalidations) but
  the context does not stall — an idealized store buffer;
* for conditional branches, the misprediction penalty when the predictor
  disagrees with the architectural outcome.

The round-robin pointer advances every cycle so no context is permanently
favored — the ICOUNT-lite fairness that an SMT fetch policy provides.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cache.hierarchy import CacheHierarchy
from repro.isa.instructions import OpClass
from repro.machine.context import Context, ContextState
from repro.timing.branch import BranchPredictor
from repro.timing.params import CoreParams


class SmtCore:
    """Issue logic for one core's SMT contexts."""

    def __init__(
        self,
        core_id: int,
        contexts: List[Context],
        params: CoreParams,
        hierarchy: CacheHierarchy,
        predictor: BranchPredictor,
        machine,
    ):
        if not contexts:
            raise ValueError("a core needs at least one context")
        self.core_id = core_id
        self.contexts = contexts
        self.params = params
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.machine = machine
        #: charge instruction-fetch latency through the hierarchy's
        #: I-caches (requires hierarchy.enable_icache(); default off)
        self.model_icache = False
        self._rotation = 0
        # accounting
        self.instructions_issued = 0
        self.busy_cycles = 0
        self.class_counts: Dict[OpClass, int] = {cls: 0 for cls in OpClass}

    def cycle(self, now: int) -> int:
        """Simulate one cycle; returns instructions issued.

        Issue slots are handed out one at a time, round-robin across the
        ready contexts (starting from a rotating offset), so concurrent
        contexts genuinely *share* the width within a cycle instead of the
        first context hogging all slots.
        """
        self._rotation = (self._rotation + 1) % len(self.contexts)
        return self.issue_from(now, 0, 0)

    def issue_from(self, now: int, issued: int, offset: int) -> int:
        """The issue loop of :meth:`cycle`, resumable mid-cycle.

        Continues the current round-robin pass at ``offset`` with
        ``issued`` slots of this cycle already used; ``offset > 0`` means
        the pass has already issued.  The timed fast window calls this to
        finish a cycle in which a context it was issuing woke another
        (see :mod:`repro.timing.window`).  Returns the cycle's total.
        """
        width = self.params.issue_width
        contexts = self.contexts
        count = len(contexts)
        rotation = self._rotation
        progressed = offset > 0
        while issued < width:
            for slot in range(offset, count):
                if issued >= width:
                    break
                ctx = contexts[(rotation + slot) % count]
                if ctx.state is ContextState.RUNNING and ctx.busy_until <= now:
                    issued += self._issue(ctx, now)
                    progressed = True
            if not progressed:
                break
            progressed = False
            offset = 0
        if issued:
            self.busy_cycles += 1
        return issued

    def _issue(self, ctx: Context, now: int) -> int:
        pc = ctx.pc
        instruction, address, taken = self.machine.step(ctx)
        op_class = instruction.op_class
        self.class_counts[op_class] += 1
        self.instructions_issued += 1
        latency = self._latency(op_class, pc, address, taken)
        if self.model_icache:
            fetch = self.hierarchy.fetch(self.core_id, pc)
            if fetch > self.params.load_hide_latency and fetch > latency:
                latency = fetch
        if latency > 1:
            ctx.busy_until = now + latency
        return 1

    def _latency(self, op_class: OpClass, pc: int, address, taken) -> int:
        params = self.params
        if op_class is OpClass.LOAD:
            cycles = self.hierarchy.access(self.core_id, address, False)
            if cycles <= params.load_hide_latency:
                return 1
            return cycles
        if op_class is OpClass.STORE or op_class is OpClass.TSTORE:
            self.hierarchy.access(self.core_id, address, True)
            return params.latency[op_class]
        if op_class is OpClass.BRANCH:
            correct = self.predictor.predict_and_update(pc, taken)
            if correct:
                return params.latency[op_class]
            return params.latency[op_class] + params.mispredict_penalty
        return params.latency[op_class]

    def min_ready_time(self, now: int) -> int:
        """Earliest future cycle at which a running context becomes ready.

        Used by the driver to fast-forward over long stalls.  Returns
        ``now`` if something is ready now; a large sentinel if nothing on
        this core is running.
        """
        best = None
        for ctx in self.contexts:
            if ctx.state is ContextState.RUNNING:
                ready_at = ctx.busy_until if ctx.busy_until > now else now
                if best is None or ready_at < best:
                    best = ready_at
        return best if best is not None else -1

    def __repr__(self) -> str:
        return (
            f"SmtCore(id={self.core_id}, contexts={len(self.contexts)}, "
            f"issued={self.instructions_issued})"
        )
