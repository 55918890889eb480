"""The timing simulator: drives cores cycle-by-cycle until the program halts.

Orchestration per cycle:

1. when exactly one context is RUNNING and the engine cannot dispatch,
   the timed fast window (:mod:`repro.timing.window`) takes over and
   issues whole cycles of that context from per-PC timed thunks, until a
   boundary op (``tst``/``tcheck``/``treturn``/``halt``) changes that —
   leaving exactly the state steps 2-4 would have left;
2. otherwise the DTT engine (if any) dispatches queued support threads
   onto idle contexts — newly dispatched contexts pay the spawn latency;
3. every core issues up to its width from its ready contexts
   (:meth:`SmtCore.cycle`);
4. when *nothing* issued, the clock fast-forwards to the earliest cycle at
   which any running context becomes ready (skipping DRAM-stall dead time
   in one step), with a deadlock check when no context can ever run again.

Runs with a machine observer attached or the I-cache modeled use steps
2-4 for every cycle; so does ``_run_per_cycle``, the test oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.core.engine import DttEngine
from repro.errors import ExecutionLimitExceeded, MachineError
from repro.isa.program import Program
from repro.machine.context import ContextState
from repro.machine.machine import Machine
from repro.timing.branch import make_predictor
from repro.timing.core import SmtCore
from repro.timing.params import SystemConfig
from repro.timing.stats import EnergyModel, TimingResult
from repro.timing.window import build_timed_table, lone_context, run_window


class TimingSimulator:
    """One timed run of one program on one machine configuration."""

    def __init__(
        self,
        program: Program,
        config: Optional[SystemConfig] = None,
        engine: Optional[DttEngine] = None,
        energy_model: Optional[EnergyModel] = None,
        max_instructions: int = 50_000_000,
        metrics=None,
    ):
        self.config = config or SystemConfig()
        #: optional MetricsRegistry; cycle-breakdown gauges are published
        #: into it when the run finishes (and live engine metrics during)
        self.metrics = metrics
        self.machine = Machine(
            program,
            num_contexts=self.config.total_contexts,
            contexts_per_core=self.config.contexts_per_core,
            max_instructions=max_instructions,
        )
        self.engine = engine
        if engine is not None:
            if not engine.deferred:
                raise MachineError(
                    "the timing simulator needs a deferred-mode engine "
                    "(DttEngine(..., deferred=True))"
                )
            self.machine.attach_engine(engine)
            engine.cycle_source = lambda: self.now
            if metrics is not None:
                engine.attach_metrics(metrics)
        self.hierarchy = CacheHierarchy(
            self.config.num_cores, self.config.hierarchy_params
        )
        if self.config.model_icache:
            self.hierarchy.enable_icache()
        self.predictor = make_predictor(self.config.predictor)
        per_core = self.config.contexts_per_core
        self.cores = [
            SmtCore(
                core_id,
                self.machine.contexts[core_id * per_core: (core_id + 1) * per_core],
                self.config.core_params,
                self.hierarchy,
                self.predictor,
                self.machine,
            )
            for core_id in range(self.config.num_cores)
        ]
        if self.config.model_icache:
            for core in self.cores:
                core.model_icache = True
        self.energy_model = energy_model or EnergyModel()
        self.now = 0
        #: instructions issued inside the timed fast window
        self.window_instructions = 0
        self._timed_tables = {}

    # -- driving --------------------------------------------------------------------

    def run(self) -> TimingResult:
        """Simulate until the main context halts; returns the result.

        Cycles in which a lone context runs go through the timed fast
        window (:mod:`repro.timing.window`) unless a machine observer is
        attached or the I-cache is modeled; every other cycle, and every
        cycle of those runs, goes through the per-cycle ``SmtCore`` loop.
        Both leave bit-identical state.
        """
        window = not self.machine._observers and not any(
            core.model_icache for core in self.cores)
        try:
            return self._run(window)
        finally:
            self._timed_tables.clear()  # closures over the whole machine

    def _run_per_cycle(self) -> TimingResult:
        """:meth:`run` on the per-cycle loop alone (the test oracle)."""
        return self._run(False)

    def _run(self, window: bool) -> TimingResult:
        machine = self.machine
        engine = self.engine
        main = machine.main_context
        spawn_latency = self.config.core_params.spawn_latency
        max_cycles = self.config.max_cycles

        def charge_spawn(ctx):  # hoisted: one closure per run, not per cycle
            self._charge_spawn(ctx, spawn_latency)

        while main.state is not ContextState.HALTED:
            if window:
                lone = lone_context(self)
                if lone is not None:
                    run_window(self, lone)
                    continue
            if engine is not None:
                engine.dispatch_pending(on_dispatch=charge_spawn)
            issued = 0
            for core in self.cores:
                issued += core.cycle(self.now)
            self.now += 1
            if not issued:
                self._fast_forward()
            if self.now > max_cycles:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_cycles} simulated cycles"
                )
        return self._result()

    def _timed_table(self, core):
        """``core``'s timed thunk table, built on first use."""
        table = self._timed_tables.get(core.core_id)
        if table is None:
            table = self._timed_tables[core.core_id] = build_timed_table(core)
        return table

    def _charge_spawn(self, ctx, spawn_latency: int) -> None:
        ctx.busy_until = self.now + spawn_latency

    def _fast_forward(self) -> None:
        """Skip ahead to the next cycle where some context is ready."""
        earliest = None
        for core in self.cores:
            ready_at = core.min_ready_time(self.now)
            if ready_at >= 0 and (earliest is None or ready_at < earliest):
                earliest = ready_at
        if earliest is not None:
            if earliest > self.now:
                self.now = earliest
            return
        # No running context anywhere.  Legitimate only if the engine has
        # work it can still dispatch (queued entries + an idle context).
        if self.engine is not None and self.engine.queue:
            if self.machine.idle_contexts():
                return  # dispatch happens at the top of the next iteration
        blocked = [
            ctx.context_id
            for ctx in self.machine.contexts
            if ctx.state is ContextState.BLOCKED
        ]
        raise MachineError(
            f"timing deadlock at cycle {self.now}: no runnable context, "
            f"blocked contexts: {blocked}, "
            f"queued activations: {len(self.engine.queue) if self.engine else 0}"
        )

    # -- results ------------------------------------------------------------------------

    def _publish_metrics(self, energy: float) -> None:
        """Cycle-breakdown gauges for the finished run (last run wins)."""
        registry = self.metrics
        machine = self.machine
        registry.counter("timing.runs", "timed runs completed").inc()
        # residency of the fast window: a host-independent work counter
        registry.counter(
            "timing.instructions_total",
            "instructions retired by every timed run",
        ).inc(machine.instructions_executed)
        registry.counter(
            "timing.fast_window.instructions",
            "timed instructions issued inside the single-context window",
        ).inc(self.window_instructions)
        gauges = {
            "timing.cycles": (self.now, "simulated cycles of the last run"),
            "timing.instructions":
                (machine.instructions_executed, "committed instructions"),
            "timing.main_instructions":
                (machine.main_instructions, "main-context instructions"),
            "timing.support_instructions":
                (machine.support_instructions, "support-thread instructions"),
            "timing.ipc": (
                machine.instructions_executed / self.now if self.now else 0.0,
                "instructions per cycle"),
            "timing.branch_lookups":
                (self.predictor.lookups, "branch-predictor lookups"),
            "timing.branch_mispredicts":
                (self.predictor.mispredicts, "branch mispredictions"),
            "timing.dram_accesses":
                (self.hierarchy.dram_accesses, "DRAM accesses"),
            "timing.energy": (energy, "event-weighted energy proxy"),
        }
        for name, (value, help_text) in gauges.items():
            registry.gauge(name, help_text).set(value)
        for level, stats in self.hierarchy.level_stats().items():
            for field, value in stats.items():
                registry.gauge(
                    f"timing.cache.{level}.{field}",
                    f"{level} {field} of the last run",
                ).set(value)

    def _result(self) -> TimingResult:
        machine = self.machine
        energy = self.energy_model.energy(
            machine.instructions_executed, self.hierarchy
        )
        if self.metrics is not None:
            self._publish_metrics(energy)
        return TimingResult(
            cycles=self.now,
            instructions=machine.instructions_executed,
            main_instructions=machine.main_instructions,
            support_instructions=machine.support_instructions,
            branch_lookups=self.predictor.lookups,
            branch_mispredicts=self.predictor.mispredicts,
            cache_stats=self.hierarchy.level_stats(),
            dram_accesses=self.hierarchy.dram_accesses,
            coherence_invalidations=self.hierarchy.coherence_invalidations,
            energy=energy,
            engine_summary=self.engine.summary() if self.engine else None,
            output=list(machine.output),
            config_name=self.config.name,
        )
