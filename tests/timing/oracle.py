"""Differential harness: the timed fast window vs the per-cycle loop.

``compare_timed(make_simulator)`` builds two fresh simulators, runs one
through :meth:`TimingSimulator.run` (fast window where it applies) and
the other through ``_run_per_cycle`` (the oracle), and returns both
end states: the full :class:`TimingResult` (or the fault, by type and
message), every core's issue accounting and rotation, every context's
architectural and timing state, and the memory counters.  Used by the
suite matrix in ``test_fast_window.py`` and the timed plan fuzz in
``tests/analysis/test_tier_fuzz.py``.
"""

from __future__ import annotations

import math

from repro.isa.instructions import OpClass
from repro.timing.stats import TimingResult


def _norm(value):
    """NaN-safe comparison key (NaN != NaN would hide agreement)."""
    if isinstance(value, float) and value != value:
        return "NaN"
    if isinstance(value, list):
        return [_norm(v) for v in value]
    if isinstance(value, dict):
        return {k: _norm(v) for k, v in value.items()}
    return value


def timed_state(sim, run):
    """Run ``sim`` with ``run`` and capture its complete end state."""
    result = fault = None
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        fault = (type(exc).__name__, str(exc))
    machine = sim.machine
    return {
        "fault": fault,
        "result": None if result is None else _norm(
            {field: getattr(result, field)
             for field in TimingResult.__slots__}),
        "now": sim.now,
        "cores": [
            (core.busy_cycles, core.instructions_issued,
             {cls.value: n for cls, n in core.class_counts.items()},
             core._rotation)
            for core in sim.cores
        ],
        "contexts": [
            (ctx.pc, ctx.state.value, ctx.busy_until, ctx.instruction_count,
             _norm(list(ctx.regs)), list(ctx.call_stack))
            for ctx in machine.contexts
        ],
        "machine": (machine.instructions_executed, machine.main_instructions,
                    machine.support_instructions, _norm(list(machine.output))),
        "memory": (machine.memory.load_count, machine.memory.store_count,
                   _norm(machine.memory.snapshot())),
        "cache": sim.hierarchy.level_stats(),
        "predictor": (sim.predictor.lookups, sim.predictor.mispredicts),
    }


def compare_timed(make_simulator):
    """``(fast_state, oracle_state, fast_simulator)`` for one program."""
    fast = make_simulator()
    oracle = make_simulator()
    return (timed_state(fast, fast.run),
            timed_state(oracle, oracle._run_per_cycle), fast)


def assert_invariants(sim, state):
    """Cheap timing invariants that hold on every finished run.

    Every data access reaches L1 once, each lower level sees exactly the
    misses of the level above (hits + misses = accesses per level), the
    class counts sum to the instructions issued, and no core issues more
    than its width per cycle.
    """
    if state["fault"] is not None:
        return
    levels = sim.hierarchy.level_stats()
    memory_classes = (OpClass.LOAD, OpClass.STORE, OpClass.TSTORE)
    l1_misses = 0
    for core in sim.cores:
        l1 = levels[f"L1.core{core.core_id}"]
        memory_ops = sum(core.class_counts[cls] for cls in memory_classes)
        assert l1["hits"] + l1["misses"] == memory_ops
        l1_misses += l1["misses"]
        assert sum(core.class_counts.values()) == core.instructions_issued
        width = core.params.issue_width
        assert core.busy_cycles >= math.ceil(core.instructions_issued / width)
        assert state["now"] >= core.busy_cycles
    l2 = levels["L2"]
    assert l2["hits"] + l2["misses"] == l1_misses
    assert levels["DRAM"]["accesses"] == l2["misses"]
    total = sum(core.instructions_issued for core in sim.cores)
    assert total == state["result"]["instructions"]
