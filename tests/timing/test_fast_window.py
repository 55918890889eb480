"""The timed fast window against the per-cycle oracle.

``TimingSimulator.run`` issues the cycles of a lone running context from
per-PC timed thunks (:mod:`repro.timing.window`); ``_run_per_cycle``
drives every cycle through ``SmtCore.cycle``.  Both must leave the same
state to the last counter: the suite matrix below covers every bundled
workload's baseline and DTT build on every named configuration, and the
unit tests pin the limits, faults and the runs the window must not take.
"""

import pytest

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry
from repro.errors import ExecutionLimitExceeded, MemoryFault
from repro.isa.builder import ProgramBuilder
from repro.machine.events import MachineObserver
from repro.obs.metrics import MetricsRegistry
from repro.timing import window
from repro.timing.core import SmtCore
from repro.timing.params import CoreParams, SystemConfig, named_config
from repro.timing.system import TimingSimulator
from repro.workloads.suite import SUITE

from tests.conftest import build_dtt_sum
from tests.timing.oracle import assert_invariants, compare_timed

CONFIGS = ("smt2", "cmp2", "serial", "smt4")


def _suite_simulator(name, kind, config):
    workload = SUITE[name]
    inp = workload.make_input(1234)
    if kind == "baseline":
        return lambda: TimingSimulator(workload.build_baseline(inp),
                                       named_config(config))

    def make():
        build = workload.build_dtt(inp)
        return TimingSimulator(build.program, named_config(config),
                               engine=build.engine(deferred=True))
    return make


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kind", ["baseline", "dtt"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_matches_per_cycle_oracle(name, kind, config):
    fast, oracle, sim = compare_timed(_suite_simulator(name, kind, config))
    assert fast == oracle
    assert fast["fault"] is None
    assert_invariants(sim, fast)
    # the window carries the run: a baseline never leaves it
    share = sim.window_instructions / fast["result"]["instructions"]
    assert share == 1.0 if kind == "baseline" else share > 0.8


def spin_program(n):
    """A loop of ``n`` iterations mixing ALU, multiply, load and store."""
    b = ProgramBuilder()
    b.zeros("buf", 64)
    with b.function("main"):
        with b.scratch(4) as (i, base, acc, v):
            b.la(base, "buf")
            b.li(acc, 1)
            with b.for_range(i, 0, n):
                b.ldx(v, base, i)
                b.mul(acc, acc, v)
                b.addi(acc, acc, 3)
                b.andi(v, i, 63)
                b.stx(acc, base, v)
            b.out(acc)
        b.halt()
    return b.build()


def test_instruction_limit_raises_on_the_same_instruction():
    def make():
        return TimingSimulator(spin_program(60), named_config("smt2"),
                               max_instructions=173)

    fast, oracle, sim = compare_timed(make)
    assert fast == oracle
    assert fast["fault"] == ("ExecutionLimitExceeded",
                             "exceeded 173 dynamic instructions")
    assert sim.machine.instructions_executed == 174
    assert sim.window_instructions > 150  # the window ran up to the limit


def test_cycle_limit_raises_at_the_same_cycle():
    def make():
        return TimingSimulator(spin_program(60),
                               named_config("smt2", max_cycles=97))

    fast, oracle, sim = compare_timed(make)
    assert fast == oracle
    assert fast["fault"] == ("ExecutionLimitExceeded",
                             "exceeded 97 simulated cycles")
    assert sim.window_instructions > 0


def test_faulting_load_leaves_the_oracle_state():
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(3) as (x, y, bad):
            b.li(x, 5)
            b.li(bad, -7)
            b.muli(y, x, 3)   # stalls: the fault lands after a busy gap
            b.addi(y, y, 1)
            b.ld(x, bad, 2)   # address -5: MemoryFault mid-cycle
            b.out(y)
        b.halt()
    program = b.build()

    def make():
        # two SMT cores: the fault interrupts core 0's cycle before core
        # 1's, so only core 0 has had this cycle's rotation bump
        return TimingSimulator(program, SystemConfig(
            "2x2", num_cores=2, contexts_per_core=2))

    fast, oracle, sim = compare_timed(make)
    assert fast == oracle
    assert fast["fault"][0] == MemoryFault.__name__
    assert sim.machine.main_context.pc == 4  # the faulting load
    # li, li, muli | empty | addi + the fault: all inside the window
    assert sim.window_instructions == 4


class _Counting(MachineObserver):
    def __init__(self):
        self.instructions = 0

    def on_instruction(self, ctx, pc, instruction):
        self.instructions += 1


def _forbid_window(monkeypatch):
    def fail(sim, ctx):
        raise AssertionError("the fast window ran")
    monkeypatch.setattr("repro.timing.system.run_window", fail)


def test_observer_runs_everything_on_the_per_cycle_loop(monkeypatch):
    observer = _Counting()
    program, spec = build_dtt_sum([3, 1, 4, 1, 5], [0, 2, 4], [9, 8, 7])
    plain = TimingSimulator(
        program, named_config("smt2"),
        engine=DttEngine(ThreadRegistry([spec]), deferred=True)).run()
    _forbid_window(monkeypatch)
    sim = TimingSimulator(
        program, named_config("smt2"),
        engine=DttEngine(ThreadRegistry([spec]), deferred=True))
    sim.machine.add_observer(observer)
    result = sim.run()
    assert observer.instructions == result.instructions
    assert sim.window_instructions == 0
    assert result.as_dict() == plain.as_dict()


def test_icache_runs_everything_on_the_per_cycle_loop(monkeypatch):
    _forbid_window(monkeypatch)
    fast, oracle, sim = compare_timed(lambda: TimingSimulator(
        spin_program(20), named_config("smt2", model_icache=True)))
    assert fast == oracle
    assert sim.window_instructions == 0
    assert "L1I.core0" in fast["result"]["cache_stats"]


def test_support_thread_wakes_main_mid_cycle(monkeypatch):
    """A lone support thread's treturn unblocks main inside a cycle; the
    cycle finishes in ``SmtCore``'s own round-robin, resumed mid-pass."""
    resumed = []
    issue_from = SmtCore.issue_from

    def spy(core, now, issued, offset):
        if offset:
            resumed.append((now, issued, offset))
        return issue_from(core, now, issued, offset)

    monkeypatch.setattr(SmtCore, "issue_from", spy)
    program, spec = build_dtt_sum([3, 1, 4, 1, 5], [0, 2, 4], [9, 8, 7])

    def make():
        return TimingSimulator(
            program, named_config("smt2"),
            engine=DttEngine(ThreadRegistry([spec]), deferred=True))

    fast, oracle, sim = compare_timed(make)
    assert fast == oracle
    assert resumed, "no support thread woke main inside the window"
    assert_invariants(sim, fast)


@pytest.mark.parametrize("width", [1, 3])
def test_other_issue_widths(width):
    config = named_config(
        "smt2", core_params=CoreParams(issue_width=width,
                                       mispredict_penalty=5))
    fast, oracle, sim = compare_timed(
        lambda: TimingSimulator(spin_program(40), config))
    assert fast == oracle
    assert_invariants(sim, fast)


def test_residency_counters_are_published():
    registry = MetricsRegistry()
    result = TimingSimulator(spin_program(30), named_config("smt2"),
                             metrics=registry).run()
    values = registry.as_dict()
    total = values["timing.instructions_total"]["value"]
    assert total == result.instructions
    assert values["timing.fast_window.instructions"]["value"] == total


def test_limit_headroom_below_width_stays_per_cycle():
    sim = TimingSimulator(spin_program(5), named_config("smt2"),
                          max_instructions=3)
    assert window.lone_context(sim) is None
    with pytest.raises(ExecutionLimitExceeded):
        sim.run()
    assert sim.window_instructions == 0
