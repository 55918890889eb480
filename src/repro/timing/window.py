"""The timed fast window: a lone running context's whole cycles.

Almost every timed instruction issues while exactly one context in the
whole machine is RUNNING: the main thread of a baseline run, the main
thread of a DTT run between activations, or a support thread while main
waits at a ``tcheck``.  In that state the per-cycle loop
(``SmtCore.cycle`` -> ``_issue`` -> ``Machine.step`` + ``_latency``) does
a great deal of generic work to reach a fixed answer: one context takes
every slot until it stalls.  :func:`run_window` issues those cycles
directly from a per-PC table of *timed thunks* and leaves exactly the
state the per-cycle loop would have left.

**Timed thunks.**  :func:`build_timed_table` lowers the program for one
core.  A thunk applies the instruction's architectural effect and returns
its next PC; when the instruction makes the context busy (latency above
one cycle) it returns ``~(next_pc | latency << 32)`` instead:

* static-latency ops reuse the machine's closure thunks
  (:mod:`repro.machine.fastpath`), wrapped to encode the latency only
  when it exceeds one cycle;
* loads and stores call :meth:`CacheHierarchy.access` (an L1 hit at or
  below ``load_hide_latency`` does not stall, as in ``SmtCore``);
* conditional branches call :meth:`BranchPredictor.predict_and_update`;
* ``tst``/``tstx``/``tcheck``/``treturn``/``halt`` are *boundary ops*:
  their thunk returns ``-1`` and the window issues them through
  ``SmtCore._issue`` (``Machine.step`` + ``_latency``) on exact state,
  because they call the DTT engine or change context state.

**Entry and exit.**  :meth:`TimingSimulator.run` enters the window at a
cycle boundary when no machine observer is attached, the I-cache is not
modeled, exactly one context is RUNNING, the engine cannot dispatch (no
queued activation or no idle context), and at least a full cycle of
instructions remains below ``max_instructions``.  Only boundary ops can
change the first three, so the window rechecks them after each one; it
leaves at the end of the cycle in which one failed, or when the
instruction headroom drops below the issue width (the per-cycle loop
then raises :class:`ExecutionLimitExceeded` on the same instruction).

**Mid-cycle wake.**  A support thread's ``treturn`` can unblock main in
the middle of a cycle.  The window then finishes that cycle in the
per-cycle machinery: the context's own core resumes its round-robin pass
just after the waking context (:meth:`SmtCore.issue_from`) and later
cores run :meth:`SmtCore.cycle`.  There is one round-robin, in
``SmtCore``.

**Accounting.**  Machine and context instruction counters are reconciled
before every boundary op and at exit; class counts, issue counts, busy
cycles and every core's rotation (bumped once per cycle begun, including
the empty cycle before a stall fast-forward) are reconciled at exit.  A
fault inside a thunk leaves the state ``Machine.step`` would: the
attempt is counted, ``ctx.pc`` is the faulting instruction, and the
interrupted cycle is neither counted busy nor completed.

The per-cycle loop stays as the path for multi-context windows and as
the test oracle (``TimingSimulator._run_per_cycle``).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.errors import ExecutionFault, ExecutionLimitExceeded
from repro.isa.instructions import OPCODES, OpClass
from repro.machine.context import ContextRole, ContextState
from repro.machine.fastpath import _BRANCH_OPS, build_thunks
from repro.machine.machine import _h_ld, _h_ldx, _h_st, _h_stx

_RUNNING = ContextState.RUNNING
_IDLE = ContextState.IDLE

#: stall latencies sit above the next PC in an encoded thunk return
_SHIFT = 32
_PC_MASK = (1 << _SHIFT) - 1

#: class index of each OpClass in the window's per-class counters
_CLASSES = list(OpClass)
_CLASS_INDEX = {op_class: n for n, op_class in enumerate(_CLASSES)}

#: ops issued through ``SmtCore._issue`` instead of a thunk
_BOUNDARY_OPS = frozenset({"tst", "tstx", "tcheck", "treturn", "halt"})


def _encode(next_pc: int, latency: int) -> int:
    """A thunk's return value: the next PC, plus its stall when busy."""
    return ~(next_pc | latency << _SHIFT) if latency > 1 else next_pc


def _boundary(ctx) -> int:
    return -1


def _t_stall(base, latency):
    """A closure thunk whose instruction keeps the context busy."""
    stall = latency << _SHIFT

    def thunk(ctx):
        return ~(base(ctx) | stall)

    return thunk


def _t_ld(machine, access, core_id, threshold, i, pc):
    mem = machine.memory
    get, limit = mem._words.get, mem.limit
    a, b, c, nxt = i.a, i.b, i.c, pc + 1

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + c
        if address.__class__ is int and 0 <= address < limit:
            mem.load_count += 1
            regs[a] = get(address, 0)
        else:
            _h_ld(machine, ctx, i, pc)
        cycles = access(core_id, address, False)
        if cycles > threshold:
            return ~(nxt | cycles << _SHIFT)
        return nxt

    return thunk


def _t_ldx(machine, access, core_id, threshold, i, pc):
    mem = machine.memory
    get, limit = mem._words.get, mem.limit
    a, b, c, nxt = i.a, i.b, i.c, pc + 1

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + regs[c]
        if address.__class__ is int and 0 <= address < limit:
            mem.load_count += 1
            regs[a] = get(address, 0)
        else:
            _h_ldx(machine, ctx, i, pc)
        cycles = access(core_id, address, False)
        if cycles > threshold:
            return ~(nxt | cycles << _SHIFT)
        return nxt

    return thunk


def _t_st(machine, access, core_id, i, pc, ret):
    mem = machine.memory
    words, limit = mem._words, mem.limit
    a, b, c = i.a, i.b, i.c

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + c
        if address.__class__ is int and 0 <= address < limit:
            mem.store_count += 1
            words[address] = regs[a]
        else:
            _h_st(machine, ctx, i, pc)
        access(core_id, address, True)
        return ret

    return thunk


def _t_stx(machine, access, core_id, i, pc, ret):
    mem = machine.memory
    words, limit = mem._words, mem.limit
    a, b, c = i.a, i.b, i.c

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + regs[c]
        if address.__class__ is int and 0 <= address < limit:
            mem.store_count += 1
            words[address] = regs[a]
        else:
            _h_stx(machine, ctx, i, pc)
        access(core_id, address, True)
        return ret

    return thunk


def _t_branch(test, predict, i, pc, outcomes):
    a, b = i.a, i.b
    taken_hit, taken_miss, fall_hit, fall_miss = outcomes

    def thunk(ctx):
        regs = ctx.regs
        if test(regs[a], regs[b]):
            return taken_hit if predict(pc, True) else taken_miss
        return fall_hit if predict(pc, False) else fall_miss

    return thunk


def _t_beqz(predict, i, pc, outcomes):
    a = i.a
    taken_hit, taken_miss, fall_hit, fall_miss = outcomes

    def thunk(ctx):
        if ctx.regs[a] == 0:
            return taken_hit if predict(pc, True) else taken_miss
        return fall_hit if predict(pc, False) else fall_miss

    return thunk


def _t_bnez(predict, i, pc, outcomes):
    a = i.a
    taken_hit, taken_miss, fall_hit, fall_miss = outcomes

    def thunk(ctx):
        if ctx.regs[a] != 0:
            return taken_hit if predict(pc, True) else taken_miss
        return fall_hit if predict(pc, False) else fall_miss

    return thunk


def build_timed_table(core) -> Tuple[List[Callable], List[int]]:
    """Lower ``core.machine``'s program into timed thunks for ``core``.

    Returns ``(thunks, classes)``: one thunk and one class index (into
    ``list(OpClass)``) per PC.  The thunks bind the core's id, the
    hierarchy's ``access`` and the predictor's ``predict_and_update`` as
    they are when the table is built.
    """
    machine = core.machine
    params = core.params
    latency = params.latency
    # a private closure table: caching it on the machine would tie the
    # machine into a reference cycle that outlives the run
    functional = build_thunks(machine)
    access = core.hierarchy.access
    predict = core.predictor.predict_and_update
    core_id = core.core_id
    # SmtCore._latency: a load stalls when max(cycles, 1) > 1 and
    # cycles > load_hide_latency
    threshold = max(params.load_hide_latency, 1)
    branch = latency[OpClass.BRANCH]
    miss = branch + params.mispredict_penalty
    thunks: List[Callable] = []
    classes: List[int] = []
    for pc, i in enumerate(machine.program.instructions):
        op = i.op
        op_class = OPCODES[op].op_class
        if op in _BOUNDARY_OPS:
            thunk = _boundary
        elif op == "ld":
            thunk = _t_ld(machine, access, core_id, threshold, i, pc)
        elif op == "ldx":
            thunk = _t_ldx(machine, access, core_id, threshold, i, pc)
        elif op == "st" or op == "stx":
            build = _t_st if op == "st" else _t_stx
            thunk = build(machine, access, core_id, i, pc,
                          _encode(pc + 1, latency[op_class]))
        elif op_class is OpClass.BRANCH:
            outcomes = (_encode(i.target, branch), _encode(i.target, miss),
                        _encode(pc + 1, branch), _encode(pc + 1, miss))
            if op == "beqz":
                thunk = _t_beqz(predict, i, pc, outcomes)
            elif op == "bnez":
                thunk = _t_bnez(predict, i, pc, outcomes)
            else:
                thunk = _t_branch(_BRANCH_OPS[op], predict, i, pc,
                                  outcomes)
        elif latency[op_class] > 1:
            thunk = _t_stall(functional[pc], latency[op_class])
        else:
            thunk = functional[pc]
        thunks.append(thunk)
        classes.append(_CLASS_INDEX[op_class])
    return thunks, classes


def lone_context(sim):
    """The context the window may issue from now, or None.

    Exactly one context RUNNING, the engine unable to dispatch, and a
    full cycle of instructions below the dynamic-instruction limit.
    """
    machine = sim.machine
    lone = None
    for ctx in machine.contexts:
        if ctx.state is _RUNNING:
            if lone is not None:
                return None
            lone = ctx
    if lone is None:
        return None
    if sim.engine is not None and sim.engine.queue and _any_idle(machine):
        return None
    headroom = machine.max_instructions - machine.instructions_executed
    if headroom < sim.cores[lone.core_id].params.issue_width:
        return None
    return lone


def _any_idle(machine) -> bool:
    for ctx in machine.contexts:
        if ctx.state is _IDLE:
            return True
    return False


def _others_running(machine, ctx) -> bool:
    for other in machine.contexts:
        if other is not ctx and other.state is _RUNNING:
            return True
    return False


def _credit(machine, ctx, n: int) -> None:
    """Add ``n`` retired instructions to the machine and context counters."""
    machine.instructions_executed += n
    ctx.instruction_count += n
    if ctx.role is ContextRole.MAIN:
        machine.main_instructions += n
    else:
        machine.support_instructions += n


def run_window(sim, ctx) -> None:
    """Issue whole cycles of ``ctx`` (from :func:`lone_context`).

    Returns at a cycle boundary once the window's conditions fail (see
    the module docstring); raises exactly what the per-cycle loop would.
    """
    machine = sim.machine
    engine = sim.engine
    core = sim.cores[ctx.core_id]
    table, classes = sim._timed_table(core)
    size = len(table)
    width = core.params.issue_width
    max_cycles = sim.config.max_cycles
    room = machine.max_instructions - machine.instructions_executed
    counts = [0] * len(_CLASSES)
    now = sim.now
    pc = ctx.pc
    busy = ctx.busy_until
    cycles_begun = 0
    busy_cycles = 0
    pending = 0  # thunk-issued instructions not yet credited
    retired = 0  # every instruction the window issued
    issued = mark = 0  # this cycle's issues; those already credited
    t = now
    open_cycle = False  # left inside cycle t: a fault or a wake
    stepping = False  # inside SmtCore._issue, which does its own counting
    leave = False
    over = False
    try:
        while room >= width and not leave:
            cycles_begun += 1
            if busy > now:
                # the empty cycle, then the per-cycle loop's fast-forward
                now += 1
                if busy > now:
                    now = busy
                if now > max_cycles:
                    over = True
                    break
                continue
            t = now
            issued = mark = 0
            while True:
                v = table[pc](ctx)
                if v >= 0:
                    counts[classes[pc]] += 1
                    pc = v
                    issued += 1
                    if issued < width:
                        continue
                    break
                v = ~v
                if v:
                    counts[classes[pc]] += 1
                    pc = v & _PC_MASK
                    busy = t + (v >> _SHIFT)
                    issued += 1
                    break
                # boundary op: the per-instruction path on exact state
                _credit(machine, ctx, pending + issued - mark)
                pending = 0
                ctx.pc = pc
                ctx.busy_until = busy
                sim.now = t
                stepping = True
                core._issue(ctx, t)
                stepping = False
                issued += 1
                mark = issued
                pc = ctx.pc
                busy = ctx.busy_until
                room = (machine.max_instructions
                        - machine.instructions_executed + issued)
                if _others_running(machine, ctx):
                    open_cycle = True  # a treturn woke another context
                    break
                if ctx.state is not _RUNNING or (
                        engine is not None and engine.queue
                        and _any_idle(machine)):
                    leave = True
                if ctx.state is not _RUNNING or busy > t or issued >= width:
                    break
            if open_cycle:
                break
            pending += issued - mark
            mark = issued
            retired += issued
            room -= issued
            busy_cycles += 1
            now = t + 1
            if now > max_cycles:
                over = True
                break
    except BaseException as exc:
        open_cycle = True
        if not stepping:
            # as in step(): the faulting attempt counts, ctx.pc names it
            pending += 1
            if exc.__class__ is IndexError and pc >= size:
                raise ExecutionFault(
                    f"context {ctx.context_id} ran off the end of the "
                    f"program (pc={pc})"
                ) from None
        raise
    finally:
        # reconcile everything the loop kept in locals
        _credit(machine, ctx, pending + issued - mark)
        if not stepping:  # else ctx.pc is where the handler left it
            ctx.pc = pc
            ctx.busy_until = busy
        if open_cycle:
            retired += issued
        sim.window_instructions += retired
        class_counts = core.class_counts
        for index, n in enumerate(counts):
            class_counts[_CLASSES[index]] += n
        core.instructions_issued += sum(counts)
        core.busy_cycles += busy_cycles
        # an open cycle has bumped the rotation of the cores up to this
        # one; the later cores' bump belongs to their own cycle() call
        for other in sim.cores:
            bumps = cycles_begun
            if open_cycle and other.core_id > core.core_id:
                bumps -= 1
            other._rotation = (other._rotation + bumps) % len(other.contexts)
        sim.now = t if open_cycle else now
    if over:
        raise ExecutionLimitExceeded(f"exceeded {max_cycles} simulated cycles")
    if open_cycle:
        # finish cycle t in SmtCore: resume the round-robin pass just
        # after ctx on its core, then run the later cores' cycles
        offset = (core.contexts.index(ctx) - core._rotation) % len(
            core.contexts)
        core.issue_from(t, issued, offset + 1)
        for later in sim.cores[core.core_id + 1:]:
            later.cycle(t)
        sim.now = t + 1
        if sim.now > max_cycles:
            raise ExecutionLimitExceeded(
                f"exceeded {max_cycles} simulated cycles")
