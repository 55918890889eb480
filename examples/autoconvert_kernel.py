#!/usr/bin/env python3
"""The adoption workflow: convert, verify, and measure a DTT automatically.

This walkthrough does to a fresh kernel what the paper's authors did to
SPEC by hand — profile it, pick the conversion, apply it, prove it
output-identical, and measure the win — with one call to
:func:`repro.autoconvert.convert_program`.  The kernel is a small
inventory system: orders mutate stock levels (mostly no-op restocks),
and a reorder-report is derived from the stock table.  Only the plain
baseline is written here; the DTT build is synthesized.

Run:  python examples/autoconvert_kernel.py
"""

from repro import (
    Machine,
    ProgramBuilder,
    TimingSimulator,
    named_config,
    run_to_completion,
)
from repro.autoconvert import convert_program
from repro.workloads.data import int_array, update_schedule

ITEMS = 48
STEPS = 120
THRESHOLD = 20


def make_inputs(seed=7):
    stock = int_array(seed, ITEMS, (0, 60), stream="inv-stock")
    upd_idx, upd_val = update_schedule(
        seed, STEPS, stock, change_rate=0.12, value_range=(0, 60),
        stream="inv-orders",
    )
    return stock, upd_idx, upd_val


def emit_report(b):
    """reorder[i] = 1 if stock[i] < THRESHOLD; count them into total."""
    with b.scratch(5, "rp") as (sb, rb, i, v, total):
        b.la(sb, "stock")
        b.la(rb, "reorder")
        b.li(total, 0)
        with b.for_range(i, 0, ITEMS):
            b.ldx(v, sb, i)
            with b.scratch(1, "lo") as (low,):
                b.slti(low, v, THRESHOLD)
                b.stx(low, rb, i)
                b.add(total, total, low)
        with b.scratch(1, "tb") as (tb,):
            b.la(tb, "total")
            b.st(total, tb, 0)


def emit_step(b, t):
    """One order: stock[upd_idx[t]] = upd_val[t]."""
    with b.scratch(4, "up") as (ui, uv, idx, val):
        b.la(ui, "upd_idx")
        b.la(uv, "upd_val")
        b.ldx(idx, ui, t)
        b.ldx(val, uv, t)
        with b.scratch(1, "sb") as (sb,):
            b.la(sb, "stock")
            b.stx(val, sb, idx)


def emit_consume(b, checksum):
    with b.scratch(2, "co") as (tb, v):
        b.la(tb, "total")
        b.ld(v, tb, 0)
        b.add(checksum, checksum, v)
    b.out(checksum)


def build_baseline(stock, upd_idx, upd_val):
    b = ProgramBuilder()
    b.data("stock", stock)
    b.zeros("reorder", ITEMS)
    b.zeros("total", 1)
    b.data("upd_idx", upd_idx)
    b.data("upd_val", upd_val)
    with b.function("main"):
        t = b.global_reg("t")
        checksum = b.global_reg("checksum")
        b.li(checksum, 0)
        with b.for_range(t, 0, STEPS):
            emit_step(b, t)
            emit_report(b)  # recomputed every order, changed or not
            emit_consume(b, checksum)
        b.halt()
    return b.build()


def main():
    baseline = build_baseline(*make_inputs())

    print("step 1 — convert: profile, rank, synthesize, prove, measure")
    print("=" * 60)
    result = convert_program(baseline)
    print(result)
    for candidate in result.accepted:
        print(f"  accepted: region pcs {candidate.region_start}.."
              f"{candidate.region_end - 1} fed by store pc(s) "
              f"{list(candidate.store_pcs)} "
              f"({candidate.silent_fraction:.0%} silent)")
    print(f"  rejected: {result.rejected or 'none'}")
    build = result.build
    assert build is not None, "the kernel should convert"
    (spec,) = build.specs
    print()

    print("step 2 — prove it output-identical")
    print("=" * 60)
    baseline_out = run_to_completion(Machine(baseline))
    dtt_machine = Machine(build.program, num_contexts=2)
    dtt_machine.attach_engine(build.engine())
    dtt_out = run_to_completion(dtt_machine)
    assert dtt_out == baseline_out
    print(f"outputs identical over {len(dtt_out)} steps: yes\n")

    print("step 3 — measure")
    print("=" * 60)
    timed_baseline = TimingSimulator(baseline, named_config("smt2")).run()
    engine = build.engine(deferred=True)
    timed_dtt = TimingSimulator(build.program, named_config("smt2"),
                                engine=engine).run()
    assert timed_dtt.output == timed_baseline.output
    row = engine.status[spec.thread]
    print(f"baseline: {timed_baseline.cycles:>7,} cycles")
    print(f"DTT:      {timed_dtt.cycles:>7,} cycles")
    print(f"speedup:  {timed_baseline.cycles / timed_dtt.cycles:.2f}x")
    print(f"report rebuilds: {STEPS} -> {row.executions_completed} "
          f"({row.skip_fraction:.0%} of consumes skipped); "
          f"redundant loads eliminated: {result.elimination:.1%}")


if __name__ == "__main__":
    main()
