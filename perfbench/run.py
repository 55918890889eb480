"""End-to-end and per-layer benchmark of the DTT reproduction harness.

Run from the root of a checkout::

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``run-all`` — ``dtt-harness run all --store DIR`` into a fresh, empty
  store: every experiment E1–E9 through one ``SuiteRunner``, serially;
* ``convert-all`` — ``dtt-harness convert --workload all``: automatic
  conversion plus the hand-conversion comparison of all 15 kernels.

``--trace 0`` times untraced passes, repeated until ``--seconds`` have
passed (at least one), and reports the end-to-end metrics: ``ref_cpu_s``
(median CPU seconds of a pass, rescaled to a reference host speed by
a probe sampled during the pass, see ``hostspeed.py``; raw CPU and wall
seconds are printed beside it), ``sim_instr_per_s`` (a pass's simulated
instructions over that median), ``setup_s`` (median set-up CPU seconds,
rescaled the same way, of several fresh interpreters doing a pass's
imports) and ``peak_rss_mb`` (this process, which runs only that
workload).

``--trace 1`` reports the per-layer metrics of ``layers.py`` from a pass
with every layer entry point wrapped.  Two child processes run beside
it: a second traced pass, whose work counters must equal the first's
exactly, and an untraced pass, whose results the traced ones must equal
and whose wall time is the base of ``trace.overhead``.

Every pass's results are checked exactly: at the suite seed (1234)
against ``reference.json`` and the experiments' shape checks; at any
other seed every run's output against the workload's pure-Python
reference model, with the shape checks (bands calibrated at the suite
seed) printed rather than counted.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
#: the run's scratch files and the traced pass's spans
CACHE = os.path.join(ROOT, ".perfbench_cache")

WORKLOADS = ("run-all", "convert-all")
#: set-up is timed this many times per run; the median is reported
SETUP_REPEATS = 7
#: host-speed probes made after each set-up interpreter exits
SETUP_PROBES = 15
#: modules a pass uses, imported during set-up so no pass pays for them
PASS_MODULES = (
    "repro.harness.experiments", "repro.harness.cli", "repro.exec.plan",
    "repro.exec.pool", "repro.exec.store", "repro.obs.manifest",
    "repro.analysis.checks", "repro.autoconvert", "repro.workloads.suite",
)


def _import_program() -> None:
    """Make ``repro`` importable from the checkout's ``src``; exit 2 when
    the program is not there (a directory holding only the benchmark)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import importlib

        for module in PASS_MODULES:
            importlib.import_module(module)
    except ImportError as error:
        print(f"perfbench: cannot import the program from {SRC}: {error}",
              file=sys.stderr)
        sys.exit(2)


def measure_setup() -> tuple:
    """Set-up of :data:`SETUP_REPEATS` fresh interpreters, each doing a
    pass's set-up (interpreter start and the program's imports; the
    command builds its runner and store inside the pass).

    Returns the medians of each interpreter's CPU seconds at the
    reference host speed (read by probes made right after it exits), of
    its raw CPU seconds and of its wall seconds.  A child's CPU seconds
    are its share of this process's ``RUSAGE_CHILDREN``, which only the
    set-up adds to while it runs.
    """
    import hostspeed

    reference, cpus, walls = [], [], []
    for _ in range(SETUP_REPEATS):
        before = _children_cpu_s()
        started = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-probe"],
                       check=True, cwd=ROOT)
        walls.append(time.perf_counter() - started)
        cpus.append(_children_cpu_s() - before)
        reference.append(hostspeed.rescale(
            cpus[-1], hostspeed.measure_probe_s(SETUP_PROBES)))
    return (statistics.median(reference), statistics.median(cpus),
            statistics.median(walls))


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class RetiredInstructions:
    """Counts instructions retired by every ``Machine`` freed while
    installed (one Python call per machine, nothing per instruction)."""

    def __init__(self):
        self.total = 0

    def __enter__(self):
        from repro.machine.machine import Machine

        if "__del__" in vars(Machine):
            raise RuntimeError("Machine already defines __del__")
        gc.collect()  # machines of earlier passes must not count here
        tally = self

        def __del__(machine):
            tally.total += machine.instructions_executed

        Machine.__del__ = __del__
        return self

    def __exit__(self, *exc):
        from repro.machine.machine import Machine

        gc.collect()
        del Machine.__del__
        return False


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class PassOutcome:
    """What one pass leaves behind once its objects are gone."""

    def __init__(self):
        self.wall_s = 0.0
        #: CPU seconds of this process during an untraced pass
        self.cpu_s = 0.0
        #: ``cpu_s`` at the reference host speed (see ``hostspeed``)
        self.ref_cpu_s = 0.0
        self.instructions = 0
        self.fingerprints = None
        self.summary = ""
        self.runner_stats = {}


def run_pass(workload: str, seed: int, scratch: str, tally, expected,
             tracer=None, targets=()) -> PassOutcome:
    """Time and check one pass of ``workload``; with a ``tracer``,
    ``targets`` are wrapped for the pass (not its checks)."""
    import passes

    outcome = PassOutcome()
    store = tempfile.mkdtemp(prefix="store-", dir=scratch)
    if workload == "run-all":
        job = passes.SuitePass(seed, store)
    else:
        job = passes.ConvertPass(seed)
    with RetiredInstructions() as retired:
        try:
            with job.capturing():
                if tracer is None:
                    import hostspeed

                    with hostspeed.SpeedSampler() as sampler:
                        started = time.perf_counter()
                        cpu_started = time.process_time()
                        job.run()
                        outcome.cpu_s = time.process_time() - cpu_started
                        outcome.wall_s = time.perf_counter() - started
                    outcome.ref_cpu_s = sampler.reference_s(outcome.cpu_s)
                else:
                    with tracer.installed(targets), \
                            tracer.span("pass") as root:
                        job.run()
                    outcome.wall_s = root.inclusive_s
            job.check(tally, expected)
            outcome.fingerprints = job.fingerprints()
            outcome.runner_stats = job.runner.cache_stats()
            if workload == "run-all":
                outcome.summary = job.paper_line() + "\n" + job.shape_line()
        except (Exception, SystemExit) as error:  # one failed operation
            traceback.print_exc()
            outcome.wall_s = outcome.cpu_s = outcome.ref_cpu_s = 0.0
            tally.check(False, f"{workload} pass raised "
                               f"{type(error).__name__}: {error}")
        del job
    outcome.instructions = retired.total
    shutil.rmtree(store, ignore_errors=True)
    return outcome


def load_expected(workload: str, seed: int):
    """Reference fingerprints for a pass, or None at a held-out seed."""
    import passes

    if seed != passes.SUITE_SEED:
        return None
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    return reference["convert" if workload == "convert-all" else "runs"]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, scratch, tally, expected) -> dict:
    """Untraced passes for ``--seconds``; medians of the pass metrics.

    A pass is one serial command in this process, so its CPU seconds are
    the wall seconds it takes on a host it has to itself.  ``ref_cpu_s``
    is a pass's CPU seconds at the reference host speed of ``hostspeed``:
    raw CPU seconds drift with the shared host's speed, and wall seconds
    also with the time it runs other tenants; both are printed.  Every
    pass of a run does the same work (same workload and seed), so
    ``sim_instr_per_s`` is one pass's simulated instructions over the
    median ``ref_cpu_s``.
    """
    setup_s, setup_cpu_s, setup_wall_s = measure_setup()
    print(f"setup: {setup_s:.3f} s at reference speed, {setup_cpu_s:.3f} s "
          f"CPU, {setup_wall_s:.3f} s wall (medians of {SETUP_REPEATS})")
    outcomes = []
    started = time.perf_counter()
    while not outcomes or time.perf_counter() - started < args.seconds:
        outcome = run_pass(args.workload, args.seed, scratch, tally,
                           expected)
        if not outcome.wall_s:
            break
        outcomes.append(outcome)
        if outcome.summary and len(outcomes) == 1:
            print(outcome.summary)
    for name in ("ref_cpu_s", "cpu_s", "wall_s"):
        print(f"passes: {len(outcomes)}  {name}: " + " ".join(
            f"{getattr(outcome, name):.3f}" for outcome in outcomes))
    ref_cpu_s = (statistics.median(o.ref_cpu_s for o in outcomes)
                 if outcomes else 0.0)
    instructions = outcomes[-1].instructions if outcomes else 0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ref_cpu_s": (ref_cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "sim_instr_per_s": (instructions / ref_cpu_s if ref_cpu_s else 0.0,
                            "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced_pass(args, scratch, tally, expected):
    """One pass with every layer entry point wrapped; returns the
    per-layer metrics, the tracer and the pass outcome."""
    import layers
    import spans
    from repro.exec.plan import _extra_workloads
    from repro.workloads.suite import SUITE

    classes = [type(w) for w in SUITE.values()]
    classes += list(_extra_workloads().values())
    tracer = spans.Tracer()
    tallies = layers.new_tallies()
    outcome = run_pass(args.workload, args.seed, scratch, tally, expected,
                       tracer, layers.targets(classes, tallies))
    metrics = layers.layer_metrics(tracer.spans, outcome.wall_s, tallies,
                                   outcome.instructions,
                                   outcome.runner_stats)
    return metrics, tracer, outcome


def _child(args, scratch) -> None:
    """Child-process body of a ``--trace 1`` run: one traced or untraced
    pass, written to ``--child-out`` for the parent to compare."""
    import passes

    tally = passes.Tally()
    expected = load_expected(args.workload, args.seed)
    metrics = {}
    if args.child == "traced":
        metrics, _, outcome = traced_pass(args, scratch, tally, expected)
    else:
        outcome = run_pass(args.workload, args.seed, scratch, tally,
                           expected)
    with open(args.child_out, "w") as handle:
        json.dump({"wall_s": outcome.wall_s, "metrics": metrics,
                   "fingerprints": outcome.fingerprints,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures}, handle)


def per_layer(args, scratch, tally, expected) -> dict:
    """Three concurrent passes and the per-layer metrics of the first.

    This process makes the traced pass the metrics come from.  One child
    makes a second traced pass; every work counter must repeat exactly
    in it.  The other makes an untraced pass: the traced results must
    equal its results, and ``trace.overhead`` is over its wall time.
    """
    import layers

    children = {}
    try:
        for kind in ("traced", "untraced"):
            out = os.path.join(scratch, f"{kind}.json")
            children[kind] = (out, subprocess.Popen(
                [sys.executable, __file__, "--workload", args.workload,
                 "--seed", str(args.seed), "--child", kind,
                 "--child-out", out],
                cwd=ROOT, stdout=subprocess.DEVNULL))
        first, tracer, outcome = traced_pass(args, scratch, tally, expected)
        for _, child in children.values():
            child.wait()
    finally:
        for _, child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    reports = {}
    for kind, (out, child) in children.items():
        if not tally.check(child.returncode == 0 and os.path.exists(out),
                           f"{kind} child pass exited {child.returncode}"):
            return {}
        with open(out) as handle:
            reports[kind] = report = json.load(handle)
        tally.attempted += report["attempted"]
        tally.failed += report["failed"]
        tally.failures.extend(report["failures"])
        tally.check(outcome.fingerprints == report["fingerprints"],
                    f"traced pass results differ from the {kind} pass")
    first["trace.overhead"] = layers.ratio(
        first["trace.pass_s"], reports["untraced"]["wall_s"])
    second = reports["traced"]["metrics"]
    for name, value in first.items():
        if layers.is_work_counter(name):
            tally.check(second.get(name) == value,
                        f"work counter {name}: {value} in one traced "
                        f"pass, {second.get(name)} in the other")
    _print_breakdown(first, tracer, layers)
    _write_spans(args, tracer)
    return {name: (value, layers.unit(name))
            for name, value in first.items()}


def _write_spans(args, tracer) -> None:
    """Keep the traced pass's spans for inspection after the run."""
    path = os.path.join(CACHE, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump([{"id": s.span_id, "parent": s.parent_id, "name": s.name,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "counters": s.counters} for s in tracer.spans], handle)
    print(f"spans: {os.path.relpath(path, ROOT)}")


def _print_breakdown(metrics, tracer, layers) -> None:
    wall = metrics["trace.pass_s"]
    shares = layers.group_shares(tracer.spans)
    print(f"traced pass {wall:.3f} s; self time by layer group:")
    for group, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {group:24s} {seconds:9.3f} s  "
              f"{layers.ratio(seconds, wall):6.1%}")
    print(f"  {'sum':24s} {sum(shares.values()):9.3f} s")
    print("work counters (repeated exactly in the second traced pass):")
    for name in sorted(metrics):
        if layers.is_work_counter(name):
            value = metrics[name]
            shown = (f"{value}" if isinstance(value, int)
                     else f"{value:.6f}")
            print(f"  {name:34s} {shown}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # child-process modes
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("traced", "untraced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _import_program()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _import_program()
    import passes

    os.makedirs(CACHE, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=CACHE)
    tally = passes.Tally()
    try:
        if args.child:
            _child(args, scratch)
            return 0
        expected = load_expected(args.workload, args.seed)
        if args.trace:
            metrics = per_layer(args, scratch, tally, expected)
        else:
            metrics = end_to_end(args, scratch, tally, expected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        shown = f"{value}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:36s} {shown} {unit}")
    print(f"error_rate {tally.error_rate:.6g} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
