"""Tests of the benchmark's own arithmetic (no simulation is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import passes  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _advancing(clock, seconds, inner=None):
    def fn(*args):
        clock.now += seconds
        if inner is not None:
            inner()
        return args
    return fn


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_spans_and_hot_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    leaf = tracer.hot("machine.step", _advancing(clock, 1.0))
    cycle = tracer.hot("timing.cycle",
                       _advancing(clock, 2.0, lambda: (leaf(), leaf())))
    run = tracer.coarse("timing.run",
                        _advancing(clock, 3.0, lambda: cycle()))
    with tracer.span("pass") as root:
        clock.now += 0.5
        run()
        run()
    totals = spans.layer_totals(tracer.spans)
    assert totals["timing.run"] == {"calls": 2, "s": 14.0, "self_s": 6.0}
    assert totals["timing.cycle"] == {"calls": 2, "s": 8.0, "self_s": 4.0}
    assert totals["machine.step"] == {"calls": 4, "s": 4.0, "self_s": 4.0}
    assert totals["pass"]["self_s"] == 0.5
    assert root.inclusive_s == 14.5
    assert spans.self_time_sum(tracer.spans) == root.inclusive_s


def test_hot_counters_attach_to_the_nearest_coarse_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    step = tracer.hot("machine.step", _advancing(clock, 1.0))
    with tracer.span("pass") as root:
        with tracer.span("timing.run") as inner:
            step()
        step()
    assert inner.counters == {"machine.step": [1, 1.0, 1.0]}
    assert root.counters == {"machine.step": [1, 1.0, 1.0]}
    assert inner.parent_id == root.span_id


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("fault")

    wrapped = tracer.hot("machine.step", boom)
    with tracer.span("pass") as root:
        with pytest.raises(ValueError):
            wrapped()
    assert root.counters["machine.step"] == [1, 2.0, 2.0]
    assert root.self_s == 0.0


# -- patching ----------------------------------------------------------------


def test_wrapping_a_missing_name_fails_loudly():
    tracer = spans.Tracer()
    with pytest.raises(spans.WrapError):
        tracer.patch("spans:Tracer.no_such_method", "x")
    with pytest.raises(spans.WrapError):
        tracer.patch("spans:NoSuchClass.run", "x")
    with pytest.raises(spans.WrapError):
        tracer.patch("no_such_module_here:run", "x")


def test_installed_patches_are_restored():
    module = types.ModuleType("perfbench_fake_layer")

    class Layer:
        def work(self):
            return 7

        @classmethod
        def make(cls):
            return cls()

    module.Layer = Layer
    sys.modules[module.__name__] = module
    try:
        original = vars(Layer)["work"]
        tracer = spans.Tracer()
        targets = [(f"{module.__name__}:Layer.work", "layer.work", "hot"),
                   (f"{module.__name__}:Layer.make", "layer.make", "coarse")]
        with tracer.installed(targets):
            with tracer.span("pass") as root:
                assert Layer.make().work() == 7
        assert vars(Layer)["work"] is original
        assert isinstance(vars(Layer)["make"], classmethod)
        assert root.counters["layer.work"][0] == 1
        assert [s.name for s in tracer.spans] == ["layer.make", "pass"]
    finally:
        del sys.modules[module.__name__]


# -- metrics ------------------------------------------------------------------


def _span(name, inclusive, child=0.0, counters=None):
    span = spans.Span(1, 0, name, 0.0)
    span.end = inclusive
    span.child_s = child
    span.counters = counters or {}
    return span


def test_ratio_bases_and_zero_layers():
    run = _span("timing.run", 4.0, 3.0, counters={
        "machine.step": [1000, 2.0, 1.5],
        "cache.access": [250, 0.5, 0.5],
        "core.dispatch": [40, 0.1, 0.1],
    })
    root = _span("pass", 5.0, 4.0)
    tallies = {"timed_instructions": 1000, "cycles": 800, "store_bytes": 9}
    metrics = layers.layer_metrics([run, root], 5.0, tallies, 1500,
                                   {"misses": 3, "hits": 4})
    assert metrics["timing.instr_per_s"] == 1000 / 4.0
    assert metrics["machine.step_per_instr"] == 1000 / 1500
    assert metrics["cache.access_per_instr"] == 250 / 1000
    assert metrics["core.dispatch_per_cycle"] == 40 / 800
    # no functional work here: the observer ratio's base is 1500 - 1000
    assert metrics["profiling.observer_per_instr"] == 0.0
    assert metrics["profiling.observer.calls"] == 0
    assert metrics["autoconvert.convert.s"] == 0
    assert metrics["harness.experiment.E9.s"] == 0
    assert metrics["exec.store.bytes"] == 9
    assert metrics["harness.runner.executed"] == 3
    assert metrics["harness.runner.memo_hits"] == 4
    assert metrics["trace.other_s"] == 1.0
    assert layers.ratio(1, 0) == 0.0


def test_group_shares_split_hot_calls_by_enclosing_span():
    run = _span("timing.run", 4.0, 3.0, counters={
        "machine.step": [10, 3.0, 3.0]})
    profile = _span("profiling.profile", 2.0, 1.5, counters={
        "machine.step": [10, 1.5, 1.0], "profiling.observer": [5, .5, .5]})
    store = _span("exec.store.put", 0.5)
    root = _span("pass", 7.0, 6.5)
    shares = layers.group_shares([run, profile, store, root])
    assert shares["timed path"] == 4.0
    assert shares["functional + observers"] == 2.0
    assert shares["store + harness + obs"] == 0.5
    assert shares["other"] == 0.5
    assert sum(shares.values()) == 7.0


def test_work_counter_names():
    for name in ("machine.step.calls", "cache.access_per_instr",
                 "core.dispatch_per_cycle", "exec.store.bytes",
                 "harness.runner.executed"):
        assert layers.is_work_counter(name)
    for name in ("machine.step.self_s", "timing.instr_per_s",
                 "exec.plan.s", "trace.overhead"):
        assert not layers.is_work_counter(name)


# -- operations and error_rate ------------------------------------------------


def test_error_rate_counts_failed_over_attempted():
    tally = passes.Tally()
    assert tally.check(True, "a")
    assert not tally.check(False, "b")
    tally.check(True, "c")
    tally.check(False, "d")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    assert tally.failures == ["b", "d"]
    assert passes.Tally().error_rate == 1.0  # nothing attempted is no pass


class _Spec:
    kind = "timed"

    def __init__(self, name):
        self.name = name
        self.workload = name.split(":")[0]

    def canonical(self):
        return f"{self.name}:seed=default:scale=default"


class _Result:
    def __init__(self, cycles, output=(1, 2)):
        self.cycles = cycles
        self.output = list(output)


class _Runner:
    def __init__(self, results):
        self.results = results

    def result_for(self, spec):
        return self.results[spec.name]


class _Check:
    def __init__(self, passed):
        self.name, self.passed, self.detail = "band", passed, ""


class _Experiment:
    experiment_id = "E3"

    def __init__(self, *passed):
        self.checks = [_Check(p) for p in passed]

    def render(self):
        return "E3 report"


def _suite_pass(cycles=5, seed=passes.SUITE_SEED, experiments=()):
    job = passes.SuitePass(seed, "unused-store")
    job._plan = [_Spec("mcf:baseline:smt2"), _Spec("mcf:dtt:smt2")]
    job.runner = _Runner({s.name: _Result(cycles) for s in job._plan})
    job.results = list(experiments)
    return job


def _expected(cycles=5):
    return _suite_pass(cycles, experiments=[_Experiment()]).fingerprints()


@pytest.fixture
def cycles_only(monkeypatch):
    monkeypatch.setattr(passes, "fingerprint",
                        lambda spec, result: {"cycles": result.cycles})


def test_fingerprint_mismatch_is_one_failed_operation(cycles_only):
    expected = _expected(cycles=1)
    tally = passes.Tally()
    _suite_pass(1, experiments=[_Experiment()]).check(tally, expected)
    assert (tally.attempted, tally.failed) == (3, 0)
    tally = passes.Tally()
    _suite_pass(2, experiments=[_Experiment()]).check(tally, expected)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_a_missing_report_or_run_fails(cycles_only):
    tally = passes.Tally()
    _suite_pass(5).check(tally, _expected())  # E3 was never printed
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failures == ["fingerprint mismatch: report:E3"]


def test_shape_checks_count_only_at_the_suite_seed(cycles_only, monkeypatch):
    monkeypatch.setattr(passes, "reference_output",
                        lambda workload, seed: [1, 2])
    job = _suite_pass(experiments=[_Experiment(True, False)])
    tally = passes.Tally()
    job.check(tally, _expected())
    assert (tally.attempted, tally.failed) == (5, 1)
    # a held-out seed: one operation per run's output against the model;
    # the missed band is reported, not counted
    job = _suite_pass(seed=7, experiments=[_Experiment(True, False)])
    assert job.argv[-2:] == ["--seed", "7"]
    job.runner.results["mcf:baseline:smt2"].output = [1, 3]
    tally = passes.Tally()
    job.check(tally, None)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert job.shape_line().startswith("shape checks: 1/2 hold")


def test_suite_seed_runs_the_default_command():
    assert passes.SuitePass(passes.SUITE_SEED, "s").argv == [
        "run", "all", "--store", "s"]
    assert passes.ConvertPass(7).argv == [
        "convert", "--workload", "all", "--seed", "7"]
    assert passes.spec_key(_Spec("mcf:dtt:smt2")) == "mcf:dtt:smt2"


class _ConvertRunner:
    def __init__(self, rows):
        self.rows = rows

    def autoconvert_provenance(self):
        return [dict(row) for row in self.rows]


def _convert_pass(speedup=1.5):
    job = passes.ConvertPass(passes.SUITE_SEED)
    job.runner = _ConvertRunner([
        {"workload": "mcf", "accepted": [{}], "speedup": speedup},
        {"workload": "vpr", "accepted": [], "speedup": 1.0}])
    job.stdout = ("  mcf      1/1 accepted  speedup  5.977\n"
                  "  vpr      0/1 accepted  speedup  1.000\n"
                  "           rejected 1 x no-gain\n")
    return job


def test_convert_rows_keep_each_kernels_printed_lines():
    rows = _convert_pass().rows()
    assert rows["mcf"]["output"] == ["  mcf      1/1 accepted  speedup  5.977"]
    assert rows["vpr"]["output"][1].strip() == "rejected 1 x no-gain"
    assert rows["vpr"]["provenance"]["workload"] == "vpr"


def test_convert_check_counts_each_kernel():
    expected = _convert_pass().fingerprints()
    expected["gcc"] = {}  # a kernel the pass never converted
    tally = passes.Tally()
    _convert_pass().check(tally, expected)
    # vpr: nothing accepted; gcc: missing
    assert (tally.attempted, tally.failed) == (3, 2)
    tally = passes.Tally()
    _convert_pass(speedup=1.6).check(tally, {"mcf": expected["mcf"]})
    assert tally.failures[0].startswith("conversion of mcf")


def test_capturing_keeps_the_first_runner_and_restores(monkeypatch):
    from repro.harness import cli
    from repro.harness.runner import SuiteRunner

    init = SuiteRunner.__init__
    monkeypatch.setattr(cli, "run_experiment",
                        lambda experiment_id, runner: experiment_id)
    stub = cli.run_experiment
    job = passes.Pass(passes.SUITE_SEED, ["list"])
    with job.capturing():
        first = SuiteRunner()
        SuiteRunner()
        assert cli.run_experiment("E1", first) == "E1"
    assert job.runner is first
    assert job.results == ["E1"]
    assert SuiteRunner.__init__ is init
    assert cli.run_experiment is stub


def test_reference_seconds_leave_out_the_probes_and_rescale():
    import hostspeed

    sampler = hostspeed.SpeedSampler()
    reference = hostspeed.REFERENCE_PROBE_S
    sampler.samples = [reference, 3 * reference]
    # 4 probe-units of the 40.0 s are the probes' own; the host ran at a
    # mean (1 + 1/3) / 2 = 2/3 of the reference speed, so one probe at
    # that speed takes 1.5 reference probes
    assert sampler.probe_s == pytest.approx(4 * reference)
    assert hostspeed.mean_probe_s(sampler.samples) == pytest.approx(
        1.5 * reference)
    assert sampler.reference_s(40.0) == pytest.approx(
        (40.0 - 4 * reference) / 1.5)
    assert hostspeed.rescale(3.0, reference / 2) == pytest.approx(6.0)


def test_speed_sampler_probes_on_cpu_time_and_restores_the_signal():
    import signal

    import hostspeed

    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.SpeedSampler() as sampler:
        deadline = time.process_time() + 3 * hostspeed.INTERVAL_S
        while time.process_time() < deadline:
            pass
    assert len(sampler.samples) >= 2
    assert all(sample > 0 for sample in sampler.samples)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_benchmark_json_names_every_reported_metric():
    import json

    import run

    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as handle:
        bench = json.load(handle)
    tallies = layers.new_tallies()
    reported = set(layers.layer_metrics([], 1.0, tallies, 0, {}))
    reported.add("trace.overhead")
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert {m["name"] for m in bench["end_to_end"]} == {
        "ref_cpu_s", "setup_s", "sim_instr_per_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for metric in bench["per_layer"]:
        assert metric["unit"] == layers.unit(metric["name"])

