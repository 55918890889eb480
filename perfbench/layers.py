"""Which layer entry points the traced pass wraps, and the per-layer
metrics derived from the spans they record.

Layers are the ``repro`` packages.  Entry points are named as
``"module:Class.attr"`` (wrapped on the class, so every instance sees the
wrapper) or ``"module:function"`` (wrapped in the module whose global
name the callers look up: ``repro.harness.cli:run_experiment`` rather
than the function's home module, because the CLI imported it by name).
A name that no longer exists fails the benchmark loudly
(:class:`spans.WrapError`).
"""

from __future__ import annotations

import json
from functools import partial
from typing import Dict, List

from spans import Span, layer_totals

#: hot per-instruction entry points, aggregated as counters per span
HOT = [
    ("repro.timing.core:SmtCore.cycle", "timing.cycle"),
    ("repro.machine.machine:Machine.step", "machine.step"),
    ("repro.machine.machine:Machine.run", "machine.run"),
    ("repro.cache.hierarchy:CacheHierarchy.access", "cache.access"),
    ("repro.timing.branch:BranchPredictor.predict_and_update",
     "timing.branch"),
    ("repro.core.engine:DttEngine.on_triggering_store", "core.tstore"),
    ("repro.core.engine:DttEngine.dispatch_pending", "core.dispatch"),
    ("repro.core.engine:DttEngine.on_tcheck", "core.tcheck"),
    ("repro.core.engine:DttEngine.on_treturn", "core.treturn"),
] + [
    (f"{module}:{cls}.{hook}", "profiling.observer")
    for module, cls in (
        ("repro.profiling.redundancy", "RedundantLoadProfiler"),
        ("repro.profiling.redundancy", "SampledRedundantLoadProfiler"),
        ("repro.profiling.slices", "RedundancyTaintAnalyzer"),
    )
    for hook in ("on_load", "on_store", "on_instruction")
]

#: coarse entry points, each call one span with a parent id
COARSE = [
    ("repro.harness.runner:profile_program", "profiling.profile"),
    ("repro.autoconvert:convert_program", "autoconvert.convert"),
    ("repro.autoconvert.gate:rank_candidates", "autoconvert.rank"),
    ("repro.autoconvert.candidates:discover_candidates",
     "autoconvert.discover"),
    ("repro.autoconvert.gate:synthesize", "autoconvert.synthesize"),
    ("repro.autoconvert.gate:analyze_program", "analysis.analyze"),
    ("repro.analysis.checks:analyze_program", "analysis.analyze"),
    ("repro.analysis.checks:summarize_workload", "analysis.summarize"),
    ("repro.exec.plan:build_plan", "exec.plan"),
    ("repro.obs.manifest:RunManifest.from_runner", "obs.manifest"),
]

#: workload methods timed as ``workloads.build`` on every class that
#: defines them (the suite and the experiment-only workloads)
WORKLOAD_METHODS = ("make_input", "build_baseline", "build_dtt",
                    "build_dtt_watch")


def _experiment_wrap(tracer, name, fn):
    """``run_experiment(experiment_id, ...)`` as ``<name>.<id>`` spans."""
    def wrapper(experiment_id, *args, **kwargs):
        with tracer.span(f"{name}.{experiment_id.upper()}"):
            return fn(experiment_id, *args, **kwargs)
    return wrapper


def _store_wrap(tallies, tracer, name, fn):
    """Store get/put spans that also count the payload bytes moved."""
    def wrapper(store, spec, *args, **kwargs):
        with tracer.span(name):
            result = fn(store, spec, *args, **kwargs)
        payload = (args[0] if name.endswith(".put")
                   else (result or {}).get("payload"))
        if payload is not None:
            tallies["store_bytes"] += len(
                json.dumps(payload, separators=(",", ":")))
        return result
    return wrapper


def _timed_wrap(tallies, tracer, name, fn):
    """``TimingSimulator.run`` spans that also sum the retired
    instructions and simulated cycles (the timed-path ratio bases)."""
    def wrapper(simulator, *args, **kwargs):
        with tracer.span(name):
            result = fn(simulator, *args, **kwargs)
        tallies["timed_instructions"] += result.instructions
        tallies["cycles"] += result.cycles
        return result
    return wrapper


def new_tallies() -> Dict[str, int]:
    """Counters the wrappers fill besides the spans themselves."""
    return {"timed_instructions": 0, "cycles": 0, "store_bytes": 0}


def targets(workload_classes, tallies: Dict[str, int]) -> List[tuple]:
    """Every ``(target, name, kind[, wrap])`` the traced pass installs;
    ``tallies`` (from :func:`new_tallies`) receives their counts."""
    out = [(target, name, "hot") for target, name in HOT]
    out += [(target, name, "coarse") for target, name in COARSE]
    out += [
        ("repro.timing.system:TimingSimulator.run", "timing.run", "coarse",
         partial(_timed_wrap, tallies)),
        ("repro.harness.cli:run_experiment", "harness.experiment",
         "coarse", _experiment_wrap),
        ("repro.exec.store:ResultStore.get", "exec.store.get", "coarse",
         partial(_store_wrap, tallies)),
        ("repro.exec.store:ResultStore.put", "exec.store.put", "coarse",
         partial(_store_wrap, tallies)),
    ]
    for cls in workload_classes:
        for method in WORKLOAD_METHODS:
            if method in vars(cls):
                out.append((f"{cls.__module__}:{cls.__name__}.{method}",
                            "workloads.build", "coarse"))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

#: layer groups for the self-time breakdown, by span name prefix; hot
#: counters belong to "timed path" inside a ``timing.run`` span and to
#: "functional + observers" anywhere else
GROUPS = {
    "timed path": ("timing.",),
    "functional + observers": ("profiling.",),
    "analysis + autoconvert": ("analysis.", "autoconvert."),
    "store + harness + obs": ("exec.", "harness.", "obs."),
    "workload builds": ("workloads.",),
}

#: names whose ``.calls`` are reported even when zero on a workload
CALL_NAMES = ("timing.run", "timing.cycle", "machine.step", "machine.run",
              "cache.access", "timing.branch", "core.tstore",
              "core.dispatch", "core.tcheck", "core.treturn",
              "profiling.profile", "profiling.observer", "analysis.analyze",
              "exec.store.get", "exec.store.put", "workloads.build")

#: names whose inclusive ``.s`` is reported
INCLUSIVE_NAMES = ("timing.run", "profiling.profile", "autoconvert.discover",
                   "autoconvert.rank", "autoconvert.synthesize",
                   "autoconvert.convert", "analysis.analyze",
                   "analysis.summarize", "exec.plan", "exec.store.get",
                   "exec.store.put", "obs.manifest", "workloads.build")

#: names whose ``.self_s`` is reported
SELF_NAMES = ("timing.run", "timing.cycle", "machine.step", "machine.run",
              "cache.access", "timing.branch", "core.tstore",
              "core.dispatch", "profiling.observer", "autoconvert.convert")

EXPERIMENT_IDS = tuple(f"E{n}" for n in range(1, 10))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], pass_s: float, tallies: Dict,
                  retired: int, runner_stats: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Ratio bases: ``tallies["timed_instructions"]`` (instructions retired
    inside timing runs), ``retired`` minus those (instructions retired by
    functional machines) and ``tallies["cycles"]`` (simulated cycles of
    timing runs).  Every listed name is reported, 0 when the layer did
    no work on this workload.
    """
    totals = layer_totals(spans)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    metrics: Dict[str, float] = {}
    for name in CALL_NAMES:
        metrics[f"{name}.calls"] = get(name, "calls")
    for name in INCLUSIVE_NAMES:
        metrics[f"{name}.s"] = get(name, "s")
    for name in SELF_NAMES:
        metrics[f"{name}.self_s"] = get(name, "self_s")
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"harness.experiment.{experiment_id}.s"] = get(
            f"harness.experiment.{experiment_id}", "s")
    timed = tallies["timed_instructions"]
    functional = retired - timed
    metrics["timing.instr_per_s"] = ratio(timed, get("timing.run", "s"))
    metrics["machine.step_per_instr"] = ratio(get("machine.step", "calls"),
                                              retired)
    metrics["cache.access_per_instr"] = ratio(get("cache.access", "calls"),
                                              timed)
    metrics["core.dispatch_per_cycle"] = ratio(
        get("core.dispatch", "calls"), tallies["cycles"])
    metrics["profiling.observer_per_instr"] = ratio(
        get("profiling.observer", "calls"), functional)
    metrics["exec.store.bytes"] = tallies["store_bytes"]
    metrics["harness.runner.executed"] = runner_stats.get("misses", 0)
    metrics["harness.runner.memo_hits"] = runner_stats.get("hits", 0)
    metrics["trace.other_s"] = get("pass", "self_s")
    metrics["trace.pass_s"] = pass_s
    return metrics


def unit(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name.endswith(".calls") or name.startswith("harness.runner."):
        return "count"
    if name.endswith("_per_instr") or name.endswith("_per_cycle"):
        return "ratio"
    if name.endswith("instr_per_s"):
        return "1/s"
    if name == "exec.store.bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "s"


def is_work_counter(name: str) -> bool:
    """Does ``name`` count work (so it must repeat exactly across passes
    of the same workload and seed)?"""
    return (name.endswith(".calls") or name.endswith("_per_instr")
            or name.endswith("_per_cycle") or name == "exec.store.bytes"
            or name.startswith("harness.runner."))


def group_shares(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer group, plus ``other`` (the pass's own self
    time: code between layer calls)."""
    shares = {group: 0.0 for group in GROUPS}
    shares["other"] = 0.0
    for span in spans:
        group = next((g for g, prefixes in GROUPS.items()
                      if span.name.startswith(prefixes)), "other")
        shares[group] += span.self_s
        hot = ("timed path" if span.name == "timing.run"
               else "functional + observers")
        shares[hot] += sum(row[2] for row in span.counters.values())
    return shares
