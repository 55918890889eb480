"""The two benchmark workloads, each as one timed *pass* of a real
``dtt-harness`` command, plus the exact-correctness checks of what a
pass produced.

A pass is what a user waits for: ``run-all`` is ``dtt-harness run all
--store <fresh dir>`` and ``convert-all`` is ``dtt-harness convert
--workload all``, both called through ``repro.harness.cli.main`` with
standard output captured.  The checks need the ``SuiteRunner`` the
command builds and the experiment results it prints; :meth:`Pass.
capturing` keeps them by wrapping ``SuiteRunner.__init__`` and the CLI's
``run_experiment`` from outside, as the tracer wraps the layers.

Correctness is checked per *operation*.  One operation is one planned
run (its fingerprint, or its output against the workload's reference
model), one experiment shape check, or one kernel's conversion.  A
failed operation is counted, never raised, so a run reports how much of
what it attempted went wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import contextmanager, redirect_stdout
from typing import Dict, List, Optional

#: the seed every workload uses by default; at this seed results are
#: compared with ``reference.json``, at any other seed each run's output
#: is checked against the workload's reference model
SUITE_SEED = 1234

#: headline paper claims printed beside the measured values (not gated)
PAPER_CLAIMS = {"redundant_loads": 0.78, "max_speedup": 5.9,
                "geomean_speedup": 1.46}


def seed_args(seed: int) -> List[str]:
    """``--seed`` for the command (none at the suite seed, so the default
    seed reproduces ``run all`` exactly)."""
    return [] if seed == SUITE_SEED else ["--seed", str(seed)]


def digest(value) -> str:
    """Short stable hash of a JSON-ready value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def as_json(value):
    """``value`` as it reads back from JSON (tuples become lists), so
    fresh results compare equal to stored ones."""
    return json.loads(json.dumps(value))


def spec_key(spec) -> str:
    """Seed-free identity of a planned run (``workload:build:config``)."""
    return spec.canonical().split(":seed=")[0]


def fingerprint(spec, result) -> Dict:
    """Every number a planned run produced that a paper result rests on."""
    if spec.kind == "profile":
        summary = dict(result.summary())
        summary.pop("name", None)
        return {"instructions": result.instructions, "summary": summary,
                "output": digest(result.output)}
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "main_instructions": result.main_instructions,
        "support_instructions": result.support_instructions,
        "cache": result.cache_stats,
        "branch_lookups": result.branch_lookups,
        "branch_mispredicts": result.branch_mispredicts,
        "dram_accesses": result.dram_accesses,
        "coherence_invalidations": result.coherence_invalidations,
        "energy": result.energy,
        "engine": result.engine_summary,
        "output": digest(result.output),
    }


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Pass:
    """One ``dtt-harness`` command with its output and runner kept."""

    def __init__(self, seed: int, argv: List[str]):
        self.seed = None if seed == SUITE_SEED else seed
        self.argv = argv + seed_args(seed)
        self.status: Optional[int] = None
        self.stdout = ""
        self.runner = None
        #: experiment results in the order the command printed them
        self.results: List = []

    @contextmanager
    def capturing(self):
        """Keep the first ``SuiteRunner`` built and every experiment
        result the CLI prints, for the checks after the pass."""
        from repro.harness import cli
        from repro.harness.runner import SuiteRunner

        init = SuiteRunner.__init__
        run_experiment = cli.run_experiment
        job = self

        def __init__(runner, *args, **kwargs):
            init(runner, *args, **kwargs)
            if job.runner is None:
                job.runner = runner

        def recorded(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            job.results.append(result)
            return result

        SuiteRunner.__init__ = __init__
        cli.run_experiment = recorded
        try:
            yield self
        finally:
            SuiteRunner.__init__ = init
            cli.run_experiment = run_experiment

    def run(self) -> None:
        """The timed part: the command itself (call inside
        :meth:`capturing`)."""
        from repro.harness import cli

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            self.status = cli.main(self.argv)
        self.stdout = buffer.getvalue()


# ---------------------------------------------------------------------------
# run-all
# ---------------------------------------------------------------------------


class SuitePass(Pass):
    """``dtt-harness run all --store STORE_DIR``."""

    def __init__(self, seed: int, store_dir: str):
        super().__init__(seed, ["run", "all", "--store", store_dir])
        self._plan = None

    @property
    def plan(self):
        """The deduplicated run matrix the command executed."""
        if self._plan is None:
            from repro.exec.plan import build_plan
            from repro.harness.experiments import EXPERIMENTS

            self._plan = build_plan(list(EXPERIMENTS), seed=self.seed)
        return self._plan

    def fingerprints(self) -> Dict[str, Dict]:
        """One fingerprint per planned run, plus each experiment's
        printed report."""
        prints = {spec_key(spec): fingerprint(spec,
                                              self.runner.result_for(spec))
                  for spec in self.plan}
        for result in self.results:
            prints[f"report:{result.experiment_id}"] = {
                "output": digest(result.render())}
        return as_json(prints)

    def check(self, tally: Tally, expected: Optional[Dict[str, Dict]]
              ) -> None:
        """Count one operation per planned run and printed report.

        With ``expected`` (the reference fingerprints of the suite seed)
        each must match exactly and every experiment shape check counts
        as one more operation.  At a held-out seed each run's output must
        equal the workload's pure-Python reference output; the shape
        checks, whose bands are calibrated at the suite seed, are
        reported by :meth:`shape_line` instead of counted.
        """
        fingerprints = self.fingerprints()
        if expected is not None:
            for key in sorted(set(expected) | set(fingerprints)):
                tally.check(expected.get(key) == fingerprints.get(key),
                            f"fingerprint mismatch: {key}")
            self.shape_misses(count=tally)
            return
        references: Dict[str, List] = {}
        for spec in self.plan:
            if spec.workload not in references:
                references[spec.workload] = reference_output(
                    spec.workload, self.seed)
            tally.check(self.runner.result_for(spec).output
                        == references[spec.workload],
                        f"output differs from the reference model: "
                        f"{spec_key(spec)}")

    def shape_misses(self, count: Optional[Tally] = None) -> List[str]:
        """Experiment shape checks that do not hold (each one an
        operation of ``count`` when given)."""
        misses = []
        for result in self.results:
            for check in result.checks:
                what = f"{result.experiment_id}: {check.name} ({check.detail})"
                if count is not None:
                    count.check(check.passed, what)
                if not check.passed:
                    misses.append(what)
        return misses

    def shape_line(self) -> str:
        """How many experiment shape checks hold at this pass's seed."""
        total = sum(len(result.checks) for result in self.results)
        misses = self.shape_misses()
        line = f"shape checks: {total - len(misses)}/{total} hold"
        return line + "".join(f"\n  shape miss: {m}" for m in misses)

    def paper_line(self) -> str:
        """Measured vs paper headline numbers (reported, never gated)."""
        from repro.harness.experiments import geometric_mean

        suite = list(self.runner.suite())
        redundant = sum(self.runner.profile(w).redundant_load_fraction
                        for w in suite) / len(suite)
        speedups = [self.runner.speedup(w) for w in suite]
        return (
            f"paper vs measured: redundant loads "
            f"{PAPER_CLAIMS['redundant_loads']:.0%} vs {redundant:.2%}, "
            f"max speedup {PAPER_CLAIMS['max_speedup']}x vs "
            f"{max(speedups):.3f}x, geomean speedup "
            f"{PAPER_CLAIMS['geomean_speedup']}x vs "
            f"{geometric_mean(speedups):.3f}x "
            "(per-benchmark bars are checked for shape only)")


def reference_output(workload: str, seed: Optional[int]) -> List:
    """The workload's pure-Python model output at ``seed``: what every
    baseline, DTT and profiled run of it must print."""
    from repro.exec.plan import resolve_workload

    model = resolve_workload(workload)
    return model.reference_output(model.make_input(seed, None))


# ---------------------------------------------------------------------------
# convert-all
# ---------------------------------------------------------------------------


class ConvertPass(Pass):
    """``dtt-harness convert --workload all``: automatic conversion plus
    the hand-conversion comparison on every suite kernel."""

    def __init__(self, seed: int):
        super().__init__(seed, ["convert", "--workload", "all"])

    def rows(self) -> Dict[str, Dict]:
        """Each kernel's conversion provenance and the lines the command
        printed for it."""
        rows = {row["workload"]: {"provenance": row, "output": []}
                for row in self.runner.autoconvert_provenance()}
        current = None
        for line in self.stdout.splitlines():
            words = line.split()
            if words and words[0] in rows and line.startswith("  "):
                current = words[0]
            if current is not None:
                rows[current]["output"].append(line)
        return rows

    def fingerprints(self) -> Dict[str, Dict]:
        return as_json(self.rows())

    def check(self, tally: Tally, expected: Optional[Dict[str, Dict]]
              ) -> None:
        """One operation per kernel: accepted, a cycle win, and (at the
        suite seed) the exact reference provenance and printed lines."""
        from repro.workloads.suite import workload_names

        fingerprints = self.fingerprints()
        names = set(fingerprints) | set(expected or workload_names())
        for name in sorted(names):
            row = fingerprints.get(name, {}).get("provenance", {})
            accepted = len(row.get("accepted", ()))
            speedup = row.get("speedup", 0.0)
            ok = accepted > 0 and speedup > 1.0
            if expected is not None:
                ok = ok and expected.get(name) == fingerprints.get(name)
            tally.check(ok, f"conversion of {name}: {accepted} accepted, "
                            f"speedup {speedup:.3f}")
