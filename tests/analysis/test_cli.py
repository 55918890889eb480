"""CLI surface: dtt-harness analyze exit codes, JSON, baselines.

``analyze`` runs the structural lint checks first, so its output covers
every lint finding as well as the DTT safety checks.
"""

import json

import pytest

from repro.harness.cli import main
from repro.isa.assembler import format_program
from repro.isa.builder import ProgramBuilder


def racy_program_text():
    """An assembly file with one lint error and one uninit-register error."""
    b = ProgramBuilder()
    b.data("ys", [0])
    with b.thread("worker"):
        with b.scratch(2) as (v, out):
            b.la(out, "ys")
            b.st(v, out, 0)      # v never defined
        b.treturn()
    with b.function("main"):
        b.tcheck_thread("worker")
        b.nop()                  # no halt: lint error
    return format_program(b.build())


def clean_program_text():
    b = ProgramBuilder()
    with b.function("main"):
        b.halt()
    return format_program(b.build())


# -- analyze ------------------------------------------------------------------


def test_analyze_clean_workload(capsys):
    assert main(["analyze", "--workload", "mcf"]) == 0
    out = capsys.readouterr().out
    assert "mcf:dtt: 0 error(s), 0 warning(s)" in out
    assert "total: 0 error(s), 0 warning(s) across 1 target(s)" in out


def test_analyze_whole_suite_even_at_fail_on_warning(capsys):
    assert main(["analyze", "--workload", "all",
                 "--fail-on", "warning"]) == 0
    out = capsys.readouterr().out
    assert "mcf:dtt" in out and "equake:dtt" in out


def test_analyze_runs_lint_first(tmp_path, capsys):
    path = tmp_path / "bad.dtt"
    path.write_text(racy_program_text())
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert "no-halt" in out                   # lint finding
    assert "uninitialized-register" in out    # semantic finding


def test_analyze_json_shape(tmp_path, capsys):
    path = tmp_path / "bad.dtt"
    path.write_text(racy_program_text())
    assert main(["analyze", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    target = payload["targets"][0]
    assert target["target"] == "bad.dtt"
    assert "no-halt" in [f["code"] for f in target["findings"]]
    assert target["summary"]["errors"] >= 2
    assert payload["summary"]["errors"] == target["summary"]["errors"]


def test_analyze_clean_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "ok.dtt"
    path.write_text(clean_program_text())
    assert main(["analyze", str(path)]) == 0


def test_write_baseline_then_suppress(tmp_path, capsys):
    path = tmp_path / "bad.dtt"
    path.write_text(racy_program_text())
    baseline = tmp_path / "baseline.json"
    # record the current findings...
    assert main(["analyze", str(path),
                 "--write-baseline", str(baseline)]) == 0
    assert "wrote" in capsys.readouterr().out
    # ...then the same invocation passes against them
    assert main(["analyze", str(path), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # a different target label is NOT covered by those fingerprints
    other = tmp_path / "other.dtt"
    other.write_text(racy_program_text())
    assert main(["analyze", str(other), "--baseline", str(baseline)]) == 1


def test_analyze_rejects_malformed_baseline(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("not json")
    assert main(["analyze", "--workload", "mcf",
                 "--baseline", str(bad)]) == 2


@pytest.mark.parametrize("argv, message", [
    (["missing.dtt"], "cannot load"),
    (["--workload", "nope"], "unknown workload"),
    ([], "nothing to check"),
], ids=["unreadable-program", "unknown-workload", "no-target"])
def test_analyze_rejects_unusable_target(argv, message, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # so missing.dtt really is missing
    assert main(["analyze", *argv]) == 2
    assert message in capsys.readouterr().out


def test_analyze_against_committed_baseline(capsys):
    # the repo-level gate: the bundled suite is clean under the committed
    # (empty) baseline even with warnings promoted to failures
    assert main(["analyze", "--workload", "all", "--fail-on", "warning",
                 "--baseline", "benchmarks/analysis_baseline.json"]) == 0
