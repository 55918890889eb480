"""Result-store round-trips, corruption recovery, and addressing."""

import json
import os

import pytest

from repro.core.config import DttConfig
from repro.exec.plan import RunSpec
from repro.exec.pool import execute_plan
from repro.exec.store import (ResultStore, StoredEngineView, decode_profile,
                              decode_timed, encode_profile, encode_timed)
from repro.errors import StoreError
from repro.harness.runner import SuiteRunner
from repro.workloads.suite import SUITE


@pytest.fixture(scope="module")
def executed_runner():
    runner = SuiteRunner()
    runner.timed(SUITE["perlbmk"], "dtt")
    runner.profile(SUITE["perlbmk"])
    return runner


def _timed_spec():
    return RunSpec.for_timed("perlbmk", "dtt")


def test_timed_payload_round_trips_exactly(executed_runner, tmp_path):
    spec = _timed_spec()
    result = executed_runner.result_for(spec)
    engine = executed_runner.engine_for(SUITE["perlbmk"], "dtt")
    payload = json.loads(json.dumps(encode_timed(result, engine)))
    restored, view = decode_timed(payload)
    assert restored.cycles == result.cycles
    assert restored.output == result.output
    assert restored.energy == result.energy
    assert restored.engine_summary == result.engine_summary
    assert isinstance(view, StoredEngineView)
    assert view.summary() == engine.summary()
    assert view.queue.depth_high_water == engine.queue.depth_high_water
    rows = engine.status.rows()
    assert set(view.status) == set(rows)
    name = next(iter(rows))
    assert view.status[name].triggers_fired == rows[name].triggers_fired
    assert view.status[name].skip_fraction == rows[name].skip_fraction


def test_profile_payload_round_trips(executed_runner):
    report = executed_runner.profile(SUITE["perlbmk"])
    payload = json.loads(json.dumps(encode_profile(report)))
    restored = decode_profile(payload)
    assert restored.redundant_load_fraction == report.redundant_load_fraction
    assert restored.silent_store_fraction == report.silent_store_fraction
    assert (restored.redundant_computation_fraction
            == report.redundant_computation_fraction)
    assert restored.output == report.output
    assert restored.loads.total_loads == report.loads.total_loads
    assert restored.slices.total_instructions \
        == report.slices.total_instructions
    assert restored.summary() == report.summary()


def test_decode_rejects_malformed_payloads():
    with pytest.raises(StoreError):
        decode_timed({"cycles": 1})
    with pytest.raises(StoreError):
        decode_profile({"name": "x"})


def test_store_get_put_and_addressing(tmp_path, executed_runner):
    store = ResultStore(str(tmp_path / "store"))
    spec = _timed_spec()
    assert store.get(spec) is None
    result = executed_runner.result_for(spec)
    path = store.put(spec, encode_timed(result), elapsed=0.5)
    assert os.path.exists(path)
    assert path == store.path_for(spec)
    entry = store.get(spec)
    assert entry["canonical"] == spec.canonical()
    assert entry["elapsed_seconds"] == 0.5
    restored, _ = decode_timed(entry["payload"])
    assert restored.output == result.output
    # a different config is a different address
    other = RunSpec.for_timed("perlbmk", "dtt",
                              dtt_config=DttConfig(same_value_filter=False))
    assert store.digest(other) != store.digest(spec)
    assert store.get(other) is None


def test_corrupt_entry_is_dropped_and_missed(tmp_path, executed_runner):
    store = ResultStore(str(tmp_path / "store"))
    spec = _timed_spec()
    result = executed_runner.result_for(spec)
    path = store.put(spec, encode_timed(result), elapsed=0.1)
    with open(path, "w") as handle:
        handle.write("{ not json")
    assert store.get(spec) is None           # corrupt file = miss
    assert not os.path.exists(path)          # ... and it self-heals
    assert store.corrupt_entries_dropped == 1


def test_schema_or_identity_mismatch_is_dropped(tmp_path, executed_runner):
    store = ResultStore(str(tmp_path / "store"))
    spec = _timed_spec()
    result = executed_runner.result_for(spec)
    path = store.put(spec, encode_timed(result), elapsed=0.1)
    entry = json.load(open(path))
    entry["store_schema"] = 999
    json.dump(entry, open(path, "w"))
    assert store.get(spec) is None
    assert store.corrupt_entries_dropped == 1


def test_entries_enumeration_sorted(tmp_path, executed_runner):
    store = ResultStore(str(tmp_path / "store"))
    result = executed_runner.result_for(_timed_spec())
    for seed in (5, 1, 3):
        spec = RunSpec.for_timed("perlbmk", "dtt", seed=seed)
        store.put(spec, encode_timed(result), elapsed=0.1)
    names = [entry["canonical"] for entry in store.entries()]
    assert names == sorted(names)
    assert len(store) == 3


def test_timing_hints_ewma(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.timing_hint("mcf:dtt:smt2") is None
    store.record_timing("mcf:dtt:smt2", 4.0)
    assert store.timing_hint("mcf:dtt:smt2") == 4.0
    store.record_timing("mcf:dtt:smt2", 2.0)
    assert store.timing_hint("mcf:dtt:smt2") == 3.0  # alpha = 0.5
    # hints persist across store objects
    again = ResultStore(str(tmp_path / "store"))
    assert again.timing_hint("mcf:dtt:smt2") == 3.0


def test_runner_store_round_trip(tmp_path):
    """A second runner against the same store executes nothing."""
    store_dir = str(tmp_path / "store")
    cold = SuiteRunner(store=store_dir)
    first = cold.timed(SUITE["perlbmk"], "dtt")
    cold_stats = cold.cache_stats()
    assert cold_stats["store_hits"] == 0
    assert cold_stats["store_misses"] == 2  # dtt + its baseline check

    warm = SuiteRunner(store=store_dir)
    second = warm.timed(SUITE["perlbmk"], "dtt")
    warm_stats = warm.cache_stats()
    assert warm_stats["store_hits"] == 1
    assert warm_stats["store_misses"] == 0
    assert warm_stats["misses"] == 0         # zero simulations executed
    assert warm.phase_seconds() == {}        # no wall-clock accrued
    assert second.output == first.output
    assert second.cycles == first.cycles
    # the restored engine view still serves experiment surfaces
    engine = warm.engine_for(SUITE["perlbmk"], "dtt")
    assert engine.summary()["consumes"] > 0
    assert warm.peak_queue_depth() >= 0


def test_runner_recovers_from_corrupted_store_entry(tmp_path):
    store_dir = str(tmp_path / "store")
    cold = SuiteRunner(store=store_dir)
    first = cold.timed(SUITE["perlbmk"], "baseline")
    spec = RunSpec.for_timed("perlbmk", "baseline")
    path = cold.store.path_for(spec)
    with open(path, "w") as handle:
        handle.write("garbage")
    warm = SuiteRunner(store=store_dir)
    second = warm.timed(SUITE["perlbmk"], "baseline")  # re-executes
    assert warm.cache_stats()["store_misses"] == 1
    assert second.output == first.output
    # the re-execution healed the store
    healed = SuiteRunner(store=store_dir)
    healed.timed(SUITE["perlbmk"], "baseline")
    assert healed.cache_stats()["store_hits"] == 1


def test_plan_reads_each_store_entry_once(tmp_path, monkeypatch):
    """A planned run is read once: the serial leg and the nested baseline
    check reuse the plan's lookup instead of reading the entry again."""
    reads = []
    real_get = ResultStore.get

    def counting_get(self, spec):
        reads.append(spec.canonical())
        return real_get(self, spec)

    monkeypatch.setattr(ResultStore, "get", counting_get)
    plan = [RunSpec.for_timed("perlbmk", "dtt"),
            RunSpec.for_timed("perlbmk", "baseline"),
            RunSpec.for_profile("perlbmk")]
    store_dir = str(tmp_path / "store")
    cold = SuiteRunner(store=store_dir)
    execute_plan(plan, cold, jobs=1)
    assert sorted(reads) == sorted(spec.canonical() for spec in plan)
    assert cold.cache_stats()["store_misses"] == 3
    assert cold.cache_stats()["store_hits"] == 0

    reads.clear()
    warm = SuiteRunner(store=store_dir)
    execute_plan(plan, warm, jobs=1)
    assert len(reads) == 3
    assert warm.cache_stats()["store_hits"] == 3
    assert warm.cache_stats()["store_misses"] == 0
