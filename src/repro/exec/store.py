"""The content-addressed on-disk result store.

``SuiteRunner``'s in-memory memo dies with the interpreter; the store is
the persistent backend behind it.  Every completed run is written as one
JSON object file whose name is the SHA-256 of the run's full identity —
workload, build kind, machine configuration, complete DTT-config
fingerprint, seed, scale, and the store schema version — so runs survive
across processes, harness invocations, and CI jobs, and distinct
configurations can never alias.

Layout::

    <root>/
      objects/<aa>/<sha256>.json   # one entry per run
      timings.json                 # EWMA seconds per phase (scheduler hints)

Each entry embeds its own identity and canonical name; ``get`` verifies
them against the requested spec, treats any unreadable / mismatched /
wrong-schema file as absent, and deletes the corrupt file so the next
execution heals the store.  Writes are atomic (temp file + ``os.replace``)
so a killed run never leaves a half-written entry.

The payload codecs round-trip :class:`~repro.timing.stats.TimingResult`
and :class:`~repro.profiling.report.RedundancyReport` through plain JSON
types bit-identically (Python's ``json`` preserves ints exactly and
floats via ``repr``).  DTT runs additionally persist the engine's
per-thread status rows and queue high-water mark, restored as a
:class:`StoredEngineView` so experiments that read engine counters
(E6, E8, E9) work from a warm store without re-simulating.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StoreError
from repro.exec.plan import RunSpec
from repro.obs.manifest import fingerprint_of
from repro.timing.stats import TimingResult

#: EWMA weight of the newest observation when updating timing hints
_TIMING_ALPHA = 0.5


# ---------------------------------------------------------------------------
# restored-object views
# ---------------------------------------------------------------------------


class _QueueView:
    """Stand-in for a ThreadQueue: just the persisted high-water mark."""

    __slots__ = ("depth_high_water",)

    def __init__(self, depth_high_water: int):
        self.depth_high_water = depth_high_water


class _StatusRowView:
    """Read-only stand-in for :class:`~repro.core.status.ThreadStatus`."""

    def __init__(self, name: str, counters: Dict[str, int]):
        self.name = name
        for field, value in counters.items():
            setattr(self, field, value)

    @property
    def skip_fraction(self) -> float:
        return self.clean_consumes / self.consumes if self.consumes else 0.0

    def __repr__(self) -> str:
        return f"_StatusRowView({self.name!r})"


class StoredEngineView:
    """Read-only stand-in for a :class:`~repro.core.engine.DttEngine`
    reconstructed from a store entry: ``summary()``, per-thread
    ``status`` rows, and ``queue.depth_high_water`` — the surfaces the
    experiments read after a run."""

    def __init__(self, summary: Dict[str, int],
                 status_rows: Dict[str, Dict[str, int]], queue_depth: int):
        self._summary = dict(summary or {})
        self.status = {name: _StatusRowView(name, counters)
                       for name, counters in status_rows.items()}
        self.queue = _QueueView(queue_depth)

    def summary(self) -> Dict[str, int]:
        """The engine counters as recorded at store time."""
        return dict(self._summary)

    def __repr__(self) -> str:
        return f"StoredEngineView({sorted(self.status)})"


class _SummaryView:
    """Attribute access over a stored analyzer summary dict."""

    def __init__(self, summary: Dict):
        self._summary = dict(summary)

    def summary(self) -> Dict:
        return dict(self._summary)

    def __getattr__(self, name: str):
        try:
            return self._summary[name]
        except KeyError:
            raise AttributeError(name) from None


class StoredRedundancyReport:
    """Read-only stand-in for
    :class:`~repro.profiling.report.RedundancyReport` reconstructed from
    a store entry; mirrors the attributes E1/E2 read."""

    def __init__(self, name: str, loads_summary: Dict, slices_summary: Dict,
                 output: List, instructions: int,
                 sites: Optional[Dict] = None):
        self.name = name
        #: persisted top-site stats ({"loads": [...], "stores": [...]}),
        #: or None for entries written before store schema v2
        self.sites = sites
        self.loads = _SummaryView(loads_summary)
        # RedundancyReport reads slices.redundant_fraction; the stored
        # summary spells it redundant_computation_fraction — alias both
        slices = dict(slices_summary)
        slices.setdefault("redundant_fraction",
                          slices.get("redundant_computation_fraction", 0.0))
        self.slices = _SummaryView(slices)
        self.output = output
        self.instructions = instructions

    @property
    def redundant_load_fraction(self) -> float:
        return self.loads.redundant_load_fraction

    @property
    def silent_store_fraction(self) -> float:
        return self.loads.silent_store_fraction

    @property
    def redundant_computation_fraction(self) -> float:
        return self.slices.redundant_computation_fraction

    def load_sites(self):
        """Persisted top load sites as live-profiler-shaped stat objects."""
        from repro.profiling.redundancy import LoadSiteStats

        out = []
        for row in (self.sites or {}).get("loads", []):
            stats = LoadSiteStats(row["pc"])
            stats.dynamic = row["dynamic"]
            stats.redundant = row["redundant"]
            out.append(stats)
        return out

    def store_sites(self):
        """Persisted top store sites as live-profiler-shaped stat objects."""
        from repro.profiling.redundancy import StoreSiteStats

        out = []
        for row in (self.sites or {}).get("stores", []):
            stats = StoreSiteStats(row["pc"], row["triggering"])
            stats.dynamic = row["dynamic"]
            stats.silent = row["silent"]
            out.append(stats)
        return out

    def summary(self) -> Dict:
        """The merged load + slice summary, as the live report renders it."""
        merged = self.loads.summary()
        merged.update(self.slices.summary())
        merged.pop("redundant_fraction", None)
        merged["name"] = self.name
        return merged

    def __repr__(self) -> str:
        return (
            f"StoredRedundancyReport({self.name!r}, "
            f"loads={self.redundant_load_fraction:.1%}, "
            f"computation={self.redundant_computation_fraction:.1%})"
        )


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------


def encode_timed(result: TimingResult, engine=None) -> Dict:
    """A timed run as a JSON-ready payload (engine counters included)."""
    payload = {slot: getattr(result, slot) for slot in TimingResult.__slots__}
    if engine is not None:
        payload["engine_status"] = {
            name: row.as_dict() for name, row in engine.status.rows().items()
        }
        payload["engine_queue_depth"] = engine.queue.depth_high_water
    return payload


def decode_timed(payload: Dict) -> Tuple[TimingResult,
                                         Optional[StoredEngineView]]:
    """Rebuild a :class:`TimingResult` (and engine view, if persisted)."""
    try:
        result = TimingResult(**{slot: payload[slot]
                                 for slot in TimingResult.__slots__})
    except (KeyError, TypeError) as error:
        raise StoreError(f"malformed timed payload: {error}") from error
    view = None
    if "engine_status" in payload:
        try:
            view = StoredEngineView(result.engine_summary,
                                    payload["engine_status"],
                                    payload["engine_queue_depth"])
        except (KeyError, TypeError, AttributeError) as error:
            raise StoreError(f"malformed engine payload: {error}") from error
    return result, view


#: per-site stats persisted per profile entry (enough for a top-sites table)
_SITE_LIMIT = 20


def encode_profile(report) -> Dict:
    """A redundancy profile as a JSON-ready payload.

    Live reports (whose ``loads`` is the profiler itself) additionally
    persist their hottest static sites, so the HTML report can render
    top-sites tables from a cold store; stored stand-ins round-trip
    whatever sites they were restored with.
    """
    payload = {
        "name": report.name,
        "loads": report.loads.summary(),
        "slices": report.slices.summary(),
        "output": report.output,
        "instructions": report.instructions,
    }
    loads = report.loads
    if hasattr(loads, "hottest_redundant_loads"):
        payload["sites"] = {
            "loads": [
                {"pc": s.pc, "dynamic": s.dynamic, "redundant": s.redundant}
                for s in loads.hottest_redundant_loads(_SITE_LIMIT)
            ],
            "stores": [
                {"pc": s.pc, "dynamic": s.dynamic, "silent": s.silent,
                 "triggering": s.triggering}
                for s in loads.store_sites()[:_SITE_LIMIT]
            ],
        }
    elif getattr(report, "sites", None):
        payload["sites"] = report.sites
    return payload


def decode_profile(payload: Dict) -> StoredRedundancyReport:
    """Rebuild a profile report view from a stored payload."""
    try:
        return StoredRedundancyReport(
            payload["name"], payload["loads"], payload["slices"],
            payload["output"], payload["instructions"],
            sites=payload.get("sites"),
        )
    except (KeyError, TypeError) as error:
        raise StoreError(f"malformed profile payload: {error}") from error


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class ResultStore:
    """Content-addressed persistent storage of completed runs."""

    #: bump when entry layout or payload encoding changes; old entries
    #: then simply miss (and are rebuilt), never misread
    #: (v2: profile payloads persist per-site top stats for reports)
    SCHEMA_VERSION = 2

    def __init__(self, root: str):
        self.root = root
        self._objects = os.path.join(root, "objects")
        os.makedirs(self._objects, exist_ok=True)
        self._timings_path = os.path.join(root, "timings.json")
        self._timings: Optional[Dict[str, float]] = None
        #: files dropped because they were unreadable or mismatched
        self.corrupt_entries_dropped = 0

    # -- addressing -----------------------------------------------------------

    def digest(self, spec: RunSpec) -> str:
        """The SHA-256 content address of one run spec."""
        identity = dict(spec.identity())
        identity["store_schema"] = self.SCHEMA_VERSION
        return fingerprint_of(identity)

    def path_for(self, spec: RunSpec) -> str:
        """On-disk path of the entry for ``spec`` (whether or not present)."""
        digest = self.digest(spec)
        return os.path.join(self._objects, digest[:2], f"{digest}.json")

    # -- entry I/O ------------------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[Dict]:
        """The stored entry for ``spec``, or None.

        Unreadable, wrong-schema, or identity-mismatched files count as
        misses; the offending file is deleted so the entry is rebuilt on
        the next execution (self-healing).
        """
        path = self.path_for(spec)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._drop(path)
            return None
        if (not isinstance(entry, dict)
                or entry.get("store_schema") != self.SCHEMA_VERSION
                or entry.get("kind") != spec.kind
                or entry.get("canonical") != spec.canonical()
                or "payload" not in entry):
            self._drop(path)
            return None
        return entry

    def put(self, spec: RunSpec, payload: Dict, elapsed: float) -> str:
        """Persist one completed run; returns the entry path."""
        entry = {
            "store_schema": self.SCHEMA_VERSION,
            "kind": spec.kind,
            "canonical": spec.canonical(),
            "identity": spec.identity(),
            "elapsed_seconds": elapsed,
            "payload": payload,
        }
        path = self.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            self._atomic_write(path, json.dumps(entry, separators=(",", ":")))
        except (OSError, TypeError, ValueError) as error:
            raise StoreError(
                f"cannot store {spec.canonical()}: {error}") from error
        return path

    def discard(self, spec: RunSpec) -> None:
        """Remove the entry for ``spec`` if present."""
        self._drop(self.path_for(spec), count=False)

    def _drop(self, path: str, count: bool = True) -> None:
        try:
            os.unlink(path)
            if count:
                self.corrupt_entries_dropped += 1
        except OSError:
            pass

    @staticmethod
    def _atomic_write(path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- enumeration ----------------------------------------------------------

    def entries(self) -> Iterator[Dict]:
        """Every readable entry, sorted by canonical name (for compare)."""
        loaded = []
        for directory, _dirs, files in os.walk(self._objects):
            for filename in files:
                if not filename.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(directory, filename)) as handle:
                        entry = json.load(handle)
                except (OSError, ValueError):
                    continue
                if (isinstance(entry, dict)
                        and entry.get("store_schema") == self.SCHEMA_VERSION
                        and "canonical" in entry):
                    loaded.append(entry)
        loaded.sort(key=lambda e: e["canonical"])
        return iter(loaded)

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # -- scheduler timing hints ----------------------------------------------

    def _load_timings(self) -> Dict[str, float]:
        if self._timings is None:
            try:
                with open(self._timings_path) as handle:
                    data = json.load(handle)
                self._timings = {str(k): float(v) for k, v in data.items()}
            except (OSError, ValueError, AttributeError):
                self._timings = {}
        return self._timings

    def timing_hint(self, phase: str) -> Optional[float]:
        """EWMA seconds previously observed for ``phase`` (or None)."""
        return self._load_timings().get(phase)

    def record_timing(self, phase: str, seconds: float) -> None:
        """Fold one observation into the persistent per-phase EWMA."""
        timings = self._load_timings()
        old = timings.get(phase)
        timings[phase] = seconds if old is None else (
            _TIMING_ALPHA * seconds + (1.0 - _TIMING_ALPHA) * old)
        try:
            self._atomic_write(self._timings_path,
                               json.dumps(timings, sort_keys=True))
        except OSError:
            pass  # hints are best-effort; never fail a run over them

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r})"
