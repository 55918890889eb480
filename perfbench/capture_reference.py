"""Regenerate ``reference.json``: the exact results of every planned
``run all`` run and every ``convert --workload all`` conversion at the
suite seed.  Run from the root of a checkout::

    python3 perfbench/capture_reference.py

Only regenerate when a change is meant to alter simulated results; the
benchmark fails any pass whose results differ from this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    run._import_program()
    import passes

    os.makedirs(run.CACHE, exist_ok=True)
    store = tempfile.mkdtemp(prefix="reference-", dir=run.CACHE)
    tally = passes.Tally()
    try:
        suite = passes.SuitePass(passes.SUITE_SEED, store)
        convert = passes.ConvertPass(passes.SUITE_SEED)
        for job in (suite, convert):
            with job.capturing():
                job.run()
            job.check(tally, None)
        suite.shape_misses(count=tally)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if tally.failed:
        print("\n".join(tally.failures), file=sys.stderr)
        return 1
    reference = {"seed": passes.SUITE_SEED, "runs": suite.fingerprints(),
                 "convert": convert.fingerprints()}
    with open(run.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE)}: "
          f"{len(reference['runs'])} runs, "
          f"{len(reference['convert'])} conversions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
