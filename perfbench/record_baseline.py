"""Record the Figure 1 digests that ``run.py`` checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_baseline.py > perfbench/baseline.json

It runs the ``fig1-encode`` pass and the ``fig1-decode`` set-up and pass
once and prints their stream and decoded-frame digests as JSON keyed by
workload.  Re-record only when a change is meant to alter the codecs'
output.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    from workloads import Checks, Fig1Decode, Fig1Encode, Timer

    out = {}
    for cls in (Fig1Encode, Fig1Decode):
        with Timer() as timer:
            workload = cls(0, Checks(), None, timer)
            workload.setup()
            workload.run_pass(0)
        if workload.checks.failed:
            raise SystemExit(f"{cls.name}: {workload.checks.failures}")
        out[cls.name] = workload.digests
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
