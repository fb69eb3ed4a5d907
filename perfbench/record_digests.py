#!/usr/bin/env python3
"""Record the reference report digests that the benchmark's correctness gate compares against.

    python3 perfbench/record_digests.py            # seeds 0..15, every workload

Run this only on the commit whose reports are the reference (the seed
import of ffproj); a later change that alters a report must fail the gate,
not re-record it.  One pass per (workload, seed); every op must exit 0 with
its exact flags true.  The spectral workload does not depend on the seed and
is recorded once, under "any".
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets the BLAS thread cap before numpy loads

SEEDS = range(16)


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    from ffproj import cli

    wl = run.wl
    digests = {}
    for workload in run.WORKLOAD_NAMES:
        seeds = ["any"] if workload == "spectral" else SEEDS
        digests[workload] = {}
        for seed in seeds:
            numeric = 0 if seed == "any" else seed
            wl.write_inputs(workload, numeric)
            os.makedirs(wl.OUT_DIR, exist_ok=True)
            client = run.Client(cli, wl.WORKLOADS[workload].make_ops(numeric), None)
            run.Pass(client)
            if client.failed:
                print("\n".join(client.problems), file=sys.stderr)
                return 1
            digests[workload][str(seed)] = client.first_digest
            print(f"recorded {workload} seed {seed}", flush=True)
    table = {
        "float_platform": run.float_platform(),
        "recorded_with": {"python": sys.version.split()[0], "numpy": run.np.__version__,
                          "blas": run._blas_info()},
        "digests": digests,
    }
    with open(run.BENCH_DIR / "reference_digests.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
