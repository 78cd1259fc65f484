#!/usr/bin/env python3
"""Regenerate the golden digests: one pass per workload and golden seed.

From the repository root:

    python3 perfbench/make_golden.py [workload ...]

Goldens pin today's outputs byte for byte.  Regenerate them only when a
change alters outputs on purpose, and say so in CHANGES.md.
"""

import json
import shutil
import sys

import run  # fixes the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main(names):
    for name in names or workloads.WORKLOADS:
        workdir = run.OUT / f"golden-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        golden = {}
        try:
            for seed in range(workloads.GOLDEN_SEEDS):
                w = workloads.WORKLOADS[name](seed, workdir)
                w.before_pass()
                golden[str(seed)] = w.digests(w.run())
                print(f"{name} seed {seed}: {len(golden[str(seed)])} digests", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = run.HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
