"""Record the default-seed output digests that every benchmark run checks.

Run from the repository root, only at a commit whose outputs are known good
(a change that alters outputs on purpose re-records and says so):

    python3 perfbench/record_golden.py
"""
from __future__ import annotations

import json
import os
import sys

import workloads as wl
from bench import BLAS_THREAD_VARS, GOLDEN_PATH, WORK_DIR, import_program, run_once


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    main_fn = import_program()["cli"].main
    golden = {}
    for workload in wl.WORKLOADS.values():
        for sized in (workload, workload.smoke()):
            work = WORK_DIR / "golden" / sized.name
            (work / "out").mkdir(parents=True, exist_ok=True)
            trace = None
            if sized.command == "simulate":
                trace = work / "trace.csv"
                wl.write_trace(sized, wl.DEFAULT_SEED, trace)
            rep = run_once(sized, main_fn, wl.DEFAULT_SEED, trace, work / "out")
            if rep.errors:
                print(f"{sized.golden_key()}: {rep.errors}", file=sys.stderr)
                return 1
            golden[sized.golden_key()] = rep.digest
            print(f"{sized.golden_key()} {rep.digest}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
