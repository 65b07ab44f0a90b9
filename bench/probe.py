"""Set-up probe: in a fresh interpreter, import erasure_lab.cli and finish one
workload's fixed first operation (`workloads.SETUP_OPS`, the same for every
seed).  Prints one JSON line with both times.

    python3 bench/probe.py <workload>

Exits non-zero if the operation raises or fails its check.
"""

import json
import sys
import time

import program


def main() -> None:
    workload = sys.argv[1]
    start = time.perf_counter()
    program.import_program()
    import_s = time.perf_counter() - start

    import workloads

    with program.scratch_dir() as scratch:
        op = workloads.SETUP_OPS[workload](scratch)
        start = time.perf_counter()
        out = op.run()
        first_op_s = time.perf_counter() - start
        op.check(out)
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s}))


if __name__ == "__main__":
    main()
