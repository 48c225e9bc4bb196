#!/usr/bin/env python3
"""Record golden.json: exit code and --json stdout of every benchmark query,
with each polynomial unscaled.  Run it only at a commit whose outputs are the
reference; the benchmark compares every later run byte for byte.

    python3 perfbench/record_golden.py
"""

import json
import sys

import run
import workloads


def main() -> int:
    for workload in workloads.WORKLOADS:
        run.write_model_files(workload)
    golden = {}
    for name in workloads.QUERIES:
        argv = workloads.Query(name, None, str(run.WORK)).argv
        code, out, err, wall, _ = run.run_child(run.CLI + argv, run.QUERY_TIMEOUT_S)
        if code is None or "Traceback" in err:
            print(f"error: {name} failed: {err.strip()}", file=sys.stderr)
            return 1
        if workloads.dump_json(json.loads(out)) != out:
            print(f"error: {name}: --json output is not in canonical form", file=sys.stderr)
            return 1
        golden[name] = {"exit": code, "stdout": out}
        print(f"{name}: exit {code}, {len(out)} bytes, {wall:.2f} s")
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
