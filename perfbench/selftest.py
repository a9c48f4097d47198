#!/usr/bin/env python3
"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, must print a last
   line with exactly the keys correct/attempted/failed/metrics, report
   correct outputs, and emit every metric BENCHMARK.json names for that
   mode with its declared unit, and no other metric.
2. Corrupted outputs must be caught: a perturbed makespan in a daemon
   response (a cache hit, a sweep cell, or a miss that only the
   cross-stream check sees) and a changed sweep CSV each make the run
   incorrect with at least one failed operation.

Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "2"


def run(workload, trace, corrupt=None):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        argv += ["--corrupt", corrupt]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{argv} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {result}")
            emitted = result["metrics"]
            for metric in declared:
                got = emitted.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} emitted as "
                                    f"{got}, declared {metric['unit']}")
            extra = set(emitted) - {m["name"] for m in declared}
            if extra:
                failures.append(f"{label}: undeclared metrics {sorted(extra)}")
    for workload, corrupt in (("schedd_mix", "response"),
                              ("schedd_mix", "miss"),
                              ("sweep_faulty_list", "response"),
                              ("sweep_sa", "artifact")):
        result = run(workload, 0, corrupt)
        if result["correct"] or result["failed"] < 1:
            failures.append(f"{workload} --corrupt {corrupt} was not caught: "
                            f"{result}")
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
