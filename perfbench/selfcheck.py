"""Quick self-check of the benchmark: every workload at its tiny size.

    python3 perfbench/selfcheck.py

For each workload it asserts that every check passes, that only
float_probes counts failed operations (the scaling-covariance cases, a
fixed share of each pass, without aborting the run), and that two traced
runs with the same seed report identical counts.  Takes one to two minutes,
most of it in verify_default, which has no smaller size.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
# scaling-covariance cases that fail in one pass: s in {1e-9, 1e-12}, two routes
KNOWN_FAILURES_PER_PASS = {"float_probes": 4}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0)
        # three plain passes at --seconds 0
        expected_failed = 3 * KNOWN_FAILURES_PER_PASS.get(workload, 0)
        if not plain["correct"]:
            problems.append(f"{workload}: a check failed")
        if plain["failed"] != expected_failed:
            problems.append(f"{workload}: {plain['failed']} failed, want {expected_failed}")
        first, second = run(workload, 1), run(workload, 1)
        if set(first["metrics"]) != per_layer:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        if counts(first) != counts(second):
            diff = {k: (v, counts(second)[k]) for k, v in counts(first).items()
                    if counts(second)[k] != v}
            problems.append(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}, {len(counts(first))} counts repeat: "
              f"{counts(first) == counts(second)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
