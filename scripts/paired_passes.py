#!/usr/bin/env python3
"""Alternating passes of one benchmark workload on two checkouts.

    python scripts/paired_passes.py --parent ../base --change . --workload exact_assoc
    python scripts/paired_passes.py --parent . --change . --size tiny --pairs 3
    python scripts/paired_passes.py --parent ../base --change . --workload verify_default

For the in-process workloads it starts one persistent worker per checkout.
Each worker imports ``src/`` and ``perfbench/workloads.py`` from its own
checkout, draws the workload's inputs from ``--seed`` and runs one untimed
warm-up pass.  For ``verify_default`` a pass is one fresh
``python -m starprod.cli verify --seed S --out FILE`` child of the
checkout's ``src/``, timed from start to exit, and the warm-up is one
untimed child; ``--size`` does not apply to it.  The two sides then take
turns at single timed passes, the side that goes first switching every
pair, so both meet the same phases of a shared machine.  The script reads
the benchmark's files and edits none of them.

Prints one line per pair (both times and the ratio change / parent), the
number of pairs in which the change was faster, and each side's median and
quartiles; the last line is the same summary as one JSON object.  A pass
that gives a wrong answer (for ``verify_default``: a nonzero exit or a
report that does not pass) stops the run with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("exact_assoc", "float_probes", "q_symmetrized", "verify_default")


def worker(root: Path, workload: str, seed: int, size: str) -> int:
    """Worker side: answer each line on stdin with one timed pass."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import starprod
    import workloads

    where = Path(starprod.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise RuntimeError(f"starprod was imported from {where}, not from {root / 'src'}")
    make, build, run = workloads.WORKLOADS[workload]
    inputs = make(seed, workloads.SIZES[size][workload])
    build(inputs)
    tally = workloads.Tally()
    run(inputs, tally)
    print(json.dumps({"wrong": tally.wrong[:3]}), flush=True)
    for _ in sys.stdin:
        tally = workloads.Tally()
        start = time.perf_counter()
        run(inputs, tally)
        elapsed = time.perf_counter() - start
        print(json.dumps({"seconds": elapsed, "wrong": tally.wrong[:3]}), flush=True)
    return 0


class Worker:
    """One worker process; its first answer is the warm-up's."""

    def __init__(self, name: str, root: Path, args):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} worker exited with code {self.proc.wait()}")
        answer = json.loads(line)
        if answer["wrong"]:
            raise RuntimeError(f"{self.name} answered wrongly: {answer['wrong']}")
        return answer

    def one_pass(self) -> float:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return self.read()["seconds"]

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        self.proc.wait()


class VerifyChildren:
    """One checkout's fresh ``star verify`` children, one per pass; the
    first call of ``read`` runs the untimed warm-up child."""

    def __init__(self, name: str, root: Path, args):
        self.name = name
        self.root = root
        self.seed = args.seed
        self.scratch = tempfile.TemporaryDirectory(prefix=f"paired-{name}-")
        src = str(root.resolve() / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)

    def _child(self) -> float:
        report = Path(self.scratch.name) / "report.json"
        report.unlink(missing_ok=True)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "starprod.cli", "verify", "--seed", str(self.seed),
             "--out", str(report)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        elapsed = time.perf_counter() - start
        passed = report.exists() and json.loads(report.read_text(encoding="utf-8")).get("pass")
        if done.returncode != 0 or passed is not True:
            raise RuntimeError(f"{self.name} verify exited {done.returncode}, report pass "
                               f"{passed}: {done.stderr.strip()[-300:]}")
        return elapsed

    def read(self) -> dict:
        self._child()
        return {"wrong": []}

    def one_pass(self) -> float:
        return self._child()

    def close(self):
        self.scratch.cleanup()


def spread(values) -> dict:
    """Median and quartiles (statistics' exclusive method, as three cuts)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def paired(args) -> dict:
    sides = {}
    try:
        side = VerifyChildren if args.workload == "verify_default" else Worker
        for name in ("parent", "change"):
            sides[name] = side(name, Path(getattr(args, name)), args)
        for side in sides.values():
            side.read()
        times = {"parent": [], "change": []}
        print("pair\tparent_s\tchange_s\tratio")
        for n in range(args.pairs):
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            for name in order:
                times[name].append(sides[name].one_pass())
            parent, change = times["parent"][-1], times["change"][-1]
            print(f"{n}\t{parent:.4f}\t{change:.4f}\t{change / parent:.3f}", flush=True)
    finally:
        for side in sides.values():
            side.close()
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    summary = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "pairs": args.pairs, "parent_s": times["parent"], "change_s": times["change"],
               "change_faster": sum(r < 1 for r in ratios),
               "parent": spread(times["parent"]), "change": spread(times["change"]),
               "ratio": spread(ratios)}
    print(f"change faster in {summary['change_faster']} of {args.pairs} pairs")
    for name in ("parent", "change", "ratio"):
        s = summary[name]
        print(f"{name}\tmedian {s['median']:.4f}\tq1 {s['q1']:.4f}\tq3 {s['q3']:.4f}")
    print(json.dumps(summary))
    return summary


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", choices=WORKLOADS, default="exact_assoc")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--pairs", type=int, default=10)
    # internal: the worker processes started by this script
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.worker and not (args.parent and args.change):
        parser.error("--parent and --change are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(Path(args.worker), args.workload, args.seed, args.size)
    try:
        paired(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
