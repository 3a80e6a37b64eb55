"""Run one workload of the starprod benchmark and print its metrics.

    python3 perfbench/run.py --workload exact_assoc --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20

Run it from the root of a source checkout: it imports starprod from
``src/`` and exits with code 2 when that is missing.  The workload's inputs
come from ``--seed`` alone.  After set-up the workload repeats whole timed
passes until ``--seconds`` have gone by (at least MIN_PASSES), checks every
answer, and prints as the last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``pass_s`` is the median pass of the run.  ``setup_s`` is the fastest of
SETUP_SAMPLES set-ups: one set-up lasts a fraction of a second, and
interference on a shared machine only ever adds to it.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones: plain passes and passes under the
tracer (tracing.py) take turns, and the spans of the last traced pass are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("exact_assoc", "float_probes", "q_symmetrized", "verify_default")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# set-up is repeated this many times, once here and the rest in fresh processes
SETUP_SAMPLES = 7
# a child process still running this long after the run started is killed,
# so that a hung child cannot keep the run from ending
DEADLINE_S = 150
STARTED = time.perf_counter()


def _time_left() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_starprod():
    sys.path.insert(0, str(SRC))
    import starprod

    where = Path(starprod.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"starprod was imported from {where}, not from {SRC}")


def setup(workload: str, seed: int, size: str):
    """Import starprod and build the workload's catalogs, tables and inputs once.

    Returns (seconds, state): state is the plain-data inputs, or for
    verify_default the number of report rows the run spec implies.
    """
    start = time.perf_counter()
    _import_starprod()
    import workloads

    if workload == "verify_default":
        import starprod.cli  # noqa: F401  (the command users run)
        from starprod.verify import DEFAULT_RUNSPEC

        state = workloads.expected_suite_rows(DEFAULT_RUNSPEC)
    else:
        make, build, _ = workloads.WORKLOADS[workload]
        state = make(seed, workloads.SIZES[size][workload])
        build(state)
    return time.perf_counter() - start, state


def _child_args(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, *extra]


def fastest_setup(args, first: float) -> float:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(_child_args(args, "--setup-probe"), capture_output=True,
                              text=True, timeout=_time_left(), cwd=ROOT, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return min(samples)


def timed_passes(one_pass, seconds: float, min_passes: int):
    times = []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        times.append(one_pass())
    return times


def alternating_passes(plain_pass, traced_pass, seconds: float):
    """Plain and traced passes in turn, so that both meet the same machine phases."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        plain.append(plain_pass())
        traced.append(traced_pass())
    return plain, traced


def _per_layer(reports, timings, traced_times, plain_times, cli_import_s):
    """Counts from the first traced pass, times as medians over traced passes."""
    out = {}
    for name, value in reports[0].items():
        if name.endswith("_s"):
            out[name] = statistics.median(r[name] for r in reports)
        else:
            out[name] = value
    out.update(timings)
    out["cli.import_s"] = cli_import_s
    out["trace.pass_s"] = statistics.median(traced_times)
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(plain_times)
    return out


def _write_spans(args, spans):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


# -- in-process workloads ---------------------------------------------------------


def run_in_process(args, inputs, tally):
    import workloads

    _, _, run = workloads.WORKLOADS[args.workload]

    def one_pass():
        start = time.perf_counter()
        run(inputs, tally)
        return time.perf_counter() - start

    if not args.trace:
        times = timed_passes(one_pass, args.seconds, MIN_PASSES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"pass_s": statistics.median(times), "peak_rss_mb": rss_mb}

    from tracing import Tracer

    tracer = Tracer()
    reports = []

    def traced_pass():
        tracer.reset()
        tracer.install(extra_namespaces=[workloads])
        try:
            elapsed = one_pass()
        finally:
            tracer.uninstall()
        reports.append(tracer.pass_report())
        return elapsed

    plain, traced = alternating_passes(one_pass, traced_pass, args.seconds)
    _write_spans(args, tracer.spans_payload())
    return _per_layer(reports, tracer.scalar_timings(), traced, plain, 0.0)


# -- verify_default: the star command line, one fresh process per pass ----------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_child(cmd):
    """(seconds, exit code, peak RSS in MB) of one child process.

    The child is killed when the run's time is up; its exit code is then
    negative.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(_time_left(), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def _metrics_path(report: Path) -> Path:
    return report.with_name(report.name + ".metrics")


def _check_report(path: Path, code: int, expected_rows: int, first, tally):
    data = path.read_bytes()
    path.unlink()
    report = json.loads(data)
    rows = report.get("suites", [])
    tally.check(code == 0 and report.get("pass") is True
                and report.get("schema") == "starprod/1"
                and len(rows) == expected_rows
                and (first is None or data == first),
                f"verify report: exit {code}, {len(rows)} rows of {expected_rows}, "
                f"identical to first pass: {first is None or data == first}")
    for row in rows:
        tally.check(row.get("pass") is True,
                    f"verify row {row.get('catalog')}/{row.get('probe')}/{row.get('hbar')}")
    return data


def run_verify(args, expected_rows: int, tally):
    first = []
    peak = []
    reports = []

    def one_pass(traced=False):
        report = OUT / f"verify-{os.getpid()}.json"
        if traced:
            cmd = _child_args(args, "--traced-verify", str(report))
        else:
            cmd = [sys.executable, "-m", "starprod.cli", "verify",
                   "--seed", str(args.seed), "--out", str(report)]
        elapsed, code, rss_mb = _run_child(cmd)
        if code < 0:
            for path in (report, _metrics_path(report)):
                path.unlink(missing_ok=True)
            tally.check(False, f"verify killed by signal {-code} after {elapsed:.1f} s")
            return elapsed
        if traced:
            reports.append(json.loads(_metrics_path(report).read_text(encoding="utf-8")))
            _metrics_path(report).unlink()
        if not report.exists():
            tally.check(False, f"verify exited {code} without a report")
        else:
            data = _check_report(report, code, expected_rows, first[0] if first else None, tally)
            if not first:
                first.append(data)
        if not traced:
            peak.append(rss_mb)
        return elapsed

    if not args.trace:
        times = timed_passes(one_pass, args.seconds, MIN_PASSES)
        return {"pass_s": statistics.median(times), "peak_rss_mb": max(peak)}

    plain, traced = alternating_passes(one_pass, lambda: one_pass(traced=True), args.seconds)
    cli_import_s = statistics.median(r.pop("cli.import_s") for r in reports)
    timings = {k: v for k, v in reports[0].items() if k.endswith("_ns")}
    return _per_layer(reports, timings, traced, plain, cli_import_s)


def traced_verify_child(args) -> int:
    """Child side of a traced verify_default pass: the CLI in-process under the tracer."""
    start = time.perf_counter()
    _import_starprod()
    import starprod.cli

    cli_import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        starprod.cli.main(["verify", "--seed", str(args.seed), "--out", args.traced_verify],
                          standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.uninstall()
    metrics = tracer.pass_report()
    metrics.update(tracer.scalar_timings())
    metrics["cli.import_s"] = cli_import_s
    _metrics_path(Path(args.traced_verify)).write_text(json.dumps(metrics), encoding="utf-8")
    _write_spans(args, tracer.spans_payload())
    return code


# -- entry point ------------------------------------------------------------------


def run_one(args) -> dict:
    first_setup, state = setup(args.workload, args.seed, args.size)
    setup_s = fastest_setup(args, first_setup)
    OUT.mkdir(exist_ok=True)
    import workloads

    tally = workloads.Tally()
    if args.workload == "verify_default":
        measured = run_verify(args, state, tally)
    else:
        measured = run_in_process(args, state, tally)
    spec = _benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        measured["setup_s"] = setup_s
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for what in tally.wrong[:10]:
        print(f"WRONG: {what}", file=sys.stderr)
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def run_all(args) -> dict:
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[workload] = result
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    return results


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-check's size")
    # internal: child processes started by this script
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-verify", metavar="REPORT", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starprod" / "__init__.py").is_file():
        print(f"error: no starprod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup(args.workload, args.seed, args.size)[0])
        return 0
    if args.traced_verify:
        return traced_verify_child(args)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
