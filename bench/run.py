"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run; the last line of standard output is always one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
package is not installed: ``src/`` goes on the path of this process and
of every child it starts.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")  # generated files live here while a run lasts

END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "automaton.parse_us": "us",
    "automaton.parse_lines": "count",
    "automaton.compose_ms": "ms",
    "automaton.compose_states": "count",
    "automaton.minimize_ms": "ms",
    "automaton.minimize_states_in": "count",
    "automaton.minimize_states_out": "count",
    "automaton.inverse_ms": "ms",
    "automaton.equivalent_ms": "ms",
    "modmath.stream_ms": "ms",
    "modmath.stream_steps": "count",
    "modmath.kernel_us_per_step": "us",
    "modmath.stream_peak_mb": "MB",
    "modmath.series_expand_ms": "ms",
    "decide.transitive_ms": "ms",
    "decide.transitive_steps": "count",
    "decide.transitive_peak_mb": "MB",
    "decide.equal_ms": "ms",
    "decide.conjugate_ms": "ms",
    "decide.rational_ms": "ms",
    "decide.rational_den_degree": "count",
    "oracle.level_ms": "ms",
    "oracle.level_words": "count",
    "oracle.ns_per_word": "ns",
    "oracle.bruteforce_ms": "ms",
    "oracle.conjugate_by_ms": "ms",
    "oracle.conjugate_by_states": "count",
    "trace.overhead_ratio": "ratio",
}
WORKLOADS = ("cli-fixtures", "series-sweep", "rational-forms", "tree-ops")
MEMORY_PASS_S = 3.0  # time budget of the tracemalloc pass
SETUP_REPEATS = 9
SETUP_UNITS = 10  # calibration units timed just before and just after each set-up process, to scale it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", help="run as the worker on these pickled inputs (started by the benchmark itself)")
    p.add_argument("--setup-only", action="store_true", help="with --inputs: set up, then exit (times setup_s)")
    return p.parse_args(argv)


def setup(workload: str, inputs, workdir: str, in_process: bool):
    """Import the program, write and parse the inputs, warm up: everything before timing."""
    import wreathtree  # noqa: F401  (the import is part of set-up)
    import workloads

    ops = workloads.prepare(workload, inputs, workdir, in_process)
    # Warm up on one CLI process, or on every layer once with the fixtures.
    for op in ops[:1] if workload == "cli-fixtures" and not in_process else workloads.warmup_ops():
        try:
            op.call()
        except Exception:  # the timed loop counts and reports the failure
            pass
    return ops


def host_unit(workload: str):
    """The calibration unit a workload's times are scaled by (see harness.py)."""
    import harness

    return harness.PROCESS_UNIT if workload == "cli-fixtures" else harness.PYTHON_UNIT


def worker(args, workdir: str) -> dict:
    """The process whose operations are timed: set up from the pickled inputs, run the loop."""
    import harness

    with open(args.inputs, "rb") as fh:
        inputs = pickle.load(fh)
    ops = setup(args.workload, inputs, workdir, in_process=False)
    del inputs
    if args.setup_only:
        return {}
    loop = harness.run_loop(ops, args.seconds, unit=host_unit(args.workload))
    rss = harness.peak_rss_mb(children=args.workload == "cli-fixtures")
    return {"latencies": loop.latencies, "indices": loop.indices, "calibration": loop.calibration,
            "failed": loop.failed(), "errors": loop.errors[:20], "busy_s": loop.busy_s, "ops": len(ops),
            "peak_rss_mb": rss}


def end_to_end(args, workdir: str):
    """Generate the inputs here, then time set-up and the loop in fresh worker processes.

    The worker holds only the program, its inputs and one operation's
    result at a time, so its peak RSS is not the benchmark's own memory.
    """
    import harness
    import workloads

    t0 = time.perf_counter()
    inputs = workloads.GENERATORS[args.workload](args.seed)
    generate_s = time.perf_counter() - t0
    path = os.path.join(workdir, "inputs.pickle")
    with open(path, "wb") as fh:
        pickle.dump(inputs, fh)
    del inputs
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--inputs", path]
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        units = [harness.PYTHON_UNIT.time() for _ in range(SETUP_UNITS)]
        t0 = time.perf_counter()
        subprocess.run(cmd + ["--setup-only"], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        units += [harness.PYTHON_UNIT.time() for _ in range(SETUP_UNITS)]
        factors.append(harness.PYTHON_UNIT.reference_s / statistics.fmean(units))
    proc = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    res = json.loads(proc.stdout.splitlines()[-1])

    attempted, failed = len(res["latencies"]), res["failed"]
    unit = host_unit(args.workload)
    factors_run = harness.host_factors(res["calibration"], attempted, unit.reference_s)
    lat = harness.latency_metrics(res["latencies"], res["indices"], factors_run)
    raw = harness.latency_metrics(res["latencies"], res["indices"], [1.0] * attempted)
    metrics = {
        "ops_per_s": lat["ops_per_s"],
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_p90_ms": lat["latency_p90_ms"],
        "setup_s": statistics.median(t * f for t, f in zip(times, factors)),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    print(f"workload = {args.workload}  seed = {args.seed}  loop = closed, 1 caller")
    print(f"inputs generated in {generate_s:.3f} s (benchmark side, not part of setup_s); "
          f"setup_s is the median of {SETUP_REPEATS}: " + ", ".join(f"{t:.3f}" for t in times)
          + " s unscaled, host factors " + ", ".join(f"{f:.3f}" for f in factors))
    units = [t for _, t in res["calibration"]]
    print(f"host speed: {len(units)} calibration units, mean {statistics.fmean(units) * 1e3:.4f} ms "
          f"(reference {unit.reference_s * 1e3:g} ms); sample factors "
          f"{min(factors_run):.3f}-{max(factors_run):.3f}")
    print("unscaled: " + ", ".join(f"{k} = {raw[k]:.6g}" for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")))
    print(f"samples = {attempted} ops in {res['busy_s']:.3f} s of op time "
          f"({attempted / res['ops']:.2f} passes of {res['ops']} ops, each op run at least {lat['fewest_runs']} times)")
    print(f"latencies are per-op means of scaled runs: {lat['ops']} ops, {lat['beyond_p90']} beyond p90")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    return attempted, failed, res["errors"], metrics


def traced(args, workdir: str):
    import harness
    import tracing
    import workloads

    ops = setup(args.workload, workloads.GENERATORS[args.workload](args.seed), workdir, in_process=True)
    probe = workloads.probe_ops()
    tracer = tracing.Tracer()
    plain, loop = tracing.paired_loop(ops, tracer, args.seconds)
    probe_loop = tracing.run_probe(probe, tracer)
    memory = tracing.Tracer()
    memory.memory = True
    uninstall = tracing.install(memory)
    try:
        harness.run_loop(probe, 0.0, count=len(probe))
        deadline = time.perf_counter() + MEMORY_PASS_S
        for op in ops:
            if time.perf_counter() > deadline:
                break
            op.call()
    finally:
        uninstall()

    env = workloads.cli_env()
    interp = tracing.python_ms("pass", env, ROOT, 5)
    imported = tracing.python_ms("import wreathtree.cli", env, ROOT, 5)
    kernel = next(s for s in tracer.spans
                  if s.name == "modmath.coefficient_stream" and s.op == ("probe", workloads.KERNEL_OP))
    metrics = tracing.layer_metrics(tracer.spans, memory.spans, kernel, workloads.KERNEL_STEPS,
                                  interp, imported, loop.busy_s / plain.busy_s)
    failed = 0
    attempted = 0
    errors = []
    for lp in (plain, loop, probe_loop):
        failed += lp.failed()
        attempted += len(lp.latencies)
        errors += lp.errors

    print(f"workload = {args.workload}  seed = {args.seed}  traced ops = {len(loop.latencies)}"
          f"  spans = {len(tracer.spans)}")
    for phase in ("op", "probe"):
        print(f"self time per layer ({'workload ops' if phase == 'op' else 'fixed probe'}):")
        for layer, (self_s, calls) in sorted(tracing.self_times(tracer.spans, phase).items()):
            print(f"  {layer:<10} {self_s * 1e3:12.3f} ms self  {calls:8d} calls")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {PER_LAYER[name]}")
    print(f"failed_ratio = {failed}/{attempted}")
    return attempted, failed, errors, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wreathtree", "__init__.py")):
        print(f"error: no wreathtree sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if args.inputs:
            result = worker(args, workdir)
            if result:
                print(json.dumps(result))
            return 0
        run = traced if args.trace else end_to_end
        attempted, failed, errors, metrics = run(args, workdir)
    for line in errors[:20]:
        print(f"failure: {line}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
