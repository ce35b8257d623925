"""tweezergate benchmark: one workload, one seed, one measured run.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload sweep-1mode --seed 1 \\
        --seconds 24 --trace 0

With --trace 0 the run measures the end-to-end metrics with no wrappers
on the package; times are divided by the run's host factor, measured
with a reference task between the timed blocks (harness.host_factor).
With --trace 1 it runs the workload twice in one process with one
worker: once plain, then with a span around every traced public
function (see tracing.py), and reports per-layer calls per op and
self-time shares plus the throughput ratio of the two runs.
Every run checks the program's outputs; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  When
no op completes, that line still comes, with correct false and the
time metrics absent, and the exit code is 1.  A full record
(environment, host factor, unscaled times, tail percentile, failures)
goes to perfbench/_work/results/, spans to perfbench/_work/traces/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-1mode", "pair-table-4ion", "ode-gate", "chain-modes")
# one BLAS thread per process: --jobs 2 then stays within two cores
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SWEEP_JOBS = 2

SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.resolve(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
"""


def measure_setup(src, workload, seed, tiny, repeats):
    """Wall times of fresh interpreters that import the package and
    resolve the workload's inputs, and reference-task times taken
    between them."""
    import harness
    times, probes = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src, HERE, workload,
             str(seed), "1" if tiny else "0"],
            capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        probes += harness.reference_task_s()
    return times, probes


def end_to_end(rec, setup):
    """Returns (metrics, detail, why incomplete or None).

    Times are on the host-speed scale: divided by the host factor of
    the run (or of the set-up phase, for setup_s).  The unscaled
    figures go to the detail record."""
    import harness
    median = statistics.median
    setup_times, setup_probes = setup
    setup_factor = harness.host_factor(setup_probes)
    metrics = {
        "setup_s": (median(setup_times) / setup_factor, "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    detail = {"setup_s_samples": setup_times,
              "setup_host_factor": setup_factor,
              "raw_setup_s": median(setup_times)}
    cycles = [c for c in rec.cycles if c[0] > 0]
    if not cycles or not rec.latencies:
        return metrics, detail, "no op completed; no time per op to report"
    h = rec.host_factor()
    raw = {
        # medians over cycles damp the bursts of a shared machine
        "ops_per_s": median([n / w for n, w, _ in cycles]),
        "op_p50_s": median(rec.latencies),
        "cpu_s_per_op": median([c / n for n, _, c in cycles]),
    }
    tail_s, tail_pct, beyond = harness.tail(rec.latencies)
    raw["op_tail_s"] = tail_s
    metrics.update({
        "ops_per_s": (raw["ops_per_s"] * h, "1/s"),
        "op_p50_s": (raw["op_p50_s"] / h, "s"),
        "op_tail_s": (raw["op_tail_s"] / h, "s"),
        "cpu_s_per_op": (raw["cpu_s_per_op"] / h, "s"),
    })
    detail.update({f"raw_{k}": v for k, v in raw.items()})
    detail.update({
        "host_factor": h,
        "reference_task_samples": len(rec.probes),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "latency_samples": len(rec.latencies)})
    return metrics, detail, None


def per_layer(plain, traced, tracer):
    """Returns (metrics, why incomplete or None).

    Counts are per op completed in the traced pass, and self times are
    shares of its timed wall time.  A pass stops after the cycle that
    reaches its time, so totals would grow with the program's speed;
    per-op figures do not.  A function that a workload never calls
    reads 0 calls and a 0 share."""
    import tracing
    done = [r.ops - r.failed_ops for r in (plain, traced)]
    if not all(done):
        return {}, "no op completed in the plain or the traced pass"
    ops, wall = done[1], traced.wall_s
    metrics = {"trace.traced_s_per_op": (wall / ops, "s")}
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name, (calls, self_s) in tracer.self_times().items():
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_share"] = (self_s / wall, "ratio")
        layer_self[name.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_share"] = (self_s / wall, "ratio")
    # fixed by the workload's design (a cold sweep, then one that reads
    # half its points); a check fails when the cache reads differ
    lookups = traced.counters["cache_lookups"]
    metrics["calibrate.cache_hit_ratio"] = (
        traced.counters["cache_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["cli.bytes_written"] = (
        traced.counters["cli_bytes_written"] / ops, "bytes/op")
    # throughputs on the host-speed scale, as in end_to_end
    rate = [d / r.wall_s * r.host_factor()
            for d, r in zip(done, (plain, traced))]
    metrics["trace.overhead_ratio"] = (rate[1] / rate[0], "ratio")
    return metrics, None


def run(args, run_dir):
    import harness
    import tracing
    import workloads

    make = workloads.WORKLOADS[args.workload]
    recs = []

    def measure(jobs, seconds, tracer=None):
        wl = make(args.seed, tempfile.mkdtemp(dir=run_dir), jobs=jobs,
                  tiny=args.tiny, wrong_reference=args.wrong_reference)
        rec = harness.Recorder(tracer)
        try:
            harness.run_cycles(wl, rec, seconds)
        finally:
            wl.close()
        recs.append(rec)
        return rec

    if args.trace:
        plain = measure(1, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer:
            traced = measure(1, args.seconds / 2, tracer)
        os.makedirs(os.path.join(HERE, "_work", "traces"), exist_ok=True)
        tracer.write(os.path.join(
            HERE, "_work", "traces", f"{args.workload}-seed{args.seed}.json"))
        metrics, incomplete = per_layer(plain, traced, tracer)
        detail = {}
    else:
        jobs = SWEEP_JOBS if args.workload == "sweep-1mode" else 1
        rec = measure(jobs, args.seconds)
        metrics, detail, incomplete = end_to_end(rec, args.setup)
    detail["cycles"] = [r.cycles for r in recs]
    detail["failures"] = [f for r in recs for f in r.failures]
    detail["incomplete"] = incomplete
    return metrics, detail, recs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: small inputs, one setup")
    p.add_argument("--wrong-reference", action="store_true",
                   help="self-test: corrupt one reference value so that "
                        "the output checks must fail")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tweezergate", "__init__.py")):
        print(f"perfbench: no package at {src}/tweezergate; run from the "
              f"repository root", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = "1"

    args.setup = None
    if not args.trace:
        try:
            args.setup = measure_setup(
                src, args.workload, args.seed, args.tiny,
                1 if args.tiny else SETUP_REPEATS)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3

    sys.path.insert(0, src)
    import tweezergate
    if not os.path.abspath(tweezergate.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {tweezergate.__file__}, not the "
              f"package under {src}", file=sys.stderr)
        return 2
    import harness

    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        metrics, detail, recs = run(args, run_dir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": harness.environment(root, BLAS_ENV),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    with open(os.path.join(
            work, "results", f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print("environment " + json.dumps(record["environment"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if "op_tail_percentile" in detail:
        print(f"op_tail_s is p{detail['op_tail_percentile']:.1f} of "
              f"{detail['latency_samples']} samples")
    for name in ("ops_per_s", "op_p50_s", "op_tail_s", "cpu_s_per_op",
                 "setup_s"):
        if f"raw_{name}" in detail:
            print(f"raw_{name} {detail['raw_' + name]} "
                  f"(without the host factor)")
    print(f"failed_ratio {record['failed_ratio']} ({failed}/{attempted})")
    # a broken program still gets its result line, with the failures
    # counted; the metrics it could not produce are absent
    incomplete = detail["incomplete"]
    if incomplete:
        print(f"perfbench: {incomplete}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not incomplete,
                      "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 1 if incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
