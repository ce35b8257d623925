"""Timing, check accounting and statistics shared by every workload."""

import contextlib
import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# The host-speed scale: the reference task's time on the scale's host.
# It was set near the task's median on a 2-vCPU shared VM; only its
# ratio to the measured task time matters (see README.md, "Host speed").
REFERENCE_TASK_S = 0.020
# a timed block starts with reference-task samples when the last ones
# are older than this, and a longer block is followed by some
PROBE_EVERY_S = 1.0


def reference_task_s(repeats: int = 3) -> list:
    """CPU times of a fixed task that does not use the package: a
    pure-Python loop and small numpy products, the two kinds of work
    the workloads do.  The task runs in this thread (one BLAS thread),
    and its thread CPU time leaves out any time the thread waits for a
    core, so that other processes on the machine, the program's own
    included, do not count as a slow host."""
    import numpy as np
    a0 = np.random.default_rng(0).standard_normal((48, 48)) * 0.1
    times = []
    for _ in range(repeats):
        t0 = time.thread_time()
        acc, table = 0, {}
        for i in range(100_000):
            acc += (i * i) % 7
            table[i & 255] = acc
        a = a0
        for _ in range(300):
            a = np.tanh(a @ a0) + 0.01
        times.append(time.thread_time() - t0)
    return times


def host_factor(samples) -> float:
    """Median reference-task time over REFERENCE_TASK_S: above 1 when
    the host ran slower than the scale's host."""
    return statistics.median(samples) / REFERENCE_TASK_S


class Recorder:
    """Counts ops and checks; times the blocks that run ops.

    Only the program's work runs inside `timed`; preparing inputs and
    checking outputs happen outside, so checks do not move the timings.
    The reference task (`probe`) also runs outside the timed blocks,
    spread over the run, so that the run's times can be put on the
    host-speed scale (`host_factor`).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0
        self.failed_ops = 0
        self.checks = 0
        self.failed_checks = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.latencies = []
        self.counters = {"cache_hits": 0, "cache_lookups": 0,
                         "cli_bytes_written": 0}
        self.failures = []
        self.cycles = []  # (ops, wall s, cpu s) per completed cycle
        self.probes = []  # reference-task times
        self._last_probe = None

    def probe(self):
        self.probes += reference_task_s()
        self._last_probe = time.perf_counter()

    def host_factor(self) -> float:
        return host_factor(self.probes)

    @contextlib.contextmanager
    def timed(self, n_ops: int, sample: bool = True):
        """Run n_ops ops.  With sample, the block's wall time divided by
        n_ops is one latency sample; ops run in a worker pool pass
        sample=False and count toward throughput only."""
        if (self._last_probe is None
                or time.perf_counter() - self._last_probe > PROBE_EVERY_S):
            self.probe()
        if self.tracer is not None:
            self.tracer.op_id += 1
            self.tracer.active = True
        self.ops += n_ops
        ok = True
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            ok = False
            self.failed_ops += n_ops
            self.note("op", traceback.format_exc())
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False
        self.cpu_s += cpu_seconds() - c0
        self.wall_s += dt
        if ok and sample:
            self.latencies.append(dt / n_ops)
        if dt > PROBE_EVERY_S:
            self.probe()

    def fail_ops(self, n: int, why: str):
        """Mark n ops of an already counted block as failed."""
        self.failed_ops += n
        self.note("op", why)

    def check(self, name: str, fn):
        """Run one output check; fn returns a truthy value when it holds."""
        self.checks += 1
        try:
            ok = bool(fn())
            why = f"{name}: check does not hold"
        except Exception:
            ok = False
            why = f"{name}: {traceback.format_exc()}"
        if not ok:
            self.failed_checks += 1
            self.note("check", why)

    def note(self, kind, text):
        self.failures.append(f"{kind}: {text}")
        print(f"perfbench: {kind} failed: {text}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return self.ops + self.checks

    @property
    def failed(self) -> int:
        return self.failed_ops + self.failed_checks


def run_cycles(workload, rec: Recorder, seconds: float):
    """Run whole cycles until the timed work reaches `seconds`.

    A cycle always completes, so every run holds the same mix of ops."""
    k = 0
    while True:
        ops, wall, cpu = rec.ops - rec.failed_ops, rec.wall_s, rec.cpu_s
        try:
            workload.cycle(k, rec)
        except Exception:
            rec.checks += 1
            rec.failed_checks += 1
            rec.note("check", f"cycle {k} did not complete: "
                     f"{traceback.format_exc()}")
            return
        rec.cycles.append((rec.ops - rec.failed_ops - ops,
                           rec.wall_s - wall, rec.cpu_s - cpu))
        k += 1
        if rec.wall_s >= seconds:
            return


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with
    at least ten samples beyond it.  Below twenty samples that percentile
    would lie under the median, so the maximum is returned instead."""
    s = sorted(latencies)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def capture_cli(cli_main, argv, rec: Recorder):
    """Run the package CLI in this process; returns its exit code and
    adds the size of every file it reports as written."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    for line in buf.getvalue().splitlines():
        if line.startswith("wrote "):
            rec.counters["cli_bytes_written"] += os.path.getsize(line[6:])
    return rc


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(root: str, blas_env) -> dict:
    import numpy
    import scipy
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "tweezergate")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {k: os.environ.get(k) for k in blas_env},
    }
