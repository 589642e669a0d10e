"""fuzzycorr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload transitions --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout against its ``src/``.  Each
workload is a closed loop in this one process: the next operation starts
when the previous one has returned.  Every result is checked against the
closed-form oracle in ``oracle.py``; a result that raises or misses counts
as failed.

A run takes whole rounds of its workload (see ``workloads.py``) and ends
at the round boundary nearest to ``--seconds``, after at least one round.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (throughput, set-up time, peak memory);
operation latencies are printed on ``#`` lines above it.  With
``--trace 1`` the tracer in ``tracing.py`` is installed and the metrics are
per layer.  ``--smoke`` runs a few operations of the
workload instead of a timed run.  Files the program writes go to a
temporary directory inside the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh-process imports per run, half before the timed loop and half after
# it, so their median follows the host's speed over the whole run.
SETUP_SAMPLES = 8
SETUP_CODE = (
    "import time; t = time.perf_counter(); import fuzzycorr, fuzzycorr.cli; "
    "print(repr(time.perf_counter() - t))"
)
MAX_OPS_LISTED = 100
SMOKE_OPS = {"transitions": 3, "profile": 2, "evaluate": 20}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["transitions", "profile", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a few operations with the oracle check, ignoring --seconds")
    return parser.parse_args(argv)


def measure_setup(count):
    """Import time of fuzzycorr and fuzzycorr.cli in `count` fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def git_commit():
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_loop_ms():
    """Median time of a fixed pure-Python loop: how fast this host runs now.

    Shared hosts change speed from minute to minute; this number, printed
    with each result, tells a slow run on a busy host from a slow program.
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def environment():
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "host_loop_ms": round(host_loop_ms(), 3),
    }


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_ops(ops, round_len, seconds, max_ops, tracer):
    """Closed loop over whole rounds, or over `max_ops` operations if given.

    After each round the loop stops if the next round, at the mean round
    time so far, would end further past `seconds` than stopping now falls
    short of it; so a run ends at the round boundary nearest to `seconds`.
    """
    latencies = []
    labels = []
    failures = []
    start = time.perf_counter()
    for op in ops:
        labels.append(op.label)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op():
                    result = op.run()
        except Exception as exc:  # a raising operation is a failed one
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(time.perf_counter() - t0)
            error = op.check(result)
            if error is not None:
                failures.append(f"{op.label}: {error}")
        if max_ops is not None:
            if len(latencies) >= max_ops:
                break
        elif len(latencies) % round_len == 0:
            elapsed = time.perf_counter() - start
            mean_round = elapsed * round_len / len(latencies)
            if elapsed + 0.5 * mean_round >= seconds:
                break
    return latencies, labels, failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fuzzycorr" / "__init__.py").is_file():
        print(f"error: no fuzzycorr sources under {SRC}", file=sys.stderr)
        return 2

    setup = measure_setup(SETUP_SAMPLES // 2)
    sys.path.insert(0, str(SRC))
    import fuzzycorr
    import fuzzycorr.cli  # noqa: F401  (profile operations call fuzzycorr.cli.main)

    import numpy as np

    import workloads
    from tracing import Tracer

    tracer = Tracer().install() if args.trace else None
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        make_ops, round_len = workloads.WORKLOADS[args.workload]
        max_ops = SMOKE_OPS[args.workload] if args.smoke else None
        latencies, labels, failures = run_ops(make_ops(fuzzycorr, rng, tmp), round_len,
                                              args.seconds, max_ops, tracer)
    setup += measure_setup(SETUP_SAMPLES - len(setup))

    attempted = len(latencies)
    busy = sum(latencies)
    ops_per_s = (attempted - len(failures)) / busy
    p50_ms = 1e3 * statistics.median(latencies)
    p90_ms = 1e3 * percentile(latencies, 90)
    print(f"# fuzzycorr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {attempted} operations, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4g}), {busy:.3f} s busy")
    if attempted <= MAX_OPS_LISTED:
        for latency, label in zip(latencies, labels):
            print(f"# op {1e3 * latency:10.1f} ms  {label}")
    for failure in failures:
        print("# FAILED " + failure)
    print(f"# latency over {attempted} operations: p50 {p50_ms:.6g} ms, p90 {p90_ms:.6g} ms")
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "op/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# set-up samples {len(setup)}")
    else:
        metrics = tracer.metrics(attempted)
        metrics["traced.ops_per_s"] = (ops_per_s, "op/s")
        metrics["traced.op_p50_ms"] = (p50_ms, "ms")
        if tracer.missing:
            print("# names not found, counted as 0: " + ", ".join(tracer.missing))
        for name in tracer.unmeasured():
            print(f"# not measured: {name} reads 0 although searches ran")
    for name, (value, unit) in metrics.items():
        print(f"# {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
